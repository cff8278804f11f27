import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phczeeman import (
    ValidationError,
    fourier_coefficient,
    pattern_factors,
    phase_pattern,
    reciprocal_basis,
    sinc,
    t_centered_basis,
)
from oracles import quadrature_fourier_coefficient


class TestPhasePattern:
    def test_cell_center_inside_pixel(self, bands_lattice):
        assert phase_pattern(bands_lattice, 0.0, 0.0) == 0.02

    def test_cell_corner_outside_pixel(self, bands_lattice):
        pitch = bands_lattice.pitch
        assert phase_pattern(bands_lattice, pitch / 2, pitch / 2) == 0.0

    def test_wrapping(self, bands_lattice):
        pitch = bands_lattice.pitch
        assert phase_pattern(bands_lattice, 5 * pitch, -3 * pitch) == 0.02
        assert phase_pattern(bands_lattice, 5.5 * pitch, 0.0) == 0.0

    def test_monte_carlo_fill_fraction(self, bands_lattice):
        rng = np.random.default_rng(42)
        pitch = bands_lattice.pitch
        pts = rng.uniform(-pitch / 2, pitch / 2, size=(2, 1_000_000))
        vals = phase_pattern(bands_lattice, pts[0], pts[1])
        fraction = np.mean(vals == 0.02)
        assert fraction == pytest.approx(0.65, abs=0.002)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-1e-5, 1e-5), st.floats(-1e-5, 1e-5))
    def test_c4v_invariance(self, bands_lattice, x, y):
        p = phase_pattern(bands_lattice, x, y)
        assert phase_pattern(bands_lattice, -x, y) == p
        assert phase_pattern(bands_lattice, y, x) == p
        assert phase_pattern(bands_lattice, x, -y) == p


class TestFourierCoefficient:
    def test_mean_value(self, bands_lattice):
        assert fourier_coefficient(bands_lattice, 0, 0) == pytest.approx(
            0.013, rel=1e-14, abs=0
        )

    def test_first_coefficient_frozen(self, bands_lattice):
        # frozen from 40-digit evaluation of dphi*FF*sinc(pi*sqrt(FF))
        assert fourier_coefficient(bands_lattice, 1, 0) == pytest.approx(
            0.0029350751623181681, rel=1e-13, abs=0
        )

    def test_first_coefficient_vs_quadrature(self, bands_lattice):
        quad = quadrature_fourier_coefficient(bands_lattice, 1, 0)
        assert abs(quad.imag) < 1e-14
        assert fourier_coefficient(bands_lattice, 1, 0) == pytest.approx(
            quad.real, abs=1e-10
        )

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (2, 3), (0, 4), (5, 5)])
    def test_quadrature_agreement(self, bands_lattice, m, n):
        quad = quadrature_fourier_coefficient(bands_lattice, m, n)
        assert abs(fourier_coefficient(bands_lattice, m, n) - quad.real) <= 1e-10

    def test_even_in_each_index(self, bands_lattice):
        for m, n in [(1, 0), (2, 3), (4, 1)]:
            ref = fourier_coefficient(bands_lattice, m, n)
            assert fourier_coefficient(bands_lattice, -m, -n) == ref
            assert fourier_coefficient(bands_lattice, -m, n) == ref
            assert fourier_coefficient(bands_lattice, m, -n) == ref

    def test_swap_symmetry(self, bands_lattice):
        # centered square pixel: phi_{m,n} = phi_{n,m} up to rounding
        for m, n in [(1, 2), (3, 5), (0, 4)]:
            assert fourier_coefficient(bands_lattice, m, n) == pytest.approx(
                fourier_coefficient(bands_lattice, n, m), rel=1e-15, abs=0
            )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30))
    def test_bounded_by_mean(self, bands_lattice, m, n):
        bound = abs(bands_lattice.dphi) * bands_lattice.fill_factor
        assert abs(fourier_coefficient(bands_lattice, m, n)) <= bound * (1 + 1e-15)

    def test_parseval(self, bands_lattice):
        # sum over |m|,|n| <= 50 converges to the cell average of phi^2
        # within 1% (the tail decays only like 1/halfwidth: at halfwidth 20
        # the deviation is still 1.2%)
        s = pattern_factors(bands_lattice, 50)
        depth = bands_lattice.dphi * bands_lattice.fill_factor
        total = float(np.sum(np.outer(depth * s, s)**2))
        target = bands_lattice.dphi**2 * bands_lattice.fill_factor
        assert abs(total - target) / target < 0.01


class TestSinc:
    def test_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_series_branch_frozen(self):
        # frozen from 25-digit evaluation of sin(1e-5)/1e-5
        assert sinc(1e-5) == pytest.approx(0.9999999999833333333, rel=1e-15,
                                           abs=0)

    def test_branch_continuity(self):
        below = sinc(0.99999e-4)
        above = sinc(1.00001e-4)
        assert abs(below - above) < 1e-12

    def test_array_input(self):
        vals = sinc(np.array([0.0, math.pi / 2, math.pi]))
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(2 / math.pi, rel=1e-14, abs=0)
        assert abs(vals[2]) < 1e-15

    def test_odd_symmetry(self):
        assert sinc(-2.5) == sinc(2.5)


class TestReciprocalBasis:
    def test_counts(self):
        assert len(reciprocal_basis(1, 4e-6)) == 9
        assert len(reciprocal_basis(7, 4e-6)) == 225

    def test_lexicographic_order(self):
        basis = reciprocal_basis(1, 4e-6)
        assert [(rv.m, rv.n) for rv in basis] == [
            (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1),
        ]

    def test_deterministic(self):
        a = reciprocal_basis(3, 4e-6)
        b = reciprocal_basis(3, 4e-6)
        assert [(rv.m, rv.n, rv.gx, rv.gy) for rv in a] == [
            (rv.m, rv.n, rv.gx, rv.gy) for rv in b
        ]

    def test_g_consistency(self):
        for rv in reciprocal_basis(2, 4e-6):
            assert rv.gx == 2 * math.pi * rv.m / 4e-6
            assert rv.gy == 2 * math.pi * rv.n / 4e-6

    def test_halfwidth_bound(self):
        with pytest.raises(ValidationError):
            reciprocal_basis(0, 4e-6)

    def test_t_centered_window(self):
        basis = t_centered_basis(2, 4e-6)
        idx = {(rv.m, rv.n) for rv in basis}
        assert len(basis) == 36  # (2*2+2)^2
        # closed under the corner point group: x-mirror m -> -m-1 and swap
        for m, n in idx:
            assert (-m - 1, n) in idx
            assert (n, m) in idx


class TestPatternFourier:
    def test_table_matches_scalar(self, bands_lattice):
        s = pattern_factors(bands_lattice, 6)
        depth = bands_lattice.dphi * bands_lattice.fill_factor
        assert s.shape == (13,)
        for m in range(-6, 7):
            for n in range(-6, 7):
                assert (depth * s[m + 6]) * s[n + 6] == fourier_coefficient(
                    bands_lattice, m, n
                )

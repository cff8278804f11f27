import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phczeeman import (
    ComputationError,
    HermitianMatrix,
    KpModel,
    LatticeSpec,
    RotationSpec,
    build_kpath,
    derive_params,
    eigh,
    fsum_fd_masses,
    fsum_target_masses,
    kp_bands,
    kp_from_opw,
    named_kpoint,
    perturbative_edges,
    t_edges,
    zeeman_splittings_at_T,
)
from phczeeman.constants import HBAR
from phczeeman import kp
from phczeeman.kp import _block_matrices
from oracles import eigh_splittings_at_T, mp_closed_form_total, mp_kp_omegas

ROT0 = RotationSpec(0.0)


@pytest.fixture(scope="module")
def weak_model(weak_lattice):
    return kp_from_opw(perturbative_edges(weak_lattice), weak_lattice)


@pytest.fixture(scope="module")
def bands_model(bands_lattice):
    return kp_from_opw(perturbative_edges(bands_lattice), bands_lattice)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.fixture(scope="module")
def equal_edge_model(weak_lattice):
    dp = derive_params(weak_lattice)
    return KpModel(
        omega_T5=dp.omega0, omega_T1=dp.omega0, omega_T5p=dp.omega0,
        p_interband=dp.p_interband, m_plus=400.0, m_minus=600.0,
        m0=dp.m0, n_refr=weak_lattice.n_refr, pitch=weak_lattice.pitch,
    )


class TestKpFromOpw:
    def test_closed_form_weak_lattice(self, weak_model):
        # frozen from 40-digit evaluation of the square-pixel closed form
        assert weak_model.m_plus == pytest.approx(403.63884435203197,
                                                   rel=1e-12)
        assert weak_model.m_minus == pytest.approx(639.05249437136431,
                                                    rel=1e-12)
        assert weak_model.m_total == pytest.approx(1042.6913387233963,
                                                    rel=1e-12)

    def test_closed_form_matches_mpmath_oracle(self, weak_model,
                                               weak_lattice):
        mp_p, mp_m, mp_t = mp_closed_form_total(weak_lattice)
        assert weak_model.m_plus == pytest.approx(mp_p, rel=1e-12)
        assert weak_model.m_minus == pytest.approx(mp_m, rel=1e-12)
        assert weak_model.m_total == pytest.approx(mp_t, rel=1e-12)

    def test_equal_edges_rejected(self, weak_lattice):
        dp = derive_params(weak_lattice)
        w = dp.omega0
        with pytest.raises(ComputationError, match="ordering"):
            kp_from_opw((w, w, w), weak_lattice)

    def test_wrong_ordering_rejected(self, weak_lattice):
        e = perturbative_edges(weak_lattice)
        with pytest.raises(ComputationError, match="ordering"):
            kp_from_opw((e[2], e[1], e[0]), weak_lattice)


class TestBuildKpHamiltonian:
    """The 4x4 blocks as ``_block_matrices`` builds them."""

    def test_k0_omega0_diagonal(self, weak_model):
        upper, lower = _block_matrices(weak_model, 0.0, 0.0, 0.0)
        expected = np.diag([weak_model.omega_T5p, weak_model.omega_T1,
                            weak_model.omega_T1, weak_model.omega_T5])
        assert np.array_equal(upper, expected.astype(complex))
        assert np.array_equal(lower, expected.astype(complex))

    def test_k0_rotating_eigenvalues(self, weak_model):
        omega_rot = 1000.0
        x = omega_rot / weak_model.n_refr**2
        mt = weak_model.m_total
        upper, lower = _block_matrices(weak_model, 0.0, 0.0, omega_rot)
        exp_upper = np.sort([
            weak_model.omega_T5p - x,
            weak_model.omega_T1 + (mt - 1) * x,
            weak_model.omega_T1 - (mt + 1) * x,
            weak_model.omega_T5 - x,
        ])
        exp_lower = np.sort([
            weak_model.omega_T5p + x,
            weak_model.omega_T1 - (mt - 1) * x,
            weak_model.omega_T1 + (mt + 1) * x,
            weak_model.omega_T5 + x,
        ])
        wu, _ = eigh(HermitianMatrix(upper))
        wl, _ = eigh(HermitianMatrix(lower))
        assert np.allclose(wu, exp_upper, rtol=1e-14)
        assert np.allclose(wl, exp_lower, rtol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5), st.floats(-1e5, 1e5))
    def test_blocks_hermitian(self, weak_model, kx, ky, omega_rot):
        upper, lower = _block_matrices(weak_model, kx, ky, omega_rot)
        assert np.allclose(upper, upper.conj().T, atol=1e-3)
        assert np.allclose(lower, lower.conj().T, atol=1e-3)
        assert np.max(np.abs(upper - upper.conj().T)) == 0.0
        assert np.max(np.abs(lower - lower.conj().T)) == 0.0

    def test_block_conjugacy(self, weak_model):
        # spectra of upper(k, rot) equal spectra of lower(k, -rot)
        rng = np.random.default_rng(17)
        for _ in range(4):
            kx, ky = rng.normal(size=2) * 0.2 * math.pi / weak_model.pitch
            omega_rot = rng.normal() * 1e4
            upper, _ = _block_matrices(weak_model, kx, ky, omega_rot)
            _, lower = _block_matrices(weak_model, kx, ky, -omega_rot)
            wu = np.linalg.eigvalsh(upper)
            wl = np.linalg.eigvalsh(lower)
            assert np.allclose(wu, wl, rtol=1e-12)


class TestKpBands:
    def test_spin_degenerate_without_rotation(self, weak_model):
        kmax = 0.3 * math.pi / weak_model.pitch
        path = np.column_stack([np.linspace(-kmax, 0, 7), np.zeros(7)])
        spec = kp_bands(weak_model, path, ROT0)
        assert spec.omegas.shape == (7, 8)
        for i in range(7):
            wu = spec.omegas[i][spec.blocks[i] == 1]
            wl = spec.omegas[i][spec.blocks[i] == -1]
            assert np.allclose(wu, wl, rtol=1e-12)

    def test_sorted_and_window_flags(self, weak_model):
        kmax = math.pi / weak_model.pitch
        path = np.array([[0.0, 0.0], [0.4 * kmax, 0.0], [0.9 * kmax, 0.0]])
        spec = kp_bands(weak_model, path, ROT0)
        for row in spec.omegas:
            assert np.all(np.diff(row) >= 0)
        assert spec.within_window.tolist() == [True, True, False]

    def test_time_reversal_at_zero_rotation(self, weak_model):
        k = 0.1 * math.pi / weak_model.pitch
        spec = kp_bands(weak_model, [[k, 0.4 * k], [-k, -0.4 * k]], ROT0)
        assert np.allclose(spec.omegas[0], spec.omegas[1], rtol=1e-12)

    def test_path_stack_bit_equal_to_one_point_calls(self, weak_model,
                                                     monkeypatch):
        from phczeeman import kp

        calls = []
        original = kp.eigh

        def counting(h):
            calls.append(np.shape(h.entries))
            return original(h)

        monkeypatch.setattr(kp, "eigh", counting)
        rng = np.random.default_rng(11)
        path = np.concatenate([rng.normal(size=(9, 2)) * 0.3 * math.pi
                               / weak_model.pitch, [[0.0, 0.0], [-0.0, 1e3]]])
        rot = RotationSpec(321.0)
        spec = kp_bands(weak_model, path, rot)
        assert calls == [(11, 4, 4), (11, 4, 4)]
        stacked = _block_matrices(weak_model, path[:, 0], path[:, 1], 321.0)
        for i, k in enumerate(path):
            one = kp_bands(weak_model, k[None, :], rot)
            # bit patterns, so that the sign of a zero counts too
            assert np.array_equal(spec.omegas[i].view(np.uint64),
                                  one.omegas[0].view(np.uint64))
            assert np.array_equal(spec.blocks[i], one.blocks[0])
            upper, lower = _block_matrices(weak_model, k[0], k[1], 321.0)
            assert np.array_equal(stacked[0][i].view(np.uint64),
                                  upper.view(np.uint64))
            assert np.array_equal(stacked[1][i].view(np.uint64),
                                  lower.view(np.uint64))

    def test_equal_edge_dispersion_exact(self, equal_edge_model):
        # degenerate-edge coupling block squares to 2*(p*k)^2 along the axis:
        # branches at kin +- sqrt(2)*(P/m0)*k, each twice
        p_over_m = equal_edge_model.p_interband / equal_edge_model.m0
        for k in (1e3, 1e4, 1e5):
            upper, _ = _block_matrices(equal_edge_model, k, 0.0, 0.0)
            w = np.linalg.eigvalsh(upper)
            kin = HBAR * k * k / (2 * equal_edge_model.m0)
            base = equal_edge_model.omega_T1 + kin
            split = math.sqrt(2) * p_over_m * k
            expected = np.sort([base - split, base - split,
                                base + split, base + split])
            assert np.allclose(w, expected, rtol=1e-12)

    def test_pair_splitting_quadratic_at_small_k(self, weak_model):
        # with distinct edges the twofold midgap pair splits at second order
        shifted = replace(
            weak_model,
            omega_T5=weak_model.omega_T5 - weak_model.omega_T1,
            omega_T1=0.0,
            omega_T5p=weak_model.omega_T5p - weak_model.omega_T1,
        )

        def pair_split(k):
            upper, _ = _block_matrices(shifted, k, 0.0, 0.0)
            w = np.linalg.eigvalsh(upper)
            return w[2] - w[1]

        s1, s2 = pair_split(10.0), pair_split(20.0)
        assert s2 / s1 == pytest.approx(4.0, rel=0.01)


class TestKpBandsPrecision:
    def test_omegas_within_an_ulp_of_mpmath(self, bands_config):
        # the reference config's model, from its T sector edges at h = 7, on
        # 21 points of the default path: solved in detuning units, each
        # omega is the 50-digit one to within an ulp of 2e15 rad/s (solved
        # in absolute units, up to 1.25 rad/s off)
        import mpmath as mp

        lattice = bands_config.lattice
        model = kp_from_opw(t_edges(lattice, 7), lattice)
        t_pt = named_kpoint("T", lattice.pitch)
        kpts = build_kpath(bands_config.kpath, lattice.pitch,
                           bands_config.samples_per_segment)[::6]
        k_rel = np.array([[p.kx - t_pt[0], p.ky - t_pt[1]] for p in kpts])
        assert len(k_rel) == 21
        omegas = kp_bands(model, k_rel, ROT0).omegas
        exact = mp_kp_omegas(model, k_rel, 0.0)
        worst = max(abs(mp.mpf(w) - x) for row, oracle in zip(omegas, exact)
                    for w, x in zip(row.tolist(), oracle))
        assert worst <= 0.25


class TestZeemanSplittings:
    def test_spin_splitting_exact(self, weak_model):
        for omega_rot in (1.0, 1e3, 1e6):
            dws, _ = zeeman_splittings_at_T(weak_model,
                                            omega_rot)
            expected = 2.0 / weak_model.n_refr**2
            assert abs(dws / omega_rot - expected) <= 1e-12 * expected

    def test_orbital_splitting_exact(self, weak_model):
        for omega_rot in (1.0, 1e3):
            _, dwl = zeeman_splittings_at_T(weak_model,
                                            omega_rot)
            expected = 2.0 * weak_model.m_total / weak_model.n_refr**2
            assert dwl / omega_rot == pytest.approx(expected, rel=1e-14)

    def test_weak_lattice_orbital_value(self, weak_model):
        _, dwl = zeeman_splittings_at_T(weak_model, 1.0)
        # frozen: 2*M/n^2 for the closed-form M at dphi = 1e-4
        assert dwl == pytest.approx(167.35409781370467, rel=1e-12)

    def test_zero_rotation_exact_zeros(self, weak_model):
        dws, dwl = zeeman_splittings_at_T(weak_model, 0.0)
        assert dws == 0.0
        assert dwl == 0.0

    def test_sign_flip(self, weak_model):
        plus = zeeman_splittings_at_T(weak_model, 100.0)
        minus = zeeman_splittings_at_T(weak_model, -100.0)
        assert minus[0] == pytest.approx(-plus[0], rel=1e-14, abs=0)
        assert minus[1] == pytest.approx(-plus[1], rel=1e-14)

    def test_stack_bit_equal_to_one_rate_calls(self, weak_model):
        rates = np.array([0.0, -0.0, 1e-300, 1.0, -1.0, 321.0, -1e3, 1e6,
                          -2.5e-3, 0.0])
        dws, dwl = zeeman_splittings_at_T(weak_model, rates)
        assert dws.shape == dwl.shape == rates.shape
        one = np.array([zeeman_splittings_at_T(weak_model, rate)
                        for rate in rates.tolist()])
        # bit patterns, so that the sign of a zero counts too
        assert np.array_equal(dws.view(np.uint64), one[:, 0].view(np.uint64))
        assert np.array_equal(dwl.view(np.uint64), one[:, 1].view(np.uint64))

    def test_stack_keeps_its_shape(self, weak_model):
        rates = np.arange(6.0).reshape(2, 3)
        dws, dwl = zeeman_splittings_at_T(weak_model, rates)
        assert dws.shape == dwl.shape == (2, 3)
        assert dwl[1, 2] == zeeman_splittings_at_T(weak_model, 5.0)[1]

    def test_block_stack_matches_single_blocks(self, weak_model):
        rates = np.array([0.0, 7.0, -3e4])
        upper, lower = _block_matrices(weak_model, 2e3, -1e3, rates)
        assert upper.shape == lower.shape == (3, 4, 4)
        for i, rate in enumerate(rates):
            u, lo = _block_matrices(weak_model, 2e3, -1e3, rate)
            assert np.array_equal(upper[i], u)
            assert np.array_equal(lower[i], lo)

    def test_matches_full_block_diagonalization(self, weak_model):
        omega_rot = 1e3
        x = omega_rot / weak_model.n_refr**2
        mt = weak_model.m_total
        upper, _ = _block_matrices(weak_model, 0.0, 0.0, omega_rot)
        wu, _ = eigh(HermitianMatrix(upper))
        scale = weak_model.omega_T5p
        expected_u = np.sort([
            weak_model.omega_T5 - x,
            weak_model.omega_T1 + (mt - 1) * x,
            weak_model.omega_T1 - (mt + 1) * x,
            weak_model.omega_T5p - x,
        ])
        # full-scale eigenvalues agree with edge + shift at round-off level
        assert np.max(np.abs(wu - expected_u)) <= 4 * np.spacing(scale)
        dws, dwl = zeeman_splittings_at_T(weak_model,
                                          omega_rot)
        assert dws == pytest.approx(2 * x, rel=1e-14)
        assert dwl == pytest.approx(2 * mt * x, rel=1e-14)

    def test_eigenvalues_linear_in_rotation(self, weak_model):
        # the k = 0 rotation part is diagonal, so its eigenvalues are exactly
        # linear in the rotation rate (tested on the zero-edge blocks, where
        # the shifts are not buried under the carrier-scale ulp)
        zero_edge = replace(weak_model, omega_T5=0.0, omega_T1=0.0,
                            omega_T5p=0.0)

        def shifts(omega_rot):
            upper, _ = _block_matrices(zero_edge, 0.0, 0.0, omega_rot)
            return np.linalg.eigvalsh(upper)

        s1 = shifts(500.0)
        s2 = shifts(1000.0)
        assert np.allclose(s2, 2 * s1, rtol=1e-12)
        # slope extraction over any two rates is exact to round-off
        s3 = shifts(250.0)
        assert np.allclose(s1 - s3, s3, rtol=1e-12)


class TestDiagonalRead:
    """``zeeman_splittings_at_T`` reads the k = 0 diagonals; the reference
    is one ``eigh`` per handedness (``oracles.eigh_splittings_at_T``)."""

    # the benchmark's split rates: 1e-2 .. 1e3 rad/s, log-spaced
    BENCH_RATES = [10.0 ** (-2 + 5 * i / 999) for i in range(1000)]

    @staticmethod
    def _unscaled_band(model):
        # LAPACK's zheevd rescales a matrix whose largest entry lies outside
        # [2^-485, 2^485]; the largest k = 0 entry is |omega|(1 + M)/n^2
        scale = model.n_refr ** 2 / (1.0 + model.m_total)
        return 2.0 ** -485 * scale, 2.0 ** 485 * scale

    @pytest.mark.parametrize("model_name", ["bands_model", "weak_model"])
    def test_bit_identical_to_eigh_oracle(self, request, model_name):
        model = request.getfixturevalue(model_name)
        low, high = self._unscaled_band(model)
        assert low < 1e-145 and 1e-2 < 1e3 < high
        rates = np.array([0.0, -0.0, 1e-145, -1e-145, low, -low, high, -high]
                         + self.BENCH_RATES)
        for got, want in zip(zeeman_splittings_at_T(model, rates),
                             eigh_splittings_at_T(model, rates)):
            # bit patterns, so that the sign of a zero counts too
            assert np.array_equal(_bits(got), _bits(want))

    def test_stack_bit_identical_to_oracle(self, weak_model):
        rates = np.array([[0.0, -0.0, 1.0], [-321.0, 1e-145, 1e3]])
        got = zeeman_splittings_at_T(weak_model, rates)
        want = eigh_splittings_at_T(weak_model, rates)
        for a, b in zip(got, want):
            assert a.shape == (2, 3)
            assert np.array_equal(_bits(a), _bits(b))

    def test_outside_unscaled_band(self, bands_model):
        # the oracle's rescaled eigenvalues are up to 1 ulp off the exact
        # diagonal the read returns (at +-1e150 they round back to it on
        # this lattice, and are 1 ulp off on perfbench's seed-12345 one)
        rates = np.array([1e-300, 1e200, -1e308, 1e150, -1e150, 1e-146])
        low, high = self._unscaled_band(bands_model)
        assert np.all((np.abs(rates) < low) | (np.abs(rates) > high))
        dws, dwl = zeeman_splittings_at_T(bands_model, rates)
        for got, want in zip((dws, dwl),
                             eigh_splittings_at_T(bands_model, rates)):
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
        zero_edge = replace(bands_model, omega_T5=0.0, omega_T1=0.0,
                            omega_T5p=0.0)
        upper, lower = _block_matrices(zero_edge, 0.0, 0.0, rates)
        du = upper.diagonal(axis1=-2, axis2=-1).real
        dl = lower.diagonal(axis1=-2, axis2=-1).real
        assert np.array_equal(dws, dl[:, 0] - du[:, 0])
        assert np.array_equal(dws, dl[:, 3] - du[:, 3])
        assert np.array_equal(dwl, du[:, 1] - du[:, 2])

    def test_off_diagonal_entry_raises(self, weak_model, monkeypatch):
        build = kp._block_matrices

        def leaky(*args):
            upper, lower = build(*args)
            lower[..., 1, 2] = lower[..., 2, 1] = 1e-300
            return upper, lower

        monkeypatch.setattr(kp, "_block_matrices", leaky)
        with pytest.raises(ComputationError, match="not diagonal"):
            zeeman_splittings_at_T(weak_model, np.array([0.0, 1.0]))


def _fsum_deviation(model):
    # explicit relative error: pytest.approx's 1e-12 absolute floor would
    # pass any two masses of order m0 ~ 1e-35 kg
    fd = fsum_fd_masses(model)
    target = fsum_target_masses(model)
    return max(abs(a - b) / abs(b) for a, b in zip(fd, target))


class TestFsumRoundTrip:
    def test_roundtrip_consistent_model(self, weak_model):
        assert _fsum_deviation(weak_model) <= 1e-9

    @pytest.mark.filterwarnings("ignore:.*weak-contrast regime")
    @pytest.mark.parametrize("dphi, ff", [
        (0.1, 0.65), (0.05, 0.3), (0.05, 0.65), (1e-5, 0.3), (1e-5, 0.9),
    ])
    def test_roundtrip_across_contrast_and_fill(self, dphi, ff):
        lattice = LatticeSpec(960e-9, 3.53, 4e-6, ff, dphi)
        model = kp_from_opw(perturbative_edges(lattice), lattice)
        assert _fsum_deviation(model) <= 1e-6

    def test_target_masses_signs(self, weak_model):
        m_t5, m_t5p = fsum_target_masses(weak_model)
        assert m_t5 < 0  # inverted band at the corner
        assert m_t5p > 0

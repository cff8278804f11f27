import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phczeeman import (
    ValidationError,
    consistency_ratio,
    derive_params,
    effective_index,
    kp_from_opw,
    m_closed_form,
    pattern_sinc,
    perturbative_edges,
    splittings,
    spread_rms,
    zeeman_result,
    zeeman_splittings_at_T,
)


EPS = np.finfo(float).eps


def _columns(lattice, **column):
    """``lattice`` with one field replaced by an array: a sweep's lattices."""
    return SimpleNamespace(**{**vars(lattice), **column})


class TestClosedForm:
    def test_weak_lattice_values(self, weak_lattice):
        dp = derive_params(weak_lattice)
        m_plus, m_minus = m_closed_form(weak_lattice, dp)
        # frozen from 40-digit evaluation
        assert m_plus == pytest.approx(403.63884435203197, rel=1e-12)
        assert m_minus == pytest.approx(639.05249437136431, rel=1e-12)
        assert m_plus + m_minus == pytest.approx(1042.6913387233963, rel=1e-12)
        assert pattern_sinc(0.65) == pytest.approx(0.22577501248601293,
                                                   rel=1e-13, abs=0)

    def test_prefactor(self, weak_lattice):
        dp = derive_params(weak_lattice)
        s = pattern_sinc(weak_lattice.fill_factor)
        m_plus, _ = m_closed_form(weak_lattice, dp)
        prefactor = m_plus * s * (1 + s)
        assert prefactor == pytest.approx(111.70679537702987, rel=1e-12)

    def test_dphi_scaling_exact(self, weak_lattice):
        dp = derive_params(weak_lattice)
        base = m_closed_form(weak_lattice, dp)
        lattice10 = replace(weak_lattice, dphi=1e-3)
        scaled = m_closed_form(lattice10, derive_params(lattice10))
        assert scaled[0] == pytest.approx(base[0] / 10, rel=1e-14, abs=0)
        assert scaled[1] == pytest.approx(base[1] / 10, rel=1e-14, abs=0)

    def test_pitch_scaling(self, weak_lattice):
        dp4 = derive_params(weak_lattice)
        base = m_closed_form(weak_lattice, dp4)
        lattice6 = replace(weak_lattice, pitch=6e-6)
        scaled = m_closed_form(lattice6, derive_params(lattice6))
        # M scales with P^2 ~ 1/pitch^2 at fixed other parameters
        assert scaled[0] / base[0] == pytest.approx((4 / 6) ** 2, rel=1e-12,
                                                    abs=0)

    def test_homogeneity_in_lengths(self, weak_lattice):
        dp = derive_params(weak_lattice)
        base = m_closed_form(weak_lattice, dp)
        big = replace(weak_lattice, lambda_vac=3 * weak_lattice.lambda_vac,
                      pitch=3 * weak_lattice.pitch)
        scaled = m_closed_form(big, derive_params(big))
        assert scaled[0] == pytest.approx(base[0], rel=1e-12)
        assert scaled[1] == pytest.approx(base[1], rel=1e-12)

    def test_sign_follows_dphi(self, weak_lattice):
        neg = replace(weak_lattice, dphi=-1e-4)
        m_plus, m_minus = m_closed_form(neg, derive_params(neg))
        assert m_plus < 0 and m_minus < 0

    def test_empty_lattice_rejected(self, weak_lattice):
        empty = replace(weak_lattice, dphi=0.0)
        with pytest.raises(ValidationError, match="dphi = 0"):
            m_closed_form(empty, derive_params(empty))

    @pytest.mark.parametrize("change", [
        {"dphi": 1e-300},           # overflows when squared for the spread
        {"dphi": 2.8e-268},         # the prefactor's denominator underflows
        {"fill_factor": 3e-91},     # s rounds to 1, so 1 - s is zero
        {"pitch": 1e200},           # underflows to zero
    ])
    def test_out_of_float_range_rejected(self, weak_lattice, change):
        lattice = replace(weak_lattice, **change)
        with pytest.raises(ValidationError, match="float range"):
            m_closed_form(lattice, derive_params(lattice))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 0.99))
    def test_ordering_for_all_fill_factors(self, weak_lattice, ff):
        lattice = replace(weak_lattice, fill_factor=ff)
        m_plus, m_minus = m_closed_form(lattice, derive_params(lattice))
        assert m_minus > m_plus > 0


class TestSplittings:
    def test_zero_rotation(self):
        assert splittings(403.0, 639.0, 3.53, 0.0) == (0.0, 0.0)

    def test_weak_lattice_at_100(self, weak_lattice):
        dp = derive_params(weak_lattice)
        m_plus, m_minus = m_closed_form(weak_lattice, dp)
        dws, dwl = splittings(m_plus, m_minus, 3.53, 100.0)
        assert dws == pytest.approx(16.050205041369403, rel=1e-13)
        assert dwl == pytest.approx(16735.409781370467, rel=1e-13)

    def test_sign_flip(self):
        plus = splittings(400.0, 600.0, 3.53, 250.0)
        minus = splittings(400.0, 600.0, 3.53, -250.0)
        assert minus[0] == -plus[0]
        assert minus[1] == -plus[1]

    def test_linearity_exact(self):
        a = splittings(400.0, 600.0, 3.53, 1.0)
        b = splittings(400.0, 600.0, 3.53, 2.0)
        assert b[0] == 2 * a[0]
        assert b[1] == 2 * a[1]

    def test_matches_kp_diagonalization_slope(self, weak_lattice):
        model = kp_from_opw(perturbative_edges(weak_lattice), weak_lattice)
        omega_rot = 321.0
        kp_s, kp_l = zeeman_splittings_at_T(model, omega_rot)
        f_s, f_l = splittings(model.m_plus, model.m_minus,
                              weak_lattice.n_refr, omega_rot)
        assert kp_s == pytest.approx(f_s, rel=1e-12)
        assert kp_l == pytest.approx(f_l, rel=1e-12)


class TestSpreadRms:
    def test_weak_lattice_value(self, weak_lattice):
        dp = derive_params(weak_lattice)
        m_plus, m_minus = m_closed_form(weak_lattice, dp)
        spread = spread_rms(m_plus, m_minus, dp.p_interband)
        # frozen: ~0.96 mm, about 240 lattice pitches
        assert spread == pytest.approx(0.00096238079224648141, rel=1e-12,
                                       abs=0)
        assert spread / weak_lattice.pitch == pytest.approx(240.6, rel=1e-3)

    def test_symmetric_case(self, weak_lattice):
        dp = derive_params(weak_lattice)
        from phczeeman.constants import HBAR
        total = 500.0
        spread = spread_rms(total / 2, total / 2, dp.p_interband)
        assert spread == pytest.approx(HBAR * (total / 2) / dp.p_interband,
                                       rel=1e-14, abs=0)

    def test_homogeneity(self, weak_lattice):
        dp = derive_params(weak_lattice)
        assert spread_rms(800.0, 1200.0, dp.p_interband) == pytest.approx(
            2 * spread_rms(400.0, 600.0, dp.p_interband), rel=1e-14, abs=0
        )

    def test_delocalization_regime(self, weak_lattice):
        # spread exceeds the pitch whenever the total orbital parameter > 10
        dp = derive_params(weak_lattice)
        for m_plus, m_minus in [(5.0, 6.0), (6.0, 5.0), (10.0, 1.0)]:
            assert m_plus + m_minus > 10
            assert spread_rms(m_plus, m_minus,
                              dp.p_interband) > weak_lattice.pitch

    def test_invalid_p(self):
        with pytest.raises(ValidationError):
            spread_rms(1.0, 1.0, 0.0)


class TestConsistencyRatio:
    def test_weak_lattice_value(self, weak_lattice):
        dp = derive_params(weak_lattice)
        m_plus, m_minus = m_closed_form(weak_lattice, dp)
        ratio = consistency_ratio(weak_lattice, m_plus, m_minus)
        s = pattern_sinc(0.65)
        assert ratio == pytest.approx(1 / math.sqrt(1 + s * s), rel=1e-12,
                                      abs=0)
        assert ratio == pytest.approx(0.97544759052915484, rel=1e-12, abs=0)

    def test_limit_full_fill(self, weak_lattice):
        lattice = replace(weak_lattice, fill_factor=0.9999)
        m_plus, m_minus = m_closed_form(lattice, derive_params(lattice))
        ratio = consistency_ratio(lattice, m_plus, m_minus)
        assert ratio == pytest.approx(1.0, abs=1e-8)

    def test_independent_of_dphi(self, weak_lattice):
        ratios = []
        for dphi in (1e-5, 1e-3):
            lattice = replace(weak_lattice, dphi=dphi)
            m_plus, m_minus = m_closed_form(lattice, derive_params(lattice))
            ratios.append(consistency_ratio(lattice, m_plus, m_minus))
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12, abs=0)


class TestEffectiveIndex:
    def test_no_rotation(self):
        n_eff = effective_index(3.53, [0, 0, 0], [0, 0, 0], [0, 0, 1],
                                1.96e15, +1)
        assert n_eff == 3.53

    def test_circular_birefringence(self, bands_lattice):
        dp = derive_params(bands_lattice)
        n_eff = effective_index(3.53, [0, 0, 1e3], [0, 0, 0], [0, 0, 1],
                                dp.omega0, +1)
        # frozen: 1e3/(omega0 * n); recovering the shift from n_eff costs up
        # to half an ulp of n = 3.53 (~2e-16 absolute)
        assert n_eff - 3.53 == pytest.approx(1.4437631616207079e-13,
                                             abs=5e-16)

    def test_handedness_sign(self, bands_lattice):
        dp = derive_params(bands_lattice)
        left = effective_index(3.53, [0, 0, 1e3], [0, 0, 0], [0, 0, 1],
                               dp.omega0, +1)
        right = effective_index(3.53, [0, 0, 1e3], [0, 0, 0], [0, 0, 1],
                                dp.omega0, -1)
        assert left - 3.53 == pytest.approx(-(right - 3.53), rel=1e-12, abs=0)

    def test_sagnac_odd_in_tau(self):
        omega_rot = [0.0, 0.0, 1e3]
        r = [0.5, 0.0, 0.0]
        fwd = effective_index(3.53, omega_rot, r, [0, 1, 0], 1.9e15, +1)
        bwd = effective_index(3.53, omega_rot, r, [0, -1, 0], 1.9e15, +1)
        # circular term is even under tau -> -tau here (Omega.tau flips with
        # handedness fixed), path term is odd; check the pure path part
        path_fwd = fwd - 3.53 - 1e3 * 0 / (1.9e15 * 3.53)
        sagnac_fwd = float(np.dot(np.cross(omega_rot, r), [0, 1, 0])) / 2.99792458e8
        assert path_fwd == pytest.approx(sagnac_fwd, rel=1e-9, abs=0)
        assert (bwd - 3.53) == pytest.approx(-(fwd - 3.53), rel=1e-9, abs=0)

    def test_bad_handedness(self):
        with pytest.raises(ValidationError, match="handedness"):
            effective_index(3.53, [0, 0, 0], [0, 0, 0], [0, 0, 1], 1.9e15, 0)

    def test_non_unit_tau(self):
        with pytest.raises(ValidationError, match="unit"):
            effective_index(3.53, [0, 0, 0], [0, 0, 0], [0, 0, 2], 1.9e15, 1)


class TestZeemanResult:
    def test_weak_lattice_bundle(self, weak_lattice):
        res = zeeman_result(weak_lattice)
        assert res.m_total == pytest.approx(1042.6913387233963, rel=1e-12)
        assert res.delta_omega_S_per_Omega == pytest.approx(
            0.16050205041369403, rel=1e-14, abs=0
        )
        assert res.delta_omega_L_per_Omega == pytest.approx(
            167.35409781370467, rel=1e-13
        )
        assert res.spread_rms > weak_lattice.pitch

    def test_exact_spin_ratio(self, weak_lattice):
        res = zeeman_result(weak_lattice)
        assert res.delta_omega_S_per_Omega == 2.0 / 3.53**2
        assert res.delta_omega_L_per_Omega == pytest.approx(
            2.0 * res.m_total / 3.53**2, rel=1e-15, abs=0
        )


class TestColumns:
    """The closed forms over a sweep's column equal a loop over its values."""

    @pytest.mark.parametrize("field, grid", [
        ("dphi", np.geomspace(1e-5, 1e-2, 400)),
        ("dphi", np.linspace(-0.02, -1e-4, 50)),
        ("fill_factor", np.linspace(0.01, 0.99, 200)),
        ("pitch", np.linspace(1e-6, 40e-6, 200)),
    ])
    def test_result_equals_per_value_results(self, weak_lattice, field,
                                             grid):
        res = zeeman_result(_columns(weak_lattice, **{field: grid}))
        one = [zeeman_result(replace(weak_lattice, **{field: value}))
               for value in grid.tolist()]
        for f in fields(res):
            got = np.broadcast_to(getattr(res, f.name), grid.shape)
            want = np.array([getattr(r, f.name) for r in one])
            if field == "pitch":
                # an array of P is squared by multiplication, a float by
                # pow; a last-place difference in P^2 grows to a few ulp
                # downstream (at most 6 seen over 20000 pitches)
                np.testing.assert_allclose(got, want, rtol=8 * EPS, atol=0)
            else:
                assert np.array_equal(got, want), f.name

    def test_dphi_column_keeps_derived_params_scalar(self, weak_lattice):
        dp = derive_params(_columns(weak_lattice, dphi=np.array([1e-4, 2e-4])))
        assert dp == derive_params(weak_lattice)

    def test_pitch_column_derives_elementwise(self, weak_lattice):
        pitches = np.array([3e-6, 4e-6, 5e-6])
        dp = derive_params(_columns(weak_lattice, pitch=pitches))
        assert np.array_equal(dp.p_interband, [
            derive_params(replace(weak_lattice, pitch=p)).p_interband
            for p in pitches.tolist()])

    def test_singular_anywhere_in_column(self, weak_lattice):
        lattice = _columns(weak_lattice, dphi=np.array([-1e-3, 0.0, 1e-3]))
        with pytest.raises(ValidationError, match="singular at dphi = 0$"):
            m_closed_form(lattice, derive_params(lattice))

    def test_float_range_error_names_first_bad_value(self, weak_lattice):
        lattice = _columns(weak_lattice,
                           dphi=np.array([1e-4, 1e-300, 2.8e-268, 1e-3]))
        with pytest.raises(ValidationError) as err:
            m_closed_form(lattice, derive_params(lattice))
        # the same text as for the single lattice at that value
        with pytest.raises(ValidationError) as one:
            single = replace(weak_lattice, dphi=1e-300)
            m_closed_form(single, derive_params(single))
        assert str(err.value) == str(one.value)

    def test_spread_rejects_nonpositive_p_in_column(self):
        with pytest.raises(ValidationError, match="got -1.0$"):
            spread_rms(np.ones(3), np.ones(3), np.array([1.0, -1.0, 0.0]))

    def test_splittings_overflow_silently(self):
        with np.errstate(all="raise"):
            dws, dwl = splittings(400.0, 600.0, 1.0, np.array([1e308, 1.0]))
        assert dws[0] == math.inf and dwl[0] == math.inf
        assert dws[1] == 2.0

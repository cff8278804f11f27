import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phczeeman import (
    ComputationError,
    ConfigError,
    ExperimentConfig,
    HermitianMatrix,
    LatticeSpec,
    RotationSpec,
    ValidationError,
    derive_params,
    eigh,
    load_config,
)
from phczeeman.constants import C
from phczeeman.core import MAX_BASIS_HALFWIDTH, MAX_SAMPLES_PER_SEGMENT


BANDS_JSON = json.dumps(
    {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65, "dphi": 0.02}
)


class TestLoadConfig:
    def test_reference_parameters(self):
        cfg = load_config(BANDS_JSON)
        assert cfg.lattice.lambda_vac == pytest.approx(960e-9, rel=1e-15,
                                                       abs=0)
        assert cfg.lattice.n_refr == 3.53
        assert cfg.lattice.pitch == pytest.approx(4e-6, rel=1e-15, abs=0)
        assert cfg.lattice.fill_factor == 0.65
        assert cfg.lattice.dphi == 0.02

    def test_weak_contrast_parameters(self):
        cfg = load_config(json.dumps(
            {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65,
             "dphi": 1e-4}
        ))
        assert cfg.lattice.dphi == 1e-4
        assert cfg.rotation.omega_z == 0.0

    def test_defaults(self):
        cfg = load_config(BANDS_JSON)
        assert cfg.rotation.omega_z == 0.0
        assert cfg.basis_halfwidth == 7
        assert cfg.kpath == ("G", "Z", "T", "G")
        assert cfg.samples_per_segment == 40

    def test_optional_keys(self):
        cfg = load_config(json.dumps(
            {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65,
             "dphi": 0.02, "omega_rad_s": 100.0, "basis_halfwidth": 9,
             "kpath": "G:T", "samples_per_segment": 5}
        ))
        assert cfg.rotation.omega_z == 100.0
        assert cfg.basis_halfwidth == 9
        assert cfg.kpath == ("G", "T")
        assert cfg.samples_per_segment == 5

    def test_ff_out_of_range(self):
        bad = json.dumps(
            {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 1.2,
             "dphi": 0.02}
        )
        with pytest.raises(ValidationError, match="fill_factor"):
            load_config(bad)

    def test_dphi_hard_error(self):
        bad = json.dumps(
            {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65,
             "dphi": 0.2}
        )
        with pytest.raises(ValidationError, match="dphi"):
            load_config(bad)

    def test_dphi_soft_warning(self):
        doc = json.dumps(
            {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65,
             "dphi": 0.05}
        )
        with pytest.warns(UserWarning, match="weak-contrast") as record:
            load_config(doc)
        assert record[0].filename == __file__
        with pytest.warns(UserWarning, match="weak-contrast") as record:
            LatticeSpec(lambda_vac=960e-9, n_refr=3.53, pitch=4e-6,
                        fill_factor=0.65, dphi=0.05)
        assert record[0].filename == __file__

    def test_fast_rotation_warning_points_at_caller(self):
        doc = json.dumps(
            {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65,
             "dphi": 0.02, "omega_rad_s": 1e12}
        )
        with pytest.warns(UserWarning, match="slow-rotation") as record:
            load_config(doc)
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_dphi_at_soft_limit_no_warning(self, recwarn):
        load_config(BANDS_JSON)
        assert not [w for w in recwarn if "weak-contrast" in str(w.message)]

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            load_config('{"lambda_nm": 960,\n "n": }')

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="pitch_um"):
            load_config('{"lambda_nm": 960, "n": 3.53, "ff": 0.65, "dphi": 0.02}')

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="pitch_nm"):
            load_config(
                '{"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65,'
                ' "dphi": 0.02, "pitch_nm": 4000}'
            )

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="'n'"):
            load_config(
                '{"lambda_nm": 960, "n": "3.53", "pitch_um": 4, "ff": 0.65,'
                ' "dphi": 0.02}'
            )

    def test_pitch_vs_cavity_length(self):
        with pytest.raises(ValidationError, match="cavity length"):
            LatticeSpec(lambda_vac=960e-9, n_refr=1.0, pitch=1e-6,
                        fill_factor=0.65, dphi=0.01)

    @pytest.mark.parametrize("name", ["lambda_vac", "n_refr", "pitch",
                                      "fill_factor", "dphi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_lattice_field(self, name, value):
        fields = dict(lambda_vac=960e-9, n_refr=3.53, pitch=4e-6,
                      fill_factor=0.65, dphi=0.02)
        fields[name] = value
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            LatticeSpec(**fields)

    def test_integer_too_large_for_float(self):
        doc = BANDS_JSON[:-1] + ', "omega_rad_s": ' + "9" * 400 + "}"
        with pytest.raises(ValidationError, match="omega_rad_s"):
            load_config(doc)

    def test_basis_halfwidth_cap(self, bands_lattice):
        # construction only: the config allocates nothing for its basis
        ExperimentConfig(lattice=bands_lattice,
                         basis_halfwidth=MAX_BASIS_HALFWIDTH)
        with pytest.raises(ValidationError, match="basis_halfwidth"):
            ExperimentConfig(lattice=bands_lattice,
                             basis_halfwidth=MAX_BASIS_HALFWIDTH + 1)

    def test_samples_per_segment_cap(self, bands_lattice):
        ExperimentConfig(lattice=bands_lattice,
                         samples_per_segment=MAX_SAMPLES_PER_SEGMENT)
        with pytest.raises(ValidationError, match="samples_per_segment"):
            ExperimentConfig(lattice=bands_lattice,
                             samples_per_segment=MAX_SAMPLES_PER_SEGMENT + 1)


class TestDeriveParams:
    # frozen from a 40-digit mpmath evaluation of the defining formulas
    FROZEN = {
        "k_z": 23103795.973274938,
        "l_z": 2.7195467422096317e-07,
        "m0": 2.8688874057646385e-35,
        "p_interband": 5.8566739160149587e-29,
        "omega0": 1962137049280055.5,
        "v_prefactor": 156141905208333.33,
    }

    def test_reference_values(self, bands_lattice):
        dp = derive_params(bands_lattice)
        for name, expected in self.FROZEN.items():
            assert getattr(dp, name) == pytest.approx(expected, rel=1e-13,
                                                      abs=0), name

    def test_well_depth(self, bands_lattice):
        dp = derive_params(bands_lattice)
        assert dp.v_prefactor * 0.02 == pytest.approx(3.1228381041666667e12,
                                                      rel=1e-13)

    def test_unit_parameter_case(self):
        lattice = LatticeSpec(lambda_vac=1.0, n_refr=1.0, pitch=5.0,
                              fill_factor=0.5, dphi=0.01)
        dp = derive_params(lattice)
        assert dp.l_z == pytest.approx(1.0, rel=1e-15, abs=0)
        assert dp.omega0 == pytest.approx(2.0 * math.pi * C, rel=1e-15)

    def test_carrier_identity(self, bands_lattice):
        from phczeeman.constants import HBAR
        dp = derive_params(bands_lattice)
        assert dp.m0 * C**2 / (dp.eps * HBAR) == pytest.approx(
            dp.omega0, rel=1e-12
        )

    def test_all_positive(self, bands_lattice):
        dp = derive_params(bands_lattice)
        for name in ("k_z", "l_z", "m0", "p_interband", "omega0",
                     "v_prefactor", "z_impedance", "eps", "mu"):
            assert getattr(dp, name) > 0

    def test_impedance_convention(self, bands_lattice):
        dp = derive_params(bands_lattice)
        assert dp.mu == 1.0
        assert dp.eps == pytest.approx(3.53**2, rel=1e-15, abs=0)
        assert dp.z_impedance == pytest.approx(1.0 / 3.53, rel=1e-15, abs=0)

    def test_scale_covariance(self, bands_lattice):
        from dataclasses import replace
        dp1 = derive_params(bands_lattice)
        dp2 = derive_params(replace(bands_lattice,
                                    lambda_vac=2 * bands_lattice.lambda_vac,
                                    pitch=2 * bands_lattice.pitch))
        assert dp2.k_z == pytest.approx(dp1.k_z / 2, rel=1e-15)
        assert dp2.p_interband == pytest.approx(dp1.p_interband / 2,
                                                rel=1e-15, abs=0)
        # dimensionless combinations are invariant
        assert dp2.z_impedance == dp1.z_impedance
        assert dp2.k_z * dp2.l_z == pytest.approx(dp1.k_z * dp1.l_z,
                                                  rel=1e-15, abs=0)

    def test_deterministic(self, bands_lattice):
        a, b = derive_params(bands_lattice), derive_params(bands_lattice)
        assert a == b

    def test_overflow_rejected(self):
        # finite inputs whose wavenumber 2*pi*n/lambda overflows to inf
        lattice = LatticeSpec(lambda_vac=1e-309, n_refr=3.53, pitch=4e-6,
                              fill_factor=0.65, dphi=0.02)
        with pytest.raises(ValidationError, match="k_z must be positive and finite"):
            derive_params(lattice)


class TestRotationSpec:
    def test_default_zero(self):
        assert RotationSpec().omega_z == 0.0

    def test_fast_rotation_warns(self):
        with pytest.warns(UserWarning, match="slow-rotation") as record:
            RotationSpec(1e12)
        assert record[0].filename == __file__

    def test_moderate_rotation_silent(self, recwarn):
        RotationSpec(1e6)
        assert not recwarn

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValidationError, match="omega_z must be finite"):
            RotationSpec(value)


class TestEigh:
    def test_pauli_x(self):
        w, v = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert w == pytest.approx([-1.0, 1.0], abs=1e-15)

    def test_identity(self):
        w, v = eigh(np.eye(4))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    def test_random_hermitian_contract(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
        h = 0.5 * (a + a.conj().T)
        w, v = eigh(h)
        fro = np.linalg.norm(h)
        for i in range(50):
            assert np.linalg.norm(h @ v[:, i] - w[i] * v[:, i]) <= 1e-10 * fro
        assert np.max(np.abs(v.conj().T @ v - np.eye(50))) <= 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_trace_preservation(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(30, 30))
        h = 0.5 * (a + a.T)
        w, _ = eigh(h)
        assert np.sum(w) == pytest.approx(np.trace(h), rel=1e-10)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(40, 40))
        h = 0.5 * (a + a.T)
        w1, v1 = eigh(h.copy())
        w2, v2 = eigh(h.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValidationError, match="Hermitian"):
            eigh(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value, recwarn):
        with pytest.raises(ComputationError, match="non-finite value"):
            HermitianMatrix(np.array([[1.0, value], [value, 1.0]]))
        assert not [w for w in recwarn if issubclass(w.category,
                                                     RuntimeWarning)]

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            HermitianMatrix(np.zeros((2, 3)))

    def test_hermitian_matrix_dim(self):
        h = HermitianMatrix(np.eye(3))
        assert h.dim == 3

    def test_accepts_wrapper(self):
        h = HermitianMatrix(np.diag([2.0, 1.0]))
        w, _ = eigh(h)
        assert w == pytest.approx([1.0, 2.0])

    def test_stack_bit_identical_to_per_matrix_calls(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
        stack = 0.5 * (a + np.swapaxes(a, -2, -1).conj())
        w, v = eigh(HermitianMatrix(stack))
        assert w.shape == (6, 5) and v.shape == (6, 5, 5)
        for i, h in enumerate(stack):
            wi, vi = eigh(h)
            assert np.array_equal(w[i], wi)
            assert np.array_equal(v[i], vi)

    def test_stack_non_finite_member_rejected(self):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 0, 1] = stack[2, 1, 0] = math.inf
        with pytest.raises(ComputationError,
                           match=r"non-finite value \(3x3\)"):
            HermitianMatrix(stack)

    def test_stack_non_hermitian_member_rejected(self):
        # the defect of the second matrix is 1e-16 of the first one's scale
        # but 1e-6 of its own, so only a per-matrix scale rejects it
        stack = np.stack([1e10 * np.eye(2), np.eye(2)])
        stack[1, 0, 1] = 1e-6
        with pytest.raises(ValidationError,
                           match="defect 1.000e-06 .* scale 1.000e\\+00"):
            HermitianMatrix(stack)

    def test_stack_of_hermitian_matrices_accepted(self):
        h = HermitianMatrix(np.stack([np.eye(3), 2.0 * np.eye(3)]))
        assert h.dim == 3 and h.entries.shape == (2, 3, 3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(0, 2**31 - 1))
    def test_eigh_property(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (a + a.conj().T)
        w, v = eigh(h)
        fro = max(np.linalg.norm(h), 1e-300)
        assert np.linalg.norm(h @ v - v @ np.diag(w)) <= 1e-10 * fro * dim
        assert np.all(np.diff(w) >= 0)
        assert np.sum(w) == pytest.approx(np.trace(h).real,
                                          rel=1e-9, abs=1e-12 * fro)


class TestComputationError:
    def test_is_runtime_error(self):
        assert issubclass(ComputationError, RuntimeError)

    def test_config_errors_are_value_errors(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ValidationError, ConfigError)


class TestPublicApi:
    def test_all_names_resolve(self):
        import phczeeman

        missing = [name for name in phczeeman.__all__
                   if not hasattr(phczeeman, name)]
        assert missing == []
        assert len(set(phczeeman.__all__)) == len(phczeeman.__all__)

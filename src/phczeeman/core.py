"""Domain types, configuration ingestion and the dense Hermitian eigensolver.

Everything here is immutable after construction and safe to share across
concurrent workers; ``eigh`` is a pure function with no global state.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import C, HBAR

# Contrast bounds: the perturbative treatment assumes a weak pattern.
DPHI_SOFT_LIMIT = 0.02
DPHI_HARD_LIMIT = 0.1

# Nominal transverse domain radius (wave-function spread scale) used for the
# slow-rotation sanity check |omega_z| * r / c << 1.
DOMAIN_RADIUS = 1e-3  # m


def beyond_weak_contrast(dphi):
    """Whether |dphi| exceeds the weak-contrast regime, in which a
    LatticeSpec warns; elementwise on an array of contrasts."""
    return abs(dphi) > DPHI_SOFT_LIMIT


def beyond_slow_rotation(omega_z):
    """Whether |omega_z| * DOMAIN_RADIUS / c exceeds 1e-3, the first-order
    slow-rotation regime, in which a RotationSpec warns; elementwise on an
    array of rates."""
    return abs(omega_z) * DOMAIN_RADIUS / C > 1e-3


class ConfigError(ValueError):
    """Malformed configuration document (parse failure, missing/unknown key)."""


class ValidationError(ConfigError):
    """A physical invariant is violated; message names the field and bound."""


class ComputationError(RuntimeError):
    """A numerical stage failed (eigensolver, band tracking, missing edge)."""


@dataclass(frozen=True)
class LatticeSpec:
    """Physical parameters of the patterned-mirror microcavity lattice.

    lambda_vac : vacuum wavelength (m)
    n_refr     : refractive index inside the cavity
    pitch      : lattice period (m)
    fill_factor: pixel area / unit-cell area
    dphi       : phase contrast of the mirror pattern (dimensionless)
    """

    lambda_vac: float
    n_refr: float
    pitch: float
    fill_factor: float
    dphi: float

    def __post_init__(self):
        for name in ("lambda_vac", "n_refr", "pitch", "fill_factor", "dphi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not self.lambda_vac > 0:
            raise ValidationError(f"lambda_vac must be > 0, got {self.lambda_vac}")
        if not self.pitch > 0:
            raise ValidationError(f"pitch must be > 0, got {self.pitch}")
        if not self.n_refr >= 1:
            raise ValidationError(f"n_refr must be >= 1, got {self.n_refr}")
        if not 0 < self.fill_factor < 1:
            raise ValidationError(
                f"fill_factor must satisfy 0 < ff < 1, got {self.fill_factor}"
            )
        if abs(self.dphi) > DPHI_HARD_LIMIT:
            raise ValidationError(
                f"dphi must satisfy |dphi| <= {DPHI_HARD_LIMIT}, got {self.dphi}"
            )
        if beyond_weak_contrast(self.dphi):
            warnings.warn(
                f"|dphi| = {abs(self.dphi)} exceeds the weak-contrast regime "
                f"(|dphi| <= {DPHI_SOFT_LIMIT}); results are extrapolations",
                UserWarning,
                stacklevel=3,
            )
        # pitch must greatly exceed the cavity length pitch*n/lambda = pitch/l_z
        if self.pitch * self.n_refr / self.lambda_vac < 2:
            raise ValidationError(
                "pitch must exceed the cavity length: require "
                f"pitch*n/lambda >= 2, got {self.pitch * self.n_refr / self.lambda_vac:.3g}"
            )


@dataclass(frozen=True)
class RotationSpec:
    """Rotation of the lattice about the cavity axis z at rate omega_z (rad/s)."""

    omega_z: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.omega_z):
            raise ValidationError(f"omega_z must be finite, got {self.omega_z}")
        if beyond_slow_rotation(self.omega_z):
            warnings.warn(
                f"omega_z = {self.omega_z:.3g} rad/s leaves the first-order "
                "slow-rotation regime over the mm-scale mode spread",
                UserWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class DerivedParams:
    """Constants derived from a LatticeSpec (all SI); a field is an array
    where the lattice it is derived from holds one (a sweep column).

    k_z: longitudinal wavenumber 2*pi*n/lambda; l_z: cavity length lambda/n;
    m0: photon effective mass n*hbar*k_z/c; p_interband: momentum matrix
    element hbar*pi/(sqrt(2)*pitch); omega0: carrier frequency c*k_z/n;
    v_prefactor: potential depth per unit pattern phase c/(2*n*l_z); eps:
    relative permittivity n^2 of the nonmagnetic cavity, which ties m0 to
    omega0 (m0*c^2 = eps*hbar*omega0, checked at construction).
    """

    k_z: float
    l_z: float
    m0: float
    p_interband: float
    omega0: float
    v_prefactor: float
    eps: float

    def __post_init__(self):
        for name in ("k_z", "l_z", "m0", "p_interband", "omega0",
                     "v_prefactor", "eps"):
            value = np.asarray(getattr(self, name))
            bad = ~((value > 0) & np.isfinite(value))
            if bad.any():
                raise ValidationError(
                    f"derived parameter {name} must be positive and finite, "
                    f"got {value[bad][0]}"
                )
        ident = self.m0 * C**2 / (self.eps * HBAR)
        if np.any(abs(ident - self.omega0) > 1e-12 * self.omega0):
            raise ValidationError(
                "derived parameters inconsistent: m0*c^2/(n^2*hbar) != omega0"
            )


def derive_params(lattice: LatticeSpec) -> DerivedParams:
    """Compute the derived constants for a lattice (deterministic, SI).

    ``lattice`` may carry arrays in place of floats (the columns of a
    sweep); the constants are then arrays, elementwise equal to those of
    each lattice.
    """
    n = lattice.n_refr
    k_z = 2.0 * math.pi * n / lattice.lambda_vac
    l_z = lattice.lambda_vac / n
    m0 = n * HBAR * k_z / C
    p = HBAR * math.pi / (math.sqrt(2.0) * lattice.pitch)
    omega0 = C * k_z / n
    v = C / (2.0 * n * l_z)
    return DerivedParams(
        k_z=k_z, l_z=l_z, m0=m0, p_interband=p, omega0=omega0,
        v_prefactor=v, eps=n * n,
    )


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense Hermitian matrix, or a stack (..., n, n) of them; hermiticity is
    validated at construction, each matrix against its own scale.

    ``entries`` is row-major (ndarray); real symmetric input is kept real.
    A non-finite entry (an overflow upstream) raises ComputationError.
    """

    entries: np.ndarray
    dim: int = field(init=False)

    HERMITICITY_RTOL = 1e-12

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
            raise ValidationError(f"matrix must be square, got shape {a.shape}")
        n = a.shape[-1]
        if not np.all(np.isfinite(a)):
            raise ComputationError(
                f"matrix holds a non-finite value ({n}x{n})"
            )
        scale = np.max(np.abs(a), axis=(-2, -1))
        scale = np.where(scale == 0.0, 1.0, scale)
        adjoint = np.swapaxes(a, -2, -1).conj()
        defect = np.max(np.abs(a - adjoint), axis=(-2, -1))
        bad = defect > self.HERMITICITY_RTOL * scale
        if bad.any():
            first = np.argmax(bad)  # of the non-Hermitian matrices of a stack
            raise ValidationError(
                f"matrix is not Hermitian: defect {defect.flat[first]:.3e} "
                f"exceeds {self.HERMITICITY_RTOL:.0e} relative to scale "
                f"{scale.flat[first]:.3e}"
            )
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "dim", n)


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix, or of each matrix of a stack (..., n, n).

    Accepts a HermitianMatrix or a raw array (validated on the way in). A
    stack is one ``np.linalg.eigh`` call, which runs LAPACK matrix by
    matrix, so its results are bit-identical to one call per matrix.
    Contract: per-pair residual ||H v - w v||_2 <= 1e-10 ||H||_F and the
    eigenvector set is orthonormal to 1e-10. Degenerate eigenvalues may come
    with an arbitrary orthonormal basis of the degenerate subspace; downstream
    code must project explicitly instead of assuming a particular basis.
    """
    if not isinstance(h, HermitianMatrix):
        h = HermitianMatrix(np.asarray(h))
    try:
        w, v = np.linalg.eigh(h.entries)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigensolver failed to converge on a {h.dim}x{h.dim} matrix"
        ) from exc
    return w, v


DEFAULT_KPATH = ("G", "Z", "T", "G")
DEFAULT_BASIS_HALFWIDTH = 7
# Largest plane-wave cutoff. At h = 40 every path point is solved by the
# block eigensolver, which forms no N x N array, so the T-point analysis
# peaks highest: `validate`, which alone makes it, reaches 149 MB resident.
# `bands --model both --samples 2` and `split` solve only three T sectors,
# eigenvalue-only and one at a time, and peak at 81 and 76 MB (measured on
# Linux, numpy with OpenBLAS, one thread).
MAX_BASIS_HALFWIDTH = 40
# Largest dump-fourier halfwidth: every index difference of a capped basis.
MAX_FOURIER_HALFWIDTH = 2 * MAX_BASIS_HALFWIDTH
DEFAULT_SAMPLES_PER_SEGMENT = 40
# Most samples per k-path segment: each sample is one eigensolve (dense or
# mirror-blocked, or from halfwidth 8 a block solve), so a three-segment path
# at the cap is 30001 solves.
MAX_SAMPLES_PER_SEGMENT = 10_000
# Most values in one sweep: each is a row of closed forms and of the CSV, so
# the cap only stops a typo from computing and writing that many rows.
MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment description: lattice, rotation, basis and k-path."""

    lattice: LatticeSpec
    rotation: RotationSpec = RotationSpec(0.0)
    basis_halfwidth: int = DEFAULT_BASIS_HALFWIDTH
    kpath: tuple[str, ...] = DEFAULT_KPATH
    samples_per_segment: int = DEFAULT_SAMPLES_PER_SEGMENT

    def __post_init__(self):
        if self.basis_halfwidth < 2:
            raise ValidationError(
                f"basis_halfwidth must be >= 2, got {self.basis_halfwidth}"
            )
        if self.basis_halfwidth > MAX_BASIS_HALFWIDTH:
            raise ValidationError(
                f"basis_halfwidth must be <= {MAX_BASIS_HALFWIDTH}, "
                f"got {self.basis_halfwidth}"
            )
        if not self.kpath:
            raise ValidationError("kpath must be nonempty")
        if self.samples_per_segment < 1:
            raise ValidationError(
                f"samples_per_segment must be >= 1, got {self.samples_per_segment}"
            )
        if self.samples_per_segment > MAX_SAMPLES_PER_SEGMENT:
            raise ValidationError(
                f"samples_per_segment must be <= {MAX_SAMPLES_PER_SEGMENT}, "
                f"got {self.samples_per_segment}"
            )


_REQUIRED_KEYS = ("lambda_nm", "n", "pitch_um", "ff", "dphi")
_OPTIONAL_KEYS = ("omega_rad_s", "basis_halfwidth", "kpath", "samples_per_segment")


def load_config(text: str) -> ExperimentConfig:
    """Parse a JSON configuration document into an ExperimentConfig.

    Keys: lambda_nm, n, pitch_um, ff, dphi (required); omega_rad_s (default 0),
    basis_halfwidth (default 7), kpath (default "G:Z:T:G"),
    samples_per_segment (default 40). Unknown keys are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object of key/value pairs")

    unknown = sorted(set(doc) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")

    def _num(key, default=None):
        val = doc.get(key, default)
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"config key '{key}' must be a number, got {val!r}")
        try:
            return float(val)
        except OverflowError:
            raise ValidationError(
                f"config key '{key}' must be finite, got an integer too large "
                "for a float"
            ) from None

    # the specs' regime warnings are issued again from here, so that they
    # point at the caller's line rather than at this function
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lattice = LatticeSpec(
            lambda_vac=_num("lambda_nm") * 1e-9,
            n_refr=_num("n"),
            pitch=_num("pitch_um") * 1e-6,
            fill_factor=_num("ff"),
            dphi=_num("dphi"),
        )
        rotation = RotationSpec(_num("omega_rad_s", 0.0))
    for caught_warning in caught:
        warnings.warn(caught_warning.message, caught_warning.category,
                      stacklevel=2)

    halfwidth = doc.get("basis_halfwidth", DEFAULT_BASIS_HALFWIDTH)
    if not isinstance(halfwidth, int) or isinstance(halfwidth, bool):
        raise ConfigError(
            f"config key 'basis_halfwidth' must be an integer, got {halfwidth!r}"
        )
    samples = doc.get("samples_per_segment", DEFAULT_SAMPLES_PER_SEGMENT)
    if not isinstance(samples, int) or isinstance(samples, bool):
        raise ConfigError(
            f"config key 'samples_per_segment' must be an integer, got {samples!r}"
        )
    kpath_raw = doc.get("kpath", ":".join(DEFAULT_KPATH))
    if not isinstance(kpath_raw, str):
        raise ConfigError(f"config key 'kpath' must be a string, got {kpath_raw!r}")
    kpath = tuple(tok.strip() for tok in kpath_raw.split(":") if tok.strip())

    return ExperimentConfig(
        lattice=lattice,
        rotation=rotation,
        basis_halfwidth=halfwidth,
        kpath=kpath,
        samples_per_segment=samples,
    )

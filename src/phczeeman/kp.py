"""8x8 block-diagonal k.p model about the Brillouin-zone corner T.

The model lives on the eight spin-orbital products of the four corner-wave
representations; it is block-diagonal in the circular-polarization basis, a
4x4 block per handedness. Rotation about the cavity axis enters as an exact
perturbation whose k = 0 part is diagonal, so spin and orbital splittings
are linear in the rotation rate to machine precision. Each block is
quadratic in k and diagonal at k = 0 with rotation off, so the edge masses
follow exactly from the second-order k.p sum over its slots.

All matrices are stored in angular-frequency units (entries divided by
hbar), matching the plane-wave solver output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR
from .core import (
    ComputationError,
    HermitianMatrix,
    LatticeSpec,
    RotationSpec,
    ValidationError,
    derive_params,
    eigh,
)
from .zeeman import m_closed_form

KP_VALIDITY_FRACTION = 0.5  # of pi/pitch; beyond is extrapolation


@dataclass(frozen=True)
class KpModel:
    """Band-edge frequencies and coupling parameters of the corner model.

    ``m_plus``/``m_minus`` are the dimensionless orbital parameters tied to
    the edge masses by the f-sum rule: m0/m_T5 = 1 - 2*m_plus and
    m0/m_T5p = 1 + 2*m_minus, which ``fsum_fd_masses`` checks on the
    model's own matrices.
    ``m_total`` = m_plus + m_minus is positive for attractive (dphi > 0)
    lattices in the perturbative regime.
    """

    omega_T5: float
    omega_T1: float
    omega_T5p: float
    p_interband: float
    m_plus: float
    m_minus: float
    m0: float
    n_refr: float
    pitch: float

    @property
    def m_total(self) -> float:
        return self.m_plus + self.m_minus


@dataclass(frozen=True, eq=False)
class KpSpectrum:
    """Eigenvalues of both blocks along a k-path measured from T.

    Per k-point the eight (omega, block) entries are sorted by omega;
    ``blocks`` tags the originating block (+1 upper, -1 lower).
    ``within_window`` flags points inside the k.p validity window.
    """

    k_rel: np.ndarray
    omegas: np.ndarray
    blocks: np.ndarray
    within_window: np.ndarray


def kp_from_opw(edges, lattice: LatticeSpec) -> KpModel:
    """Build a KpModel from band edges and the square-pixel closed form.

    ``edges`` is the (omega_T5, omega_T1, omega_T5p) triple; m_plus/m_minus
    come from the analytic closed form for ``lattice``.
    """
    w_t5, w_t1, w_t5p = (float(e) for e in edges)
    if not (w_t5 < w_t1 < w_t5p):
        raise ComputationError(
            "band-edge ordering violated (need omega_T5 < omega_T1 < "
            f"omega_T5p, got {w_t5!r}, {w_t1!r}, {w_t5p!r}); k.p model "
            "undefined"
        )
    dp = derive_params(lattice)
    m_plus, m_minus = m_closed_form(lattice, dp)
    return KpModel(
        omega_T5=w_t5, omega_T1=w_t1, omega_T5p=w_t5p,
        p_interband=dp.p_interband, m_plus=m_plus, m_minus=m_minus,
        m0=dp.m0, n_refr=lattice.n_refr, pitch=lattice.pitch,
    )


def _block_matrices(model: KpModel, kx: float, ky: float,
                    omega_rot) -> tuple[np.ndarray, np.ndarray]:
    """(upper, lower) 4x4 blocks in omega units at k measured from T.

    Basis order: (T5'+-, T1 -+ iT2, T3 +- iT4, T5+-); upper sign = upper
    block (left-handed). The lower block carries the elementwise conjugate
    of the k.p coupling and the negated rotation part. An array of rotation
    rates gives stacks of blocks, shape omega_rot.shape + (4, 4).
    """
    kp = kx + 1j * ky
    km = kx - 1j * ky
    p_over_m = model.p_interband / model.m0
    h0 = np.diag([model.omega_T5p, model.omega_T1, model.omega_T1,
                  model.omega_T5]).astype(complex)
    hkp = p_over_m * np.array([
        [0.0, km, kp, 0.0],
        [kp, 0.0, 0.0, km],
        [km, 0.0, 0.0, -kp],
        [0.0, kp, -km, 0.0],
    ])
    x = np.asarray(omega_rot, dtype=float)[..., None, None] / model.n_refr ** 2
    a = HBAR / (2.0 * model.p_interband)
    mp_ = model.m_plus
    mm_ = model.m_minus
    mt = model.m_total
    # an out-of-range rate overflows here; HermitianMatrix rejects the block
    with np.errstate(over="ignore", invalid="ignore"):
        h_rot = -x * np.array([
            [1.0, -mm_ * a * km, mm_ * a * kp, 0.0],
            [-mm_ * a * kp, -mt + 1.0, 0.0, -mp_ * a * km],
            [mm_ * a * km, 0.0, mt + 1.0, -mp_ * a * kp],
            [0.0, -mp_ * a * kp, -mp_ * a * km, 1.0],
        ])
    kin = HBAR * (kx * kx + ky * ky) / (2.0 * model.m0)
    free = kin * np.eye(4)
    upper = h0 + hkp + h_rot + free
    lower = h0 + np.conj(hkp) - h_rot + free
    return upper, lower


def kp_bands(model: KpModel, kpath, rot: RotationSpec) -> KpSpectrum:
    """Eight-band spectrum along a path of k-points measured from T."""
    k_rel = np.atleast_2d(np.asarray(kpath, dtype=float))
    if k_rel.shape[1] != 2:
        raise ValidationError("kpath must be an (n, 2) array of k relative to T")
    nk = k_rel.shape[0]
    omegas = np.empty((nk, 8))
    blocks = np.empty((nk, 8), dtype=int)
    b = np.array([1, 1, 1, 1, -1, -1, -1, -1])
    window = np.empty(nk, dtype=bool)
    kmax = KP_VALIDITY_FRACTION * math.pi / model.pitch
    for i, (kx, ky) in enumerate(k_rel):
        window[i] = math.hypot(kx, ky) <= kmax
        upper, lower = _block_matrices(model, kx, ky, rot.omega_z)
        wu, _ = eigh(HermitianMatrix(upper))
        wl, _ = eigh(HermitianMatrix(lower))
        w = np.concatenate([wu, wl])
        order = np.argsort(w, kind="stable")
        omegas[i] = w[order]
        blocks[i] = b[order]
    return KpSpectrum(k_rel=k_rel, omegas=omegas, blocks=blocks,
                      within_window=window)


def zeeman_splittings_at_T(model: KpModel, omega_rot):
    """Spin and orbital rotation splittings from the k = 0 block eigenvalues.

    ``omega_rot`` is a rotation rate or an array of them; the splittings
    come back as arrays of its shape. All k = 0 blocks are built as one
    stack and diagonalized in one ``eigh`` call per handedness.

    At k = 0 the rotation part of both blocks is diagonal, so every
    eigenvalue is exactly linear in the rotation rate and the common
    band-edge offset cancels exactly: the splittings are extracted from the
    diagonalized rotation part alone, which keeps them accurate to round-off
    (~1e-16 relative) instead of the ~1e-1 rad/s floor a subtraction of
    full-scale eigenvalues would allow. Matching the full-block
    diagonalization at frequency-scale precision is asserted in the tests.
    """
    model0 = replace(model, omega_T5=0.0, omega_T1=0.0, omega_T5p=0.0)
    upper, lower = _block_matrices(model0, 0.0, 0.0, omega_rot)
    wu, vu = eigh(HermitianMatrix(upper))
    wl, vl = eigh(HermitianMatrix(lower))

    def spin_value(w, v):
        # weight on the T5'/T5 slots (0 and 3); both carry the same shift.
        # The blocks are diagonal, so every eigenvector is a basis vector
        # and exactly two of each block lie on these slots.
        spin = np.abs(v[..., 0, :]) ** 2 + np.abs(v[..., 3, :]) ** 2 > 0.5
        if not np.all(np.count_nonzero(spin, axis=-1) == 2):
            raise ComputationError(
                "k = 0 block eigenvectors do not separate the spin slots"
            )
        return w[spin].reshape(w.shape[:-1] + (2,)).mean(axis=-1)

    def orbital_value(w, v, slot):
        nearest = np.argmax(np.abs(v[..., slot, :]) ** 2, axis=-1)
        return np.take_along_axis(w, nearest[..., None], axis=-1)[..., 0]

    # a difference of two finite eigenvalues may overflow; the caller's
    # finiteness check reports it
    with np.errstate(over="ignore"):
        delta_s = spin_value(wl, vl) - spin_value(wu, vu)
        delta_l = orbital_value(wu, vu, 1) - orbital_value(wu, vu, 2)
    return delta_s, delta_l


def fsum_target_masses(model: KpModel) -> tuple[float, float]:
    """Edge masses implied by the model's orbital parameters via the f-sum rule."""
    return (
        model.m0 / (1.0 - 2.0 * model.m_plus),
        model.m0 / (1.0 + 2.0 * model.m_minus),
    )


def fsum_fd_masses(model: KpModel) -> tuple[float, float]:
    """Masses of the T5 and T5' branches of the model, exact at k -> 0.

    With rotation off the upper block is H(k) = H(0) + kx*V + kin(k) with
    H(0) diagonal, so a nondegenerate slot n curves by exactly
    hbar/m0 + 2 * sum_m |V_mn|^2 / (omega_n - omega_m) over the slots m of
    other frequency. The couplings V (off-diagonal of H(1, 0) - H(0, 0)) and
    the gaps are read from the model's own blocks. (The name predates the
    exact sum; it is kept for callers that look it up by name.)
    """
    h0, _ = _block_matrices(model, 0.0, 0.0, 0.0)
    h1, _ = _block_matrices(model, 1.0, 0.0, 0.0)
    omega = h0.diagonal().real
    coupling = np.abs(h1 - h0) ** 2
    masses = []
    for slot in (3, 0):  # basis slot 3 = T5 edge, slot 0 = T5' edge
        gaps = omega[slot] - omega
        other = gaps != 0.0
        curvature = HBAR / model.m0 + 2.0 * float(
            np.sum(coupling[other, slot] / gaps[other])
        )
        masses.append(HBAR / curvature)
    return masses[0], masses[1]

"""8x8 block-diagonal k.p model about the Brillouin-zone corner T.

The model lives on the eight spin-orbital products of the four corner-wave
representations; it is block-diagonal in the circular-polarization basis, a
4x4 block per handedness. Rotation about the cavity axis enters as an exact
perturbation whose k = 0 part is diagonal, so spin and orbital splittings
are linear in the rotation rate to machine precision and are read from the
k = 0 diagonals without an eigensolve; ``kp_bands``, away from k = 0,
diagonalizes its stacked blocks. Each block is
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

    Edge names: the model names its three edges by the spin-orbital
    products it is built on, while ``planewave`` labels the same scalar
    corner states by their C4v sector. ``TPointAnalysis.edges`` holds them
    in the order ``kp_from_opw`` takes, so this is the one map between the
    two conventions (the CSV ``rep_label`` values are the planewave labels):

        KpModel field   planewave label   TPointAnalysis.edges
        omega_T5        T1(S)             edges[0]
        omega_T1        T5(X,Y)           edges[1]
        omega_T5p       T4(XY)            edges[2]
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

    omegas: np.ndarray
    blocks: np.ndarray
    within_window: np.ndarray


def kp_from_opw(edges, lattice: LatticeSpec) -> KpModel:
    """Build a KpModel from band edges and the square-pixel closed form.

    ``edges`` is the (omega_T5, omega_T1, omega_T5p) triple, as
    ``TPointAnalysis.edges`` holds it (see ``KpModel`` for the names);
    m_plus/m_minus come from the analytic closed form for ``lattice``.
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


def _matrix(entries, shape) -> np.ndarray:
    """A stack of shape ``shape + (4, 4)`` from a 4x4 nested list of scalars
    or arrays broadcastable to ``shape``."""
    out = np.empty(shape + (4, 4), dtype=complex)
    for i, row in enumerate(entries):
        for j, value in enumerate(row):
            out[..., i, j] = value
    return out


def _block_matrices(model: KpModel, kx, ky,
                    omega_rot) -> tuple[np.ndarray, np.ndarray]:
    """(upper, lower) 4x4 blocks in omega units at k measured from T.

    Basis order: (T5'+-, T1 -+ iT2, T3 +- iT4, T5+-); upper sign = upper
    block (left-handed). The lower block carries the elementwise conjugate
    of the k.p coupling and the negated rotation part. Arrays of k
    components and of rotation rates broadcast together and give stacks of
    blocks, shape np.broadcast_shapes(kx.shape, ky.shape, omega_rot.shape)
    + (4, 4).
    """
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    shape = np.broadcast_shapes(kx.shape, ky.shape)
    kp = kx + 1j * ky
    km = kx - 1j * ky
    p_over_m = model.p_interband / model.m0
    h0 = np.diag([model.omega_T5p, model.omega_T1, model.omega_T1,
                  model.omega_T5]).astype(complex)
    hkp = p_over_m * _matrix([
        [0.0, km, kp, 0.0],
        [kp, 0.0, 0.0, km],
        [km, 0.0, 0.0, -kp],
        [0.0, kp, -km, 0.0],
    ], shape)
    x = np.asarray(omega_rot, dtype=float)[..., None, None] / model.n_refr ** 2
    a = HBAR / (2.0 * model.p_interband)
    mp_ = model.m_plus
    mm_ = model.m_minus
    mt = model.m_total
    # an out-of-range rate overflows here; the callers reject the block
    with np.errstate(over="ignore", invalid="ignore"):
        h_rot = -x * _matrix([
            [1.0, -mm_ * a * km, mm_ * a * kp, 0.0],
            [-mm_ * a * kp, -mt + 1.0, 0.0, -mp_ * a * km],
            [mm_ * a * km, 0.0, mt + 1.0, -mp_ * a * kp],
            [0.0, -mp_ * a * kp, -mp_ * a * km, 1.0],
        ], shape)
    kin = HBAR * (kx * kx + ky * ky) / (2.0 * model.m0)
    free = kin[..., None, None] * np.eye(4)
    upper = h0 + hkp + h_rot + free
    lower = h0 + np.conj(hkp) - h_rot + free
    return upper, lower


def kp_bands(model: KpModel, kpath, rot: RotationSpec) -> KpSpectrum:
    """Eight-band spectrum along a path of k-points measured from T.

    The blocks of all k-points are built as one stack and diagonalized in
    one ``eigh`` call per handedness, with the edges measured from omega_T1,
    which is added back to the sorted eigenvalues: LAPACK's round-off then
    scales with the corner gaps, not with the carrier frequency.
    """
    k_rel = np.atleast_2d(np.asarray(kpath, dtype=float))
    if k_rel.shape[1] != 2:
        raise ValidationError("kpath must be an (n, 2) array of k relative to T")
    kmax = KP_VALIDITY_FRACTION * math.pi / model.pitch
    # math.hypot per point: np.hypot may round differently in the last
    # place and move a point on the window's edge
    window = np.array([math.hypot(kx, ky) <= kmax for kx, ky in k_rel],
                      dtype=bool)
    detuned = replace(model, omega_T5=model.omega_T5 - model.omega_T1,
                      omega_T1=0.0, omega_T5p=model.omega_T5p - model.omega_T1)
    upper, lower = _block_matrices(detuned, k_rel[:, 0], k_rel[:, 1],
                                   rot.omega_z)
    wu, _ = eigh(HermitianMatrix(upper))
    wl, _ = eigh(HermitianMatrix(lower))
    w = np.concatenate([wu, wl], axis=-1)
    order = np.argsort(w, axis=-1, kind="stable")
    return KpSpectrum(omegas=np.take_along_axis(w, order, axis=-1)
                      + model.omega_T1,
                      blocks=np.repeat([1, -1], 4)[order],
                      within_window=window)


def zeeman_splittings_at_T(model: KpModel, omega_rot):
    """Spin and orbital rotation splittings read from the k = 0 blocks.

    ``omega_rot`` is a rotation rate or an array of them; the splittings
    come back as arrays of its shape. All k = 0 blocks are built as one
    stack of the model with its band edges set to zero.

    At k = 0 both blocks are exactly diagonal (checked: a nonzero
    off-diagonal entry raises ComputationError, as does a non-finite entry
    from a rate that overflows), so their diagonals are
    their eigenvalues, exactly linear in the rotation rate, and no
    eigensolve is needed. With the edges at zero the common band-edge
    offset cancels exactly, which keeps the splittings accurate to
    round-off (~1e-16 relative) instead of the ~1e-1 rad/s floor a
    subtraction of full-scale eigenvalues would allow. The spin splitting
    is the mean of the T5'/T5 slots (0 and 3) of the lower block minus that
    of the upper; the orbital splitting is upper slot 1 minus slot 2.
    The diagonals are read from the summed blocks as built, where adding
    the zero k.p and free terms turns a -0.0 rotation entry into +0.0.
    """
    model0 = replace(model, omega_T5=0.0, omega_T1=0.0, omega_T5p=0.0)
    upper, lower = _block_matrices(model0, 0.0, 0.0, omega_rot)
    diagonals = []
    for block in (upper, lower):
        if not np.all(np.isfinite(block)):  # an overflow of the rate
            raise ComputationError("matrix holds a non-finite value (4x4)")
        if np.any(block[..., ~np.eye(4, dtype=bool)] != 0):
            raise ComputationError("k = 0 rotation block is not diagonal")
        diagonals.append(block.diagonal(axis1=-2, axis2=-1).real)
    du, dl = diagonals
    # a difference of two finite entries may overflow; the caller's
    # finiteness check reports it
    with np.errstate(over="ignore"):
        delta_s = dl[..., [0, 3]].mean(axis=-1) - du[..., [0, 3]].mean(axis=-1)
        delta_l = du[..., 1] - du[..., 2]
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

"""Scalar plane-wave band solver for the patterned-mirror cavity lattice.

Solves the transverse eigenproblem (rotation off: the rotation term involves
the position operator, which is unbounded on a periodic system, and is
handled perturbatively by the k.p and zeeman modules instead). Produces band
structures along named k-paths, classifies the Brillouin-zone-corner (T)
states by their C4v representation, extracts band edges and effective
masses, and evaluates the longitudinal Bloch factor and the paraxial field
reconstruction.

Numerical notes: the eigenproblem is assembled and solved in detuning units
(carrier frequency subtracted from the diagonal). The pattern term
-v*phi[G'-G] does not depend on k and is built once per basis, as the
Kronecker product -v*dphi*FF*(S ⊗ S) of the Toeplitz sinc factor over the
window's axis (see ``_kernels``), which needs every basis to be an m-major
square window. Each k-point adds only its kinetic diagonal. Along a k-path
only the named nodes (G, Z, T) get eigenvectors; interior path points need
only their frequencies and are solved eigenvalue-only. Those on a mirror line
of the path are solved as two parity blocks: on G-Z (ky == 0) the mirror y ->
-y maps wave (m, n) to (m, -n), on T-G (kx == ky) the mirror x <-> y maps it
to (n, m). The symmetric window is closed under both, so H splits exactly
into an even block of (h+1)(2h+1) and an odd block of h(2h+1) waves. Z-T
points stay dense: their mirror maps m to -1-m, under which the symmetric
window is not closed. The T point itself is analysed on the corner window,
which is closed under the whole C4v little group of T: H is solved there in
its exact parity sectors (see ``t_point_analysis``), so the degenerate pair
comes out exactly degenerate and every state's label is the sector it was
solved in.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .constants import C, HBAR
from .core import (
    ComputationError,
    DerivedParams,
    ExperimentConfig,
    LatticeSpec,
    RotationSpec,
    ValidationError,
    derive_params,
)
from .lattice import (
    ReciprocalVector,
    pattern_factors,
    reciprocal_basis,
    sinc,
    t_centered_basis,
)

DEFAULT_N_BANDS = 8  # covers the corner manifold plus guard bands

# Fraction of the paraxial budget above which reconstruct_fields warns.
PARAXIAL_LIMIT = 0.2

# Representation labels at the T point (C4v little group).
LABEL_S = "T1(S)"
LABEL_PAIR = "T5(X,Y)"
LABEL_XY = "T4(XY)"
LABEL_NONE = "unclassified"


# --------------------------------------------------------------------------
# k-path handling

_NAMED_POINTS = {
    "G": (0.0, 0.0),
    "Z": (0.5, 0.0),
    "T": (0.5, 0.5),
}


def named_kpoint(name: str, pitch: float) -> tuple[float, float]:
    """Coordinates of a named high-symmetry point (G, Z, T) in rad/m."""
    try:
        fx, fy = _NAMED_POINTS[name.upper()]
    except KeyError:
        raise ValidationError(
            f"unknown k-path token {name!r}; known points: G, Z, T"
        ) from None
    return (2.0 * math.pi * fx / pitch, 2.0 * math.pi * fy / pitch)


@dataclass(frozen=True)
class KPathPoint:
    index: int
    kx: float
    ky: float
    path_pos: float
    label: str = ""


def build_kpath(nodes, pitch: float, samples_per_segment: int) -> list[KPathPoint]:
    """Sample the segments between named nodes, endpoints inclusive."""
    coords = [named_kpoint(name, pitch) for name in nodes]
    pts: list[KPathPoint] = []
    pos = 0.0
    for seg in range(len(coords) - 1):
        (x0, y0), (x1, y1) = coords[seg], coords[seg + 1]
        seglen = math.hypot(x1 - x0, y1 - y0)
        start = 0 if seg == 0 else 1
        for j in range(start, samples_per_segment + 1):
            t = j / samples_per_segment
            label = ""
            if j == 0:
                label = nodes[seg].upper()
            elif j == samples_per_segment:
                label = nodes[seg + 1].upper()
            pts.append(
                KPathPoint(
                    index=len(pts),
                    kx=x0 + t * (x1 - x0),
                    ky=y0 + t * (y1 - y0),
                    path_pos=pos + t * seglen,
                    label=label,
                )
            )
        pos += seglen
    if len(coords) == 1:
        x0, y0 = coords[0]
        pts.append(KPathPoint(index=0, kx=x0, ky=y0, path_pos=0.0,
                              label=nodes[0].upper()))
    return pts


# --------------------------------------------------------------------------
# data model

@dataclass(frozen=True, eq=False)
class BlochState:
    """One scalar eigenstate: omega and unit-norm plane-wave coefficients.

    ``coefficients`` is None for a frequency-only state, as solve_bands
    returns at interior path points; vectors, when present, are unit-norm.
    ``degeneracy`` is 2: every scalar band carries the two photon spin
    states, which stay degenerate in the absence of rotation.
    """

    band_index: int
    k_perp: tuple[float, float]
    omega: float
    coefficients: np.ndarray | None
    basis: tuple[ReciprocalVector, ...]
    degeneracy: int = 2
    rep_label: str | None = None

    def __post_init__(self):
        if self.coefficients is not None:
            norm = float(np.sum(np.abs(self.coefficients) ** 2))
            if abs(norm - 1.0) > 1e-10:
                raise ValidationError(f"state coefficients not unit-norm: {norm}")
        if not self.omega > 0:
            raise ValidationError(f"state omega must be positive, got {self.omega}")


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Eigenpairs on a k-path; per k-point omegas ascending, fixed band count."""

    kpoints: tuple[KPathPoint, ...]
    states: tuple[tuple[BlochState, ...], ...]
    basis: tuple[ReciprocalVector, ...]
    config: ExperimentConfig

    @property
    def n_bands(self) -> int:
        return len(self.states[0])

    def omegas(self) -> np.ndarray:
        """(n_k, n_bands) array of eigenfrequencies."""
        return np.array([[st.omega for st in row] for row in self.states])


@dataclass(frozen=True, eq=False)
class LongitudinalProfile:
    """Per-reflection phase alpha and the fast longitudinal factor samples.

    ``eta_samples[j]`` is eta at z = l_z * z_over_lz[j]; |1 + eta| = 1
    everywhere because the exponent is purely imaginary.
    """

    alpha: float
    eta_samples: np.ndarray
    z_over_lz: np.ndarray

    def __post_init__(self):
        dev = np.max(np.abs(np.abs(1.0 + self.eta_samples) - 1.0))
        if dev > 1e-12:
            raise ValidationError(f"|1+eta| deviates from 1 by {dev:.3e}")


@dataclass(frozen=True, eq=False)
class FieldSample:
    position: np.ndarray
    E: np.ndarray
    H: np.ndarray


def _state_vector(state: BlochState) -> np.ndarray:
    """The state's coefficients; ValidationError for a frequency-only state."""
    if state.coefficients is None:
        raise ValidationError(
            f"state (band {state.band_index}, k = {state.k_perp}) has no "
            "coefficients; solve_bands keeps them only at the named nodes"
        )
    return np.asarray(state.coefficients)


# --------------------------------------------------------------------------
# Hamiltonian assembly

def _basis_indices(basis) -> tuple[np.ndarray, np.ndarray]:
    m_idx = np.array([rv.m for rv in basis], dtype=np.int64)
    n_idx = np.array([rv.n for rv in basis], dtype=np.int64)
    return m_idx, n_idx


@dataclass(frozen=True, eq=False)
class _MirrorFold:
    """A mirror of the basis as gather indices for its even and odd blocks.

    With R the wave permutation, ``even`` lists the ``n_fixed`` fixed waves
    (R f = f) and then one wave p of each swapped pair, with ``even_image``
    = R[even]. The even block H[a, b] + H[a, R b], with each fixed row and
    column scaled by 1/sqrt(2), holds H[f, f'], sqrt(2) H[f, p] and
    H[p, q] + H[p, R q]; the odd block over ``odd`` (the pair waves p) is
    H[p, q] - H[p, R q]. Both are exact when H commutes with R.
    """

    n_fixed: int
    even: np.ndarray
    even_image: np.ndarray
    odd: np.ndarray
    odd_image: np.ndarray

    def blocks(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = h[self.even]
        even = rows[:, self.even] + rows[:, self.even_image]
        even[:self.n_fixed] *= math.sqrt(0.5)
        even[:, :self.n_fixed] *= math.sqrt(0.5)
        rows = h[self.odd]
        return even, rows[:, self.odd] - rows[:, self.odd_image]

    def lift(self, u: np.ndarray, odd: bool = False) -> np.ndarray:
        """Columns ``u`` over the even (or odd) block as unit-norm vectors
        over the folded waves: u[f] on a fixed wave, u[p] / sqrt(2) on p and
        +-u[p] / sqrt(2) on its image R p."""
        src, image = (self.odd, self.odd_image) if odd else (self.even,
                                                             self.even_image)
        n_fixed = 0 if odd else self.n_fixed
        out = np.zeros((self.n_fixed + 2 * self.odd.size, u.shape[1]))
        out[src[:n_fixed]] = u[:n_fixed]
        pair = math.sqrt(0.5) * u[n_fixed:]
        out[src[n_fixed:]] = pair
        out[image[n_fixed:]] = -pair if odd else pair
        return out


def _mirror_fold(waves, image) -> _MirrorFold | None:
    """The fold of the waves ``(m, n)`` under the map ``image(m, n) -> (m', n')``.

    None when the waves are not closed under the map.
    """
    pos = {wave: i for i, wave in enumerate(waves)}
    try:
        partner = np.array([pos[image(m, n)] for m, n in waves], dtype=np.int64)
    except KeyError:
        return None
    idx = np.arange(partner.size)
    fixed = idx[partner == idx]
    pairs = idx[idx < partner]
    even = np.concatenate([fixed, pairs])
    return _MirrorFold(n_fixed=fixed.size, even=even,
                       even_image=partner[even], odd=pairs,
                       odd_image=partner[pairs])


@dataclass(frozen=True, eq=False)
class _Problem:
    """The k-independent part of the detuned eigenproblem on one basis.

    ``factor`` holds s_j = sinc(pi*j*sqrt(FF)) for |j| <= span, the span of
    the window's axis; ``potential`` is -v_prefactor * phi[G' - G], built
    once (read-only) as -v*dphi*FF*(S ⊗ S) from the Toeplitz factor
    S[a, b] = factor[a - b + span]. Only the kinetic diagonal depends on k.
    ``along_x`` is the fold under n -> -n, the mirror y -> -y of every k
    with ky == 0; ``diagonal`` the fold under (m, n) -> (n, m), the mirror
    x <-> y of every k with kx == ky. Either is None when the window is not
    closed under it.
    """

    omega0: float
    m0: float
    gx: np.ndarray
    gy: np.ndarray
    factor: np.ndarray
    potential: np.ndarray
    along_x: _MirrorFold | None
    diagonal: _MirrorFold | None

    def hamiltonian(self, kx: float, ky: float) -> np.ndarray:
        """Detuned H at (kx, ky): a fresh copy of the potential plus the
        kinetic diagonal hbar|k+G|^2/(2 m0)."""
        h = self.potential.copy()
        h[np.diag_indices_from(h)] += HBAR * (
            (kx + self.gx) ** 2 + (ky + self.gy) ** 2) / (2.0 * self.m0)
        return h

    def fold_at(self, kx: float, ky: float) -> _MirrorFold | None:
        """The fold H commutes with at (kx, ky), or None (solve dense)."""
        if ky == 0.0:
            return self.along_x
        if kx == ky:
            return self.diagonal
        return None


def _problem(lattice: LatticeSpec, basis) -> _Problem:
    """Build the per-basis problem; ``basis`` must be an m-major square window."""
    dp = derive_params(lattice)
    m_idx, n_idx = _basis_indices(basis)
    factor = pattern_factors(lattice, int(np.ptp(m_idx)))
    waves = list(zip(m_idx.tolist(), n_idx.tolist()))
    potential = _kernels.fill_hamiltonian(
        m_idx, n_idx, factor, lattice.dphi * lattice.fill_factor,
        dp.v_prefactor,
    )
    potential.setflags(write=False)
    return _Problem(
        omega0=dp.omega0, m0=dp.m0,
        gx=np.array([rv.gx for rv in basis]),
        gy=np.array([rv.gy for rv in basis]),
        factor=factor,
        potential=potential,
        along_x=_mirror_fold(waves, lambda m, n: (m, -n)),
        diagonal=_mirror_fold(waves, lambda m, n: (n, m)),
    )


def _lapack(solver, h):
    """``solver(h)`` with a LAPACK convergence failure as ComputationError."""
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigensolver failed to converge on a {h.shape[0]}x{h.shape[0]} matrix"
        ) from exc


def _solve_refined(problem: _Problem, kx, ky, n_bands):
    """Lowest ``n_bands`` omegas and unit eigenvectors at (kx, ky)."""
    w, v = _lapack(np.linalg.eigh, problem.hamiltonian(kx, ky))
    return problem.omega0 + w[:n_bands], v[:, :n_bands]


def _solve_omegas(problem: _Problem, kx, ky, n_bands):
    """Lowest ``n_bands`` omegas of the detuned problem, without vectors.

    On a mirror line of the path (ky == 0, or kx == ky) H splits exactly into
    the mirror's even and odd blocks; each is solved on its own and the
    lowest ``n_bands`` of their merged eigenvalues returned. Elsewhere, and
    where the window is not closed under the mirror, H is solved dense.
    """
    h = problem.hamiltonian(kx, ky)
    fold = problem.fold_at(kx, ky)
    if fold is None:
        w = _lapack(np.linalg.eigvalsh, h)
    else:
        even, odd = fold.blocks(h)
        w = np.sort(np.concatenate([
            _lapack(np.linalg.eigvalsh, even)[:n_bands],
            _lapack(np.linalg.eigvalsh, odd)[:n_bands],
        ]))
    return problem.omega0 + w[:n_bands]


def solve_bands(config: ExperimentConfig,
                n_bands: int = DEFAULT_N_BANDS) -> BandStructure:
    """Lowest scalar bands along the configured k-path (deterministic).

    The k-independent potential is built once; each k-point adds its kinetic
    diagonal and is solved on its own, in path order. Named nodes (G, Z, T)
    get unit-norm eigenvectors, and T states their representation labels;
    interior points are solved eigenvalue-only and their states carry
    ``coefficients=None``. Interior points on G-Z (ky == 0) and T-G
    (kx == ky) are solved as the even and odd blocks of the mirror that fixes
    their line (see ``_solve_omegas``); Z-T points are solved dense.
    """
    basis = tuple(reciprocal_basis(config.basis_halfwidth, config.lattice.pitch))
    if n_bands > len(basis):
        raise ValidationError(
            f"n_bands = {n_bands} exceeds basis size {len(basis)}"
        )
    kpts = build_kpath(config.kpath, config.lattice.pitch,
                       config.samples_per_segment)
    problem = _problem(config.lattice, basis)

    rows = []
    for kp in kpts:
        try:
            if kp.label:
                w, v = _solve_refined(problem, kp.kx, kp.ky, n_bands)
            else:
                w, v = _solve_omegas(problem, kp.kx, kp.ky, n_bands), None
        except ComputationError as exc:
            raise ComputationError(
                f"{exc} at k-point {kp.index} (kx={kp.kx:.6g}, ky={kp.ky:.6g})"
            ) from exc
        labels = [None] * n_bands
        if kp.label == "T":
            groups = cluster_degenerate(w)
            group_labels = classify_t_states([v[:, g] for g in groups], basis)
            for grp, lab in zip(groups, group_labels):
                for i in grp:
                    labels[i] = lab
        rows.append(tuple(
            BlochState(
                band_index=b,
                k_perp=(kp.kx, kp.ky),
                omega=float(w[b]),
                coefficients=None if v is None else v[:, b].astype(complex),
                basis=basis,
                rep_label=labels[b],
            )
            for b in range(n_bands)
        ))
    return BandStructure(
        kpoints=tuple(kpts), states=tuple(rows), basis=basis, config=config,
    )


# --------------------------------------------------------------------------
# T-point symmetry analysis

def cluster_degenerate(omegas: np.ndarray, tol: float | None = None) -> list[list[int]]:
    """Group ascending eigenvalues into degenerate clusters.

    Default tolerance absorbs finite-basis and round-off splittings
    (max(1 rad/s, 1e-11 * scale)) while keeping the physical gaps (>= 1e6
    rad/s in the perturbative regime) resolved.
    """
    omegas = np.asarray(omegas)
    if tol is None:
        tol = max(1.0, 1e-11 * float(np.max(np.abs(omegas))))
    groups: list[list[int]] = [[0]]
    for i in range(1, omegas.size):
        if omegas[i] - omegas[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _corner_channels(basis) -> dict[str, np.ndarray]:
    """Symmetrized combinations of the four nearest equivalent T-point waves.

    Slots (m, n) in ((0,0), (-1,0), (0,-1), (-1,-1)) carry the folded waves
    exp(i*pi*(+-x +- y)/pitch) with signs (++, -+, +-, --). The channels have
    definite parities under x -> -x and x <-> y, so projecting onto them is
    the parity test in disguise.
    """
    pos = {(rv.m, rv.n): i for i, rv in enumerate(basis)}
    slots = [(0, 0), (-1, 0), (0, -1), (-1, -1)]
    try:
        slot_idx = [pos[s] for s in slots]
    except KeyError:
        raise ValidationError(
            "basis lacks the four nearest equivalent T-point waves"
        ) from None
    ns = len(basis)
    patterns = {
        "S": (1.0, 1.0, 1.0, 1.0),    # cos*cos: even, even
        "X": (1.0, -1.0, 1.0, -1.0),  # i sin*cos: x-odd, y-even
        "Y": (1.0, 1.0, -1.0, -1.0),  # i cos*sin: x-even, y-odd
        "XY": (1.0, -1.0, -1.0, 1.0),  # sin*sin: x-odd, y-odd
    }
    channels = {}
    for name, pat in patterns.items():
        vec = np.zeros(ns)
        for idx, val in zip(slot_idx, pat):
            vec[idx] = 0.5 * val
        channels[name] = vec
    return channels


def classify_t_states(groups, basis) -> list[str]:
    """Representation labels for degenerate eigenvector groups at T.

    Used at the T node of a k-path, whose symmetric window is not closed
    under the corner mirrors, so its states carry no exact sector. Each group
    is an (ns, g) array whose g columns are the group's coefficient vectors
    over ``basis``. Its weight on each symmetrized corner-wave channel is
    the squared projection summed over the group; the label is the channel
    holding more than half of the group's weight, or ``unclassified`` when
    the group is dominated by higher shells (not an error) or spans several
    channels.
    """
    channels = _corner_channels(basis)
    labels = []
    for group in groups:
        weight = {name: float(np.sum(np.abs(vec @ group.conj()) ** 2))
                  for name, vec in channels.items()}
        g = group.shape[1]
        scores = {
            LABEL_S: weight["S"] / g,
            LABEL_PAIR: (weight["X"] + weight["Y"]) / g,
            LABEL_XY: weight["XY"] / g,
        }
        best = max(scores, key=scores.get)
        labels.append(best if scores[best] > 0.5 else LABEL_NONE)
    return labels


@dataclass(frozen=True, eq=False)
class TPointAnalysis:
    """Eigenstates at the T point on the corner window, by C4v sector.

    ``omegas`` and the columns of ``vectors`` are the lowest
    ``DEFAULT_N_BANDS`` states; ``groups`` are their degenerate clusters and
    ``labels`` each group's common sector (``unclassified`` when a group
    mixes sectors or lies in one of the two sectors without a corner
    channel). ``edges`` are the lowest S, (X, Y) and XY sector omegas.
    """

    omegas: np.ndarray
    vectors: np.ndarray
    basis: tuple[ReciprocalVector, ...]
    groups: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    edges: tuple[float, float, float]  # (omega_T5, omega_T1, omega_T5p)

    def group_of(self, label: str) -> tuple[int, ...]:
        for grp, lab in zip(self.groups, self.labels):
            if lab == label:
                return grp
        raise ComputationError(
            f"no T-point group labeled {label}; found {list(self.labels)}"
        )


def t_point_analysis(config: ExperimentConfig,
                     halfwidth: int | None = None) -> TPointAnalysis:
    """Solve the T point on the corner window in its exact C4v sectors.

    The window m, n in [-h-1, h] is closed under x -> -x (m -> -1-m),
    y -> -y (n -> -1-n) and x <-> y, so H at T folds exactly: first by the
    two axis mirrors, then the (even, even) and (odd, odd) blocks by x <-> y.
    With k = h + 1 that leaves the sectors T1(S) of k(k+1)/2 waves, its
    x <-> y-odd partner of k(k-1)/2, T4(XY) of k(k+1)/2 and its partner of
    k(k-1)/2, and the (x-odd, y-even) sector of k^2 waves, whose x <-> y
    image is the (x-even, y-odd) sector; each is solved by one eigh. A T5
    pair is an (x-odd, y-even) state and its x <-> y image, so it is exactly
    degenerate and already in its parity members, x member first. Vectors
    take the sign that makes their (0, 0) coefficient non-negative.
    """
    hw = halfwidth if halfwidth is not None else config.basis_halfwidth
    basis = tuple(t_centered_basis(hw, config.lattice.pitch))
    kt = named_kpoint("T", config.lattice.pitch)
    problem = _problem(config.lattice, basis)
    omega0, h = problem.omega0, problem.hamiltonian(kt[0], kt[1])
    del problem  # frees the potential before the folds copy blocks of h

    waves = [(rv.m, rv.n) for rv in basis]
    fold_x = _mirror_fold(waves, lambda m, n: (-1 - m, n))
    half = [waves[i] for i in fold_x.odd]
    fold_y = _mirror_fold(half, lambda m, n: (m, -1 - n))
    quarter = [half[i] for i in fold_y.odd]
    fold_d = _mirror_fold(quarter, lambda m, n: (n, m))
    x_even, x_odd = fold_x.blocks(h)
    even_even = fold_y.blocks(x_even)[0]
    odd_even, odd_odd = fold_y.blocks(x_odd)
    s_block, s_partner = fold_d.blocks(even_even)
    xy_block, xy_partner = fold_d.blocks(odd_odd)

    n_bands = DEFAULT_N_BANDS

    def solve(block, lift):
        w, u = _lapack(np.linalg.eigh, block)
        return w[:n_bands], lift(u[:, :n_bands])

    def unfold_axes(u, x_odd, y_odd):
        return fold_x.lift(fold_y.lift(u, y_odd), x_odd)

    s_states = solve(s_block, lambda u: unfold_axes(fold_d.lift(u), False, False))
    s_partner_states = solve(
        s_partner, lambda u: unfold_axes(fold_d.lift(u, True), False, False))
    xy_states = solve(xy_block, lambda u: unfold_axes(fold_d.lift(u), True, True))
    xy_partner_states = solve(
        xy_partner, lambda u: unfold_axes(fold_d.lift(u, True), True, True))
    x_states = solve(odd_even, lambda u: unfold_axes(u, True, False))
    pos = {wave: i for i, wave in enumerate(waves)}
    swap = [pos[n, m] for m, n in waves]
    y_states = (x_states[0], x_states[1][swap])

    sectors = ((s_states, LABEL_S), (s_partner_states, LABEL_NONE),
               (xy_states, LABEL_XY), (xy_partner_states, LABEL_NONE),
               (x_states, LABEL_PAIR), (y_states, LABEL_PAIR))
    w = np.concatenate([sec[0] for sec, _ in sectors])
    sector_label = [lab for sec, lab in sectors for _ in sec[0]]
    order = np.argsort(w, kind="stable")[:n_bands]
    omegas = omega0 + w[order]
    v = np.hstack([sec[1] for sec, _ in sectors])[:, order]
    v *= np.where(v[pos[0, 0]] < 0.0, -1.0, 1.0)
    groups = cluster_degenerate(omegas)
    labels = []
    for grp in groups:
        members = {sector_label[order[i]] for i in grp}
        labels.append(members.pop() if len(members) == 1 else LABEL_NONE)
    edges = tuple(float(omega0 + sec[0][0])
                  for sec in (s_states, x_states, xy_states))
    return TPointAnalysis(
        omegas=omegas, vectors=v, basis=basis,
        groups=tuple(tuple(g) for g in groups), labels=tuple(labels),
        edges=edges,
    )


def perturbative_edges(lattice: LatticeSpec) -> tuple[float, float, float]:
    """First-order analytic band edges at T for the square-pixel pattern.

    Degenerate perturbation theory on the four corner waves gives shifts
    -depth*(1+s)^2, -depth*(1-s^2), -depth*(1-s)^2 below the folded free
    level, with s = sinc(pi*sqrt(FF)) and depth = v_prefactor*dphi*FF. These
    edges are exactly f-sum consistent with the closed-form orbital
    parameters of the zeeman module.
    """
    dp = derive_params(lattice)
    s = sinc(math.pi * math.sqrt(lattice.fill_factor))
    free_t = dp.omega0 + HBAR * (2.0 * (math.pi / lattice.pitch) ** 2) / (2.0 * dp.m0)
    depth = dp.v_prefactor * lattice.dphi * lattice.fill_factor
    return (
        free_t - depth * (1.0 + s) ** 2,
        free_t - depth * (1.0 - s * s),
        free_t - depth * (1.0 - s) ** 2,
    )


# --------------------------------------------------------------------------
# effective mass

def richardson_second_derivative(f, h: float, levels: int = 1) -> float:
    """Central second difference at 0, Richardson-extrapolated ``levels`` times."""
    f0 = f(0.0)
    steps = [h / 2 ** j for j in range(levels + 1)]
    ds = [(f(hh) - 2.0 * f0 + f(-hh)) / hh ** 2 for hh in steps]
    for lev in range(1, levels + 1):
        factor = 4.0 ** lev
        ds = [(factor * ds[j + 1] - ds[j]) / (factor - 1.0)
              for j in range(len(ds) - 1)]
    return ds[0]


def effective_mass_fd(solver, reference: BlochState, direction,
                      step: float, richardson_levels: int = 1) -> float:
    """Effective mass of one band at the reference state's k-point.

    ``solver(kx, ky) -> (omegas, vectors)`` with vectors in the reference
    basis; the band is followed through the stencil by eigenvector overlap
    with the reference state, so it survives reordering against other bands.
    Mass is hbar / (d^2 omega / dk^2), central difference of step ``step``
    with Richardson extrapolation over step halvings.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    k0 = np.asarray(reference.k_perp, dtype=float)
    ref = _state_vector(reference)

    def omega_at(t: float) -> float:
        w, v = solver(k0[0] + t * d[0], k0[1] + t * d[1])
        ov = np.abs(v.conj().T @ ref) ** 2
        order = np.argsort(ov)
        best = order[-1]
        if ov[best] < 0.5:
            raise ComputationError(
                "band tracking lost the reference state (best overlap "
                f"{ov[best]:.3f}); degenerate band crossing within the "
                "stencil -- reduce the step or use the k.p route"
            )
        if ov.size > 1 and ov[best] - ov[order[-2]] < 0.1:
            raise ComputationError(
                "ambiguous band tracking inside the stencil (overlap tie); "
                "degenerate band crossing -- reduce the step or use the k.p "
                "route"
            )
        return float(w[best])

    curvature = richardson_second_derivative(omega_at, step, richardson_levels)
    return HBAR / curvature


def opw_mass_at_t(config: ExperimentConfig, edge_label: str,
                  direction=(1.0, 0.0), step: float | None = None,
                  analysis: TPointAnalysis | None = None,
                  richardson_levels: int = 1) -> float:
    """Finite-difference mass of a classified nondegenerate T edge (S or XY)."""
    if analysis is None:
        analysis = t_point_analysis(config)
    grp = analysis.group_of(edge_label)
    if len(grp) != 1:
        raise ComputationError(
            f"edge {edge_label} is degenerate; finite-difference mass needs "
            "a nondegenerate band"
        )
    kt = named_kpoint("T", config.lattice.pitch)
    idx = grp[0]
    reference = BlochState(
        band_index=idx, k_perp=kt, omega=float(analysis.omegas[idx]),
        coefficients=analysis.vectors[:, idx].astype(complex),
        basis=analysis.basis,
    )
    n_bands = analysis.omegas.size
    problem = _problem(config.lattice, analysis.basis)

    def solver(kx, ky):
        return _solve_refined(problem, kx, ky, n_bands)

    if step is None:
        step = 1e-3 * math.pi / config.lattice.pitch
    return effective_mass_fd(solver, reference, direction, step,
                             richardson_levels)


# --------------------------------------------------------------------------
# longitudinal profile

def longitudinal_profile(state: BlochState, lattice: LatticeSpec,
                         samples: int = 256) -> LongitudinalProfile:
    """Per-reflection phase and fast longitudinal factor of a Bloch state.

    alpha is the pattern expectation value in the state; eta is sampled on a
    uniform grid over one longitudinal period z in [-l_z, l_z). The exponent
    is purely imaginary, so |1 + eta| = 1 identically and the wrapped sum of
    eta increments over the period vanishes. ValidationError unless the
    state's basis is an m-major square window.
    """
    c = _state_vector(state)
    m_idx, n_idx = _basis_indices(state.basis)
    alpha = _kernels.pattern_overlap(
        c, m_idx, n_idx, pattern_factors(lattice, int(np.ptp(m_idx))),
        lattice.dphi * lattice.fill_factor,
    )
    # z/(2 l_z) in [-1/2, 1/2); sawtooth theta(z) - 1/2 - z/(2 l_z)
    frac = -0.5 + np.arange(samples) / samples
    saw = np.where(frac >= 0.0, 0.5, -0.5) - frac
    eta = np.exp(1j * alpha * saw) - 1.0
    return LongitudinalProfile(
        alpha=float(alpha), eta_samples=eta, z_over_lz=2.0 * frac,
    )


# --------------------------------------------------------------------------
# paraxial field reconstruction

def reconstruct_fields(state: BlochState, dp: DerivedParams,
                       rot: RotationSpec, polarization,
                       positions) -> list[FieldSample]:
    """Reconstruct E and H at the given positions from a Bloch state.

    The paraxial gauge operator acts spectrally on each plane-wave component
    (d/dx -> i*kappa) plus rotation terms linear in the evaluation
    coordinates; the fast carrier exp(i k_z z) is included, the order-dphi
    longitudinal factor (1 + eta) is not (see longitudinal_profile). Output
    units follow the unit-norm coefficient convention with the 1/sqrt(2 pi)
    and sqrt(Z) prefactors of the field ansatz.
    """
    c = _state_vector(state)
    pol = np.asarray(polarization, dtype=float)
    if pol.shape != (2,) or abs(np.linalg.norm(pol) - 1.0) > 1e-9:
        raise ValidationError("polarization must be a unit 2-vector")
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    if pos.shape[1] != 3:
        raise ValidationError("positions must be (n, 3)")

    kx, ky = state.k_perp
    gx = np.array([rv.gx for rv in state.basis])
    gy = np.array([rv.gy for rv in state.basis])
    kapx = kx + gx
    kapy = ky + gy
    kmax = float(np.max(np.hypot(kapx, kapy)))
    if kmax > PARAXIAL_LIMIT * dp.k_z:
        warnings.warn(
            f"paraxial validity strained: max|k_perp + G| = {kmax:.3g} "
            f"exceeds {PARAXIAL_LIMIT} * k_z = {PARAXIAL_LIMIT * dp.k_z:.3g}",
            UserWarning,
            stacklevel=2,
        )

    kz = dp.k_z
    n_refr = math.sqrt(dp.eps)
    ksq = kapx ** 2 + kapy ** 2

    def operator_columns(psi):
        """Per-wave E-pattern (3, nw) for constant transverse polarization psi."""
        kdotpsi = kapx * psi[0] + kapy * psi[1]
        diag = 1.0 + ksq / (4.0 * kz * kz)
        ex = diag * psi[0] - kapx * kdotpsi / (2.0 * kz * kz)
        ey = diag * psi[1] - kapy * kdotpsi / (2.0 * kz * kz)
        ez = -kdotpsi / kz
        return ex, ey, ez

    phase = np.exp(
        1j * (pos[:, 0:1] * kapx[None, :] + pos[:, 1:2] * kapy[None, :]
              + kz * pos[:, 2:3])
    )
    amp = c[None, :] * phase / math.sqrt(2.0 * math.pi)

    omega_rot = rot.omega_z
    rot_scale = omega_rot / (n_refr * C)

    samples = []
    for psi, pref, which in ((pol, math.sqrt(dp.z_impedance), "E"),
                             (np.array([-pol[1], pol[0]]),
                              1.0 / math.sqrt(dp.z_impedance), "H")):
        ex, ey, ez = operator_columns(psi)
        # rotation terms: (Omega/(n c)) [delta_a3 (x w_y - y w_x)
        #                                 + (r_a / k_z)(kappa_x w_y - kappa_y w_x)]
        # with w = (psi_y, -psi_x)
        kdotw = kapx * psi[1] - kapy * psi[0]
        rdotw = pos[:, 0] * psi[1] - pos[:, 1] * psi[0]
        fx = amp * ex[None, :]
        fy = amp * ey[None, :]
        fz = amp * ez[None, :]
        if omega_rot != 0.0:
            fx = fx + amp * (rot_scale * pos[:, 0:1] / kz) * kdotw[None, :]
            fy = fy + amp * (rot_scale * pos[:, 1:2] / kz) * kdotw[None, :]
            fz = fz + amp * (
                rot_scale * rdotw[:, None]
                + (rot_scale * pos[:, 2:3] / kz) * kdotw[None, :]
            )
        field = pref * np.stack([fx.sum(axis=1), fy.sum(axis=1),
                                 fz.sum(axis=1)], axis=1)
        if which == "E":
            e_field = field
        else:
            h_field = field
    for i in range(pos.shape[0]):
        samples.append(FieldSample(position=pos[i].copy(),
                                   E=e_field[i], H=h_field[i]))
    return samples

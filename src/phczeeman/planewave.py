"""Scalar plane-wave band solver for the patterned-mirror cavity lattice.

Solves the transverse eigenproblem (rotation off: the rotation term involves
the position operator, which is unbounded on a periodic system, and is
handled perturbatively by the k.p and zeeman modules instead). Produces band
structures along named k-paths, classifies the Brillouin-zone-corner (T)
states by their C4v representation, extracts band edges and effective
masses, and evaluates the longitudinal Bloch factor and the paraxial field
reconstruction.

Numerical notes: the eigenproblem is assembled and solved in detuning units
(carrier frequency subtracted from the diagonal). Along a k-path only the
named nodes (G, Z, T) get eigenvectors, and there the retained low
eigenpairs are refined with one Rayleigh-Ritz step; this keeps degenerate
pairs coherent to ~1e-3 rad/s instead of the ~1e2 rad/s the raw solver
delivers at the full frequency scale. Interior path points need only their
frequencies and are solved eigenvalue-only, with no vectors and no Ritz step.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .constants import C, HBAR
from .core import (
    ComputationError,
    DerivedParams,
    ExperimentConfig,
    HermitianMatrix,
    LatticeSpec,
    RotationSpec,
    ValidationError,
    derive_params,
)
from .lattice import (
    PatternFourier,
    ReciprocalVector,
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


def _kinetic_diagonal(dp: DerivedParams, basis, kx: float, ky: float,
                      carrier: bool) -> np.ndarray:
    gx = np.array([rv.gx for rv in basis])
    gy = np.array([rv.gy for rv in basis])
    kin = HBAR * ((kx + gx) ** 2 + (ky + gy) ** 2) / (2.0 * dp.m0)
    if carrier:
        kin = dp.omega0 + kin
    return kin


def _assemble(dp, pf, basis, kx, ky, carrier):
    m_idx, n_idx = _basis_indices(basis)
    span = int(max(np.max(m_idx) - np.min(m_idx), np.max(n_idx) - np.min(n_idx)))
    pf = pf.ensure(span)
    kin = _kinetic_diagonal(dp, basis, kx, ky, carrier)
    return _kernels.fill_hamiltonian(
        m_idx, n_idx, kin, pf.table, pf.halfwidth, dp.v_prefactor
    )


def build_hamiltonian(dp: DerivedParams, pf: PatternFourier, basis,
                      k_perp) -> HermitianMatrix:
    """Plane-wave Hamiltonian in angular-frequency units.

    Entry (G', G) = delta_{G'G} * [omega0 + hbar|k+G|^2/(2 m0)]
                    - v_prefactor * phi_{G'-G};
    real symmetric for the centered pattern, eigenvalues are omega directly.
    """
    if not len(basis):
        raise ValidationError("basis must be nonempty")
    kx, ky = float(k_perp[0]), float(k_perp[1])
    if not (math.isfinite(kx) and math.isfinite(ky)):
        raise ValidationError("k_perp must be finite")
    return HermitianMatrix(_assemble(dp, pf, basis, kx, ky, carrier=True))


def _lapack(solver, h):
    """``solver(h)`` with a LAPACK convergence failure as ComputationError."""
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigensolver failed to converge on a {h.shape[0]}x{h.shape[0]} matrix"
        ) from exc


def _solve_refined(dp, pf, basis, kx, ky, n_bands):
    """Detuned eigensolve with a Rayleigh-Ritz pass on the retained subspace."""
    h = _assemble(dp, pf, basis, kx, ky, carrier=False)
    w, v = _lapack(np.linalg.eigh, h)
    low = v[:, :n_bands]
    ritz = low.T @ (h @ low)
    ritz = 0.5 * (ritz + ritz.T)
    wr, u = _lapack(np.linalg.eigh, ritz)
    return dp.omega0 + wr, low @ u


def _solve_omegas(dp, pf, basis, kx, ky, n_bands):
    """Lowest ``n_bands`` omegas of the detuned problem, without vectors."""
    h = _assemble(dp, pf, basis, kx, ky, carrier=False)
    return dp.omega0 + _lapack(np.linalg.eigvalsh, h)[:n_bands]


def solve_bands(config: ExperimentConfig, n_bands: int = DEFAULT_N_BANDS,
                threads: int | None = None) -> BandStructure:
    """Lowest scalar bands along the configured k-path (deterministic).

    Each k-point is assembled and solved on its own. Named nodes (G, Z, T)
    get refined unit-norm eigenvectors, and T states their representation
    labels; interior points are solved eigenvalue-only and their states carry
    ``coefficients=None``. The solves run serially unless ``threads`` > 1
    asks for a pool of that many workers, which only pays off when BLAS
    itself is single-threaded; results are reassembled in path order.
    """
    if threads is not None and threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    dp = derive_params(config.lattice)
    basis = tuple(reciprocal_basis(config.basis_halfwidth, config.lattice.pitch))
    if n_bands > len(basis):
        raise ValidationError(
            f"n_bands = {n_bands} exceeds basis size {len(basis)}"
        )
    pf = PatternFourier.from_lattice(config.lattice, 2 * config.basis_halfwidth)
    kpts = build_kpath(config.kpath, config.lattice.pitch,
                       config.samples_per_segment)

    def solve_one(kp: KPathPoint):
        try:
            if kp.label:
                w, v = _solve_refined(dp, pf, basis, kp.kx, kp.ky, n_bands)
            else:
                w, v = _solve_omegas(dp, pf, basis, kp.kx, kp.ky, n_bands), None
        except ComputationError as exc:
            raise ComputationError(
                f"{exc} at k-point {kp.index} (kx={kp.kx:.6g}, ky={kp.ky:.6g})"
            ) from exc
        labels = [None] * n_bands
        if kp.label == "T":
            groups, group_labels, v = _label_t_point(w, v.astype(complex), basis)
            for grp, lab in zip(groups, group_labels):
                for i in grp:
                    labels[i] = lab
        return tuple(
            BlochState(
                band_index=b,
                k_perp=(kp.kx, kp.ky),
                omega=float(w[b]),
                coefficients=None if v is None else v[:, b].astype(complex),
                basis=basis,
                rep_label=labels[b],
            )
            for b in range(n_bands)
        )

    if threads is None or threads == 1:
        rows = [solve_one(kp) for kp in kpts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            rows = list(ex.map(solve_one, kpts))
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


def _group_matrix(group) -> np.ndarray:
    """Coefficient matrix (ns, g) from a group of states or a raw array."""
    if isinstance(group, np.ndarray):
        return group if group.ndim == 2 else group[:, None]
    return np.column_stack([np.asarray(st.coefficients) for st in group])


def _channel_weights(mat: np.ndarray, channels) -> dict[str, float]:
    """Weight of the states in ``mat`` (ns, g) on each corner channel.

    The weight is the squared channel projection summed over the group, so it
    ranges from 0 to the group size.
    """
    return {
        name: float(np.sum(np.abs(vec @ mat.conj()) ** 2))
        for name, vec in channels.items()
    }


def classify_t_states(groups, basis) -> list[str]:
    """Representation labels for degenerate eigenvector groups at T.

    Each group is projected onto the symmetrized corner-wave channels; the
    label is the channel holding more than half of the group's weight, or
    ``unclassified`` when the group is dominated by higher shells (not an
    error) or spans several channels (empty-lattice fourfold group).
    """
    channels = _corner_channels(basis)
    labels = []
    for group in groups:
        mat = _group_matrix(group)
        g = mat.shape[1]
        weight = _channel_weights(mat, channels)
        scores = {
            LABEL_S: weight["S"] / g,
            LABEL_PAIR: (weight["X"] + weight["Y"]) / g,
            LABEL_XY: weight["XY"] / g,
        }
        best = max(scores, key=scores.get)
        labels.append(best if scores[best] > 0.5 else LABEL_NONE)
    return labels


def _fix_pair_vectors(vectors: np.ndarray, groups, labels, basis) -> np.ndarray:
    """Rotate each twofold group onto its x-odd / y-odd channel members.

    Within a degenerate pair the eigensolver returns an arbitrary orthonormal
    basis; projecting the channel vectors into the degenerate subspace fixes
    it deterministically (member 0 x-odd, member 1 y-odd, phases canonical),
    which keeps representation labels and downstream consumers stable.
    """
    channels = _corner_channels(basis)
    out = np.array(vectors, copy=True)
    for grp, lab in zip(groups, labels):
        if lab != LABEL_PAIR or len(grp) != 2:
            continue
        sub = out[:, list(grp)]
        v_x = sub @ (sub.conj().T @ channels["X"])
        norm_x = np.linalg.norm(v_x)
        if norm_x < 0.5:
            continue
        v_x = v_x / norm_x
        v_y = sub @ (sub.conj().T @ channels["Y"])
        v_y = v_y - v_x * (v_x.conj() @ v_y)
        norm_y = np.linalg.norm(v_y)
        if norm_y < 0.5:
            continue
        out[:, grp[0]] = v_x
        out[:, grp[1]] = v_y / norm_y
    return out


@dataclass(frozen=True, eq=False)
class TPointAnalysis:
    """Classified eigenstates at the T point on the corner-adapted window."""

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


def _label_t_point(omegas, vectors, basis):
    """Cluster the T-point eigenpairs and label each group by representation.

    Returns ``(groups, labels, vectors)``, the vectors with each degenerate
    pair rotated onto its x-odd / y-odd members.
    """
    groups = cluster_degenerate(omegas)
    labels = classify_t_states([vectors[:, grp] for grp in groups], basis)
    return groups, labels, _fix_pair_vectors(vectors, groups, labels, basis)


def _channel_edges(omegas, vectors, basis) -> tuple[float, float, float]:
    """Vector band edges from scalar states via channel projections.

    Scalar-representation x spin reduction assigns: vector T5 edge = scalar
    S edge, vector T1 edge = scalar (X,Y) edge, vector T5' edge = scalar XY
    edge. Each edge is the group holding most of its channel's weight per
    channel dimension. Works on the empty lattice too, where one fourfold
    group carries every channel and the three edges coincide.
    """
    channels = _corner_channels(basis)
    groups = cluster_degenerate(omegas)
    weights = [_channel_weights(vectors[:, grp], channels) for grp in groups]
    edges = {}
    for chan_name, dim, members in (
        ("S", 1, ("S",)),
        ("pair", 2, ("X", "Y")),
        ("XY", 1, ("XY",)),
    ):
        scores = [sum(w[m] for m in members) / dim for w in weights]
        best = max(range(len(groups)), key=scores.__getitem__)
        if scores[best] <= 0.5:
            found = classify_t_states(
                [vectors[:, grp] for grp in groups], basis
            )
            raise ComputationError(
                f"missing required representation for channel {chan_name!r} "
                f"among the lowest bands; found labels {found}"
            )
        edges[chan_name] = float(np.mean(omegas[groups[best]]))
    return (edges["S"], edges["pair"], edges["XY"])


def t_point_analysis(config: ExperimentConfig,
                     n_bands: int = DEFAULT_N_BANDS,
                     halfwidth: int | None = None) -> TPointAnalysis:
    """Solve and classify the T point on the C4v-symmetric corner window."""
    dp = derive_params(config.lattice)
    hw = halfwidth if halfwidth is not None else config.basis_halfwidth
    basis = tuple(t_centered_basis(hw, config.lattice.pitch))
    pf = PatternFourier.from_lattice(config.lattice, 2 * hw + 2)
    kt = named_kpoint("T", config.lattice.pitch)
    w, v = _solve_refined(dp, pf, basis, kt[0], kt[1], n_bands)
    groups, labels, v = _label_t_point(w, v, basis)
    return TPointAnalysis(
        omegas=w, vectors=v, basis=basis,
        groups=tuple(tuple(g) for g in groups), labels=tuple(labels),
        edges=_channel_edges(w, v, basis),
    )


def band_edges(bs: BandStructure) -> tuple[float, float, float]:
    """Vector band edges (omega_T5, omega_T1, omega_T5p) from a solved path.

    Requires the path to contain the T node. For edge values feeding the k.p
    model prefer :func:`t_point_analysis`, which uses the corner-adapted
    window and keeps the degenerate pair exactly coherent.
    """
    for kp, row in zip(bs.kpoints, bs.states):
        if kp.label == "T":
            omegas = np.array([st.omega for st in row])
            vectors = np.column_stack([st.coefficients for st in row])
            return _channel_edges(omegas, vectors, bs.basis)
    raise ComputationError("band structure contains no T-point sample")


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
    dp = derive_params(config.lattice)
    pf = PatternFourier.from_lattice(config.lattice, 2 * config.basis_halfwidth + 2)
    kt = named_kpoint("T", config.lattice.pitch)
    idx = grp[0]
    reference = BlochState(
        band_index=idx, k_perp=kt, omega=float(analysis.omegas[idx]),
        coefficients=analysis.vectors[:, idx].astype(complex),
        basis=analysis.basis,
    )
    n_bands = analysis.omegas.size

    def solver(kx, ky):
        return _solve_refined(dp, pf, analysis.basis, kx, ky, n_bands)

    if step is None:
        step = 1e-3 * math.pi / config.lattice.pitch
    return effective_mass_fd(solver, reference, direction, step,
                             richardson_levels)


# --------------------------------------------------------------------------
# longitudinal profile

def longitudinal_profile(state: BlochState, pf: PatternFourier,
                         samples: int = 256) -> LongitudinalProfile:
    """Per-reflection phase and fast longitudinal factor of a Bloch state.

    alpha is the pattern expectation value in the state; eta is sampled on a
    uniform grid over one longitudinal period z in [-l_z, l_z). The exponent
    is purely imaginary, so |1 + eta| = 1 identically and the wrapped sum of
    eta increments over the period vanishes.
    """
    c = _state_vector(state)
    m_idx, n_idx = _basis_indices(state.basis)
    span = int(max(np.max(m_idx) - np.min(m_idx), np.max(n_idx) - np.min(n_idx)))
    pf = pf.ensure(span)
    alpha = _kernels.pattern_overlap(c, m_idx, n_idx, pf.table, pf.halfwidth)
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

"""Scalar plane-wave band solver for the patterned-mirror cavity lattice.

Solves the transverse eigenproblem (rotation off: the rotation term involves
the position operator, which is unbounded on a periodic system, and is
handled perturbatively by the k.p and zeeman modules instead). Produces band
structures along named k-paths, classifies the Brillouin-zone-corner (T)
states by their C4v representation, extracts band edges and the curvature
masses of the nondegenerate edges, and evaluates the longitudinal Bloch
factor.

Numerical notes: the eigenproblem is assembled and solved in detuning units
(carrier frequency subtracted from the diagonal). Every basis is a square
``lattice.Window`` of waves, m-major: the symmetric window
(``reciprocal_basis``) for k-paths and the corner window
(``t_centered_basis``) at T. On it H is exactly Kx ⊗ I + I ⊗ Ky - c*(S ⊗ S),
with c = v*dphi*FF and S the Toeplitz sinc factor over the window's axis
(see ``_kernels``). Only S and these 1D pieces are kept per window; no
N x N array lives across k-points. A k-path is solved point by point in
path order by ``solve_path``, the one place that builds a path's problem
and picks the solver below; ``solve_bands`` and ``validate``'s k.p rays,
one path through T, both call it. Every point is solved afresh, and
keeps eigenvectors only where its caller asks (``validate``'s Γ state);
``solve_bands`` keeps none (``BandStructure``).

From halfwidth ``_BLOCK_MIN_HALFWIDTH`` (7, the measured crossover) every
path point is solved by a warm-started block eigensolver (LOBPCG,
``_block_solve``) on the matrix-free apply kin∘X - c*S X S^T, X the block's
columns reshaped onto the window (``_Problem.apply``): 12 vectors, 8 of
them wanted, each point starting from the Ritz vectors over the previous
three points' blocks, whose span holds the states' second-order
extrapolation along the path. Its omegas are the Rayleigh quotients of a
fresh apply to the converged vectors, which also certifies their
residuals, so they carry no round-off that grows with the basis as a
dense eigensolve's do, and a point holds O(36 N) entries, never H. Below
the crossover each point is solved dense: H is written afresh at each
point (``_kernels.fill_hamiltonian``) and solved eigenvalue-only unless
the point is kept.

The T point itself is analysed on the corner window, closed under the
whole C4v little group of T, in its exact sectors. The axis mirror
between waves, m -> -1-m, folds S into S+-, the rows and columns of S on
the half axis m = -k..-1 (k = halfwidth + 1) plus or minus the same rows'
columns -1-m: two slices of S added. So each axis-parity sector is
-c*(S_p ⊗ S_q) plus the kinetic diagonal. x <-> y splits the (even, even)
and (odd, odd) sectors, -c*(A ⊗ A) for A = S+ and S-, into their even and
odd blocks (``_swap_block``, over the fixed waves (i, i) and the pairs
i < j), and ``_t_sectors`` builds each block by name only when it is
asked for. The (x-odd, y-even) sector's -c*(S- ⊗ S+) is written by
``_kernels.fill_hamiltonian``, as a dense path point's pattern term is.
H is never formed, the degenerate pair comes out exactly degenerate and
every state's label is the sector it was solved in. The S and XY edge
masses are the exact second-order k.p sums over the (x-odd, y-even)
sector, the only one kappa_x S and kappa_y XY reach. ``t_edges`` builds
and solves, eigenvalue-only, just the three sectors whose lowest states
are the edges, for callers that need nothing else; ``bands`` solves them
first, for its k.p model and the labels of a k-path's T node, solved on
the symmetric window. ``t_point_analysis`` checks ``core.eigh``'s
contract on its solves.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .constants import HBAR
from .core import (
    ComputationError,
    ExperimentConfig,
    LatticeSpec,
    ValidationError,
    derive_params,
    eigh,
)
from .lattice import (
    Window,
    pattern_factors,
    reciprocal_basis,
    sinc,
    t_centered_basis,
)

DEFAULT_N_BANDS = 8  # bands per path point: the corner manifold plus guards

# The warm-started block eigensolver (``_block_solve``) solves every path
# point of a basis at least _BLOCK_MIN_HALFWIDTH wide, and the dense solves
# of ``_solve`` the narrower ones. 7 is the smallest halfwidth at which it
# beat them on the default path from two blocks, and its omegas are the
# more accurate (measured crossover, see README); from three blocks it
# also beats them at 6.
_BLOCK_MIN_HALFWIDTH = 7
_BLOCK_GUARD = 4  # block vectors beyond the wanted bands
_BLOCK_SEARCHED_GUARD = 1  # ... of which each step searches along the first
_BLOCK_MAX_ITERATIONS = 300
_BLOCK_RESIDUAL = 1e-8  # wanted residual norms, relative to c = v*dphi*FF
_BLOCK_FLOOR = 1e-14  # ... and relative to the window's largest kinetic energy

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
class BandStructure:
    """The lowest bands on a k-path, as arrays over (k-point, band).

    ``omegas[i, b]`` is band b at ``kpoints[i]``, ascending in b, and
    ``rep_labels[i, b]`` its T representation label, "" off the T node: the
    sector of the corner-window edge it lies at (``classify_t_states``).
    No eigenvector is kept. Every scalar band carries the two photon spin
    states, which stay degenerate without rotation.
    """

    kpoints: tuple[KPathPoint, ...]
    omegas: np.ndarray
    rep_labels: np.ndarray
    config: ExperimentConfig

    @property
    def n_bands(self) -> int:
        return self.omegas.shape[1]


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


# --------------------------------------------------------------------------
# Hamiltonian assembly

@functools.cache
def _swap_waves(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The waves of the even block of the x <-> y fold, (i, j) -> (j, i), of
    the m-major width x width grid, as their rows and columns: the fixed
    waves (i, i), then the pairs (i, j), i < j, m-major. The odd block's
    waves are the pairs. Read-only: every call for a width shares them."""
    i, j = np.triu_indices(width, 1)
    fixed = np.arange(width)
    waves = np.concatenate([fixed, i]), np.concatenate([fixed, j])
    for index in waves:
        index.flags.writeable = False
    return waves


def _swap_block(a: np.ndarray, c: float, kinetic: np.ndarray,
                odd: bool) -> np.ndarray:
    """The even (or, when ``odd``, odd) block under x <-> y of
    -c*(A ⊗ A) plus the diagonal ``kinetic``, on the m-major grid over the
    axis of the symmetric ``a``, built afresh over ``_swap_waves``.

    For waves (i, j) and (k, l) its entries are
    -c*(A[i, k] A[j, l] +- A[i, l] A[j, k]), each product of a row gather
    and then a column gather of ``a``; the even block's fixed rows and then
    its fixed columns are scaled by 1/sqrt(2). The kinetic diagonal stays
    diagonal under the fold: a pair wave's image is another wave, and the
    two scalings of a fixed wave undo its doubled entry.
    """
    width = a.shape[0]
    p, q = _swap_waves(width)
    if odd:
        p, q = p[width:], q[width:]
    a_p, a_q = a[p], a[q]
    block = a_p[:, p]
    block *= a_q[:, q]
    swapped = a_p[:, q]
    swapped *= a_q[:, p]
    (np.subtract if odd else np.add)(block, swapped, out=block)
    block *= -c
    if not odd:
        block[:width] *= math.sqrt(0.5)
        block[:, :width] *= math.sqrt(0.5)
    block[np.diag_indices_from(block)] += kinetic.reshape(width, width)[p, q]
    return block


def _swap_lift(u: np.ndarray, width: int) -> np.ndarray:
    """Columns ``u`` over the even block of ``_swap_block`` as unit-norm
    vectors over the m-major width x width grid: u[f] on a fixed wave, and
    u[p] / sqrt(2) on a pair wave p and on its transpose."""
    rows, cols = _swap_waves(width)
    lifted = u.copy()
    lifted[width:] *= math.sqrt(0.5)
    grid = np.zeros((width, width, u.shape[1]))
    grid[rows, cols] = lifted
    grid[cols, rows] = lifted
    return grid.reshape(width * width, -1)


@dataclass(frozen=True, eq=False)
class _Problem:
    """The k-independent pieces of the detuned eigenproblem on one window.

    H is Kx ⊗ I + I ⊗ Ky - c*(S ⊗ S), with c = v*dphi*FF, S = ``factor``
    the Toeplitz factor of the pattern factors over the window's axis and
    ``gx``, ``gy`` the window's G. Only 1D pieces and S are kept, never an
    N x N array. ``apply`` applies H to a block of vectors without forming
    it, for the block eigensolver, whose stopping bound is
    ``residual_bound``. Below that solver's crossover, ``hamiltonian``
    writes the dense H afresh for each k (``_kernels.fill_hamiltonian``).
    """

    omega0: float
    m0: float
    v_prefactor: float
    depth: float  # dphi * FF
    factor: np.ndarray
    gx: np.ndarray
    gy: np.ndarray

    def kinetic(self, kx: float, ky: float) -> np.ndarray:
        """The kinetic diagonal hbar|k+G|^2/(2 m0) at (kx, ky)."""
        return HBAR * ((kx + self.gx) ** 2 + (ky + self.gy) ** 2) / (2.0 * self.m0)

    def hamiltonian(self, kx: float, ky: float) -> np.ndarray:
        """Dense detuned H at (kx, ky): the pattern term written afresh plus
        the kinetic diagonal."""
        h = _kernels.fill_hamiltonian(self.depth * self.factor, self.factor,
                                      self.v_prefactor)
        h[np.diag_indices_from(h)] += self.kinetic(kx, ky)
        return h

    def apply(self, kinetic: np.ndarray, x: np.ndarray) -> np.ndarray:
        """H with the kinetic diagonal ``kinetic`` (``kinetic(kx, ky)``)
        applied to the columns of ``x``, without forming H: kin∘X - c*S X S^T
        on each column X reshaped onto the n x n window.

        ``x`` (N, b) is read as an (n, n, b) grid [m, n, column]: S acts on
        the m axis as one (n, n) by (n, n*b) product, and then on the n axis
        of each m as one stacked product."""
        width = self.factor.shape[0]
        pattern = (self.factor @ x.reshape(width, -1)).reshape(width, width, -1)
        pattern = self.factor @ pattern
        pattern *= -self.v_prefactor * self.depth
        return pattern.reshape(x.shape) + kinetic[:, None] * x

    @property
    def residual_bound(self) -> float:
        """The block solver's stopping bound on each wanted residual norm:
        ``_BLOCK_RESIDUAL`` times the corner-manifold scale c, and no less
        than the residual the apply's round-off leaves at the largest
        kinetic energy of the window."""
        largest = HBAR * (np.max(self.gx ** 2) + np.max(self.gy ** 2)) / (2.0 * self.m0)
        return max(_BLOCK_RESIDUAL * abs(self.v_prefactor * self.depth),
                   _BLOCK_FLOOR * largest)


def _problem(lattice: LatticeSpec, window: Window) -> _Problem:
    """Build the problem on ``window`` from the 1D pattern factors."""
    dp = derive_params(lattice)
    factor = _kernels.axis_factor(pattern_factors(lattice, window.width - 1))
    depth = lattice.dphi * lattice.fill_factor
    return _Problem(
        omega0=dp.omega0, m0=dp.m0, v_prefactor=dp.v_prefactor, depth=depth,
        factor=factor, gx=window.gx, gy=window.gy,
    )


def _lapack(solver, h):
    """``solver(h)`` with a LAPACK convergence failure as ComputationError,
    on the BLAS pool when ``h`` is large (``_kernels.pooled``)."""
    try:
        with _kernels.pooled(h.shape[-1]):
            return solver(h)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigensolver failed to converge on a {h.shape[0]}x{h.shape[0]} matrix"
        ) from exc


def _solve(problem: _Problem, kx, ky, vectors: bool = False):
    """Lowest ``DEFAULT_N_BANDS`` omegas at (kx, ky) from a dense solve of
    H, and their unit eigenvectors over the basis when ``vectors`` (``eigh``;
    else ``eigvalsh``, and None)."""
    h = problem.hamiltonian(kx, ky)
    if vectors:
        w, u = _lapack(np.linalg.eigh, h)
        return problem.omega0 + w[:DEFAULT_N_BANDS], u[:, :DEFAULT_N_BANDS]
    return problem.omega0 + _lapack(np.linalg.eigvalsh, h)[:DEFAULT_N_BANDS], None


def _orthonormal(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of ``z`` orthogonal to the
    orthonormal columns ``x``: two passes of projection and Cholesky-QR.
    Householder QR of [x, z] instead where the Gram matrix is not
    numerically positive definite, or where the second pass finds the
    first pass's columns far from orthonormal: ``z`` was so nearly
    dependent, on itself or on ``x``, that the first pass blew its
    round-off up into columns that are neither."""
    norms = np.sqrt(np.einsum("ij,ij->j", z, z))
    z = z[:, norms > 0] / norms[norms > 0]  # a zero column spans nothing
    q = z
    for sweep in range(2):
        q = q - x @ (x.T @ q)
        gram = q.T @ q
        if sweep and np.max(np.abs(gram - np.eye(len(gram)))) > 0.5:
            break
        try:
            q = q @ np.linalg.inv(np.linalg.cholesky(gram)).T
        except np.linalg.LinAlgError:
            break
    else:
        return q
    return np.linalg.qr(np.hstack([x, z]))[0][:, x.shape[1]:]


def _block_solve(problem: _Problem, kx, ky, previous=()):
    """Lowest ``DEFAULT_N_BANDS`` detuned eigenvalues at (kx, ky), ascending,
    and an orthonormal block whose first columns are their vectors, by
    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)) on
    ``problem.apply``.

    The block holds ``_BLOCK_GUARD`` more vectors than wanted. ``previous``
    holds the blocks of the last one to three path points, latest first;
    the solve starts from the lowest Ritz vectors over their joint span (36
    vectors from three), or with none from the lowest-kinetic plane waves.
    Two blocks span the states' linear extrapolation along the path, as
    MPB warm-starts (Johnson and Joannopoulos, Opt. Express 8, 173 (2001));
    three also span the second-order one that plane-wave molecular dynamics
    uses for its wave functions (Arias, Payne and Joannopoulos, Phys. Rev.
    B 45, 1538 (1992)).
    Each step preconditions the residuals of the unconverged wanted columns
    and of the first ``_BLOCK_SEARCHED_GUARD`` guard columns by
    1/(|H_ii - lambda| + 1e-3 max kin), H_ii = kin - c the diagonal of H,
    and solves the Rayleigh-Ritz problem on the block X, those directions
    and the previous step's, orthonormalized into Z. As in Duersch, Shao,
    Yang and Gu (SIAM J. Sci. Comput. 40, C655 (2018)), the X block of its
    matrix is the known diag(lambda), so only (AX)^T Z and Z^T (AZ) are
    multiplied out, and X and AX are updated by their Ritz coefficients
    without a new apply. Once every wanted residual norm is at most
    ``problem.residual_bound``, the wanted vectors get a fresh apply: the
    eigenvalues returned are their Rayleigh quotients, each over its own
    norm, once every true residual it gives is within the bound too.
    Otherwise the updated AX has drifted, and the solver starts again from
    X. ComputationError when that takes more than ``_BLOCK_MAX_ITERATIONS``
    steps.
    """
    kinetic = problem.kinetic(kx, ky)
    n_bands = DEFAULT_N_BANDS
    size = n_bands + _BLOCK_GUARD
    searched = n_bands + _BLOCK_SEARCHED_GUARD
    if not previous:
        start = np.zeros((kinetic.size, size))
        start[np.argsort(kinetic, kind="stable")[:size], np.arange(size)] = 1.0
    elif len(previous) == 1:
        start = previous[0]
    else:
        start = np.hstack(
            [previous[0], _orthonormal(np.hstack(previous[1:]), previous[0])])
    diagonal = kinetic - problem.v_prefactor * problem.depth  # s_0 = 1
    shift = 1e-3 * np.max(kinetic)
    bound = problem.residual_bound

    def ritz(q):  # the lowest Ritz pairs over the columns q, fresh apply
        aq = problem.apply(kinetic, q)
        theta, c = _lapack(np.linalg.eigh, q.T @ aq)
        return theta[:size], q @ c[:, :size], aq @ c[:, :size]

    w, x, ax = ritz(start)
    p = None
    for _ in range(_BLOCK_MAX_ITERATIONS):
        r = ax - x * w
        norms = np.sqrt(np.einsum("ij,ij->j", r, r))
        if np.all(norms[:n_bands] <= bound):
            wanted = x[:, :n_bands]
            a_wanted = problem.apply(kinetic, wanted)
            rq = (np.einsum("ij,ij->j", wanted, a_wanted)
                  / np.einsum("ij,ij->j", wanted, wanted))
            r = a_wanted - wanted * rq
            norms[:n_bands] = np.sqrt(np.einsum("ij,ij->j", r, r))
            if np.all(norms[:n_bands] <= bound):
                order = np.argsort(rq, kind="stable")
                x[:, :n_bands] = wanted[:, order]
                return rq[order], x
            w, x, ax = ritz(x)  # the updated AX drifted: start again from x
            p = None
            continue
        active = np.flatnonzero(norms[:searched] > bound)
        z = r[:, active] / (np.abs(diagonal[:, None] - w[active]) + shift)
        if p is not None:
            z = np.hstack([z, p[:, active]])
        z = _orthonormal(z, x)
        az = problem.apply(kinetic, z)
        # the Rayleigh-Ritz matrix of [x, z]; eigh reads its lower triangle
        gram = np.zeros((size + z.shape[1],) * 2)
        gram[np.arange(size), np.arange(size)] = w
        gram[size:, :size] = z.T @ ax
        gram[size:, size:] = z.T @ az
        theta, c = _lapack(np.linalg.eigh, gram)
        c_x, c_z = c[:size, :size], c[size:, :size]
        p = z @ c_z
        x, ax, w = x @ c_x + p, ax @ c_x + az @ c_z, theta[:size]
    raise ComputationError(
        f"block eigensolver left a residual of {np.max(norms[:n_bands]):.3e} "
        f"rad/s (bound {bound:.3e}) after {_BLOCK_MAX_ITERATIONS} iterations"
    )


def solve_path(lattice: LatticeSpec, window: Window, kpoints, keep=()):
    """Lowest ``DEFAULT_N_BANDS`` omegas of ``lattice`` at each (kx, ky) of
    ``kpoints`` on the symmetric ``window``, solved in path order, as an
    (n_k, DEFAULT_N_BANDS) array, and the unit eigenvectors of the points
    whose positions are in ``keep``, keyed by position.

    The problem's 1D pieces are built once (``_problem``). From halfwidth
    ``_BLOCK_MIN_HALFWIDTH`` each point is solved by the block eigensolver
    on the matrix-free apply (``_block_solve``), started from the previous
    three points' blocks, whose span holds the vectors' second-order
    extrapolation along the path: 286 steps on the default 121-point path
    at h = 7, against 445 from two blocks and 571 from one. The wanted
    columns are its vectors. Below it each point is assembled and solved
    dense on its own (``_solve``), eigenvalue-only unless kept. A point
    that recurs, like the closing G of G:Z:T:G, is solved again.
    """
    problem = _problem(lattice, window)
    blocked = problem.factor.shape[0] // 2 >= _BLOCK_MIN_HALFWIDTH
    omegas = np.empty((len(kpoints), DEFAULT_N_BANDS))
    vectors = {}
    blocks = ()  # the last three points' blocks, latest first
    for i, (kx, ky) in enumerate(kpoints):
        try:
            if blocked:
                w, block = _block_solve(problem, kx, ky, blocks)
                blocks = (block, *blocks[:2])
                w, v = problem.omega0 + w, block[:, :DEFAULT_N_BANDS]
            else:
                w, v = _solve(problem, kx, ky, vectors=i in keep)
        except ComputationError as exc:
            raise ComputationError(
                f"{exc} at k-point {i} (kx={kx:.6g}, ky={ky:.6g})"
            ) from exc
        omegas[i] = w
        if i in keep:
            vectors[i] = v
    return omegas, vectors


def solve_bands(config: ExperimentConfig, edges) -> BandStructure:
    """Lowest scalar bands along the configured k-path (deterministic),
    solved in path order by ``solve_path``, without eigenvectors.

    T rows get their representation labels from ``edges``, the corner
    window's sector edges (``t_edges``, ``classify_t_states``). ``edges``
    may be None only for a path without T, else ValidationError before
    any point is solved.
    """
    kpts = tuple(build_kpath(config.kpath, config.lattice.pitch,
                             config.samples_per_segment))
    t_rows = [kp.index for kp in kpts if kp.label == "T"]
    if t_rows and edges is None:
        raise ValidationError("a path through T needs the T sector edges "
                              "(t_edges) to label its T node")
    omegas, _ = solve_path(
        config.lattice,
        reciprocal_basis(config.basis_halfwidth, config.lattice.pitch),
        [(kp.kx, kp.ky) for kp in kpts])
    rep_labels = np.full(omegas.shape, "", dtype=object)
    for i in t_rows:
        rep_labels[i] = classify_t_states(omegas[i], edges)
    return BandStructure(kpoints=kpts, omegas=omegas, rep_labels=rep_labels,
                         config=config)


# --------------------------------------------------------------------------
# T-point symmetry analysis

def cluster_degenerate(omegas: np.ndarray) -> list[list[int]]:
    """Group ascending eigenvalues into degenerate clusters.

    The tolerance max(1 rad/s, 1e-11 * max |omega|) absorbs finite-basis and
    round-off splittings while keeping the physical gaps (>= 1e6 rad/s in
    the perturbative regime) resolved.
    """
    omegas = np.asarray(omegas)
    tol = max(1.0, 1e-11 * float(np.max(np.abs(omegas))))
    groups: list[list[int]] = [[0]]
    for i in range(1, omegas.size):
        if omegas[i] - omegas[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def classify_t_states(omegas, edges) -> list[str]:
    """Representation labels for the ascending ``omegas`` of a T node, from
    the T1(S), T5(X,Y) and T4(XY) sector ``edges`` (``t_edges``).

    Used at the T node of a k-path, whose symmetric window is not closed
    under the corner mirrors, so its states carry no exact sector. Each edge
    labels its nearest rows, as many as its sector's multiplicity (one for S
    and XY, two for the pair), of those closer to it than a quarter of the
    smallest gap between the edges; every other row is ``unclassified``.
    Edges that coincide (dphi = 0) leave every row unclassified.
    """
    omegas = np.asarray(omegas)
    labels = np.full(omegas.size, LABEL_NONE, dtype=object)
    reach = 0.25 * min(abs(a - b) for a, b in itertools.combinations(edges, 2))
    for edge, label, count in zip(edges, (LABEL_S, LABEL_PAIR, LABEL_XY),
                                  (1, 2, 1)):
        distance = np.abs(omegas - edge)
        nearest = np.argsort(distance, kind="stable")[:count]
        labels[nearest[distance[nearest] < reach]] = label
    return labels.tolist()


@dataclass(frozen=True, eq=False)
class TPointAnalysis:
    """Eigenvalues at the T point on the corner window, by C4v sector
    (``t_point_analysis``).

    ``omegas`` are the lowest ``DEFAULT_N_BANDS`` states of the corner
    window ``t_centered_basis(h, pitch)``, the waves (m, n) with m, n in
    [-h-1, h]. ``groups`` are their degenerate clusters
    (``cluster_degenerate``) and ``labels`` each group's common sector
    (``unclassified`` when a group mixes sectors or lies in one of the two
    x <-> y-odd partner sectors, which hold none of the four corner waves).
    ``edges`` are the lowest T1(S), T5(X,Y) and T4(XY) sector omegas, which
    ``KpModel`` calls omega_T5, omega_T1 and omega_T5p (its docstring holds
    the map). ``masses`` maps LABEL_S and LABEL_XY to the curvature mass
    hbar / (d^2 omega / dk^2) of that edge itself, where the edge is among
    ``omegas`` and alone in its group; a nondegenerate state at T has an
    isotropic mass. ``contract`` is ``core.eigh``'s on the five sector
    solves: the residual ||B v - w v|| worst against its bound
    1e-10 ||B||_F, that bound, the largest |V^T V - I| entry, and whether
    every block's eigenvalues ascend.
    """

    omegas: np.ndarray
    groups: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    edges: tuple[float, float, float]  # T1(S), T5(X,Y), T4(XY) sector edges
    masses: dict[str, float]
    contract: tuple[float, float, float, bool]


@dataclass(frozen=True, eq=False)
class _TSectors:
    """The C4v sectors of the detuned H at T on the corner window, each
    block built afresh when ``block`` is asked for it by name.

    With k = halfwidth + 1, the mirror m -> -1-m folds the window's axis
    [-k, k-1] onto its half m = -k..-1, and the Toeplitz factor S of the
    corner window's ``problem`` into ``plus`` and ``minus``: S+- =
    S[:k, :k] +- its image, the same rows' columns -1-m, two slices of S.
    The kinetic term, with ``kappa`` = (pi/pitch)(2m+1), stays diagonal and
    is the problem's ``kinetic`` on the m-major k x k grid of the half
    axes. So each axis-parity sector is -c*(S_p ⊗ S_q),
    c = v*dphi*FF, plus that kinetic diagonal. The x <-> y fold of the
    grid (``_swap_block``) splits the (even, even) sector, of S+, into
    T1(S) "S" and its x <-> y-odd partner "S'", and the (odd, odd) one, of
    S-, into T4(XY) "XY" and "XY'". "X" is the (x-odd, y-even) sector,
    -c*(S- ⊗ S+), which holds the x member of each T5(X,Y) pair.
    """

    problem: _Problem
    kappa: np.ndarray
    kinetic: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    c: float

    def block(self, name: str) -> np.ndarray:
        """The block of the sector ``name``: "S", "S'", "XY", "XY'" or "X"."""
        if name == "X":
            block = _kernels.fill_hamiltonian(self.minus, self.plus, self.c)
            block[np.diag_indices_from(block)] += self.kinetic
            return block
        factor = self.plus if name.startswith("S") else self.minus
        return _swap_block(factor, self.c, self.kinetic, name.endswith("'"))


def _t_sectors(lattice: LatticeSpec, halfwidth: int) -> _TSectors:
    """The C4v sectors of H at T on the corner window of ``halfwidth``,
    from the 1D pattern factors; no block is built until asked for."""
    k = halfwidth + 1
    problem = _problem(lattice, t_centered_basis(halfwidth, lattice.pitch))
    t_point = named_kpoint("T", lattice.pitch)
    # column j of image is column 2k-1-j of S: m -> -1-m on the half axis
    half, image = problem.factor[:k, :k], problem.factor[:k, :k - 1:-1]
    # (v*dphi)*FF, not the problem's v*(dphi*FF): the two differ by an ulp
    # on some lattices, and the T edges are written with this rounding
    c = problem.v_prefactor * lattice.dphi * lattice.fill_factor
    return _TSectors(
        problem=problem,
        kappa=t_point[0] + problem.gx.reshape(2 * k, 2 * k)[:k, 0],
        kinetic=problem.kinetic(*t_point).reshape(2 * k, 2 * k)[:k, :k].ravel(),
        plus=half + image, minus=half - image, c=c,
    )


def t_point_analysis(lattice: LatticeSpec, halfwidth: int) -> TPointAnalysis:
    """Solve the T point on the corner window in its exact C4v sectors.

    The window m, n in [-h-1, h] is closed under x -> -x (m -> -1-m),
    y -> -y (n -> -1-n) and x <-> y, so H at T splits exactly into the
    sectors that ``_t_sectors`` builds from the 1D pattern factors, without
    forming H. With k = h + 1 they are T1(S) of k(k+1)/2 waves, its
    x <-> y-odd partner of k(k-1)/2, T4(XY) and its partner of the same
    sizes, and the (x-odd, y-even) sector of k^2 waves, whose transposed
    grid is the (x-even, y-odd) sector; each is built by name and solved
    by one ``core.eigh``, whose contract is checked. A T5 pair is an
    (x-odd, y-even) state and its transpose, so it is exactly degenerate,
    x member first.

    The S and XY edge masses come from the second-order k.p sum (Luttinger
    and Kohn, Phys. Rev. 97, 869 (1955)); H(k) is quadratic in k, so for a
    nondegenerate state n it is exact:
    d^2 omega_n / dk^2 = hbar/m0 + 2 sum_m |<m|hbar kappa/m0|n>|^2 / (w_n - w_m),
    with kappa = k + G along the step. kappa_x maps S, and kappa_y maps XY,
    into the (x-odd, y-even) sector, so the sum runs over that sector's whole
    spectrum; kappa is odd under its axis mirror, a diagonal on the grid.
    Only the two edge states are lifted onto the grid, one column each.
    """
    sectors = _t_sectors(lattice, halfwidth)
    problem, k, n_bands = sectors.problem, halfwidth + 1, DEFAULT_N_BANDS
    checks = []  # per block: (residual, bound), orthonormality, ascending

    def solve(name):  # the whole spectrum, with its contract checked
        block = sectors.block(name)
        w, u = _lapack(eigh, block)
        residual = block @ u
        residual -= u * w
        checks.append(((float(np.max(np.linalg.norm(residual, axis=0))),
                        1e-10 * float(np.linalg.norm(block))),
                       float(np.max(np.abs(u.T @ u - np.eye(w.size)))),
                       bool(np.all(np.diff(w) >= 0))))
        return w, u

    def edge(name):  # lowest omegas and the lowest state on the k x k grid
        w, u = solve(name)  # an even block of the x <-> y fold
        return w[:n_bands], _swap_lift(u[:, :1], k).reshape(k, k)

    w_s, s_grid = edge("S")
    w_s2 = solve("S'")[0][:n_bands]
    w_xy, xy_grid = edge("XY")
    w_xy2 = solve("XY'")[0][:n_bands]
    w_x, u_x = solve("X")  # whole, for the masses
    # per sector: lowest omegas, label; X twice, its pairs' x and y members
    found = ((w_s, LABEL_S), (w_s2, LABEL_NONE), (w_xy, LABEL_XY),
             (w_xy2, LABEL_NONE), *[(w_x[:n_bands], LABEL_PAIR)] * 2)

    w = np.concatenate([low for low, _ in found])
    order = np.argsort(w, kind="stable")[:n_bands]
    omegas = problem.omega0 + w[order]
    state = [label for low, label in found for _ in low]  # each omega's label
    groups = cluster_degenerate(omegas)
    labels = []
    for grp in groups:
        members = {state[order[i]] for i in grp}
        labels.append(members.pop() if len(members) == 1 else LABEL_NONE)
    edges = tuple(float(problem.omega0 + low[0]) for low in (w_s, w_x, w_xy))
    alone = {order[g[0]] for g in groups if len(g) == 1}  # positions in w
    masses = {}
    for lab, at, grid, kap in (
            (LABEL_S, 0, s_grid, sectors.kappa[:, None]),
            (LABEL_XY, w_s.size + w_s2.size, xy_grid, sectors.kappa[None, :])):
        if at in alone:
            coupling = u_x.T @ (kap * grid).ravel()
            k2_sum = float(np.sum(coupling ** 2 / (w[at] - w_x)))
            masses[lab] = problem.m0 / (1.0 + 2.0 * HBAR / problem.m0 * k2_sum)
    pairs, ortho, ascending = zip(*checks)
    return TPointAnalysis(
        omegas=omegas,
        groups=tuple(tuple(g) for g in groups), labels=tuple(labels),
        edges=edges, masses=masses,
        contract=(*max(pairs, key=lambda pair: pair[0] / pair[1]), max(ortho),
                  all(ascending)),
    )


def t_edges(lattice: LatticeSpec, halfwidth: int) -> tuple[float, float, float]:
    """The T1(S), T5(X,Y) and T4(XY) edges at T, as ``TPointAnalysis.edges``
    holds them, from eigenvalue-only solves of the three sectors they are
    the lowest states of (S, X and XY of ``_t_sectors``), the only blocks
    built.

    Callers that need only the edges take them here, with no eigenvectors
    or masses: ``split``, ``validate``'s convergence rung, and ``bands``
    for its k.p model and T-node labels, before any path point. They may
    differ from ``t_point_analysis``'s in the last digits.
    """
    sectors = _t_sectors(lattice, halfwidth)
    s, xy, pair = (_lapack(np.linalg.eigvalsh, sectors.block(name))[0]
                   for name in ("S", "XY", "X"))
    return tuple(float(sectors.problem.omega0 + w) for w in (s, pair, xy))


def opw_mass_at_t(analysis: TPointAnalysis, edge_label: str) -> float:
    """Curvature mass of the T edge ``edge_label`` from ``analysis.masses``
    (see ``t_point_analysis``). ComputationError for an edge without one:
    the pair, a degenerate S or XY edge (or one not among the analysis's
    omegas), or any other label."""
    if edge_label not in analysis.masses:
        raise ComputationError(
            (f"edge {edge_label} is degenerate; the curvature mass needs a "
             "nondegenerate band")
            if edge_label in (LABEL_S, LABEL_PAIR, LABEL_XY) else
            (f"no curvature mass for edge {edge_label}; only the S and XY "
             "edges have one"))
    return analysis.masses[edge_label]


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
# longitudinal profile

def longitudinal_profile(coefficients, window: Window, lattice: LatticeSpec,
                         samples: int = 256) -> LongitudinalProfile:
    """Per-reflection phase and fast longitudinal factor of a Bloch state,
    given by its unit-norm plane-wave ``coefficients`` over ``window``.

    alpha is the pattern expectation value in the state; eta is sampled on a
    uniform grid over one longitudinal period z in [-l_z, l_z). The exponent
    is purely imaginary, so |1 + eta| = 1 identically and the wrapped sum of
    eta increments over the period vanishes. ValidationError unless the
    coefficients are unit-norm, one per wave.
    """
    c = np.asarray(coefficients)
    if c.shape != (len(window),):
        raise ValidationError(
            f"{c.shape} coefficients for a basis of {len(window)} waves"
        )
    norm = float(np.sum(np.abs(c) ** 2))
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"state coefficients not unit-norm: {norm}")
    alpha = _kernels.pattern_overlap(
        c, _kernels.axis_factor(pattern_factors(lattice, window.width - 1)),
        lattice.dphi * lattice.fill_factor,
    )
    # z/(2 l_z) in [-1/2, 1/2); sawtooth theta(z) - 1/2 - z/(2 l_z)
    frac = -0.5 + np.arange(samples) / samples
    saw = np.where(frac >= 0.0, 0.5, -0.5) - frac
    eta = np.exp(1j * alpha * saw) - 1.0
    return LongitudinalProfile(
        alpha=float(alpha), eta_samples=eta, z_over_lz=2.0 * frac,
    )

"""Independent numerical oracles used by the tests.

These deliberately avoid the code paths they check: the quadrature oracle
integrates pointwise samples of the real-space pattern over the smooth
pieces of the cell (it never touches the analytic Fourier series), the
folding oracle enumerates free-space parabolas, the dense oracle solves the
whole Hamiltonian in one eigensolve (never its mirror blocks), the Rayleigh
oracle takes the eigenvalues as np.longdouble Rayleigh quotients of a dense
eigensolve's vectors (never the eigenvalues LAPACK returns), the assembly
oracle writes the dense Hamiltonian entry by entry from the wave indices,
the mirror-block and sector oracles fold a dense Hamiltonian index by index
(never its 1D factors), and the high-precision oracle re-derives the
closed-form orbital parameters with mpmath. ``build_each`` checks a
column of values by building every value's spec, the loop the CLI's
mask-based column check replaces. ``eigh_splittings_at_T`` diagonalizes the
k = 0 k.p blocks whose diagonals ``kp.zeeman_splittings_at_T`` reads, and
``rows_per_cell`` formats every cell of the broadcast columns on its own,
as ``cli._rows`` did before it formatted a broadcast column once per value.
``channel_labels`` labels a k-path's T row from its eigenvectors' weight on
the four corner waves, the heuristic the sector-edge labels replaced, and
``unfold_t_states`` solves the corner window's C4v sectors and unfolds
their lowest states onto the window, as ``t_point_analysis`` did before it
dropped its eigenvectors. ``two_ray_kp_vs_opw_worst`` solves the two rays
of ``validate``'s k.p check as two paths out of T, each starting at T, where
the CLI solves them as one path through T. ``eigh_contract_at_t`` checks
``eigh``'s contract on the five T-sector blocks in a pass of its own, as
``validate`` did before it read the contract of the T analysis's solves.
"""
import math
import warnings
from dataclasses import replace

import numpy as np

from phczeeman import (
    ComputationError,
    HermitianMatrix,
    RotationSpec,
    cluster_degenerate,
    derive_params,
    eigh,
    kp_bands,
    named_kpoint,
    phase_pattern,
    reciprocal_basis,
    solve_path,
)
from phczeeman.constants import C, HBAR
from phczeeman.kp import _block_matrices
from phczeeman.lattice import pattern_factors, t_centered_basis
from phczeeman.planewave import _lapack, _t_sectors

# The sectors of ``_t_sectors``, in the order t_point_analysis solves them
T_SECTORS = ("S", "S'", "XY", "XY'", "X")


def quadrature_fourier_coefficient(lattice, m, n, order=40):
    """(1/A) * integral of pattern * exp(-i G.r) over the unit cell.

    The cell is split along the pixel edges into nine boxes on which the
    integrand is smooth; each box is integrated with tensor Gauss-Legendre.
    """
    pitch = lattice.pitch
    half = 0.5 * pitch
    a_half = 0.5 * pitch * math.sqrt(lattice.fill_factor)
    cuts = [-half, -a_half, a_half, half]
    nodes, weights = np.polynomial.legendre.leggauss(order)
    gx = 2.0 * math.pi * m / pitch
    gy = 2.0 * math.pi * n / pitch
    total = 0.0 + 0.0j
    for ix in range(3):
        xa, xb = cuts[ix], cuts[ix + 1]
        x = 0.5 * (xb - xa) * nodes + 0.5 * (xb + xa)
        wx = 0.5 * (xb - xa) * weights
        for iy in range(3):
            ya, yb = cuts[iy], cuts[iy + 1]
            y = 0.5 * (yb - ya) * nodes + 0.5 * (yb + ya)
            wy = 0.5 * (yb - ya) * weights
            xx, yy = np.meshgrid(x, y, indexing="ij")
            vals = phase_pattern(lattice, xx, yy) * np.exp(
                -1j * (gx * xx + gy * yy)
            )
            total += wx @ vals @ wy
    return total / pitch**2


def folded_free_bands(lattice, kx, ky, halfwidth, n_bands):
    """Empty-lattice bands: free-space parabolas folded over the windows."""
    dp = derive_params(lattice)
    vals = []
    for m in range(-halfwidth, halfwidth + 1):
        for n in range(-halfwidth, halfwidth + 1):
            gx = 2.0 * math.pi * m / lattice.pitch
            gy = 2.0 * math.pi * n / lattice.pitch
            vals.append(
                dp.omega0
                + HBAR * ((kx + gx) ** 2 + (ky + gy) ** 2) / (2.0 * dp.m0)
            )
    return np.sort(np.array(vals))[:n_bands]


def dense_eigh(problem, kx, ky, n_bands):
    """Lowest ``n_bands`` omegas and unit eigenvectors of one dense ``eigh``
    of the detuned H of a ``planewave._Problem`` at (kx, ky)."""
    w, v = np.linalg.eigh(problem.hamiltonian(kx, ky))
    return problem.omega0 + w[:n_bands], v[:, :n_bands]


def rayleigh_omegas(lattice, basis, kx, ky, n_bands):
    """Lowest ``n_bands`` omegas at (kx, ky) as np.longdouble Rayleigh
    quotients of the vectors of one dense ``eigh`` of ``dense_hamiltonian``.

    A quotient is off the eigenvalue of that H by about |r|^2 / gap, with r
    the vector's round-off residual, far below the round-off of the
    eigenvalues ``eigh`` returns (which grows with the largest kinetic
    energy of the basis), and its sum is taken in extended precision.
    """
    h = dense_hamiltonian(lattice, basis, kx, ky)
    v = np.linalg.eigh(h)[1][:, :n_bands].astype(np.longdouble)
    quotient = (np.einsum("ij,ij->j", v, h.astype(np.longdouble) @ v)
                / np.einsum("ij,ij->j", v, v))
    return np.longdouble(derive_params(lattice).omega0) + quotient


def dense_hamiltonian(lattice, basis, kx, ky):
    """The detuned H at (kx, ky) over the waves of the window ``basis``,
    written entry by entry from their index arrays:
    -v*phi[(mi - mj, ni - nj)] with phi = ((dphi*FF)*s[mi - mj])*s[ni - nj],
    plus the kinetic diagonal hbar|k+G|^2/(2 m0)."""
    dp = derive_params(lattice)
    m, n = basis.m, basis.n
    span = int(max(np.ptp(m), np.ptp(n)))
    s = pattern_factors(lattice, span)
    depth = lattice.dphi * lattice.fill_factor
    phi = (depth * s[m[:, None] - m + span]) * s[n[:, None] - n + span]
    h = -dp.v_prefactor * phi
    h[np.diag_indices_from(h)] += (
        HBAR * ((kx + basis.gx) ** 2 + (ky + basis.gy) ** 2) / (2.0 * dp.m0))
    return h


def mirror_fold(waves, image):
    """Positions in ``waves`` of a mirror's even and odd waves, found wave by
    wave under the map ``image(*wave) -> wave``: the even list is the fixed
    waves, then the first of each swapped pair, in ``waves`` order; the odd
    list is those pair waves."""
    pos = {wave: i for i, wave in enumerate(waves)}
    partner = [pos[image(*wave)] for wave in waves]
    fixed = [i for i, p in enumerate(partner) if p == i]
    pairs = [i for i, p in enumerate(partner) if i < p]
    return fixed + pairs, pairs


def mirror_blocks(h, waves, image):
    """The even and odd blocks of the dense ``h`` over ``waves`` under the
    map ``image(*wave) -> wave``: H[a, b] + H[a, R b] with a fixed wave's
    row and column weighted by sqrt(1/2), and H[a, b] - H[a, R b]. The rows
    are ``mirror_fold``'s even and odd positions."""
    even, odd = mirror_fold(waves, image)
    pos = {wave: i for i, wave in enumerate(waves)}
    blocks = []
    for rows, sign in ((even, 1.0), (odd, -1.0)):
        rows = np.asarray(rows, dtype=int)
        partner = np.array([pos[image(*waves[i])] for i in rows], dtype=int)
        weight = np.where(partner == rows, math.sqrt(0.5), 1.0)
        block = h[np.ix_(rows, rows)] + sign * h[np.ix_(rows, partner)]
        blocks.append(weight[:, None] * block * weight)
    return blocks


def dense_t_sectors(lattice, halfwidth):
    """The five C4v sector blocks of the dense detuned H at T on the corner
    window (S, its x <-> y-odd partner, XY, its partner, (x-odd, y-even)),
    and that H.

    H is folded by x -> -x (m -> -1-m), then each block by y -> -y
    (n -> -1-n), then the (even, even) and (odd, odd) blocks by x <-> y.
    """
    basis = t_centered_basis(halfwidth, lattice.pitch)
    h = dense_hamiltonian(lattice, basis, *named_kpoint("T", lattice.pitch))
    waves = list(zip(basis.m.tolist(), basis.n.tolist()))
    flip_x, flip_y, swap = ((lambda m, n: (-1 - m, n)),
                            (lambda m, n: (m, -1 - n)), (lambda m, n: (n, m)))
    x_even, x_odd = mirror_blocks(h, waves, flip_x)
    half = [waves[i] for i in mirror_fold(waves, flip_x)[1]]
    even_even, _ = mirror_blocks(x_even, half, flip_y)
    odd_even, odd_odd = mirror_blocks(x_odd, half, flip_y)
    quarter = [half[i] for i in mirror_fold(half, flip_y)[1]]
    return (*mirror_blocks(even_even, quarter, swap),
            *mirror_blocks(odd_odd, quarter, swap), odd_even), h


def mp_closed_form_total(lattice, dps=40):
    """Arbitrary-precision re-derivation of the total orbital parameter M.

    Returns (m_plus, m_minus, m_total) as floats computed at ``dps`` digits.
    """
    import mpmath as mp

    with mp.workdps(dps):
        lam = mp.mpf(repr(lattice.lambda_vac))
        n = mp.mpf(repr(lattice.n_refr))
        pitch = mp.mpf(repr(lattice.pitch))
        ff = mp.mpf(repr(lattice.fill_factor))
        dphi = mp.mpf(repr(lattice.dphi))
        hbar = mp.mpf(repr(HBAR))
        c = mp.mpf(repr(C))
        k_z = 2 * mp.pi * n / lam
        l_z = lam / n
        m0 = n * hbar * k_z / c
        p = hbar * mp.pi / (mp.sqrt(2) * pitch)
        s = mp.sin(mp.pi * mp.sqrt(ff)) / (mp.pi * mp.sqrt(ff))
        pref = 2 * n * l_z * p**2 / (hbar * m0 * c * ff * dphi)
        m_plus = pref / (s * (1 + s))
        m_minus = pref / (s * (1 - s))
        return float(m_plus), float(m_minus), float(m_plus + m_minus)


def mp_kp_omegas(model, k_rel, omega_rot, dps=50):
    """The eight k.p omegas at each k of ``k_rel`` (measured from T),
    ascending, as ``dps``-digit mpmath numbers: an mpmath eigensolve of the
    blocks of ``model`` with its edges measured from omega_T1, whose float
    entries it takes exactly, with omega_T1 added back at that precision."""
    import mpmath as mp

    detuned = replace(model, omega_T5=model.omega_T5 - model.omega_T1,
                      omega_T1=0.0, omega_T5p=model.omega_T5p - model.omega_T1)
    k_rel = np.asarray(k_rel, dtype=float)
    blocks = _block_matrices(detuned, k_rel[:, 0], k_rel[:, 1], omega_rot)
    omegas = []
    with mp.workdps(dps):
        for pair in zip(*blocks):
            w = []
            for block in pair:
                matrix = mp.matrix([[mp.mpc(z.real, z.imag) for z in row]
                                    for row in block.tolist()])
                e = mp.eighe(matrix, eigvals_only=True)
                w.extend(e[i] for i in range(e.rows))
            omegas.append(sorted(mp.mpf(model.omega_T1) + x for x in w))
    return omegas


def build_each(build, values, what):
    """``[build(v) for v in values]`` with the specs' regime warnings merged
    into one: the count of values whose spec warned, and the warning of the
    largest (|value|, message)."""
    built, flagged = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for value in values:
            before = len(caught)
            built.append(build(value))
            if len(caught) > before:
                flagged.append((abs(value), str(caught[-1].message)))
    if flagged:
        warnings.warn(
            f"{len(flagged)} of {len(built)} {what} are out of regime; the "
            f"largest: {max(flagged)[1]}", UserWarning, stacklevel=2,
        )
    return built


def eigh_splittings_at_T(model, omega_rot):
    """Spin and orbital splittings from one ``eigh`` per handedness of the
    k = 0 blocks of ``model`` with its band edges at zero: the spin value
    of a block is the mean of the two eigenvalues whose vectors lie on the
    T5'/T5 slots (0 and 3), the orbital one the difference of the
    eigenvalues whose vectors lie most on upper slots 1 and 2."""
    model0 = replace(model, omega_T5=0.0, omega_T1=0.0, omega_T5p=0.0)
    upper, lower = _block_matrices(model0, 0.0, 0.0, omega_rot)
    wu, vu = eigh(HermitianMatrix(upper))
    wl, vl = eigh(HermitianMatrix(lower))

    def spin_value(w, v):
        spin = np.abs(v[..., 0, :]) ** 2 + np.abs(v[..., 3, :]) ** 2 > 0.5
        if not np.all(np.count_nonzero(spin, axis=-1) == 2):
            raise ComputationError(
                "k = 0 block eigenvectors do not separate the spin slots"
            )
        return w[spin].reshape(w.shape[:-1] + (2,)).mean(axis=-1)

    def orbital_value(w, v, slot):
        nearest = np.argmax(np.abs(v[..., slot, :]) ** 2, axis=-1)
        return np.take_along_axis(w, nearest[..., None], axis=-1)[..., 0]

    with np.errstate(over="ignore"):
        delta_s = spin_value(wl, vl) - spin_value(wu, vu)
        delta_l = orbital_value(wu, vu, 1) - orbital_value(wu, vu, 2)
    return delta_s, delta_l


def rows_per_cell(*columns):
    """``cli._rows`` cell by cell: the columns broadcast to full size and
    every cell formatted on its own, floats by ``repr`` and anything else
    by ``str``, with the same finiteness check first."""
    columns = np.broadcast_arrays(*map(np.asarray, columns))
    for column in columns:
        if column.dtype.kind == "f":
            finite = np.isfinite(column)
            if not finite.all():
                raise ComputationError(
                    f"non-finite value {column[~finite][0]} in the output"
                )
    return zip(*(map(repr if column.dtype.kind == "f" else str,
                     column.ravel().tolist()) for column in columns))


def channel_labels(omegas, vectors, window):
    """T labels of one k-path row from its eigenvectors ``vectors`` over the
    symmetric ``window``: the rows' degenerate clusters (``cluster_degenerate``)
    each take the label whose corner-wave channels hold more than half of
    the cluster's squared projection, else ``unclassified``.

    The channels are the symmetrized combinations of the four nearest
    equivalent T-point waves (m, n) = (0, 0), (-1, 0), (0, -1), (-1, -1):
    cos*cos (S), i sin*cos and i cos*sin (the pair) and sin*sin (XY).
    """
    start, width = window.start, window.width
    slots = [(m - start) * width + n - start
             for m, n in ((0, 0), (-1, 0), (0, -1), (-1, -1))]
    channels = {
        "T1(S)": [(1.0, 1.0, 1.0, 1.0)],
        "T5(X,Y)": [(1.0, -1.0, 1.0, -1.0), (1.0, 1.0, -1.0, -1.0)],
        "T4(XY)": [(1.0, -1.0, -1.0, 1.0)],
    }
    labels = [""] * len(omegas)
    for group in cluster_degenerate(omegas):
        corner = vectors[slots][:, group]
        scores = {}
        for label, patterns in channels.items():
            weight = sum(np.sum(np.abs(0.5 * np.array(p) @ corner) ** 2)
                         for p in patterns)
            scores[label] = float(weight) / len(group)
        best = max(scores, key=scores.get)
        for i in group:
            labels[i] = best if scores[best] > 0.5 else "unclassified"
    return labels


def unfold_t_states(lattice, halfwidth, n_bands=8):
    """The lowest ``n_bands`` detuned eigenvalues at T on the corner window
    ``t_centered_basis(halfwidth)`` and their unit eigenvectors over it,
    from ``eigh`` on each C4v sector block of ``dense_t_sectors``.

    Each sector's states are unfolded onto the window wave by wave, undoing
    the folds of ``dense_t_sectors`` in reverse (x <-> y, then y -> -y,
    then x -> -x); the (x-even, y-odd) states are the transposes of the
    (x-odd, y-even) ones. Their sign makes the coefficient of the wave
    (0, 0) non-negative.
    """
    basis = t_centered_basis(halfwidth, lattice.pitch)
    waves = list(zip(basis.m.tolist(), basis.n.tolist()))
    flip_x, flip_y, swap = ((lambda m, n: (-1 - m, n)),
                            (lambda m, n: (m, -1 - n)), (lambda m, n: (n, m)))

    def lift(u, waves, image, odd):
        """Columns ``u`` over the even (or odd) block of the fold of
        ``waves`` under ``image`` as vectors over ``waves``."""
        pos = {wave: i for i, wave in enumerate(waves)}
        out = np.zeros((len(waves), u.shape[1]))
        for row, i in zip(u, mirror_fold(waves, image)[odd]):
            partner = pos[image(*waves[i])]
            if partner == i:
                out[i] = row
            else:
                out[i] = math.sqrt(0.5) * row
                out[partner] = (-1.0 if odd else 1.0) * out[i]
        return out

    half = [waves[i] for i in mirror_fold(waves, flip_x)[1]]
    quarter = [half[i] for i in mirror_fold(half, flip_y)[1]]
    transpose = [waves.index(swap(*wave)) for wave in waves]
    # (x odd, y odd, x <-> y odd or None) of each of dense_t_sectors' blocks
    kinds = [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (1, 0, None)]
    omegas, vectors = [], []
    for (x_odd, y_odd, swap_odd), block in zip(
            kinds, dense_t_sectors(lattice, halfwidth)[0]):
        w, u = np.linalg.eigh(block)
        u = u[:, :n_bands]
        if swap_odd is not None:
            u = lift(u, quarter, swap, swap_odd)
        u = lift(lift(u, half, flip_y, y_odd), waves, flip_x, x_odd)
        omegas.append(w[:n_bands])
        vectors.append(u)
        if swap_odd is None:
            omegas.append(w[:n_bands])
            vectors.append(u[transpose])
    w = np.concatenate(omegas)
    order = np.argsort(w, kind="stable")[:n_bands]
    v = np.hstack(vectors)[:, order]
    v *= np.where(v[waves.index((0, 0))] < 0.0, -1.0, 1.0)
    return w[order], v


def two_ray_kp_vs_opw_worst(config, model, span):
    """``cli._kp_vs_opw_worst`` with each ray solved as its own path out of
    T: the worst |omega_kp - omega_opw| / span over nine points of each of
    the rays along -x and the diagonal, within 0.25*pi/pitch of T, each k.p
    omega against the plane-wave omega nearest to it."""
    lattice = config.lattice
    window = reciprocal_basis(config.basis_halfwidth, lattice.pitch)
    t_pt = np.array(named_kpoint("T", lattice.pitch))
    reach = 0.25 * math.pi / lattice.pitch
    directions = np.array([(-1.0, 0.0),
                           (-1.0 / math.sqrt(2), -1.0 / math.sqrt(2))])
    rays = t_pt + (np.linspace(0.0, 1.0, 9) * reach)[:, None, None] * directions
    spectra = kp_bands(model, (rays - t_pt).reshape(-1, 2),
                       RotationSpec(0.0)).omegas
    opw = np.stack([solve_path(lattice, window, rays[:, ray].tolist())[0]
                    for ray in range(2)], axis=1).reshape(spectra.shape)
    worst = max(abs(w - row[np.argmin(np.abs(row - w))])
                for row, target in zip(opw, spectra) for w in target)
    return float(worst) / span


def eigh_contract_at_t(lattice, halfwidth):
    """``eigh``'s contract on the five T-sector blocks of ``_t_sectors``,
    each built and solved afresh, in ``t_point_analysis``'s order.

    Returns the largest residual norm ||B v - w v|| of the block whose
    residual is largest against its bound 1e-10 ||B||_F, with that bound;
    the largest entry of |V^T V - I| over the blocks; and whether every
    block's eigenvalues come out ascending.
    """
    sectors = _t_sectors(lattice, halfwidth)

    def check(block):  # (residual, bound), orthonormality, ascending
        w, v = _lapack(eigh, block)
        return ((float(np.max(np.linalg.norm(block @ v - v * w, axis=0))),
                 1e-10 * float(np.linalg.norm(block))),
                float(np.max(np.abs(v.T @ v - np.eye(w.size)))),
                bool(np.all(np.diff(w) >= 0)))

    pairs, ortho, ascending = zip(*(check(sectors.block(name))
                                    for name in T_SECTORS))
    return (*max(pairs, key=lambda pair: pair[0] / pair[1]), max(ortho),
            all(ascending))

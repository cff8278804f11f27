import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from phczeeman import (
    ComputationError,
    ExperimentConfig,
    LatticeSpec,
    ValidationError,
    Window,
    build_kpath,
    classify_t_states,
    cluster_degenerate,
    eigh_contract_at_t,
    derive_params,
    longitudinal_profile,
    named_kpoint,
    opw_mass_at_t,
    perturbative_edges,
    reciprocal_basis,
    solve_bands,
    t_edges,
    t_point_analysis,
)
from phczeeman.constants import HBAR
from phczeeman.lattice import pattern_factors, t_centered_basis
from phczeeman import _kernels, planewave
from phczeeman.planewave import (
    _BLOCK_MIN_HALFWIDTH, DEFAULT_N_BANDS, LABEL_NONE, LABEL_PAIR, LABEL_S,
    LABEL_XY, _T_SECTORS, _axis_fold, _block_solve, _problem, _solve,
    _swap_fold, _t_sectors,
)
from phczeeman.zeeman import m_closed_form
from oracles import (channel_labels, dense_eigh, dense_hamiltonian,
                     dense_t_sectors, folded_free_bands, mirror_blocks,
                     mirror_fold, rayleigh_omegas, unfold_t_states)

# perfbench's seed-12345 jittered lattice (workloads.lattice_for_seed)
JITTERED = dict(lambda_vac=960e-9, n_refr=3.53, pitch=3.916619872545341e-6,
                fill_factor=0.5520338338914137, dphi=0.018252065092537434)


def _waves(basis):
    """The (m, n) of each wave of the window ``basis``, in its order."""
    return list(zip(basis.m.tolist(), basis.n.tolist()))


def _corner_state(basis, pattern):
    """Unit-norm coefficient vector over the four corner-wave slots."""
    pos = {wave: i for i, wave in enumerate(_waves(basis))}
    vec = np.zeros(len(basis), dtype=complex)
    for (m, n), val in zip([(0, 0), (-1, 0), (0, -1), (-1, -1)], pattern):
        vec[pos[(m, n)]] = val
    return vec / np.linalg.norm(vec)


def _traced(fn):
    """fn's result, and the bytes of Python allocations (numpy arrays
    included) it left held and at its peak, above those held before it."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, held - before, peak - before


def _record_shapes(monkeypatch, solver):
    """Record the shape of every matrix passed to ``np.linalg.<solver>``."""
    shapes = []
    original = getattr(np.linalg, solver)

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, solver, recording)
    return shapes


class TestKPath:
    def test_named_points(self):
        pitch = 4e-6
        assert named_kpoint("G", pitch) == (0.0, 0.0)
        assert named_kpoint("Z", pitch) == (math.pi / pitch, 0.0)
        assert named_kpoint("T", pitch) == (math.pi / pitch, math.pi / pitch)

    def test_invalid_token(self):
        with pytest.raises(ValidationError, match="k-path token"):
            named_kpoint("Q", 4e-6)

    def test_inclusive_endpoints(self):
        pts = build_kpath(("G", "Z"), 4e-6, 10)
        assert len(pts) == 11
        assert pts[0].label == "G"
        assert pts[-1].label == "Z"
        assert pts[-1].kx == pytest.approx(math.pi / 4e-6)

    def test_shared_nodes_not_duplicated(self):
        pts = build_kpath(("G", "Z", "T", "G"), 4e-6, 40)
        assert len(pts) == 121
        labels = [p.label for p in pts if p.label]
        assert labels == ["G", "Z", "T", "G"]

    def test_path_positions_cumulative(self):
        pts = build_kpath(("G", "Z", "T"), 4e-6, 2)
        pos = [p.path_pos for p in pts]
        assert pos == sorted(pos)
        assert pos[-1] == pytest.approx(2 * math.pi / 4e-6)


class TestBuildHamiltonian:
    """The detuned Hamiltonian as the per-basis problem assembles it."""

    def test_empty_lattice_diagonal(self, bands_lattice, bands_dp):
        lattice = replace(bands_lattice, dphi=0.0)
        basis = reciprocal_basis(3, lattice.pitch)
        h = _problem(lattice, basis).hamiltonian(0.0, 0.0)
        off = h - np.diag(np.diag(h))
        assert np.all(off == 0.0)
        # the G = 0 diagonal entry at k = 0 is the carrier frequency
        i0 = _waves(basis).index((0, 0))
        assert bands_dp.omega0 + h[i0, i0] == bands_dp.omega0

    def test_potential_element_at_t(self, bands_lattice):
        basis = reciprocal_basis(7, bands_lattice.pitch)
        kt = named_kpoint("T", bands_lattice.pitch)
        h = _problem(bands_lattice, basis).hamiltonian(*kt)
        pairs = _waves(basis)
        i, j = pairs.index((0, 0)), pairs.index((1, 0))
        # frozen: -v_prefactor * phi_{1,0} from high-precision evaluation
        assert h[i, j] == pytest.approx(-458288227774.01698, rel=1e-12)

    def test_symmetric_for_random_k(self, bands_lattice):
        rng = np.random.default_rng(3)
        basis = reciprocal_basis(4, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        for _ in range(3):
            k = rng.uniform(-1, 1, size=2) * math.pi / bands_lattice.pitch
            h = problem.hamiltonian(*k)
            assert np.array_equal(h, h.T)


class TestSolveBands:
    def test_empty_lattice_fourfold_at_t(self, empty_config):
        cfg = replace(empty_config, kpath=("T",), samples_per_segment=1)
        bs = solve_bands(cfg)
        w = bs.omegas[0]
        dp = derive_params(cfg.lattice)
        # frozen: omega0 + hbar*(2*pi^2/pitch^2)/(2*m0)
        expected = dp.omega0 + 2267474541135.295
        assert np.allclose(w[:4], expected, rtol=1e-12)
        assert np.allclose(w[:4], folded_free_bands(cfg.lattice,
                                                    math.pi / 4e-6,
                                                    math.pi / 4e-6, 7, 4),
                           rtol=1e-12)

    def test_empty_lattice_folding_oracle_generic_k(self, empty_config):
        basis = reciprocal_basis(7, empty_config.lattice.pitch)
        kx, ky = 0.3 * math.pi / 4e-6, 0.15 * math.pi / 4e-6
        w, _ = _solve(_problem(empty_config.lattice, basis), kx, ky, 8)
        oracle = folded_free_bands(empty_config.lattice, kx, ky, 7, 8)
        assert np.allclose(w, oracle, rtol=1e-12)

    def test_patterned_t_multiplicities(self, bands_config):
        cfg = replace(bands_config, kpath=("T",), samples_per_segment=1)
        bs = solve_bands(cfg)
        w = bs.omegas[0]
        groups = cluster_degenerate(w[:4])
        assert [len(g) for g in groups] == [1, 2, 1]

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_t_labels_attached(self, bands_config, halfwidth):
        cfg = replace(bands_config, kpath=("Z", "T"), samples_per_segment=4,
                      basis_halfwidth=halfwidth)
        bs = solve_bands(cfg)
        assert list(bs.rep_labels[-1, :4]) == [LABEL_S, LABEL_PAIR,
                                               LABEL_PAIR, LABEL_XY]
        if halfwidth == 3:
            # the symmetric window splits the pair beyond the cluster
            # tolerance, and the pair edge still labels both members
            assert bs.omegas[-1, 2] - bs.omegas[-1, 1] > 1.0
        # off the node no labels are assigned
        assert set(bs.rep_labels[:-1].ravel()) == {""}

    def test_band_ordering_at_t(self, bands_t_analysis):
        # attractive wells order the corner states S < (X,Y) < XY
        w = bands_t_analysis.omegas
        assert w[0] < w[1] <= w[2] < w[3]
        assert list(bands_t_analysis.labels[:3]) == [LABEL_S, LABEL_PAIR,
                                                    LABEL_XY]

    def test_deterministic(self, bands_config):
        cfg = replace(bands_config, kpath=("G", "T"), samples_per_segment=3,
                      basis_halfwidth=4)
        a = solve_bands(cfg)
        b = solve_bands(cfg)
        assert np.array_equal(a.omegas, b.omegas)
        assert np.array_equal(a.rep_labels, b.rep_labels)

    def test_band_count_constant(self, bands_config):
        cfg = replace(bands_config, kpath=("G", "Z"), samples_per_segment=3,
                      basis_halfwidth=3)
        bs = solve_bands(cfg, n_bands=6)
        assert bs.omegas.shape == bs.rep_labels.shape == (4, 6)
        assert np.all(np.diff(bs.omegas, axis=1) >= 0)

    def test_c4v_spectrum_invariance(self, bands_config):
        basis = reciprocal_basis(5, bands_config.lattice.pitch)
        rng = np.random.default_rng(5)
        kx, ky = rng.uniform(0.05, 0.45, size=2) * math.pi / 4e-6
        problem = _problem(bands_config.lattice, basis)
        w0, _ = _solve(problem, kx, ky, 6)
        for kim in ((ky, kx), (-kx, ky), (kx, -ky), (-ky, -kx)):
            wi, _ = _solve(problem, kim[0], kim[1], 6)
            assert np.allclose(wi, w0, rtol=1e-10)

    def test_variational_bounds(self, bands_config):
        cfg = replace(bands_config, kpath=("G", "Z", "T"),
                      samples_per_segment=5, basis_halfwidth=5)
        bs = solve_bands(cfg)
        dp = derive_params(cfg.lattice)
        depth = dp.v_prefactor * cfg.lattice.dphi
        floor = dp.omega0 - depth
        for kp_pt, row in zip(bs.kpoints, bs.omegas):
            assert row[0] >= floor
            free = folded_free_bands(cfg.lattice, kp_pt.kx, kp_pt.ky, 5, 1)[0]
            assert row[0] <= free + depth

    def test_n_bands_above_basis_size_rejected(self, bands_config):
        cfg = replace(bands_config, basis_halfwidth=2)
        with pytest.raises(ValidationError, match="n_bands"):
            solve_bands(cfg, n_bands=100)

    def test_potential_gathered_once(self, bands_config, monkeypatch):
        # the dense pattern term is written only at the points solved dense:
        # once per Z-T interior point, never for a mirror line
        calls = []
        original = _kernels.fill_hamiltonian

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(_kernels, "fill_hamiltonian", counting)
        cfg = replace(bands_config, samples_per_segment=3, basis_halfwidth=3)
        bs = solve_bands(cfg)
        assert len(bs.kpoints) == 10
        dense = [kp for kp in bs.kpoints if kp.ky != 0.0 and kp.kx != kp.ky]
        assert len(dense) == 2
        assert len(calls) == len(dense)

    def test_swap_blocks_gathered_at_first_diagonal_point(self, bands_config,
                                                          monkeypatch):
        # the x <-> y blocks of the symmetric window, (2h+1, 2h+1) factors,
        # are gathered once, and only on a path that reaches kx == ky; the
        # T node's labels fold the corner window's half factors (t_edges)
        gathers = []
        original = planewave._swap_fold

        def counting(a, c):
            fold = original(a, c)

            def potential(odd):
                gathers.append((a.shape, odd))
                return fold.potential(odd)

            return replace(fold, potential=potential)

        monkeypatch.setattr(planewave, "_swap_fold", counting)
        cfg = replace(bands_config, samples_per_segment=3, basis_halfwidth=3)
        g_z = solve_bands(replace(cfg, kpath=("G", "Z")))
        assert gathers == []
        full = solve_bands(cfg)
        # each parity once
        assert [g for g in gathers if g[0] == (7, 7)] == [((7, 7), False),
                                                          ((7, 7), True)]
        assert np.array_equal(full.omegas[:4], g_z.omegas)
        # the same omegas as with the blocks gathered up front
        eager = _problem(cfg.lattice, full.basis)
        eager.diagonal
        for kp in full.kpoints:
            w, _ = _solve(eager, kp.kx, kp.ky, DEFAULT_N_BANDS,
                          vectors=bool(kp.label))
            assert np.array_equal(w, full.omegas[kp.index])


class TestProblem:
    """The per-basis problem: 1D pieces and S, x <-> y blocks gathered at
    their first use, H fresh at each k."""

    def test_hamiltonian_is_fresh(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        kx, ky = named_kpoint("T", bands_lattice.pitch)
        first = problem.hamiltonian(kx, ky)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(problem.hamiltonian(kx, ky), expected)

    def test_problem_holds_no_dense_array(self, bands_lattice):
        # S and the 1D pieces (measured 7.3 N * 8 B at h = 10); the x <-> y
        # blocks, about N^2 / 2 entries (measured 0.52 N^2 * 8 B), only
        # once a k-point on the diagonal asks for them
        basis = reciprocal_basis(10, bands_lattice.pitch)
        n = len(basis)
        problem, held, _ = _traced(lambda: _problem(bands_lattice, basis))
        assert held <= 16 * n * 8
        _, gathered, _ = _traced(lambda: problem.diagonal)
        assert 0.45 * n * n * 8 <= gathered <= 0.6 * n * n * 8

    def test_solve_bands_peak_memory(self, bands_config):
        # at most one dense H (a Z-T point) besides the cached x <-> y
        # blocks: measured 1.76 N^2 * 8 B at h = 10 and 1.78 at h = 7 (the
        # widest window below the block solver's crossover), against 3.19
        # when the potential and both mirrors' blocks were held across
        # k-points
        cfg = replace(bands_config, basis_halfwidth=_BLOCK_MIN_HALFWIDTH - 1,
                      samples_per_segment=2)
        n = (2 * cfg.basis_halfwidth + 1) ** 2
        solve_bands(replace(cfg, basis_halfwidth=2))  # first-call allocations
        bs, _, peak = _traced(lambda: solve_bands(cfg))
        assert len(bs.kpoints) == 7
        assert peak <= 2.25 * n * n * 8


class TestEigenpairContract:
    """The eigh contract (residual and orthonormality) on production solves.

    The pairs checked are those ``_solve`` returns at a named node, lifted
    from the mirror blocks where the window is closed under the node's
    mirror; the matrix is the whole detuned Hamiltonian at that node.
    """

    @pytest.mark.parametrize("window", [reciprocal_basis, t_centered_basis])
    @pytest.mark.parametrize("node", ["G", "Z", "T"])
    def test_refined_pairs(self, bands_lattice, bands_dp, window, node):
        basis = window(7, bands_lattice.pitch)
        kx, ky = named_kpoint(node, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        w, v = _solve(problem, kx, ky, 8, vectors=True)
        h = problem.hamiltonian(kx, ky)
        residual = np.max(np.linalg.norm(h @ v - v * (w - bands_dp.omega0),
                                         axis=0))
        assert residual <= 1e-10 * np.linalg.norm(h)
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-10
        assert np.all(np.diff(w) >= 0)


class TestTPointSectors:
    """t_point_analysis solves H at T in its exact C4v sectors."""

    @staticmethod
    def _hamiltonian(config, halfwidth):
        basis = t_centered_basis(halfwidth, config.lattice.pitch)
        return _problem(config.lattice, basis).hamiltonian(
            *named_kpoint("T", config.lattice.pitch))

    @pytest.mark.parametrize("halfwidth", [3, 7, 14])
    def test_sectors_match_fold_of_dense(self, bands_lattice, halfwidth):
        sectors = _t_sectors(bands_lattice, halfwidth)
        blocks = [sectors.block(name) for name in _T_SECTORS]
        expected, h = dense_t_sectors(bands_lattice, halfwidth)
        assert len(blocks) == len(expected) == 5
        for block, folded in zip(blocks, expected):
            assert block.shape == folded.shape
            assert np.max(np.abs(block - folded)) <= 1e-15 * np.linalg.norm(h)

    def test_sector_coupling_rounding(self, bands_lattice, bands_dp):
        # the sectors scale by c = (v*dphi)*FF, the rounding the written T
        # edges carry; the path's v*(dphi*FF) is an ulp away on this lattice
        c = bands_dp.v_prefactor * bands_lattice.dphi * bands_lattice.fill_factor
        assert c != bands_dp.v_prefactor * (bands_lattice.dphi
                                            * bands_lattice.fill_factor)
        k = 4
        s = pattern_factors(bands_lattice, 2 * k - 1)[2 * k - 1:]
        even, odd = (f[::-1, ::-1] for f in _axis_fold(s, 1))
        pair = _t_sectors(bands_lattice, k - 1).block("X")
        off = ~np.eye(k * k, dtype=bool)
        assert np.array_equal(pair[off], (-c * np.kron(odd, even))[off])

    @pytest.mark.parametrize("halfwidth", [3, 7, 14])
    def test_eigh_only_on_sectors(self, bands_config, monkeypatch, halfwidth):
        shapes = _record_shapes(monkeypatch, "eigh")
        fills = []
        monkeypatch.setattr(_kernels, "fill_hamiltonian",
                            lambda *args: fills.append(args))
        t_point_analysis(bands_config, halfwidth=halfwidth)
        assert fills == []  # the corner H is never formed
        k = halfwidth + 1
        sym, anti, pair = k * (k + 1) // 2, k * (k - 1) // 2, k * k
        # S, its x <-> y-odd partner, XY, its partner, (x-odd, y-even)
        assert [s[0] for s in shapes] == [sym, anti, sym, anti, pair]
        assert all(s[0] == s[1] for s in shapes)
        assert 2 * (sym + anti + pair) == (2 * halfwidth + 2) ** 2

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_lifted_pairs_meet_contract(self, bands_config, halfwidth):
        # the omegas with the oracle's sector states unfolded onto the window
        analysis = t_point_analysis(bands_config, halfwidth=halfwidth)
        h = self._hamiltonian(bands_config, halfwidth)
        w = analysis.omegas - derive_params(bands_config.lattice).omega0
        _, v = unfold_t_states(bands_config.lattice, halfwidth)
        residual = np.max(np.linalg.norm(h @ v - v * w, axis=0))
        assert residual <= 1e-10 * np.linalg.norm(h)
        assert np.max(np.abs(v.T @ v - np.eye(DEFAULT_N_BANDS))) <= 1e-10

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_merged_omegas_match_dense(self, bands_config, halfwidth):
        analysis = t_point_analysis(bands_config, halfwidth=halfwidth)
        h = self._hamiltonian(bands_config, halfwidth)
        dense = np.linalg.eigvalsh(h)[:DEFAULT_N_BANDS]
        w = analysis.omegas - derive_params(bands_config.lattice).omega0
        assert np.max(np.abs(w - dense)) <= 1e-12 * np.linalg.norm(h)

    @pytest.mark.parametrize("halfwidth", [3, 7, 10])
    def test_pair_exactly_degenerate(self, bands_config, halfwidth):
        analysis = t_point_analysis(bands_config, halfwidth=halfwidth)
        assert analysis.omegas[1] == analysis.omegas[2]
        assert analysis.group_of(LABEL_PAIR) == (1, 2)
        assert analysis.edges[1] == analysis.omegas[1]

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_labels_and_signs_follow_parities(self, bands_config, halfwidth):
        # each group's label is the sector of the oracle's states at its
        # omegas, read from their parities on the window
        analysis = t_point_analysis(bands_config, halfwidth=halfwidth)
        w, vectors = unfold_t_states(bands_config.lattice, halfwidth)
        omega0 = derive_params(bands_config.lattice).omega0
        h = self._hamiltonian(bands_config, halfwidth)
        assert np.max(np.abs(omega0 + w - analysis.omegas)) <= (
            1e-12 * np.linalg.norm(h))
        waves = _waves(t_centered_basis(halfwidth, bands_config.lattice.pitch))
        pos = {wave: i for i, wave in enumerate(waves)}
        mirrors = ([pos[-1 - m, n] for m, n in waves],
                   [pos[m, -1 - n] for m, n in waves],
                   [pos[n, m] for m, n in waves])

        def parity(vec, perm):
            for sign in (1, -1):
                if np.allclose(vec[perm], sign * vec, rtol=0.0, atol=1e-12):
                    return sign
            return 0

        sector_labels = {(1, 1, 1): LABEL_S, (-1, -1, 1): LABEL_XY,
                         (-1, 1, 0): LABEL_PAIR, (1, -1, 0): LABEL_PAIR}
        state_labels = []
        for vec in vectors.T:
            parities = tuple(parity(vec, perm) for perm in mirrors)
            assert 0 not in parities[:2]  # every state has both axis parities
            state_labels.append(sector_labels.get(parities, LABEL_NONE))
        for grp, lab in zip(analysis.groups, analysis.labels):
            found = {state_labels[i] for i in grp}
            assert lab == (found.pop() if len(found) == 1 else LABEL_NONE)
            assert type(lab) is str  # reaches report.json through repr
        assert np.all(vectors[pos[0, 0]] >= 0.0)

    def test_fold_lift_gives_eigenvectors(self, bands_lattice):
        # the x <-> y fold of the symmetric window has fixed waves (m == n)
        basis = reciprocal_basis(3, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        kx = 0.3 * math.pi / bands_lattice.pitch
        h = problem.hamiltonian(kx, kx)
        fold = problem.diagonal
        assert fold.n_fixed == 7
        folded = mirror_blocks(h, _waves(basis),
                               lambda m, n: (n, m), fold.even, fold.odd)
        for odd, block in zip((False, True), folded):
            w, u = np.linalg.eigh(block)
            v = fold.lift(u, odd)
            assert v.shape == (len(basis), block.shape[0])
            assert np.max(np.linalg.norm(h @ v - v * w, axis=0)) <= (
                1e-10 * np.linalg.norm(h))
            assert np.max(np.abs(v.T @ v - np.eye(w.size))) <= 1e-12


class TestFrequencyOnlyInterior:
    """Interior path points carry omegas only; named nodes keep vectors."""

    @pytest.fixture(scope="class")
    def small_path(self, bands_config):
        cfg = replace(bands_config, kpath=("G", "Z", "T"),
                      samples_per_segment=3, basis_halfwidth=4)
        return solve_bands(cfg)

    def test_vectors_only_at_named_nodes(self, small_path):
        labels = [kp.label for kp in small_path.kpoints]
        assert labels == ["G", "", "", "Z", "", "", "T"]
        assert sorted(small_path.vectors) == [0, 3, 6]
        for v in small_path.vectors.values():
            assert v.shape == (len(small_path.basis), small_path.n_bands)
            assert np.allclose(np.sum(v ** 2, axis=0), 1.0, rtol=0,
                               atol=1e-10)

    def test_interior_omegas_match_refined_solve(self, small_path):
        cfg = small_path.config
        problem = _problem(cfg.lattice, small_path.basis)
        for kp_pt, w in zip(small_path.kpoints, small_path.omegas):
            if kp_pt.label:
                continue
            w_ref, _ = dense_eigh(problem, kp_pt.kx, kp_pt.ky,
                                  small_path.n_bands)
            assert np.max(np.abs(w - w_ref)) <= 16.0

    def test_eigenvalue_failure_names_kpoint(self, bands_config, monkeypatch):
        def fail(_h):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        cfg = replace(bands_config, kpath=("G", "Z"), samples_per_segment=2,
                      basis_halfwidth=2)
        with pytest.raises(ComputationError, match="at k-point 1 "):
            solve_bands(cfg)


class TestBlockSolver:
    """Path points of a basis at or above the crossover halfwidth are solved
    by the warm-started block eigensolver on the matrix-free apply."""

    @pytest.fixture(scope="class", params=["reference", "weak", "jittered"])
    def lattice(self, request, bands_lattice):
        return {"reference": bands_lattice,
                "weak": replace(bands_lattice, dphi=1e-4),
                "jittered": LatticeSpec(**JITTERED)}[request.param]

    def test_apply_matches_dense(self, lattice):
        basis = reciprocal_basis(_BLOCK_MIN_HALFWIDTH, lattice.pitch)
        problem = _problem(lattice, basis)
        x = np.random.default_rng(3).standard_normal((len(basis), 5))
        kx, ky = 0.7 * math.pi / lattice.pitch, 0.2 * math.pi / lattice.pitch
        h = dense_hamiltonian(lattice, basis, kx, ky)
        assert np.allclose(problem.apply(kx, ky, x), h @ x, rtol=0,
                           atol=1e-13 * np.linalg.norm(h))

    def test_eigenpair_contract(self, lattice):
        # every returned pair meets the stopping bound through the apply, and
        # each block, warm-started along the path, is orthonormal
        basis = reciprocal_basis(_BLOCK_MIN_HALFWIDTH, lattice.pitch)
        problem = _problem(lattice, basis)
        block = None
        for kp in build_kpath(("G", "Z", "T", "G"), lattice.pitch, 3):
            w, block = _block_solve(problem, kp.kx, kp.ky, 8, block)
            v = block[:, :8]
            residual = np.linalg.norm(
                problem.apply(kp.kx, kp.ky, v) - v * w, axis=0)
            assert np.all(residual <= problem.residual_bound)
            assert np.max(np.abs(block.T @ block - np.eye(12))) <= 1e-12
            assert np.all(np.diff(w) >= 0)
            h = dense_hamiltonian(lattice, basis, kp.kx, kp.ky)
            assert np.allclose(w, np.linalg.eigvalsh(h)[:8], rtol=0,
                               atol=1e-12 * np.linalg.norm(h))

    def test_solve_bands_above_crossover(self, bands_config, monkeypatch):
        # no dense H and no large eigensolve; the nodes keep the block's
        # vectors, and T is labelled from the sector edges
        fills = []
        monkeypatch.setattr(_kernels, "fill_hamiltonian",
                            lambda *a: fills.append(a))
        shapes = _record_shapes(monkeypatch, "eigh")
        cfg = replace(bands_config, basis_halfwidth=_BLOCK_MIN_HALFWIDTH,
                      samples_per_segment=2)
        bs = solve_bands(cfg)
        assert fills == []
        assert max(shape[0] for shape in shapes) <= 36
        assert sorted(bs.vectors) == [0, 2, 4, 6]
        for v in bs.vectors.values():
            assert v.shape == (len(bs.basis), 8)
            assert np.max(np.abs(v.T @ v - np.eye(8))) <= 1e-12
        assert list(bs.rep_labels[4, :4]) == [LABEL_S, LABEL_PAIR,
                                              LABEL_PAIR, LABEL_XY]
        assert np.array_equal(solve_bands(cfg).omegas, bs.omegas)

    def test_peak_memory_linear_in_basis(self, bands_config):
        # the block's arrays, O(N * 36) entries (measured 345 N * 8 B at
        # h = 14), where one dense H alone is N^2 * 8 B = 841 N * 8 B
        cfg = replace(bands_config, basis_halfwidth=14, samples_per_segment=2)
        n = (2 * cfg.basis_halfwidth + 1) ** 2
        solve_bands(replace(cfg, basis_halfwidth=2))  # first-call allocations
        _, _, peak = _traced(lambda: solve_bands(cfg))
        assert peak <= 450 * n * 8

    @pytest.mark.parametrize("halfwidth,n_bands", [
        (_BLOCK_MIN_HALFWIDTH - 1, 8),
        (_BLOCK_MIN_HALFWIDTH, 93),  # three blocks of 93 + 4 exceed 289 waves
    ])
    def test_dense_below_crossover(self, bands_config, monkeypatch,
                                   halfwidth, n_bands):
        solves = []
        monkeypatch.setattr(planewave, "_block_solve",
                            lambda *a: solves.append(a))
        cfg = replace(bands_config, basis_halfwidth=halfwidth,
                      samples_per_segment=2)
        assert solve_bands(cfg, n_bands=n_bands).omegas.shape == (7, n_bands)
        assert solves == []

    @pytest.mark.parametrize("halfwidth", [_BLOCK_MIN_HALFWIDTH - 1,
                                           _BLOCK_MIN_HALFWIDTH])
    def test_solve_path_is_solve_bands_loop(self, bands_config, halfwidth):
        # keeping the named nodes gives the rows and node vectors that
        # solve_bands returns; vectors only at the positions kept
        cfg = replace(bands_config, basis_halfwidth=halfwidth,
                      samples_per_segment=2)
        bs = solve_bands(cfg)
        points = [(kp.kx, kp.ky) for kp in bs.kpoints]
        omegas, vectors = planewave.solve_path(cfg.lattice, bs.basis, points,
                                               8, {0, 2, 4, 6})
        assert np.array_equal(omegas, bs.omegas)
        assert sorted(vectors) == sorted(bs.vectors) == [0, 2, 4, 6]
        for i, v in vectors.items():
            assert np.array_equal(v, bs.vectors[i])
        assert planewave.solve_path(cfg.lattice, bs.basis, points[:3],
                                    8)[1] == {}

    def test_solve_path_names_the_failing_point(self, bands_config,
                                                monkeypatch):
        def fail(problem, kx, ky, *args, **kwargs):
            if ky > 0:
                raise ComputationError("no convergence")
            return solve(problem, kx, ky, *args, **kwargs)

        solve = planewave._solve
        monkeypatch.setattr(planewave, "_solve", fail)
        basis = reciprocal_basis(3, bands_config.lattice.pitch)
        with pytest.raises(ComputationError,
                           match=r"^no convergence at k-point 1 \(kx=1, ky=2\)$"):
            planewave.solve_path(bands_config.lattice, basis,
                                 [(0.0, 0.0), (1.0, 2.0)], 8)

    def test_empty_lattice_free_bands(self, empty_config):
        # c = 0: the bound falls back to the apply's round-off scale
        basis = reciprocal_basis(_BLOCK_MIN_HALFWIDTH, 4e-6)
        problem = _problem(empty_config.lattice, basis)
        block = None
        for frac in (0.0, 0.3, 0.5):
            kx, ky = frac * math.pi / 4e-6, 0.5 * frac * math.pi / 4e-6
            w, block = _block_solve(problem, kx, ky, 8, block)
            oracle = folded_free_bands(empty_config.lattice, kx, ky,
                                       _BLOCK_MIN_HALFWIDTH, 8)
            assert np.allclose(problem.omega0 + w, oracle, rtol=1e-12)


class TestPathAccuracy:
    """Path omegas against the extended-precision Rayleigh-quotient oracle
    at h = 14 (the bands_wide workload), where the eigenvalues of a dense
    eigensolve carry several rad/s of round-off."""

    def test_within_one_rad_s_of_oracle(self, bands_config):
        cfg = replace(bands_config, basis_halfwidth=14, samples_per_segment=8)
        bs = solve_bands(cfg)
        # interior points of G-Z, Z-T and T-G, and the T node
        for index in (4, 12, 21, 16):
            kp = bs.kpoints[index]
            oracle = rayleigh_omegas(cfg.lattice, bs.basis, kp.kx, kp.ky, 8)
            assert np.max(np.abs(bs.omegas[index] - oracle)) <= 1.0


class TestMirrorBlockedSolve:
    """Points on G-Z (ky == 0) and T-G (kx == ky) are solved as the even
    and odd blocks of the mirror that fixes their line."""

    @pytest.mark.parametrize("halfwidth", [2, 3, 7])
    def test_blocked_omegas_match_dense(self, bands_lattice, bands_dp,
                                        halfwidth):
        basis = reciprocal_basis(halfwidth, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        kpts = [kp for kp in build_kpath(("G", "Z", "T", "G"),
                                         bands_lattice.pitch, 4)
                if not kp.label and (kp.ky == 0.0 or kp.kx == kp.ky)]
        assert len(kpts) == 6  # three on G-Z, three on T-G
        for kp in kpts:
            assert problem.fold_at(kp.kx, kp.ky) is not None
            h = problem.hamiltonian(kp.kx, kp.ky)
            dense = np.linalg.eigvalsh(h)[:8]
            w, _ = _solve(problem, kp.kx, kp.ky, 8)
            assert np.max(np.abs((w - bands_dp.omega0) - dense)) <= (
                1e-12 * np.linalg.norm(h))

    @pytest.mark.parametrize("halfwidth", [2, 3, 7])
    def test_block_sizes(self, bands_lattice, halfwidth):
        basis = reciprocal_basis(halfwidth, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        for mirror in (problem.along_x, problem.diagonal):
            even, odd = mirror.even.size, mirror.odd.size
            assert even == (halfwidth + 1) * (2 * halfwidth + 1)
            assert odd == halfwidth * (2 * halfwidth + 1)
            assert even + odd == (2 * halfwidth + 1) ** 2

    @pytest.mark.parametrize("kx_frac,ky_frac", [(0.3, 0.0), (0.3, 0.3)])
    def test_block_solves_reach_eigvalsh(self, bands_lattice, monkeypatch,
                                         kx_frac, ky_frac):
        basis = reciprocal_basis(7, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        shapes = _record_shapes(monkeypatch, "eigvalsh")
        kx = 2 * math.pi * kx_frac / bands_lattice.pitch
        ky = 2 * math.pi * ky_frac / bands_lattice.pitch
        _solve(problem, kx, ky, 8)
        assert shapes == [(120, 120), (105, 105)]

    @pytest.mark.parametrize("nodes,mirror", [
        (("Z", "G"), "along_x"), (("G", "T"), "diagonal"), (("T", "Z"), None),
    ])
    def test_user_path_mirror(self, bands_lattice, nodes, mirror):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        expected = None if mirror is None else getattr(problem, mirror)
        interior = [kp for kp in build_kpath(nodes, bands_lattice.pitch, 4)
                    if not kp.label]
        assert len(interior) == 3
        for kp in interior:
            assert problem.fold_at(kp.kx, kp.ky) is expected

    def test_t_centered_window_solves_g_z_dense(self, bands_lattice,
                                                bands_dp, monkeypatch):
        # n -> -n maps the window [-h-1, h] onto [-h, h+1]: not closed
        basis = t_centered_basis(3, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        assert problem.along_x is None
        assert problem.diagonal is not None
        kx = 0.6 * math.pi / bands_lattice.pitch
        shapes = _record_shapes(monkeypatch, "eigvalsh")
        w, _ = _solve(problem, kx, 0.0, 8)
        assert shapes == [(64, 64)]
        h = problem.hamiltonian(kx, 0.0)
        assert np.array_equal(w, bands_dp.omega0 + np.linalg.eigvalsh(h)[:8])


class TestPathBlocksFromFactors:
    """The G-Z and T-G blocks built from the 1D pattern factors against the
    fold of the oracle's dense H; Z-T points solve the dense H itself."""

    @pytest.mark.parametrize("halfwidth", [2, 3, 7])
    def test_blocks_match_fold_of_oracle(self, bands_lattice, halfwidth):
        basis = reciprocal_basis(halfwidth, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        waves = _waves(basis)
        for fold in (problem.along_x, problem.diagonal):
            # every wave once: an orbit's first, or its image
            assert np.array_equal(
                np.sort(np.concatenate([fold.even, fold.odd_image])),
                np.arange(len(basis)))
        images = {"G-Z": lambda m, n: (m, -n), "T-G": lambda m, n: (n, m)}
        kinds = []
        for kp in build_kpath(("G", "Z", "T", "G"), bands_lattice.pitch, 4):
            h = dense_hamiltonian(bands_lattice, basis, kp.kx, kp.ky)
            mirror = problem.fold_at(kp.kx, kp.ky)
            if mirror is None:
                kinds.append("dense")
                assert np.array_equal(problem.hamiltonian(kp.kx, kp.ky), h)
                continue
            kinds.append("G-Z" if kp.ky == 0.0 else "T-G")
            expected = mirror_blocks(h, waves, images[kinds[-1]],
                                     mirror.even, mirror.odd)
            kinetic = problem.kinetic(kp.kx, kp.ky)
            blocks = [mirror.block(kinetic, odd) for odd in (False, True)]
            for block, folded in zip(blocks, expected, strict=True):
                assert block.shape == folded.shape
                assert np.max(np.abs(block - folded)) <= (
                    1e-15 * np.linalg.norm(h))
        assert kinds == ["G-Z"] * 5 + ["dense"] * 3 + ["T-G"] * 4 + ["G-Z"]


class TestFoldHelpers:
    """``_axis_fold`` and ``_swap_fold`` against the oracle's wave-by-wave
    fold of the dense matrices they stand for."""

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_axis_fold_matches_oracle(self, width, shift):
        s = np.random.default_rng(width + 10 * shift).standard_normal(
            2 * width - 1 + shift)  # s_0 .. s_{2 width - 2 + shift}
        # the half axis 0..width-1 first, then its images under m -> -shift-m
        axis = np.concatenate([np.arange(width),
                               -shift - np.arange(1 - shift, width)])
        toeplitz = s[np.abs(axis[:, None] - axis)]
        expected = mirror_blocks(toeplitz, [(m,) for m in axis],
                                 lambda m: (-shift - m,))
        for block, folded in zip(_axis_fold(s, shift), expected, strict=True):
            assert block.shape == folded.shape
            assert np.max(np.abs(block - folded)) <= (
                1e-15 * np.linalg.norm(toeplitz))
        assert expected[0].shape[0] == width

    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_swap_fold_matches_oracle(self, width):
        rng = np.random.default_rng(width)
        a = rng.standard_normal((width, width))
        a += a.T  # symmetric, and not Toeplitz
        assert not np.allclose(a[1:, 1:], a[:-1, :-1])
        c, diag = 0.7, rng.standard_normal(width)
        kinetic = (diag[:, None] + diag).ravel()  # even under x <-> y
        fold = _swap_fold(a, c)
        waves = [(i, j) for i in range(width) for j in range(width)]

        def swap(i, j):
            return j, i

        even, odd = mirror_fold(waves, swap)
        assert fold.n_fixed == width
        assert fold.even.tolist() == even and fold.odd.tolist() == odd
        assert fold.even_image.tolist() == [waves.index(swap(*waves[i]))
                                            for i in even]
        assert fold.odd_image.tolist() == [waves.index(swap(*waves[i]))
                                           for i in odd]
        h = -c * np.kron(a, a)
        h[np.diag_indices_from(h)] += kinetic
        expected = mirror_blocks(h, waves, swap)
        blocks = [fold.block(kinetic, odd) for odd in (False, True)]
        for block, folded in zip(blocks, expected, strict=True):
            assert block.shape == folded.shape
            assert np.max(np.abs(block - folded)) <= 1e-15 * np.linalg.norm(h)


class TestFoldedNamedNodes:
    """The named nodes are solved in the mirror blocks too, built from the
    1D pattern factors, and checked against one dense eigh."""

    @pytest.mark.parametrize("kx_frac,ky_frac", [(0.3, 0.0), (0.3, 0.3)])
    def test_cached_blocks_match_fold_of_dense(self, bands_lattice, kx_frac,
                                               ky_frac):
        basis = reciprocal_basis(7, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        kx = 2 * math.pi * kx_frac / bands_lattice.pitch
        ky = 2 * math.pi * ky_frac / bands_lattice.pitch
        mirror = problem.fold_at(kx, ky)
        h = problem.hamiltonian(kx, ky)
        kinetic = problem.kinetic(kx, ky)
        cached = [mirror.block(kinetic, odd) for odd in (False, True)]
        image = (lambda m, n: (m, -n)) if ky == 0.0 else (lambda m, n: (n, m))
        folded_h = mirror_blocks(h, _waves(basis), image,
                                 mirror.even, mirror.odd)
        for block, folded in zip(cached, folded_h, strict=True):
            assert np.max(np.abs(block - folded)) <= 1e-15 * np.linalg.norm(h)
        expected = [block.copy() for block in cached]
        for block in cached:
            block[:] = 0.0  # each call returns fresh blocks
        for odd, block in enumerate(expected):
            assert np.array_equal(block, mirror.block(kinetic, bool(odd)))

    @pytest.mark.parametrize("halfwidth", [3, 7, 14])
    def test_node_pairs_match_dense_oracle(self, bands_lattice, halfwidth):
        basis = reciprocal_basis(halfwidth, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        for node in ("G", "Z", "T"):
            kx, ky = named_kpoint(node, bands_lattice.pitch)
            assert problem.fold_at(kx, ky) is not None
            h = problem.hamiltonian(kx, ky)
            scale = np.linalg.norm(h)
            w, v = _solve(problem, kx, ky, DEFAULT_N_BANDS, vectors=True)
            w_dense, _ = dense_eigh(problem, kx, ky, DEFAULT_N_BANDS)
            assert np.max(np.abs(w - w_dense)) <= 1e-14 * scale, node
            detuned = w - problem.omega0
            residual = np.max(np.linalg.norm(h @ v - v * detuned, axis=0))
            assert residual <= 1e-10 * scale, node
            assert np.max(np.abs(v.T @ v - np.eye(DEFAULT_N_BANDS))) <= 1e-12

    def test_path_nodes_solved_in_blocks(self, bands_config, monkeypatch):
        cfg = replace(bands_config, samples_per_segment=2, basis_halfwidth=3)
        problem = _problem(cfg.lattice, reciprocal_basis(3, cfg.lattice.pitch))
        w, v = _solve(problem, 0.0, 0.0, DEFAULT_N_BANDS, vectors=True)
        shapes = _record_shapes(monkeypatch, "eigh")
        bs = solve_bands(cfg)
        # G and Z under y -> -y, T under x <-> y: 28 + 21 waves each; the
        # closing G reuses the first G's solve, bit for bit
        assert shapes == [(28, 28), (21, 21)] * 3
        for row in (0, len(bs.kpoints) - 1):
            assert bs.kpoints[row].label == "G"
            assert np.array_equal(bs.omegas[row], w)
            assert np.array_equal(bs.vectors[row], v)

    @pytest.mark.parametrize("halfwidth", [3, 7, 14])
    def test_t_labels_match_dense_oracle(self, bands_config, halfwidth):
        # the sector-edge labels against the channel weights of one dense
        # eigh's vectors
        cfg = replace(bands_config, kpath=("T",), samples_per_segment=1,
                      basis_halfwidth=halfwidth)
        bs = solve_bands(cfg)
        problem = _problem(cfg.lattice, bs.basis)
        w, v = dense_eigh(problem, *named_kpoint("T", cfg.lattice.pitch),
                          DEFAULT_N_BANDS)
        expected = channel_labels(w, v, bs.basis)
        assert list(bs.rep_labels[0]) == expected
        assert expected[:4] == [LABEL_S, LABEL_PAIR, LABEL_PAIR, LABEL_XY]


def _label_lattices():
    """The lattices the T labels are checked on, by id: the reference, 30
    drawn from ``default_rng(12345)`` (pitch U(3, 6) um, FF U(0.3, 0.9),
    dphi = +-10^U(-4, -1.3)) and the reference at four more dphi."""
    reference = LatticeSpec(lambda_vac=960e-9, n_refr=3.53, pitch=4e-6,
                            fill_factor=0.65, dphi=0.02)
    lattices = {"reference": reference}
    rng = np.random.default_rng(12345)
    for i in range(30):
        pitch = rng.uniform(3.0, 6.0) * 1e-6
        fill_factor = rng.uniform(0.3, 0.9)
        dphi = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, -1.3)
        lattices[f"rng{i:02d}"] = replace(reference, pitch=pitch,
                                          fill_factor=fill_factor,
                                          dphi=float(dphi))
    for dphi in (0.1, -0.1, 0.0, 1e-6):
        lattices[f"dphi={dphi:g}"] = replace(reference, dphi=dphi)
    return lattices


with warnings.catch_warnings():
    warnings.simplefilter("ignore", UserWarning)  # |dphi| > 0.02
    _LABEL_LATTICES = _label_lattices()


def _t_row(lattice, halfwidth, n_bands=DEFAULT_N_BANDS):
    """The band structure of the one-point path T."""
    return solve_bands(ExperimentConfig(
        lattice=lattice, kpath=("T",), samples_per_segment=1,
        basis_halfwidth=halfwidth), n_bands=n_bands)


class TestClassification:
    """T labels from the sector edges (``classify_t_states``), and the
    channel-weight oracle (``channel_labels``) they are checked against."""

    @pytest.mark.parametrize("halfwidth", [2, 3, 7, 10])
    @pytest.mark.parametrize("name", list(_LABEL_LATTICES))
    def test_labels_match_channel_oracle(self, name, halfwidth):
        bs = _t_row(_LABEL_LATTICES[name], halfwidth)
        assert list(bs.rep_labels[0]) == channel_labels(
            bs.omegas[0], bs.vectors[0], bs.basis)

    def test_nearest_rows_within_a_quarter_gap(self):
        # edges 0, 4 and 10: the smallest gap is 4, so the reach is 1,
        # strictly; the pair edge takes its two nearest rows
        omegas = [-0.5, 3.0, 3.5, 4.2, 5.0, 9.5, 12.0]
        assert classify_t_states(omegas, (0.0, 4.0, 10.0)) == [
            LABEL_S, LABEL_NONE, LABEL_PAIR, LABEL_PAIR, LABEL_NONE, LABEL_XY,
            LABEL_NONE]
        assert classify_t_states([1.0], (0.0, 4.0, 10.0)) == [LABEL_NONE]

    def test_coincident_edges_leave_rows_unclassified(self, empty_config):
        # dphi = 0: the four corner states are degenerate, and the edges
        # coincide, so no row lies strictly within a quarter of their gap
        edges = t_edges(empty_config.lattice, 3)
        assert edges[0] == edges[1] == edges[2]
        bs = _t_row(empty_config.lattice, 3)
        assert list(bs.rep_labels[0]) == [LABEL_NONE] * DEFAULT_N_BANDS
        assert classify_t_states(bs.omegas[0][:4], edges) == [LABEL_NONE] * 4

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_negative_dphi_reverses_order(self, bands_lattice, halfwidth):
        bs = _t_row(replace(bands_lattice, dphi=-0.01), halfwidth)
        assert list(bs.rep_labels[0, :4]) == [LABEL_XY, LABEL_PAIR,
                                              LABEL_PAIR, LABEL_S]
        assert set(bs.rep_labels[0, 4:]) == {LABEL_NONE}

    @pytest.mark.parametrize("halfwidth", [3, 7, 10])
    def test_multiplicity_bounds_each_edge(self, halfwidth):
        # at dphi = -0.1 the S edge lies above the next x <-> y-odd state,
        # and two more rows lie within a quarter gap of it: only the
        # nearest one is S
        lattice = _LABEL_LATTICES["dphi=-0.1"]
        bs = _t_row(lattice, halfwidth)
        assert list(bs.rep_labels[0]) == [
            LABEL_XY, LABEL_PAIR, LABEL_PAIR, LABEL_NONE, LABEL_S,
            LABEL_NONE, LABEL_NONE, LABEL_NONE]
        edges = t_edges(lattice, halfwidth)
        reach = 0.25 * min(abs(edges[0] - edges[1]), abs(edges[1] - edges[2]))
        assert np.all(np.abs(bs.omegas[0, 5:7] - edges[0]) < reach)

    @pytest.mark.parametrize("n_bands", [1, 2, 3])
    def test_fewer_bands_than_corner_states(self, bands_lattice, n_bands):
        bs = _t_row(bands_lattice, 3, n_bands=n_bands)
        assert list(bs.rep_labels[0]) == [LABEL_S, LABEL_PAIR,
                                          LABEL_PAIR][:n_bands]

    def test_edges_solved_once_per_path(self, bands_config, monkeypatch):
        calls = []
        solve = planewave.t_edges

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(planewave, "t_edges", counting)
        cfg = replace(bands_config, kpath=("T", "G", "T"),
                      samples_per_segment=2, basis_halfwidth=3)
        bs = solve_bands(cfg)
        assert calls == [(cfg.lattice, 3)]
        assert list(bs.rep_labels[0, :4]) == list(bs.rep_labels[-1, :4])
        solve_bands(replace(cfg, kpath=("G", "Z")))
        assert len(calls) == 1

    def test_empty_lattice_symmetric_combo_is_s(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        state = _corner_state(basis, (1, 1, 1, 1))  # cos*cos
        assert channel_labels([0.0], state[:, None], basis) == [LABEL_S]

    def test_empty_lattice_sin_sin_is_xy(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        state = _corner_state(basis, (1, -1, -1, 1))  # sin*sin
        assert channel_labels([0.0], state[:, None], basis) == [LABEL_XY]

    def test_pair_combo_is_t5(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        x_state = _corner_state(basis, (1, -1, 1, -1))
        y_state = _corner_state(basis, (1, 1, -1, -1))
        group = np.column_stack([x_state, y_state])
        assert channel_labels([0.0, 0.0], group, basis) == [LABEL_PAIR] * 2

    @pytest.mark.parametrize("start,width", [(-1, 2), (-3, 5), (-1, 4)])
    def test_corner_slots_on_any_window(self, bands_lattice, start, width):
        # the slots are found from start and width; the state from its waves
        basis = Window(start, width, bands_lattice.pitch)
        for pattern, label in (((1, 1, 1, 1), LABEL_S), ((1, -1, -1, 1), LABEL_XY)):
            state = _corner_state(basis, pattern)
            assert channel_labels([0.0], state[:, None], basis) == [label]

    def test_lowest_corner_state_is_s_with_large_projection(self, bands_config,
                                                            bands_t_analysis):
        h = bands_config.basis_halfwidth
        _, vectors = unfold_t_states(bands_config.lattice, h)
        basis = t_centered_basis(h, bands_config.lattice.pitch)
        s_chan = _corner_state(basis, (1, 1, 1, 1))
        assert abs(np.vdot(s_chan, vectors[:, 0])) ** 2 >= 0.9
        assert bands_t_analysis.labels[0] == LABEL_S

    def test_higher_shell_state_unclassified(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        pos = {wave: i for i, wave in enumerate(_waves(basis))}
        vec = np.zeros(len(basis), dtype=complex)
        vec[pos[(2, 2)]] = 1.0
        assert channel_labels([0.0], vec[:, None], basis) == ["unclassified"]

    def test_empty_lattice_fourfold_group_unclassified(self, empty_config):
        analysis = t_point_analysis(empty_config)
        assert len(analysis.groups[0]) == 4
        assert analysis.labels[0] == "unclassified"

    def test_pair_basis_fixed_to_parity_members(self, bands_config,
                                                bands_t_analysis):
        # the pair group is the sector solve's x member and its transpose,
        # (x-odd, y-even) and (x-even, y-odd), not a mixture of the two;
        # the oracle's canonical phase makes their channel overlaps positive
        grp = bands_t_analysis.group_of(LABEL_PAIR)
        h = bands_config.basis_halfwidth
        _, vectors = unfold_t_states(bands_config.lattice, h)
        basis = t_centered_basis(h, bands_config.lattice.pitch)
        x_chan = _corner_state(basis, (1, -1, 1, -1))
        y_chan = _corner_state(basis, (1, 1, -1, -1))
        v0 = vectors[:, grp[0]]
        v1 = vectors[:, grp[1]]
        ov_x0 = np.vdot(x_chan, v0)
        ov_y1 = np.vdot(y_chan, v1)
        assert abs(ov_x0) ** 2 > 0.9 and abs(np.vdot(y_chan, v0)) ** 2 < 1e-20
        assert abs(ov_y1) ** 2 > 0.9 and abs(np.vdot(x_chan, v1)) ** 2 < 1e-20
        # canonical phase: channel overlaps are real positive
        assert ov_x0.real > 0 and abs(ov_x0.imag) < 1e-12
        assert ov_y1.real > 0 and abs(ov_y1.imag) < 1e-12


class TestBandEdges:
    def test_empty_lattice_edges_coincide(self, empty_config):
        analysis = t_point_analysis(empty_config)
        e = analysis.edges
        assert e[0] == pytest.approx(e[1], rel=1e-14)
        assert e[1] == pytest.approx(e[2], rel=1e-14)

    def test_patterned_edge_ordering(self, bands_t_analysis):
        e = bands_t_analysis.edges
        assert e[0] < e[1] < e[2]

    def test_edge_splittings_linear_in_dphi(self, bands_lattice):
        gaps = {}
        for dphi in (1e-5, 1e-3):
            cfg = ExperimentConfig(lattice=replace(bands_lattice, dphi=dphi))
            e = t_point_analysis(cfg).edges
            gaps[dphi] = (e[1] - e[0], e[2] - e[1])
        for i in (0, 1):
            ratio = gaps[1e-3][i] / gaps[1e-5][i]
            assert ratio == pytest.approx(100.0, rel=0.02)

    def test_perturbative_edges_match_solver(self, weak_lattice,
                                             weak_t_analysis):
        # first-order theory; the solver carries O(dphi^2) corrections of a
        # few 1e6 rad/s at dphi = 1e-4 (relative ~2e-9)
        analytic = perturbative_edges(weak_lattice)
        for a, b in zip(analytic, weak_t_analysis.edges):
            assert a == pytest.approx(b, rel=1e-8)


class TestTEdges:
    """t_edges gives t_point_analysis's edges from eigenvalue-only solves."""

    @pytest.mark.parametrize("lattice", ["reference", "jittered"])
    @pytest.mark.parametrize("halfwidth", [3, 7, 10, 14])
    def test_matches_analysis_edges(self, bands_lattice, lattice, halfwidth):
        lattice = bands_lattice if lattice == "reference" else LatticeSpec(
            **JITTERED)
        edges = t_edges(lattice, halfwidth)
        expected = t_point_analysis(ExperimentConfig(lattice=lattice),
                                    halfwidth=halfwidth).edges
        assert all(type(e) is float for e in edges)
        assert edges[0] < edges[1] < edges[2]
        for got, want in zip(edges, expected, strict=True):
            assert got == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_three_sectors_eigenvalue_only(self, bands_lattice, monkeypatch,
                                           halfwidth):
        vectors = _record_shapes(monkeypatch, "eigh")
        values = _record_shapes(monkeypatch, "eigvalsh")
        t_edges(bands_lattice, halfwidth)
        k = halfwidth + 1
        assert vectors == []
        # S, XY and (x-odd, y-even), in the order _t_sectors builds them
        assert values == [(k * (k + 1) // 2,) * 2, (k * (k + 1) // 2,) * 2,
                          (k * k,) * 2]

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_builds_only_its_three_sectors(self, bands_config, monkeypatch,
                                           halfwidth):
        # t_edges builds the S, XY and X blocks, no x <-> y-odd partner of
        # a swap fold; t_point_analysis and the eigh contract build all five
        built, parities = [], []
        block = planewave._TSectors.block
        monkeypatch.setattr(planewave._TSectors, "block", lambda self, name: (
            built.append(name) or block(self, name)))
        original = planewave._swap_fold

        def counting(a, c):
            fold = original(a, c)

            def potential(odd):
                parities.append(odd)
                return fold.potential(odd)

            return replace(fold, potential=potential)

        monkeypatch.setattr(planewave, "_swap_fold", counting)
        t_edges(bands_config.lattice, halfwidth)
        assert built == ["S", "XY", "X"]
        assert parities == [False, False]
        for solve in (lambda: t_point_analysis(bands_config, halfwidth),
                      lambda: eigh_contract_at_t(bands_config.lattice,
                                                 halfwidth)):
            built.clear()
            parities.clear()
            solve()
            assert built == ["S", "S'", "XY", "XY'", "X"]
            assert parities == [False, True, False, True]


def _fd_curvature(f, step, levels):
    """Central second difference of f at 0, Richardson-extrapolated."""
    f0 = f(0.0)
    hs = [step / 2 ** j for j in range(levels + 1)]
    ds = [(f(hh) - 2.0 * f0 + f(-hh)) / hh ** 2 for hh in hs]
    for lev in range(1, levels + 1):
        ds = [(4.0 ** lev * ds[j + 1] - ds[j]) / (4.0 ** lev - 1.0)
              for j in range(len(ds) - 1)]
    return ds[0]


class TestEffectiveMass:
    # Bounds are about ten times the deviations measured at h = 7: 1.1e-7
    # at dphi 0.02 and 4.2e-7 at dphi 1e-4. The oracle's eigenvalues come
    # from eigh: eigvalsh's carry more round-off here, which alone moves
    # the deviations to 3.7e-7 and 1.7e-6.
    @pytest.mark.parametrize("dphi, step_fraction, levels, bound", [
        (0.02, 1e-3, 1, 1e-6),
        (1e-4, 1e-4, 2, 1e-5),
    ])
    def test_masses_match_finite_difference_oracle(
            self, bands_lattice, dphi, step_fraction, levels, bound):
        """The k.p sum against the curvature of the eigenvalue nearest the
        edge of the full corner-window H(k), along x and along (1, 1)."""
        cfg = ExperimentConfig(lattice=replace(bands_lattice, dphi=dphi))
        analysis = t_point_analysis(cfg)
        pitch = cfg.lattice.pitch
        problem = _problem(cfg.lattice,
                           t_centered_basis(cfg.basis_halfwidth, pitch))
        kt = named_kpoint("T", pitch)
        step = step_fraction * math.pi / pitch
        for label, edge in ((LABEL_S, analysis.edges[0]),
                            (LABEL_XY, analysis.edges[2])):
            mass = opw_mass_at_t(cfg, label, analysis=analysis)
            detuned_edge = edge - problem.omega0
            for d in ((1.0, 0.0), (math.sqrt(0.5), math.sqrt(0.5))):
                def omega(t):  # detuned, as the carrier would cost digits
                    w = np.linalg.eigh(problem.hamiltonian(
                        kt[0] + t * d[0], kt[1] + t * d[1]))[0]
                    return w[np.argmin(np.abs(w - detuned_edge))]

                oracle = HBAR / _fd_curvature(omega, step, levels)
                assert abs(mass - oracle) / abs(oracle) <= bound, (label, d)

    def test_unclassified_singleton_has_no_mass(self, bands_config,
                                                bands_t_analysis):
        assert len(bands_t_analysis.group_of(LABEL_NONE)) == 1
        with pytest.raises(ComputationError, match="no curvature mass"):
            opw_mass_at_t(bands_config, LABEL_NONE, analysis=bands_t_analysis)

    def test_empty_lattice_mass_raises(self, empty_config):
        analysis = t_point_analysis(empty_config)
        assert analysis.masses == {}
        for label in (LABEL_S, LABEL_XY):
            with pytest.raises(ComputationError):
                opw_mass_at_t(empty_config, label, analysis=analysis)

    def test_weak_lattice_s_band_strongly_inverted(self, weak_config,
                                            weak_t_analysis, weak_lattice):
        dp = derive_params(weak_lattice)
        m_plus, _ = m_closed_form(weak_lattice, dp)
        mass = opw_mass_at_t(weak_config, LABEL_S, analysis=weak_t_analysis)
        assert dp.m0 / mass == pytest.approx(1 - 2 * m_plus, rel=0.25)
        assert mass < 0  # negative curvature at the zone corner

    def test_weak_lattice_orbital_parameters_match_closed_form(
            self, weak_config, weak_t_analysis, weak_lattice):
        # measured at h = 7: 6.2e-4 (m_plus) and 1.2e-4 (m_minus)
        dp = derive_params(weak_lattice)
        m_plus, m_minus = m_closed_form(weak_lattice, dp)
        m_s = opw_mass_at_t(weak_config, LABEL_S, analysis=weak_t_analysis)
        m_xy = opw_mass_at_t(weak_config, LABEL_XY, analysis=weak_t_analysis)
        assert -0.5 * (dp.m0 / m_s - 1.0) == pytest.approx(m_plus, rel=1e-3)
        assert 0.5 * (dp.m0 / m_xy - 1.0) == pytest.approx(m_minus, rel=1e-3)

    def test_degenerate_tracking_raises(self, bands_config, bands_t_analysis):
        with pytest.raises(ComputationError, match="degenerate"):
            opw_mass_at_t(bands_config, LABEL_PAIR, analysis=bands_t_analysis)


class TestLongitudinalProfile:
    def test_uniform_state_alpha_is_mean(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        pos = _waves(basis).index((0, 0))
        coeffs = np.zeros(len(basis), dtype=complex)
        coeffs[pos] = 1.0
        profile = longitudinal_profile(coeffs, basis, bands_lattice)
        assert profile.alpha == pytest.approx(0.013, rel=1e-12, abs=0)

    def test_ground_state_alpha_bounds(self, bands_config):
        cfg = replace(bands_config, kpath=("G",), samples_per_segment=1)
        bs = solve_bands(cfg)
        profile = longitudinal_profile(bs.vectors[0][:, 0], bs.basis,
                                       cfg.lattice)
        mean = cfg.lattice.dphi * cfg.lattice.fill_factor
        assert mean < profile.alpha < cfg.lattice.dphi

    def test_unimodular(self, bands_config):
        cfg = replace(bands_config, kpath=("G",), samples_per_segment=1,
                      basis_halfwidth=4)
        bs = solve_bands(cfg)
        profile = longitudinal_profile(bs.vectors[0][:, 0], bs.basis,
                                       cfg.lattice, samples=512)
        assert np.max(np.abs(np.abs(1 + profile.eta_samples) - 1)) <= 1e-12

    def test_gauge_invariance(self, bands_lattice):
        basis = reciprocal_basis(2, bands_lattice.pitch)
        rng = np.random.default_rng(8)
        raw = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        raw /= np.linalg.norm(raw)
        a1 = longitudinal_profile(raw, basis, bands_lattice).alpha
        a2 = longitudinal_profile(raw * np.exp(1j * 0.7), basis,
                                  bands_lattice).alpha
        assert a1 == pytest.approx(a2, rel=1e-12, abs=0)
        assert np.isreal(a1)

    def test_periodic_increments_cancel(self, bands_lattice):
        basis = reciprocal_basis(2, bands_lattice.pitch)
        pos = _waves(basis).index((0, 0))
        coeffs = np.zeros(len(basis), dtype=complex)
        coeffs[pos] = 1.0
        profile = longitudinal_profile(coeffs, basis, bands_lattice,
                                       samples=256)
        eta = profile.eta_samples
        wrapped = np.sum(np.diff(np.concatenate([eta, eta[:1]])))
        assert abs(wrapped) < 1e-14

    def test_non_unit_norm_rejected(self, bands_lattice):
        basis = reciprocal_basis(1, bands_lattice.pitch)
        with pytest.raises(ValidationError, match="unit-norm"):
            longitudinal_profile(np.ones(len(basis), dtype=complex), basis,
                                 bands_lattice)
        with pytest.raises(ValidationError, match="for a basis of 9 waves"):
            longitudinal_profile(np.ones(1), basis, bands_lattice)


class TestConvergence:
    def test_edges_converged_at_default_halfwidth(self, bands_config,
                                                  bands_t_analysis):
        bigger = t_point_analysis(bands_config, halfwidth=9)
        for a, b in zip(bands_t_analysis.edges, bigger.edges):
            assert abs(a - b) / abs(a) < 1e-6

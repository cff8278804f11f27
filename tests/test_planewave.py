import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from phczeeman import (
    ComputationError,
    ExperimentConfig,
    LatticeSpec,
    ValidationError,
    Window,
    build_kpath,
    classify_t_states,
    cluster_degenerate,
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
    LABEL_XY, _axis_fold, _block_solve, _problem, _solve,
    _swap_fold, _t_sectors,
)
from phczeeman.zeeman import m_closed_form
from oracles import (T_SECTORS, channel_labels, dense_eigh,
                     dense_hamiltonian, dense_t_sectors, eigh_contract_at_t,
                     folded_free_bands, mirror_blocks, mirror_fold,
                     rayleigh_omegas, unfold_t_states)

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


def _bands(cfg):
    """``solve_bands`` on ``cfg`` with the T sector edges that ``bands``
    solves first."""
    return solve_bands(cfg, t_edges(cfg.lattice, cfg.basis_halfwidth))


def _record_shapes(monkeypatch, solver):
    """Record the shape of every matrix passed to ``np.linalg.<solver>``."""
    shapes = []
    original = getattr(np.linalg, solver)

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, solver, recording)
    return shapes


def _path_blocks(problem, points):
    """``_block_solve`` at each of ``points`` in order, each started from the
    last two points' blocks as ``solve_path`` starts it: yields (w, block)."""
    blocks = ()
    for kx, ky in points:
        w, block = _block_solve(problem, kx, ky, blocks)
        blocks = (block, *blocks[:1])
        yield w, block


def _assert_contract(problem, kx, ky, w, block):
    """The block solver's contract at (kx, ky): ascending ``w``, each wanted
    residual within the bound through a fresh apply, an orthonormal
    ``block``."""
    v = block[:, :DEFAULT_N_BANDS]
    residual = np.linalg.norm(
        problem.apply(problem.kinetic(kx, ky), v) - v * w, axis=0)
    assert np.all(residual <= problem.residual_bound)
    assert np.max(np.abs(block.T @ block - np.eye(block.shape[1]))) <= 1e-12
    assert np.all(np.diff(w) >= 0)


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
        bs = _bands(cfg)
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
        w, _ = _solve(_problem(empty_config.lattice, basis), kx, ky)
        oracle = folded_free_bands(empty_config.lattice, kx, ky, 7, 8)
        assert np.allclose(w, oracle, rtol=1e-12)

    def test_patterned_t_multiplicities(self, bands_config):
        cfg = replace(bands_config, kpath=("T",), samples_per_segment=1)
        bs = _bands(cfg)
        w = bs.omegas[0]
        groups = cluster_degenerate(w[:4])
        assert [len(g) for g in groups] == [1, 2, 1]

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_t_labels_attached(self, bands_config, halfwidth):
        cfg = replace(bands_config, kpath=("Z", "T"), samples_per_segment=4,
                      basis_halfwidth=halfwidth)
        bs = _bands(cfg)
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
        a = _bands(cfg)
        b = _bands(cfg)
        assert np.array_equal(a.omegas, b.omegas)
        assert np.array_equal(a.rep_labels, b.rep_labels)

    def test_band_count_constant(self, bands_config):
        cfg = replace(bands_config, kpath=("G", "Z"), samples_per_segment=3,
                      basis_halfwidth=3)
        bs = solve_bands(cfg, None)
        assert bs.omegas.shape == bs.rep_labels.shape == (4, DEFAULT_N_BANDS)
        assert np.all(np.diff(bs.omegas, axis=1) >= 0)

    def test_c4v_spectrum_invariance(self, bands_config):
        basis = reciprocal_basis(5, bands_config.lattice.pitch)
        rng = np.random.default_rng(5)
        kx, ky = rng.uniform(0.05, 0.45, size=2) * math.pi / 4e-6
        problem = _problem(bands_config.lattice, basis)
        w0, _ = _solve(problem, kx, ky)
        for kim in ((ky, kx), (-kx, ky), (kx, -ky), (-ky, -kx)):
            wi, _ = _solve(problem, kim[0], kim[1])
            assert np.allclose(wi, w0, rtol=1e-10)

    def test_variational_bounds(self, bands_config):
        cfg = replace(bands_config, kpath=("G", "Z", "T"),
                      samples_per_segment=5, basis_halfwidth=5)
        bs = _bands(cfg)
        dp = derive_params(cfg.lattice)
        depth = dp.v_prefactor * cfg.lattice.dphi
        floor = dp.omega0 - depth
        for kp_pt, row in zip(bs.kpoints, bs.omegas):
            assert row[0] >= floor
            free = folded_free_bands(cfg.lattice, kp_pt.kx, kp_pt.ky, 5, 1)[0]
            assert row[0] <= free + depth

    def test_t_node_needs_edges(self, bands_config, monkeypatch):
        # a path through T without its sector edges is refused before any
        # point is solved (a path without T needs none: see above)
        solves = []
        monkeypatch.setattr(planewave, "solve_path",
                            lambda *a, **k: solves.append(a))
        cfg = replace(bands_config, basis_halfwidth=2, samples_per_segment=1)
        with pytest.raises(ValidationError, match="T sector edges"):
            solve_bands(cfg, None)
        assert solves == []

    def test_potential_gathered_once(self, bands_config, monkeypatch):
        # below the crossover the dense pattern term is written once per
        # point, named nodes and the closing G included; the T sector edges,
        # solved before the path, write only their (x-odd, y-even) block
        calls = []
        original = _kernels.fill_hamiltonian

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(_kernels, "fill_hamiltonian", counting)
        cfg = replace(bands_config, samples_per_segment=3, basis_halfwidth=3)
        edges = t_edges(cfg.lattice, 3)
        assert calls == [(4, 4)]
        calls.clear()
        bs = solve_bands(cfg, edges)
        assert len(bs.kpoints) == 10
        assert calls == [(7, 7)] * len(bs.kpoints)

class TestProblem:
    """The per-basis problem: 1D pieces and S, H fresh at each k."""

    def test_hamiltonian_is_fresh(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        kx, ky = named_kpoint("T", bands_lattice.pitch)
        first = problem.hamiltonian(kx, ky)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(problem.hamiltonian(kx, ky), expected)

    def test_problem_holds_no_dense_array(self, bands_lattice):
        # S and the 1D pieces only (measured 7.3 N * 8 B at h = 10)
        basis = reciprocal_basis(10, bands_lattice.pitch)
        n = len(basis)
        _, held, _ = _traced(lambda: _problem(bands_lattice, basis))
        assert held <= 16 * n * 8

    def test_solve_bands_peak_memory(self, bands_config):
        # at most one dense H at a time: measured 1.51 N^2 * 8 B at h = 6,
        # the widest window below the block solver's crossover
        cfg = replace(bands_config, basis_halfwidth=_BLOCK_MIN_HALFWIDTH - 1,
                      samples_per_segment=2)
        n = (2 * cfg.basis_halfwidth + 1) ** 2
        _bands(replace(cfg, basis_halfwidth=2))  # first-call allocations
        edges = t_edges(cfg.lattice, cfg.basis_halfwidth)
        bs, _, peak = _traced(lambda: solve_bands(cfg, edges))
        assert len(bs.kpoints) == 7
        assert peak <= 2.25 * n * n * 8


class TestEigenpairContract:
    """The eigh contract (residual and orthonormality) on production solves.

    The pairs checked are those ``_solve`` returns at a named node, from a
    dense solve of the whole detuned Hamiltonian at that node.
    """

    @pytest.mark.parametrize("window", [reciprocal_basis, t_centered_basis])
    @pytest.mark.parametrize("node", ["G", "Z", "T"])
    def test_refined_pairs(self, bands_lattice, bands_dp, window, node):
        basis = window(7, bands_lattice.pitch)
        kx, ky = named_kpoint(node, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        w, v = _solve(problem, kx, ky, vectors=True)
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
        blocks = [sectors.block(name) for name in T_SECTORS]
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
        even, odd = (f[::-1, ::-1] for f in _axis_fold(s))
        pair = _t_sectors(bands_lattice, k - 1).block("X")
        off = ~np.eye(k * k, dtype=bool)
        assert np.array_equal(pair[off], (-c * np.kron(odd, even))[off])

    @pytest.mark.parametrize("halfwidth", [3, 7, 14])
    def test_eigh_only_on_sectors(self, bands_config, monkeypatch, halfwidth):
        shapes = _record_shapes(monkeypatch, "eigh")
        fills = []
        fill = _kernels.fill_hamiltonian

        def recording(*args):
            block = fill(*args)
            fills.append(block.shape)
            return block

        monkeypatch.setattr(_kernels, "fill_hamiltonian", recording)
        t_point_analysis(bands_config.lattice, halfwidth)
        k = halfwidth + 1
        # the corner H is never formed: the kernel writes only the k^2-order
        # (x-odd, y-even) block
        assert fills == [(k * k, k * k)]
        sym, anti, pair = k * (k + 1) // 2, k * (k - 1) // 2, k * k
        # S, its x <-> y-odd partner, XY, its partner, (x-odd, y-even)
        assert [s[0] for s in shapes] == [sym, anti, sym, anti, pair]
        assert all(s[0] == s[1] for s in shapes)
        assert 2 * (sym + anti + pair) == (2 * halfwidth + 2) ** 2

    @pytest.mark.parametrize("halfwidth", [3, 7, 10])
    @pytest.mark.parametrize("lattice", ["reference", "other", "negative"])
    def test_contract_of_its_own_solves(self, bands_lattice, lattice,
                                        halfwidth):
        # bit for bit the contract of a separate pass over the five blocks
        lattice = {"reference": bands_lattice,
                   "other": replace(bands_lattice, pitch=4.37e-6,
                                    fill_factor=0.713, dphi=0.0137),
                   "negative": replace(bands_lattice, dphi=-0.01)}[lattice]
        analysis = t_point_analysis(lattice, halfwidth)
        assert analysis.contract == eigh_contract_at_t(lattice, halfwidth)
        residual, bound, ortho, ascending = analysis.contract
        assert residual <= bound and ortho <= 1e-10 and ascending

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_lifted_pairs_meet_contract(self, bands_config, halfwidth):
        # the omegas with the oracle's sector states unfolded onto the window
        analysis = t_point_analysis(bands_config.lattice, halfwidth)
        h = self._hamiltonian(bands_config, halfwidth)
        w = analysis.omegas - derive_params(bands_config.lattice).omega0
        _, v = unfold_t_states(bands_config.lattice, halfwidth)
        residual = np.max(np.linalg.norm(h @ v - v * w, axis=0))
        assert residual <= 1e-10 * np.linalg.norm(h)
        assert np.max(np.abs(v.T @ v - np.eye(DEFAULT_N_BANDS))) <= 1e-10

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_merged_omegas_match_dense(self, bands_config, halfwidth):
        analysis = t_point_analysis(bands_config.lattice, halfwidth)
        h = self._hamiltonian(bands_config, halfwidth)
        dense = np.linalg.eigvalsh(h)[:DEFAULT_N_BANDS]
        w = analysis.omegas - derive_params(bands_config.lattice).omega0
        assert np.max(np.abs(w - dense)) <= 1e-12 * np.linalg.norm(h)

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_lifts_only_the_edge_states(self, bands_lattice, monkeypatch,
                                        halfwidth):
        # the S and XY edges, one column each; no other state is lifted
        columns = []
        lift = planewave._MirrorFold.lift
        monkeypatch.setattr(planewave._MirrorFold, "lift", lambda self, u: (
            columns.append(u.shape[1]) or lift(self, u)))
        t_point_analysis(bands_lattice, halfwidth)
        assert columns == [1, 1]

    @pytest.mark.parametrize("halfwidth", [3, 7, 10])
    def test_pair_exactly_degenerate(self, bands_config, halfwidth):
        analysis = t_point_analysis(bands_config.lattice, halfwidth)
        assert analysis.omegas[1] == analysis.omegas[2]
        assert analysis.groups[analysis.labels.index(LABEL_PAIR)] == (1, 2)
        assert analysis.edges[1] == analysis.omegas[1]

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_labels_and_signs_follow_parities(self, bands_config, halfwidth):
        # each group's label is the sector of the oracle's states at its
        # omegas, read from their parities on the window
        analysis = t_point_analysis(bands_config.lattice, halfwidth)
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
        # the x <-> y folds of the (x-even, y-even) and (x-odd, y-odd)
        # sectors have fixed waves (i, i); the vectors of their even blocks,
        # S and XY, lifted, are eigenvectors of that sector -c*(S+- ⊗ S+-)
        # plus the kinetic diagonal
        sectors = _t_sectors(bands_lattice, 3)
        k = 4
        for name, factor in (("S", sectors.plus), ("XY", sectors.minus)):
            fold, odd = sectors.folds[name]
            assert fold is sectors.folds[name + "'"][0]
            assert fold.n_fixed == k and not odd
            h = -sectors.c * np.kron(factor, factor)
            h[np.diag_indices_from(h)] += sectors.kinetic
            w, u = np.linalg.eigh(sectors.block(name))
            v = fold.lift(u)
            assert v.shape == (k * k, u.shape[1])
            assert np.max(np.linalg.norm(h @ v - v * w, axis=0)) <= (
                1e-10 * np.linalg.norm(h))
            assert np.max(np.abs(v.T @ v - np.eye(w.size))) <= 1e-12


class TestFrequencyOnlyInterior:
    """A path's points carry omegas only; ``solve_path`` keeps vectors only
    at the positions asked for."""

    @pytest.fixture(scope="class")
    def small_path(self, bands_config):
        cfg = replace(bands_config, kpath=("G", "Z", "T"),
                      samples_per_segment=3, basis_halfwidth=4)
        return _bands(cfg)

    def test_vectors_only_at_named_nodes(self, small_path):
        labels = [kp.label for kp in small_path.kpoints]
        assert labels == ["G", "", "", "Z", "", "", "T"]
        lattice = small_path.config.lattice
        basis = reciprocal_basis(4, lattice.pitch)
        points = [(kp.kx, kp.ky) for kp in small_path.kpoints]
        omegas, vectors = planewave.solve_path(lattice, basis, points,
                                               keep={0, 3, 6})
        assert sorted(vectors) == [0, 3, 6]
        for v in vectors.values():
            assert v.shape == (len(basis), DEFAULT_N_BANDS)
            assert np.allclose(np.sum(v ** 2, axis=0), 1.0, rtol=0,
                               atol=1e-10)
        # a kept point is solved with eigh, the others as solve_bands does
        assert np.array_equal(omegas[[1, 2, 4, 5]],
                              small_path.omegas[[1, 2, 4, 5]])
        assert np.max(np.abs(omegas - small_path.omegas)) <= 1.0

    def test_interior_omegas_match_refined_solve(self, small_path):
        cfg = small_path.config
        problem = _problem(cfg.lattice, reciprocal_basis(4, cfg.lattice.pitch))
        for kp_pt, w in zip(small_path.kpoints, small_path.omegas):
            if kp_pt.label:
                continue
            w_ref, _ = dense_eigh(problem, kp_pt.kx, kp_pt.ky,
                                  small_path.n_bands)
            assert np.max(np.abs(w - w_ref)) <= 16.0

    def test_eigenvalue_failure_names_kpoint(self, bands_config, monkeypatch):
        # each point is one dense solve; the second fails
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def fail(h):
            calls.append(h.shape)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("no convergence")
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        cfg = replace(bands_config, kpath=("G", "Z"), samples_per_segment=2,
                      basis_halfwidth=2)
        with pytest.raises(ComputationError, match="at k-point 1 "):
            solve_bands(cfg, None)


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
        assert np.allclose(problem.apply(problem.kinetic(kx, ky), x), h @ x,
                           rtol=0, atol=1e-13 * np.linalg.norm(h))

    def test_eigenpair_contract(self, lattice):
        # at h = 8, 10 and 14, every returned pair meets the stopping bound
        # through a fresh apply, and each block, started from the last two
        # along the path as solve_path starts it, is orthonormal
        points = [(kp.kx, kp.ky)
                  for kp in build_kpath(("G", "Z", "T", "G"), lattice.pitch, 3)]
        for halfwidth in (_BLOCK_MIN_HALFWIDTH, 10, 14):
            basis = reciprocal_basis(halfwidth, lattice.pitch)
            problem = _problem(lattice, basis)
            for (kx, ky), (w, block) in zip(points,
                                            _path_blocks(problem, points)):
                _assert_contract(problem, kx, ky, w, block)
                h = dense_hamiltonian(lattice, basis, kx, ky)
                assert np.allclose(w, np.linalg.eigvalsh(h)[:8], rtol=0,
                                   atol=1e-12 * np.linalg.norm(h))

    def test_orthonormal_drops_a_zero_column(self):
        # an exactly zero search direction spans nothing: it must not turn
        # the block into NaN, and the other columns come out bit for bit
        # as they would without it
        rng = np.random.default_rng(5)
        x = np.linalg.qr(rng.standard_normal((50, 4)))[0]
        z = rng.standard_normal((50, 3))
        z[:, 1] = 0.0
        q = planewave._orthonormal(z, x)
        assert np.all(np.isfinite(q)) and q.shape == (50, 2)
        assert np.max(np.abs(q.T @ q - np.eye(2))) <= 1e-14
        assert np.max(np.abs(x.T @ q)) <= 1e-14
        assert np.array_equal(q, planewave._orthonormal(np.delete(z, 1, 1), x))

    def test_orthonormal_of_columns_inside_the_block(self):
        # columns in the span of x leave only round-off after projection,
        # and where x touches few waves (as plane waves do at dphi ~ 0)
        # that round-off lies in the span of x too: Cholesky-QR would
        # return it as unit columns far from orthogonal to x (0.76 here)
        rng = np.random.default_rng(5)
        x = np.zeros((50, 4))
        x[:4] = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        z = np.hstack([x @ rng.standard_normal((4, 2)),
                       rng.standard_normal((50, 2))])
        q = planewave._orthonormal(z, x)
        assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-14
        assert np.max(np.abs(x.T @ q)) <= 1e-14
        outside = z[:, 2:] - x @ (x.T @ z[:, 2:])
        assert np.max(np.abs(outside - q @ (q.T @ outside))) <= 1e-14

    def test_drifted_image_is_not_returned(self, bands_lattice, monkeypatch):
        # a start apply off by a diagonal of 1e-6 c leaves the updated AX
        # inconsistent with X: the implicit residuals fall within the bound
        # while the true ones do not (23 times the bound), and the fresh
        # apply that certifies the pairs must send the solver on
        basis = reciprocal_basis(_BLOCK_MIN_HALFWIDTH, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        kx, ky = (frac * math.pi / bands_lattice.pitch for frac in (0.3, 0.1))
        error = (np.random.default_rng(1).random(len(basis)) * 1e-6
                 * problem.v_prefactor * problem.depth)
        apply, applied = planewave._Problem.apply, []

        def drifting(self, kinetic, x):
            applied.append(x.shape[1])
            out = apply(self, kinetic, x)
            return out + error[:, None] * x if len(applied) == 1 else out

        monkeypatch.setattr(planewave._Problem, "apply", drifting)
        w, block = _block_solve(problem, kx, ky)
        monkeypatch.undo()
        _assert_contract(problem, kx, ky, w, block)

    @pytest.mark.parametrize("nodes", [("G", "G"), ("Z", "G", "Z")])
    def test_paths_that_defeat_the_two_block_start(self, bands_lattice, nodes):
        # all points at one k (the previous two blocks span one space), and a
        # path that turns back on itself: both keep the contract, and equal
        # k-points give equal rows
        basis = reciprocal_basis(_BLOCK_MIN_HALFWIDTH, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        points = [(kp.kx, kp.ky)
                  for kp in build_kpath(nodes, bands_lattice.pitch, 3)]
        for (kx, ky), (w, block) in zip(points, _path_blocks(problem, points)):
            _assert_contract(problem, kx, ky, w, block)
        omegas, _ = planewave.solve_path(bands_lattice, basis, points)
        for i, j in itertools.combinations(range(len(points)), 2):
            if points[i] == points[j]:
                assert np.max(np.abs(omegas[i] - omegas[j])) <= 0.5

    def test_rayleigh_ritz_solves_on_the_wide_path(self, bands_config,
                                                   monkeypatch):
        # one eigh of order > 8 per point for its start and one per step:
        # the bands_wide path (h = 14, 8 samples, 25 points) takes 146
        cfg = replace(bands_config, basis_halfwidth=14, samples_per_segment=8)
        edges = t_edges(cfg.lattice, 14)
        shapes = _record_shapes(monkeypatch, "eigh")
        solve_bands(cfg, edges)
        assert sum(shape[0] > 8 for shape in shapes) == 146

    def test_solve_bands_above_crossover(self, bands_config, monkeypatch):
        # no dense H and no large eigensolve; a kept point keeps the
        # block's vectors, and T is labelled from the sector edges (whose
        # (x-odd, y-even) block is the kernel's one write, before the path)
        cfg = replace(bands_config, basis_halfwidth=_BLOCK_MIN_HALFWIDTH,
                      samples_per_segment=2)
        edges = t_edges(cfg.lattice, cfg.basis_halfwidth)
        fills = []
        monkeypatch.setattr(_kernels, "fill_hamiltonian",
                            lambda *a: fills.append(a))
        shapes = _record_shapes(monkeypatch, "eigh")
        bs = solve_bands(cfg, edges)
        assert fills == []
        assert max(shape[0] for shape in shapes) <= 36
        basis = reciprocal_basis(cfg.basis_halfwidth, cfg.lattice.pitch)
        _, vectors = planewave.solve_path(
            cfg.lattice, basis, [(kp.kx, kp.ky) for kp in bs.kpoints],
            keep={0, 2, 4, 6})
        assert sorted(vectors) == [0, 2, 4, 6]
        for v in vectors.values():
            assert v.shape == (len(basis), 8)
            assert np.max(np.abs(v.T @ v - np.eye(8))) <= 1e-12
        assert list(bs.rep_labels[4, :4]) == [LABEL_S, LABEL_PAIR,
                                              LABEL_PAIR, LABEL_XY]
        assert np.array_equal(solve_bands(cfg, edges).omegas, bs.omegas)

    def test_peak_memory_linear_in_basis(self, bands_config):
        # the block's arrays, O(N * 36) entries (measured 345 N * 8 B at
        # h = 14), where one dense H alone is N^2 * 8 B = 841 N * 8 B
        cfg = replace(bands_config, basis_halfwidth=14, samples_per_segment=2)
        n = (2 * cfg.basis_halfwidth + 1) ** 2
        _bands(replace(cfg, basis_halfwidth=2))  # first-call allocations
        edges = t_edges(cfg.lattice, cfg.basis_halfwidth)
        _, _, peak = _traced(lambda: solve_bands(cfg, edges))
        assert peak <= 450 * n * 8

    def test_dense_below_crossover(self, bands_config, monkeypatch):
        # every point, named nodes included, is one eigenvalue-only dense
        # solve of the whole H; the closing G is solved again, bit for bit
        # as the first
        solves = []
        monkeypatch.setattr(planewave, "_block_solve",
                            lambda *a: solves.append(a))
        cfg = replace(bands_config, basis_halfwidth=_BLOCK_MIN_HALFWIDTH - 1,
                      samples_per_segment=2)
        n = (2 * cfg.basis_halfwidth + 1) ** 2
        edges = t_edges(cfg.lattice, cfg.basis_halfwidth)
        values = _record_shapes(monkeypatch, "eigvalsh")
        vectors = _record_shapes(monkeypatch, "eigh")
        bs = solve_bands(cfg, edges)
        assert bs.omegas.shape == (7, DEFAULT_N_BANDS)
        assert solves == [] and vectors == []
        assert values == [(n, n)] * 7
        assert [kp.label for kp in bs.kpoints[::6]] == ["G", "G"]
        assert np.array_equal(bs.omegas[0], bs.omegas[-1])

    @pytest.mark.parametrize("halfwidth", [_BLOCK_MIN_HALFWIDTH - 1,
                                           _BLOCK_MIN_HALFWIDTH, 8])
    def test_solve_path_is_solve_bands_loop(self, bands_config, halfwidth):
        # solve_path over the path's points gives the rows solve_bands
        # returns; keeping points gives their vectors, and moves their rows
        # (eigh in place of eigvalsh) only below the crossover, by less
        # than 1 rad/s
        cfg = replace(bands_config, basis_halfwidth=halfwidth,
                      samples_per_segment=2)
        bs = _bands(cfg)
        basis = reciprocal_basis(halfwidth, cfg.lattice.pitch)
        points = [(kp.kx, kp.ky) for kp in bs.kpoints]
        omegas, vectors = planewave.solve_path(cfg.lattice, basis, points)
        assert np.array_equal(omegas, bs.omegas)
        assert vectors == {}
        omegas, vectors = planewave.solve_path(cfg.lattice, basis, points,
                                               keep={0, 2, 4, 6})
        assert sorted(vectors) == [0, 2, 4, 6]
        assert np.array_equal(omegas[1::2], bs.omegas[1::2])
        if halfwidth >= _BLOCK_MIN_HALFWIDTH:
            assert np.array_equal(omegas, bs.omegas)
        assert np.max(np.abs(omegas - bs.omegas)) <= 1.0

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
                                 [(0.0, 0.0), (1.0, 2.0)])

    def test_empty_lattice_free_bands(self, empty_config):
        # c = 0: the bound falls back to the apply's round-off scale
        basis = reciprocal_basis(_BLOCK_MIN_HALFWIDTH, 4e-6)
        problem = _problem(empty_config.lattice, basis)
        points = [(frac * math.pi / 4e-6, 0.5 * frac * math.pi / 4e-6)
                  for frac in (0.0, 0.3, 0.5)]
        for (kx, ky), (w, _) in zip(points, _path_blocks(problem, points)):
            oracle = folded_free_bands(empty_config.lattice, kx, ky,
                                       _BLOCK_MIN_HALFWIDTH, 8)
            assert np.allclose(problem.omega0 + w, oracle, rtol=1e-12)


# In-range lattices of the CLI contract test (tests/test_cli_contract.py),
# plus dphi = 0 and +-1e-12, where c = v*dphi*FF vanishes and the block
# solver's stopping bound falls to its kinetic floor.
_CONTRACT_LATTICES = st.builds(
    lambda lam, n, pitch, ff, dphi: (lam * 1e-9, n, pitch * 1e-6, ff, dphi),
    st.floats(500.0, 1500.0), st.floats(1.0, 4.0), st.floats(2.0, 8.0),
    st.floats(0.05, 0.95),
    st.one_of(st.floats(-0.1, 0.1), st.sampled_from([0.0, 1e-12, -1e-12])))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(params=_CONTRACT_LATTICES,
       halfwidth=st.sampled_from(range(_BLOCK_MIN_HALFWIDTH, 10)),
       samples=st.sampled_from([1, 2]))
def test_block_path_contract_on_drawn_lattices(params, halfwidth, samples):
    # every point of G:Z:T:G kept: each pair's residual through a fresh
    # apply within residual_bound, and each point's columns orthonormal
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # |dphi| > 0.02
            lattice = LatticeSpec(*params)
    except ValidationError:
        reject()  # pitch * n / lambda < 2
    basis = reciprocal_basis(halfwidth, lattice.pitch)
    problem = _problem(lattice, basis)
    points = [(kp.kx, kp.ky) for kp in build_kpath(("G", "Z", "T", "G"),
                                                    lattice.pitch, samples)]
    omegas, vectors = planewave.solve_path(lattice, basis, points,
                                           keep=range(len(points)))
    assert sorted(vectors) == list(range(len(points)))
    for (kx, ky), w, v in zip(points, omegas, vectors.values()):
        residual = np.linalg.norm(problem.apply(problem.kinetic(kx, ky), v)
                                  - v * (w - problem.omega0), axis=0)
        assert np.all(residual <= problem.residual_bound), (kx, ky)
        assert np.max(np.abs(v.T @ v - np.eye(DEFAULT_N_BANDS))) <= 1e-10
        assert np.all(np.diff(w) >= 0)


class TestPathAccuracy:
    """Path omegas against the extended-precision Rayleigh-quotient oracle
    at h = 14 (the bands_wide workload), where the eigenvalues of a dense
    eigensolve carry several rad/s of round-off."""

    def test_within_one_rad_s_of_oracle(self, bands_config):
        cfg = replace(bands_config, basis_halfwidth=14, samples_per_segment=8)
        bs = _bands(cfg)
        basis = reciprocal_basis(14, cfg.lattice.pitch)
        # interior points of G-Z, Z-T and T-G, and the T node
        for index in (4, 12, 21, 16):
            kp = bs.kpoints[index]
            oracle = rayleigh_omegas(cfg.lattice, basis, kp.kx, kp.ky, 8)
            assert np.max(np.abs(bs.omegas[index] - oracle)) <= 1.0


class TestFoldHelpers:
    """``_axis_fold`` and ``_swap_fold`` against the oracle's wave-by-wave
    fold of the dense matrices they stand for."""

    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_axis_fold_matches_oracle(self, width):
        s = np.random.default_rng(width + 10).standard_normal(
            2 * width)  # s_0 .. s_{2 width - 1}
        # the half axis 0..width-1 first, then its images under m -> -1-m
        axis = np.concatenate([np.arange(width), -1 - np.arange(width)])
        toeplitz = s[np.abs(axis[:, None] - axis)]
        expected = mirror_blocks(toeplitz, [(m,) for m in axis],
                                 lambda m: (-1 - m,))
        for block, folded in zip(_axis_fold(s), expected, strict=True):
            assert block.shape == folded.shape == (width, width)
            assert np.max(np.abs(block - folded)) <= (
                1e-15 * np.linalg.norm(toeplitz))

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
        h = -c * np.kron(a, a)
        h[np.diag_indices_from(h)] += kinetic
        expected = mirror_blocks(h, waves, swap)
        blocks = [fold.block(kinetic, odd) for odd in (False, True)]
        for block, folded in zip(blocks, expected, strict=True):
            assert block.shape == folded.shape
            assert np.max(np.abs(block - folded)) <= 1e-15 * np.linalg.norm(h)


class TestFoldedNamedNodes:
    """The named nodes against one dense eigh: G, Z and T solved as path
    points like any other, and T labelled from the edges of the folded
    corner-window sectors."""

    @pytest.mark.parametrize("halfwidth", [3, 7, 14])
    def test_node_pairs_match_dense_oracle(self, bands_lattice, halfwidth):
        # dense below the crossover, block-solved from it
        basis = reciprocal_basis(halfwidth, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        kpts = build_kpath(("G", "Z", "T"), bands_lattice.pitch, 2)
        nodes = {kp.index: kp for kp in kpts if kp.label}
        omegas, vectors = planewave.solve_path(
            bands_lattice, basis, [(kp.kx, kp.ky) for kp in kpts], keep=nodes)
        assert sorted(vectors) == [0, 2, 4]
        for i, kp in nodes.items():
            h = problem.hamiltonian(kp.kx, kp.ky)
            scale = np.linalg.norm(h)
            w, v = omegas[i], vectors[i]
            w_dense, _ = dense_eigh(problem, kp.kx, kp.ky, DEFAULT_N_BANDS)
            assert np.max(np.abs(w - w_dense)) <= 1e-14 * scale, kp.label
            detuned = w - problem.omega0
            residual = np.max(np.linalg.norm(h @ v - v * detuned, axis=0))
            assert residual <= 1e-10 * scale, kp.label
            assert np.max(np.abs(v.T @ v - np.eye(DEFAULT_N_BANDS))) <= 1e-12

    @pytest.mark.parametrize("halfwidth", [3, 7, 14])
    def test_t_labels_match_dense_oracle(self, bands_config, halfwidth):
        # the sector-edge labels against the channel weights of one dense
        # eigh's vectors
        cfg = replace(bands_config, kpath=("T",), samples_per_segment=1,
                      basis_halfwidth=halfwidth)
        bs = _bands(cfg)
        basis = reciprocal_basis(halfwidth, cfg.lattice.pitch)
        problem = _problem(cfg.lattice, basis)
        w, v = dense_eigh(problem, *named_kpoint("T", cfg.lattice.pitch),
                          DEFAULT_N_BANDS)
        expected = channel_labels(w, v, basis)
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


def _t_row(lattice, halfwidth):
    """The band structure of the one-point path T."""
    return _bands(ExperimentConfig(
        lattice=lattice, kpath=("T",), samples_per_segment=1,
        basis_halfwidth=halfwidth))


class TestClassification:
    """T labels from the sector edges (``classify_t_states``), and the
    channel-weight oracle (``channel_labels``) they are checked against."""

    @pytest.mark.parametrize("halfwidth", [2, 3, 7, 10])
    @pytest.mark.parametrize("name", list(_LABEL_LATTICES))
    def test_labels_match_channel_oracle(self, name, halfwidth):
        lattice = _LABEL_LATTICES[name]
        bs = _t_row(lattice, halfwidth)
        # the oracle reads the vectors of T kept in the same path solve
        basis = reciprocal_basis(halfwidth, lattice.pitch)
        t_point = [named_kpoint("T", lattice.pitch)]
        omegas, vectors = planewave.solve_path(lattice, basis, t_point,
                                               keep={0})
        assert list(bs.rep_labels[0]) == channel_labels(omegas[0], vectors[0],
                                                        basis)

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
        # rows cut below the corner manifold label as far as they reach
        omegas = _t_row(bands_lattice, 3).omegas[0, :n_bands]
        assert classify_t_states(omegas, t_edges(bands_lattice, 3)) == [
            LABEL_S, LABEL_PAIR, LABEL_PAIR][:n_bands]

    def test_edges_solved_once_per_path(self, bands_config, monkeypatch):
        # solve_bands solves no T sector: both T nodes take the edges given
        calls = []
        solve = planewave.t_edges

        def counting(*args):
            calls.append(args)
            return solve(*args)

        cfg = replace(bands_config, kpath=("T", "G", "T"),
                      samples_per_segment=2, basis_halfwidth=3)
        edges = t_edges(cfg.lattice, 3)
        monkeypatch.setattr(planewave, "t_edges", counting)
        bs = solve_bands(cfg, edges)
        assert calls == []
        assert list(bs.rep_labels[0, :4]) == list(bs.rep_labels[-1, :4]) == [
            LABEL_S, LABEL_PAIR, LABEL_PAIR, LABEL_XY]

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
        analysis = t_point_analysis(empty_config.lattice,
                                    empty_config.basis_halfwidth)
        assert len(analysis.groups[0]) == 4
        assert analysis.labels[0] == "unclassified"

    def test_pair_basis_fixed_to_parity_members(self, bands_config,
                                                bands_t_analysis):
        # the pair group is the sector solve's x member and its transpose,
        # (x-odd, y-even) and (x-even, y-odd), not a mixture of the two;
        # the oracle's canonical phase makes their channel overlaps positive
        grp = bands_t_analysis.groups[
            bands_t_analysis.labels.index(LABEL_PAIR)]
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
        analysis = t_point_analysis(empty_config.lattice,
                                    empty_config.basis_halfwidth)
        e = analysis.edges
        assert e[0] == pytest.approx(e[1], rel=1e-14)
        assert e[1] == pytest.approx(e[2], rel=1e-14)

    def test_patterned_edge_ordering(self, bands_t_analysis):
        e = bands_t_analysis.edges
        assert e[0] < e[1] < e[2]

    def test_edge_splittings_linear_in_dphi(self, bands_lattice):
        gaps = {}
        for dphi in (1e-5, 1e-3):
            e = t_point_analysis(replace(bands_lattice, dphi=dphi), 7).edges
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
        expected = t_point_analysis(lattice, halfwidth).edges
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
        # a swap fold; t_point_analysis builds all five
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
        built.clear()
        parities.clear()
        t_point_analysis(bands_config.lattice, halfwidth)
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
        analysis = t_point_analysis(cfg.lattice, cfg.basis_halfwidth)
        pitch = cfg.lattice.pitch
        problem = _problem(cfg.lattice,
                           t_centered_basis(cfg.basis_halfwidth, pitch))
        kt = named_kpoint("T", pitch)
        step = step_fraction * math.pi / pitch
        for label, edge in ((LABEL_S, analysis.edges[0]),
                            (LABEL_XY, analysis.edges[2])):
            mass = opw_mass_at_t(analysis, label)
            detuned_edge = edge - problem.omega0
            for d in ((1.0, 0.0), (math.sqrt(0.5), math.sqrt(0.5))):
                def omega(t):  # detuned, as the carrier would cost digits
                    w = np.linalg.eigh(problem.hamiltonian(
                        kt[0] + t * d[0], kt[1] + t * d[1]))[0]
                    return w[np.argmin(np.abs(w - detuned_edge))]

                oracle = HBAR / _fd_curvature(omega, step, levels)
                assert abs(mass - oracle) / abs(oracle) <= bound, (label, d)

    def test_unclassified_singleton_has_no_mass(self, bands_t_analysis):
        labels = bands_t_analysis.labels
        assert len(bands_t_analysis.groups[labels.index(LABEL_NONE)]) == 1
        with pytest.raises(ComputationError, match="no curvature mass"):
            opw_mass_at_t(bands_t_analysis, LABEL_NONE)

    def test_mass_is_the_edges_own(self):
        # the XY edge clusters with the pair into an unclassified group; the
        # lone XY state above it is not the edge and lends it no mass
        lattice = LatticeSpec(lambda_vac=1426.8052023585864e-9,
                              n_refr=2.8669400911457803,
                              pitch=2.700259140686013e-6,
                              fill_factor=0.1518567440417801,
                              dphi=6.742185406289386e-10)
        analysis = t_point_analysis(lattice, 3)
        assert analysis.labels == (LABEL_S, LABEL_NONE, LABEL_NONE, LABEL_XY)
        assert analysis.edges[2] == analysis.omegas[3]
        assert list(analysis.masses) == [LABEL_S]
        with pytest.raises(ComputationError,
                           match=r"edge T4\(XY\) is degenerate"):
            opw_mass_at_t(analysis, LABEL_XY)

    def test_empty_lattice_mass_raises(self, empty_config):
        analysis = t_point_analysis(empty_config.lattice,
                                    empty_config.basis_halfwidth)
        assert analysis.masses == {}
        for label in (LABEL_S, LABEL_XY):
            with pytest.raises(ComputationError):
                opw_mass_at_t(analysis, label)

    def test_weak_lattice_s_band_strongly_inverted(self, weak_t_analysis,
                                                   weak_lattice):
        dp = derive_params(weak_lattice)
        m_plus, _ = m_closed_form(weak_lattice, dp)
        mass = opw_mass_at_t(weak_t_analysis, LABEL_S)
        assert dp.m0 / mass == pytest.approx(1 - 2 * m_plus, rel=0.25)
        assert mass < 0  # negative curvature at the zone corner

    def test_weak_lattice_orbital_parameters_match_closed_form(
            self, weak_t_analysis, weak_lattice):
        # measured at h = 7: 6.2e-4 (m_plus) and 1.2e-4 (m_minus)
        dp = derive_params(weak_lattice)
        m_plus, m_minus = m_closed_form(weak_lattice, dp)
        m_s = opw_mass_at_t(weak_t_analysis, LABEL_S)
        m_xy = opw_mass_at_t(weak_t_analysis, LABEL_XY)
        assert -0.5 * (dp.m0 / m_s - 1.0) == pytest.approx(m_plus, rel=1e-3)
        assert 0.5 * (dp.m0 / m_xy - 1.0) == pytest.approx(m_minus, rel=1e-3)

    def test_degenerate_tracking_raises(self, bands_t_analysis):
        with pytest.raises(ComputationError, match="degenerate"):
            opw_mass_at_t(bands_t_analysis, LABEL_PAIR)


class TestLongitudinalProfile:
    def test_uniform_state_alpha_is_mean(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        pos = _waves(basis).index((0, 0))
        coeffs = np.zeros(len(basis), dtype=complex)
        coeffs[pos] = 1.0
        profile = longitudinal_profile(coeffs, basis, bands_lattice)
        assert profile.alpha == pytest.approx(0.013, rel=1e-12, abs=0)

    def test_ground_state_alpha_bounds(self, bands_lattice):
        basis = reciprocal_basis(7, bands_lattice.pitch)
        _, vectors = planewave.solve_path(bands_lattice, basis, [(0.0, 0.0)],
                                          keep={0})
        profile = longitudinal_profile(vectors[0][:, 0], basis, bands_lattice)
        mean = bands_lattice.dphi * bands_lattice.fill_factor
        assert mean < profile.alpha < bands_lattice.dphi

    def test_unimodular(self, bands_config):
        basis = reciprocal_basis(4, bands_config.lattice.pitch)
        _, vectors = planewave.solve_path(bands_config.lattice, basis,
                                          [(0.0, 0.0)], keep={0})
        profile = longitudinal_profile(vectors[0][:, 0], basis,
                                       bands_config.lattice, samples=512)
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
        bigger = t_point_analysis(bands_config.lattice, 9)
        for a, b in zip(bands_t_analysis.edges, bigger.edges):
            assert abs(a - b) / abs(a) < 1e-6

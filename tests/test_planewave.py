import math
from dataclasses import replace

import numpy as np
import pytest

from phczeeman import (
    BlochState,
    ComputationError,
    ExperimentConfig,
    RotationSpec,
    ValidationError,
    build_kpath,
    classify_t_states,
    cluster_degenerate,
    derive_params,
    longitudinal_profile,
    named_kpoint,
    opw_mass_at_t,
    perturbative_edges,
    reconstruct_fields,
    reciprocal_basis,
    solve_bands,
    t_point_analysis,
)
from phczeeman.constants import HBAR
from phczeeman.lattice import t_centered_basis
from phczeeman import _kernels
from phczeeman.planewave import (
    DEFAULT_N_BANDS, LABEL_NONE, LABEL_PAIR, LABEL_S, LABEL_XY, _problem,
    _solve_omegas, _solve_refined,
)
from phczeeman.zeeman import m_closed_form
from oracles import folded_free_bands


def _corner_state(basis, pattern):
    """Unit-norm coefficient vector over the four corner-wave slots."""
    pos = {(rv.m, rv.n): i for i, rv in enumerate(basis)}
    vec = np.zeros(len(basis), dtype=complex)
    for (m, n), val in zip([(0, 0), (-1, 0), (0, -1), (-1, -1)], pattern):
        vec[pos[(m, n)]] = val
    return vec / np.linalg.norm(vec)


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
        i0 = [(rv.m, rv.n) for rv in basis].index((0, 0))
        assert bands_dp.omega0 + h[i0, i0] == bands_dp.omega0

    def test_potential_element_at_t(self, bands_lattice):
        basis = reciprocal_basis(7, bands_lattice.pitch)
        kt = named_kpoint("T", bands_lattice.pitch)
        h = _problem(bands_lattice, basis).hamiltonian(*kt)
        pairs = [(rv.m, rv.n) for rv in basis]
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
        w = np.array([st.omega for st in bs.states[0]])
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
        w, _ = _solve_refined(_problem(empty_config.lattice, basis), kx, ky, 8)
        oracle = folded_free_bands(empty_config.lattice, kx, ky, 7, 8)
        assert np.allclose(w, oracle, rtol=1e-12)

    def test_patterned_t_multiplicities(self, bands_config):
        cfg = replace(bands_config, kpath=("T",), samples_per_segment=1)
        bs = solve_bands(cfg)
        w = np.array([st.omega for st in bs.states[0]])
        groups = cluster_degenerate(w[:4])
        assert [len(g) for g in groups] == [1, 2, 1]

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_t_labels_attached(self, bands_config, halfwidth):
        cfg = replace(bands_config, kpath=("Z", "T"), samples_per_segment=4,
                      basis_halfwidth=halfwidth)
        bs = solve_bands(cfg)
        t_row = bs.states[-1]
        assert [st.rep_label for st in t_row[:4]] == [LABEL_S, LABEL_PAIR,
                                                      LABEL_PAIR, LABEL_XY]
        if halfwidth == 3:
            # the symmetric window splits the pair beyond the cluster
            # tolerance, and the channel weights still label both members
            assert t_row[2].omega - t_row[1].omega > 1.0
        # off the node no labels are assigned
        assert bs.states[0][0].rep_label is None

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
        assert np.array_equal(a.omegas(), b.omegas())

    def test_band_count_constant(self, bands_config):
        cfg = replace(bands_config, kpath=("G", "Z"), samples_per_segment=3,
                      basis_halfwidth=3)
        bs = solve_bands(cfg, n_bands=6)
        assert all(len(row) == 6 for row in bs.states)
        for row in bs.states:
            w = [st.omega for st in row]
            assert w == sorted(w)

    def test_c4v_spectrum_invariance(self, bands_config):
        basis = reciprocal_basis(5, bands_config.lattice.pitch)
        rng = np.random.default_rng(5)
        kx, ky = rng.uniform(0.05, 0.45, size=2) * math.pi / 4e-6
        problem = _problem(bands_config.lattice, basis)
        w0, _ = _solve_refined(problem, kx, ky, 6)
        for kim in ((ky, kx), (-kx, ky), (kx, -ky), (-ky, -kx)):
            wi, _ = _solve_refined(problem, kim[0], kim[1], 6)
            assert np.allclose(wi, w0, rtol=1e-10)

    def test_variational_bounds(self, bands_config):
        cfg = replace(bands_config, kpath=("G", "Z", "T"),
                      samples_per_segment=5, basis_halfwidth=5)
        bs = solve_bands(cfg)
        dp = derive_params(cfg.lattice)
        depth = dp.v_prefactor * cfg.lattice.dphi
        floor = dp.omega0 - depth
        for kp_pt, row in zip(bs.kpoints, bs.states):
            assert row[0].omega >= floor
            free = folded_free_bands(cfg.lattice, kp_pt.kx, kp_pt.ky, 5, 1)[0]
            assert row[0].omega <= free + depth

    def test_n_bands_above_basis_size_rejected(self, bands_config):
        cfg = replace(bands_config, basis_halfwidth=2)
        with pytest.raises(ValidationError, match="n_bands"):
            solve_bands(cfg, n_bands=100)

    def test_potential_gathered_once(self, bands_config, monkeypatch):
        calls = []
        original = _kernels.fill_hamiltonian

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(_kernels, "fill_hamiltonian", counting)
        cfg = replace(bands_config, samples_per_segment=3, basis_halfwidth=3)
        bs = solve_bands(cfg)
        assert len(bs.kpoints) == 10
        assert len(calls) == 1


class TestProblem:
    """The per-basis problem: potential built once, H fresh at each k."""

    def test_hamiltonian_is_fresh(self, bands_lattice):
        basis = tuple(reciprocal_basis(3, bands_lattice.pitch))
        problem = _problem(bands_lattice, basis)
        kx, ky = named_kpoint("T", bands_lattice.pitch)
        first = problem.hamiltonian(kx, ky)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(problem.hamiltonian(kx, ky), expected)


class TestEigenpairContract:
    """The eigh contract (residual and orthonormality) on production solves.

    The matrix checked is the detuned Hamiltonian that _solve_refined
    diagonalizes, with the eigenpairs of its one dense eigensolve.
    """

    @pytest.mark.parametrize("window", [reciprocal_basis, t_centered_basis])
    @pytest.mark.parametrize("node", ["G", "Z", "T"])
    def test_refined_pairs(self, bands_lattice, bands_dp, window, node):
        basis = tuple(window(7, bands_lattice.pitch))
        kx, ky = named_kpoint(node, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        w, v = _solve_refined(problem, kx, ky, 8)
        h = problem.hamiltonian(kx, ky)
        residual = np.max(np.linalg.norm(h @ v - v * (w - bands_dp.omega0),
                                         axis=0))
        assert residual <= 1e-10 * np.linalg.norm(h)
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-10
        assert np.all(np.diff(w) >= 0)


class TestTPointSectors:
    """t_point_analysis solves H at T in its exact C4v sectors."""

    @staticmethod
    def _hamiltonian(config, analysis):
        return _problem(config.lattice, analysis.basis).hamiltonian(
            *named_kpoint("T", config.lattice.pitch))

    @pytest.mark.parametrize("halfwidth", [3, 7, 14])
    def test_eigh_only_on_sectors(self, bands_config, monkeypatch, halfwidth):
        shapes = _record_shapes(monkeypatch, "eigh")
        t_point_analysis(bands_config, halfwidth=halfwidth)
        k = halfwidth + 1
        sym, anti, pair = k * (k + 1) // 2, k * (k - 1) // 2, k * k
        # S, its x <-> y-odd partner, XY, its partner, (x-odd, y-even)
        assert [s[0] for s in shapes] == [sym, anti, sym, anti, pair]
        assert all(s[0] == s[1] for s in shapes)
        assert 2 * (sym + anti + pair) == (2 * halfwidth + 2) ** 2

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_lifted_pairs_meet_contract(self, bands_config, halfwidth):
        analysis = t_point_analysis(bands_config, halfwidth=halfwidth)
        h = self._hamiltonian(bands_config, analysis)
        w = analysis.omegas - derive_params(bands_config.lattice).omega0
        v = analysis.vectors
        residual = np.max(np.linalg.norm(h @ v - v * w, axis=0))
        assert residual <= 1e-10 * np.linalg.norm(h)
        assert np.max(np.abs(v.T @ v - np.eye(DEFAULT_N_BANDS))) <= 1e-10

    @pytest.mark.parametrize("halfwidth", [3, 7])
    def test_merged_omegas_match_dense(self, bands_config, halfwidth):
        analysis = t_point_analysis(bands_config, halfwidth=halfwidth)
        h = self._hamiltonian(bands_config, analysis)
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
        analysis = t_point_analysis(bands_config, halfwidth=halfwidth)
        waves = [(rv.m, rv.n) for rv in analysis.basis]
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
        for vec in analysis.vectors.T:
            parities = tuple(parity(vec, perm) for perm in mirrors)
            assert 0 not in parities[:2]  # every state has both axis parities
            state_labels.append(sector_labels.get(parities, LABEL_NONE))
        for grp, lab in zip(analysis.groups, analysis.labels):
            found = {state_labels[i] for i in grp}
            assert lab == (found.pop() if len(found) == 1 else LABEL_NONE)
            assert type(lab) is str  # reaches report.json through repr
        assert np.all(analysis.vectors[pos[0, 0]] >= 0.0)

    def test_fold_lift_gives_eigenvectors(self, bands_lattice):
        # the x <-> y fold of the symmetric window has fixed waves (m == n)
        basis = tuple(reciprocal_basis(3, bands_lattice.pitch))
        problem = _problem(bands_lattice, basis)
        kx = 0.3 * math.pi / bands_lattice.pitch
        h = problem.hamiltonian(kx, kx)
        fold = problem.diagonal
        assert fold.n_fixed == 7
        for odd, block in zip((False, True), fold.blocks(h)):
            w, u = np.linalg.eigh(block)
            v = fold.lift(u, odd)
            assert v.shape == (len(basis), block.shape[0])
            assert np.max(np.linalg.norm(h @ v - v * w, axis=0)) <= (
                1e-10 * np.linalg.norm(h))
            assert np.max(np.abs(v.T @ v - np.eye(w.size))) <= 1e-12

    def test_fold_gather_is_adjoint_of_lift(self, bands_lattice):
        fold = _problem(bands_lattice,
                        tuple(reciprocal_basis(3, bands_lattice.pitch))).diagonal
        rng = np.random.default_rng(7)
        f = rng.normal(size=(fold.n_fixed + 2 * fold.odd.size, 3))
        for odd, size in ((False, fold.even.size), (True, fold.odd.size)):
            u = rng.normal(size=(size, 4))
            assert np.allclose(fold.lift(u, odd).T @ f,
                               u.T @ fold.gather(f, odd), rtol=0, atol=1e-13)


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
        for kp_pt, row in zip(small_path.kpoints, small_path.states):
            for st in row:
                if kp_pt.label:
                    norm = float(np.sum(np.abs(st.coefficients) ** 2))
                    assert norm == pytest.approx(1.0, abs=1e-10)
                else:
                    assert st.coefficients is None

    def test_interior_omegas_match_refined_solve(self, small_path):
        cfg = small_path.config
        problem = _problem(cfg.lattice, small_path.basis)
        for kp_pt, row in zip(small_path.kpoints, small_path.states):
            if kp_pt.label:
                continue
            w_ref, _ = _solve_refined(problem, kp_pt.kx, kp_pt.ky,
                                      small_path.n_bands)
            w = np.array([st.omega for st in row])
            assert np.max(np.abs(w - w_ref)) <= 16.0

    def test_profile_and_fields_reject_interior_state(self, small_path,
                                                      bands_dp):
        state = small_path.states[1][0]
        with pytest.raises(ValidationError, match="no coefficients"):
            longitudinal_profile(state, small_path.config.lattice)
        with pytest.raises(ValidationError, match="no coefficients"):
            reconstruct_fields(state, bands_dp, RotationSpec(0.0), (1.0, 0.0),
                               [[0.0, 0.0, 0.0]])

    def test_eigenvalue_failure_names_kpoint(self, bands_config, monkeypatch):
        def fail(_h):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        cfg = replace(bands_config, kpath=("G", "Z"), samples_per_segment=2,
                      basis_halfwidth=2)
        with pytest.raises(ComputationError, match="at k-point 1 "):
            solve_bands(cfg)


class TestMirrorBlockedSolve:
    """Eigenvalue-only points on G-Z (ky == 0) and T-G (kx == ky) are solved
    as the even and odd blocks of the mirror that fixes their line."""

    @pytest.mark.parametrize("halfwidth", [2, 3, 7])
    def test_blocked_omegas_match_dense(self, bands_lattice, bands_dp,
                                        halfwidth):
        basis = tuple(reciprocal_basis(halfwidth, bands_lattice.pitch))
        problem = _problem(bands_lattice, basis)
        kpts = [kp for kp in build_kpath(("G", "Z", "T", "G"),
                                         bands_lattice.pitch, 4)
                if not kp.label and (kp.ky == 0.0 or kp.kx == kp.ky)]
        assert len(kpts) == 6  # three on G-Z, three on T-G
        for kp in kpts:
            assert problem.fold_at(kp.kx, kp.ky) is not None
            h = problem.hamiltonian(kp.kx, kp.ky)
            dense = np.linalg.eigvalsh(h)[:8]
            w = _solve_omegas(problem, kp.kx, kp.ky, 8)
            assert np.max(np.abs((w - bands_dp.omega0) - dense)) <= (
                1e-12 * np.linalg.norm(h))

    @pytest.mark.parametrize("halfwidth", [2, 3, 7])
    def test_block_sizes(self, bands_lattice, halfwidth):
        basis = reciprocal_basis(halfwidth, bands_lattice.pitch)
        problem = _problem(bands_lattice, basis)
        for fold in (problem.along_x, problem.diagonal):
            even, odd = fold.even.size, fold.odd.size
            assert even == (halfwidth + 1) * (2 * halfwidth + 1)
            assert odd == halfwidth * (2 * halfwidth + 1)
            assert even + odd == (2 * halfwidth + 1) ** 2

    @pytest.mark.parametrize("kx_frac,ky_frac", [(0.3, 0.0), (0.3, 0.3)])
    def test_block_solves_reach_eigvalsh(self, bands_lattice, monkeypatch,
                                         kx_frac, ky_frac):
        basis = tuple(reciprocal_basis(7, bands_lattice.pitch))
        problem = _problem(bands_lattice, basis)
        shapes = _record_shapes(monkeypatch, "eigvalsh")
        kx = 2 * math.pi * kx_frac / bands_lattice.pitch
        ky = 2 * math.pi * ky_frac / bands_lattice.pitch
        _solve_omegas(problem, kx, ky, 8)
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
        basis = tuple(t_centered_basis(3, bands_lattice.pitch))
        problem = _problem(bands_lattice, basis)
        assert problem.along_x is None
        assert problem.diagonal is not None
        kx = 0.6 * math.pi / bands_lattice.pitch
        shapes = _record_shapes(monkeypatch, "eigvalsh")
        w = _solve_omegas(problem, kx, 0.0, 8)
        assert shapes == [(64, 64)]
        h = problem.hamiltonian(kx, 0.0)
        assert np.array_equal(w, bands_dp.omega0 + np.linalg.eigvalsh(h)[:8])


class TestClassification:
    def test_empty_lattice_symmetric_combo_is_s(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        state = _corner_state(basis, (1, 1, 1, 1))  # cos*cos
        assert classify_t_states([state[:, None]], basis) == [LABEL_S]

    def test_empty_lattice_sin_sin_is_xy(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        state = _corner_state(basis, (1, -1, -1, 1))  # sin*sin
        assert classify_t_states([state[:, None]], basis) == [LABEL_XY]

    def test_pair_combo_is_t5(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        x_state = _corner_state(basis, (1, -1, 1, -1))
        y_state = _corner_state(basis, (1, 1, -1, -1))
        group = np.column_stack([x_state, y_state])
        assert classify_t_states([group], basis) == [LABEL_PAIR]

    def test_lowest_corner_state_is_s_with_large_projection(self, bands_t_analysis):
        vec = bands_t_analysis.vectors[:, 0]
        s_chan = _corner_state(bands_t_analysis.basis, (1, 1, 1, 1))
        assert abs(np.vdot(s_chan, vec)) ** 2 >= 0.9
        assert bands_t_analysis.labels[0] == LABEL_S

    def test_higher_shell_state_unclassified(self, bands_lattice):
        basis = reciprocal_basis(3, bands_lattice.pitch)
        pos = {(rv.m, rv.n): i for i, rv in enumerate(basis)}
        vec = np.zeros(len(basis), dtype=complex)
        vec[pos[(2, 2)]] = 1.0
        assert classify_t_states([vec[:, None]], basis) == ["unclassified"]

    def test_empty_lattice_fourfold_group_unclassified(self, empty_config):
        analysis = t_point_analysis(empty_config)
        assert len(analysis.groups[0]) == 4
        assert analysis.labels[0] == "unclassified"

    def test_pair_basis_fixed_to_parity_members(self, bands_t_analysis):
        # the twofold group comes out rotated onto (x-odd, y-odd) members
        # with canonical phases, independent of the eigensolver's arbitrary
        # in-pair mixing
        grp = bands_t_analysis.group_of(LABEL_PAIR)
        x_chan = _corner_state(bands_t_analysis.basis, (1, -1, 1, -1))
        y_chan = _corner_state(bands_t_analysis.basis, (1, 1, -1, -1))
        v0 = bands_t_analysis.vectors[:, grp[0]]
        v1 = bands_t_analysis.vectors[:, grp[1]]
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
        problem = _problem(cfg.lattice, analysis.basis)
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
    def test_uniform_state_alpha_is_mean(self, bands_lattice, bands_dp):
        basis = tuple(reciprocal_basis(3, bands_lattice.pitch))
        pos = [(rv.m, rv.n) for rv in basis].index((0, 0))
        coeffs = np.zeros(len(basis), dtype=complex)
        coeffs[pos] = 1.0
        state = BlochState(band_index=0, k_perp=(0.0, 0.0),
                           omega=bands_dp.omega0, coefficients=coeffs,
                           basis=basis)
        profile = longitudinal_profile(state, bands_lattice)
        assert profile.alpha == pytest.approx(0.013, rel=1e-12, abs=0)

    def test_ground_state_alpha_bounds(self, bands_config):
        cfg = replace(bands_config, kpath=("G",), samples_per_segment=1)
        bs = solve_bands(cfg)
        ground = bs.states[0][0]
        profile = longitudinal_profile(ground, cfg.lattice)
        mean = cfg.lattice.dphi * cfg.lattice.fill_factor
        assert mean < profile.alpha < cfg.lattice.dphi

    def test_unimodular(self, bands_config):
        cfg = replace(bands_config, kpath=("G",), samples_per_segment=1,
                      basis_halfwidth=4)
        bs = solve_bands(cfg)
        profile = longitudinal_profile(bs.states[0][0], cfg.lattice, samples=512)
        assert np.max(np.abs(np.abs(1 + profile.eta_samples) - 1)) <= 1e-12

    def test_gauge_invariance(self, bands_lattice, bands_dp):
        basis = tuple(reciprocal_basis(2, bands_lattice.pitch))
        rng = np.random.default_rng(8)
        raw = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        raw /= np.linalg.norm(raw)
        st1 = BlochState(0, (0.0, 0.0), bands_dp.omega0, raw, basis)
        st2 = BlochState(0, (0.0, 0.0), bands_dp.omega0,
                         raw * np.exp(1j * 0.7), basis)
        a1 = longitudinal_profile(st1, bands_lattice).alpha
        a2 = longitudinal_profile(st2, bands_lattice).alpha
        assert a1 == pytest.approx(a2, rel=1e-12, abs=0)
        assert np.isreal(a1)

    def test_periodic_increments_cancel(self, bands_lattice, bands_dp):
        basis = tuple(reciprocal_basis(2, bands_lattice.pitch))
        pos = [(rv.m, rv.n) for rv in basis].index((0, 0))
        coeffs = np.zeros(len(basis), dtype=complex)
        coeffs[pos] = 1.0
        state = BlochState(0, (0.0, 0.0), bands_dp.omega0, coeffs, basis)
        profile = longitudinal_profile(state, bands_lattice, samples=256)
        eta = profile.eta_samples
        wrapped = np.sum(np.diff(np.concatenate([eta, eta[:1]])))
        assert abs(wrapped) < 1e-14

    def test_shuffled_basis_rejected(self, bands_lattice, bands_dp):
        # the potential is built as S ⊗ S, which holds only on the m-major
        # square window; a permuted basis must not be silently mis-assembled
        basis = list(reciprocal_basis(2, bands_lattice.pitch))
        np.random.default_rng(4).shuffle(basis)
        coeffs = np.full(len(basis), 1.0 / math.sqrt(len(basis)), dtype=complex)
        state = BlochState(0, (0.0, 0.0), bands_dp.omega0, coeffs,
                           tuple(basis))
        with pytest.raises(ValidationError, match="square window"):
            longitudinal_profile(state, bands_lattice)


class TestReconstructFields:
    def _uniform_state(self, lattice, dp, halfwidth=2):
        basis = tuple(reciprocal_basis(halfwidth, lattice.pitch))
        pos = [(rv.m, rv.n) for rv in basis].index((0, 0))
        coeffs = np.zeros(len(basis), dtype=complex)
        coeffs[pos] = 1.0
        return BlochState(0, (0.0, 0.0), dp.omega0, coeffs, basis)

    def test_uniform_wave_is_transverse(self, bands_lattice, bands_dp):
        state = self._uniform_state(bands_lattice, bands_dp)
        samples = reconstruct_fields(
            state, bands_dp, RotationSpec(0.0), (1.0, 0.0),
            [[0.0, 0.0, 0.0], [1e-7, 2e-7, 1e-7]],
        )
        for smp in samples:
            assert smp.E[2] == 0.0
            assert smp.H[2] == 0.0
            assert smp.E[1] == 0.0  # x-polarized
            assert smp.H[0] == 0.0  # H along y
        # plane-wave z phase
        phase = samples[1].E[0] / samples[0].E[0]
        assert phase == pytest.approx(np.exp(1j * bands_dp.k_z * 1e-7), rel=1e-12)
        # impedance weighting: H = E / Z in these units
        ratio = samples[0].H[1] / samples[0].E[0]
        assert ratio == pytest.approx(1 / bands_dp.z_impedance, rel=1e-12)

    def test_tilted_wave_longitudinal_field(self, bands_lattice, bands_dp):
        basis = tuple(reciprocal_basis(2, bands_lattice.pitch))
        pos = [(rv.m, rv.n) for rv in basis].index((0, 0))
        coeffs = np.zeros(len(basis), dtype=complex)
        coeffs[pos] = 1.0
        kx = 0.01 * bands_dp.k_z
        state = BlochState(0, (kx, 0.0), bands_dp.omega0, coeffs, basis)
        smp = reconstruct_fields(state, bands_dp, RotationSpec(0.0),
                                 (1.0, 0.0), [[0.0, 0.0, 0.0]])[0]
        assert smp.E[2] / smp.E[0] == pytest.approx(-kx / bands_dp.k_z,
                                                    rel=1e-3)

    def test_linearity(self, bands_lattice, bands_dp):
        basis = tuple(reciprocal_basis(2, bands_lattice.pitch))
        ns = len(basis)
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(ns, 2))
                            + 1j * rng.normal(size=(ns, 2)))
        c1, c2 = q[:, 0], q[:, 1]
        a, b = 0.6, 0.8
        mix = a * c1 + b * c2
        positions = [[1e-7, -2e-7, 3e-7]]
        args = (bands_dp, RotationSpec(123.0), (0.0, 1.0), positions)
        out1 = reconstruct_fields(
            BlochState(0, (0.0, 0.0), bands_dp.omega0, c1, basis), *args)[0]
        out2 = reconstruct_fields(
            BlochState(0, (0.0, 0.0), bands_dp.omega0, c2, basis), *args)[0]
        mixed = reconstruct_fields(
            BlochState(0, (0.0, 0.0), bands_dp.omega0, mix, basis), *args)[0]
        assert np.allclose(mixed.E, a * out1.E + b * out2.E, atol=1e-12)
        assert np.allclose(mixed.H, a * out1.H + b * out2.H, atol=1e-12)

    def test_paraxial_warning(self, bands_lattice, bands_dp):
        basis = tuple(reciprocal_basis(2, bands_lattice.pitch))
        pos = [(rv.m, rv.n) for rv in basis].index((2, 2))
        coeffs = np.zeros(len(basis), dtype=complex)
        coeffs[pos] = 1.0
        state = BlochState(0, (0.3 * bands_dp.k_z, 0.0), bands_dp.omega0,
                           coeffs, basis)
        with pytest.warns(UserWarning, match="paraxial"):
            reconstruct_fields(state, bands_dp, RotationSpec(0.0), (1.0, 0.0),
                               [[0.0, 0.0, 0.0]])

    def test_bad_polarization(self, bands_lattice, bands_dp):
        state = self._uniform_state(bands_lattice, bands_dp)
        with pytest.raises(ValidationError, match="polarization"):
            reconstruct_fields(state, bands_dp, RotationSpec(0.0), (1.0, 1.0),
                               [[0.0, 0.0, 0.0]])


class TestBlochStateValidation:
    def test_norm_enforced(self, bands_lattice):
        basis = tuple(reciprocal_basis(1, bands_lattice.pitch))
        bad = np.ones(len(basis), dtype=complex)
        with pytest.raises(ValidationError, match="unit-norm"):
            BlochState(0, (0.0, 0.0), 1.0, bad, basis)

    def test_positive_omega(self, bands_lattice):
        basis = tuple(reciprocal_basis(1, bands_lattice.pitch))
        coeffs = np.zeros(len(basis), dtype=complex)
        coeffs[0] = 1.0
        with pytest.raises(ValidationError, match="omega"):
            BlochState(0, (0.0, 0.0), -1.0, coeffs, basis)


class TestConvergence:
    def test_edges_converged_at_default_halfwidth(self, bands_config,
                                                  bands_t_analysis):
        bigger = t_point_analysis(bands_config, halfwidth=9)
        for a, b in zip(bands_t_analysis.edges, bigger.edges):
            assert abs(a - b) / abs(a) < 1e-6

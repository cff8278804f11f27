import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from phczeeman.cli import main
from phczeeman.core import (
    MAX_FOURIER_HALFWIDTH, MAX_SAMPLES_PER_SEGMENT, MAX_SWEEP_POINTS,
)
from phczeeman import cli
from oracles import (build_each, folded_free_bands, rows_per_cell,
                     two_ray_kp_vs_opw_worst)
from phczeeman import ComputationError, LatticeSpec

BANDS_DOC = {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65, "dphi": 0.02}
WEAK_DOC = {**BANDS_DOC, "dphi": 1e-4}
# perfbench's seed-12345 jittered lattice (workloads.lattice_for_seed)
JITTERED_DOC = {"lambda_nm": 960, "n": 3.53, "pitch_um": 3.916619872545341,
                "ff": 0.5520338338914137, "dphi": 0.018252065092537434}
# a lattice whose XY edge lies within the clustering tolerance of the pair
# at h = 3, below a lone, higher XY state
CLUSTERED_XY_DOC = {"lambda_nm": 1426.8052023585864, "n": 2.8669400911457803,
                    "pitch_um": 2.700259140686013, "ff": 0.1518567440417801,
                    "dphi": 6.742185406289386e-10, "basis_halfwidth": 3}
# strong repulsive contrast: a cold block solve at T or Z takes more than
# 100 steps at h = 7
STRONG_REPULSIVE_DOC = {"lambda_nm": 525.4458609934608,
                        "n": 2.6242374183804897,
                        "pitch_um": 37.74851902280489,
                        "ff": 0.3835801529344482,
                        "dphi": -0.05668012057387733}
# validate's checks, in report order
CHECK_NAMES = ["fourier_vs_quadrature", "eigh_contract", "t_degeneracy",
               "kp_vs_opw", "fsum_roundtrip", "mass_vs_closed_form",
               "eta_unimodular", "consistency_ratio", "convergence"]


@pytest.fixture
def bands_cfg_file(tmp_path):
    path = tmp_path / "bands.json"
    path.write_text(json.dumps(BANDS_DOC))
    return str(path)


@pytest.fixture
def weak_cfg_file(tmp_path):
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(WEAK_DOC))
    return str(path)


def _read_rows(path):
    lines = open(path, "r", encoding="utf-8").read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestBandsCommand:
    def test_kpath_sampling_contract(self, bands_cfg_file, tmp_path):
        out = tmp_path / "bands.csv"
        rc = main(["bands", bands_cfg_file, "-o", str(out), "--kpath", "G:Z",
                   "--samples", "10"])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["k_index", "path_pos", "kx", "ky", "band",
                          "degeneracy", "omega_rad_s", "detuning_GHz",
                          "rep_label"]
        k_indices = {row[0] for row in rows}
        assert len(k_indices) == 11  # inclusive endpoints
        assert len(rows) == 11 * 8
        assert all(row[5] == "2" for row in rows)

    def test_byte_identical_reruns(self, bands_cfg_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["--kpath", "Z:T", "--samples", "4"]
        assert main(["bands", bands_cfg_file, "-o", str(out1)] + args) == 0
        assert main(["bands", bands_cfg_file, "-o", str(out2)] + args) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_across_blas_thread_settings(self, bands_cfg_file,
                                                         tmp_path):
        # dense Z-T points run on one BLAS thread whatever the environment
        # sets, so a multithreaded OpenBLAS cannot move their last digits
        src = os.path.dirname(os.path.dirname(cli.__file__))
        outputs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k not in
                   ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads{threads}" / "bands.csv"
            out.parent.mkdir()
            subprocess.run(
                [sys.executable, "-m", "phczeeman.cli", "bands", bands_cfg_file,
                 "-o", str(out), "--kpath", "Z:T", "--samples", "6",
                 "--model", "both"],
                env=env, check=True, capture_output=True)
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.parent.glob("*.csv"))})
        assert list(outputs[0]) == ["bands_diff.csv", "bands_kp.csv",
                                    "bands_opw.csv"]
        assert outputs[0] == outputs[1]

    def test_empty_lattice_folded_bands(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({**BANDS_DOC, "dphi": 0.0}))
        out = tmp_path / "bands.csv"
        rc = main(["bands", str(cfg), "-o", str(out), "--kpath", "G:Z",
                   "--samples", "4"])
        assert rc == 0
        _, rows = _read_rows(out)
        lattice = LatticeSpec(lambda_vac=960e-9, n_refr=3.53, pitch=4e-6,
                              fill_factor=0.65, dphi=0.0)
        by_k = {}
        for row in rows:
            by_k.setdefault(int(row[0]), []).append(
                (float(row[2]), float(row[3]), float(row[6]))
            )
        for k_idx, entries in by_k.items():
            kx, ky = entries[0][0], entries[0][1]
            got = np.array([e[2] for e in entries])
            oracle = folded_free_bands(lattice, kx, ky, 7, 8)
            assert np.allclose(got, oracle, rtol=1e-10)

    def test_model_both_writes_three_files(self, bands_cfg_file, tmp_path):
        out = tmp_path / "bands.csv"
        rc = main(["bands", bands_cfg_file, "-o", str(out), "--kpath", "Z:T",
                   "--samples", "8", "--model", "both"])
        assert rc == 0
        opw = tmp_path / "bands_opw.csv"
        kp = tmp_path / "bands_kp.csv"
        diff = tmp_path / "bands_diff.csv"
        assert opw.exists() and kp.exists() and diff.exists()
        header_kp, rows_kp = _read_rows(kp)
        assert header_kp[-1] == "block"
        assert {row[-1] for row in rows_kp} == {"1", "-1"}

    def test_diff_below_span_fraction_near_t(self, bands_cfg_file, tmp_path):
        out = tmp_path / "bands.csv"
        assert main(["bands", bands_cfg_file, "-o", str(out), "--kpath",
                     "Z:T", "--samples", "16", "--model", "both"]) == 0
        _, rows_kp = _read_rows(tmp_path / "bands_kp.csv")
        _, rows_diff = _read_rows(tmp_path / "bands_diff.csv")
        pitch = 4e-6
        t = (math.pi / pitch, math.pi / pitch)
        span_rows = [float(r[6]) for r in rows_kp
                     if abs(float(r[2]) - t[0]) < 1e-3 and
                     abs(float(r[3]) - t[1]) < 1e-3]
        span = max(span_rows) - min(span_rows)
        for row in rows_diff:
            kx, ky = float(row[2]), float(row[3])
            if math.hypot(kx - t[0], ky - t[1]) <= 0.25 * math.pi / pitch:
                assert abs(float(row[7])) <= 0.05 * span

    def test_kp_extrapolation_annotation(self, bands_cfg_file, tmp_path):
        out = tmp_path / "kp.csv"
        assert main(["bands", bands_cfg_file, "-o", str(out), "--kpath",
                     "G:T", "--samples", "10", "--model", "kp"]) == 0
        _, rows = _read_rows(out)
        near_t = [r for r in rows if r[0] == "10"]
        far = [r for r in rows if r[0] == "0"]
        assert all(r[8] == "" for r in near_t)
        assert all(r[8] == "extrapolation" for r in far)

    def test_invalid_kpath_token(self, bands_cfg_file, tmp_path):
        rc = main(["bands", bands_cfg_file, "-o", str(tmp_path / "x.csv"),
                   "--kpath", "G:Q"])
        assert rc == 2

    def test_kp_on_empty_lattice_is_computation_failure(self, tmp_path):
        # equal band edges leave the corner model undefined: exit code 1
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({**BANDS_DOC, "dphi": 0.0}))
        rc = main(["bands", str(cfg), "-o", str(tmp_path / "kp.csv"),
                   "--kpath", "Z:T", "--samples", "2", "--model", "kp"])
        assert rc == 1

    def test_emit_plotscript(self, bands_cfg_file, tmp_path):
        out = tmp_path / "bands.csv"
        rc = main(["bands", bands_cfg_file, "-o", str(out), "--kpath", "Z:T",
                   "--samples", "2", "--emit-plotscript"])
        assert rc == 0
        assert (tmp_path / "bands.gp").exists()

    @pytest.mark.parametrize("name, derived", [
        ("bands.csv", "bands_{}.csv"), ("bands", "bands_{}.csv"),
        ("a.b.csv", "a.b_{}.csv"), ("res.v2/bands", "res.v2/bands_{}.csv"),
        ("res.v2/bands.txt", "res.v2/bands_{}.txt"),
    ])
    def test_model_both_paths(self, bands_cfg_file, tmp_path, capsys, name,
                              derived):
        (tmp_path / "res.v2").mkdir()
        rc = main(["bands", bands_cfg_file, "-o", str(tmp_path / name),
                   "--kpath", "Z:T", "--samples", "2", "--model", "both"])
        assert rc == 0
        expected = [str(tmp_path / derived.format(tag))
                    for tag in ("opw", "kp", "diff")]
        assert capsys.readouterr().out.split() == expected
        assert all((tmp_path / derived.format(tag)).exists()
                   for tag in ("opw", "kp", "diff"))

    def test_plotscript_escapes_quote_in_path(self, weak_cfg_file, tmp_path):
        out = tmp_path / "it's.csv"
        assert main(["split", weak_cfg_file, "-o", str(out),
                     "--emit-plotscript"]) == 0
        script = (tmp_path / "it's.gp").read_text()
        quoted = "'" + str(out).replace("'", "''") + "'"
        assert script.count(quoted + " every ::1") == 2
        plot_line = script.splitlines()[-1]
        assert plot_line.replace("''", "").count("'") == 4

    def test_plotscript_names_absolute_csv_path(self, weak_cfg_file,
                                                tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        assert main(["split", weak_cfg_file, "-o", "out/split.csv",
                     "--emit-plotscript"]) == 0
        script = (tmp_path / "out" / "split.gp").read_text()
        absolute = os.path.join(os.getcwd(), "out", "split.csv")
        assert script.count("'" + absolute + "' every ::1") == 2
        assert "'out/split.csv'" not in script

    def test_plotscripts_in_dotted_directory(self, bands_cfg_file,
                                             weak_cfg_file, tmp_path):
        (tmp_path / "res.v2").mkdir()
        assert main(["bands", bands_cfg_file, "-o",
                     str(tmp_path / "res.v2" / "bands"), "--kpath", "Z:T",
                     "--samples", "2", "--emit-plotscript"]) == 0
        assert main(["split", weak_cfg_file, "-o",
                     str(tmp_path / "res.v2" / "split"),
                     "--emit-plotscript"]) == 0
        assert sorted(p.name for p in (tmp_path / "res.v2").iterdir()) == [
            "bands", "bands.gp", "split", "split.gp"]
        assert not list(tmp_path.glob("*.gp"))

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_rejected(self, bands_cfg_file, tmp_path,
                                          samples, capsys):
        out = tmp_path / "bands.csv"
        rc = main(["bands", bands_cfg_file, "-o", str(out), "--kpath", "Z:T",
                   "--samples", samples])
        assert rc == 2
        assert "samples_per_segment" in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_mutated(self, bands_cfg_file, tmp_path):
        before = open(bands_cfg_file, "rb").read()
        main(["bands", bands_cfg_file, "-o", str(tmp_path / "b.csv"),
              "--kpath", "Z:T", "--samples", "2"])
        assert open(bands_cfg_file, "rb").read() == before

    def test_edge_order_checked_before_the_path(self, tmp_path, capsys,
                                                monkeypatch):
        # dphi < 0 reverses the corner edges: the k.p model, built from the
        # T sector edges first, fails before any path point is solved, and
        # no file is written
        from phczeeman import planewave
        solves = []
        solve_path = planewave.solve_path
        monkeypatch.setattr(planewave, "solve_path", lambda *a, **k: (
            solves.append(a) or solve_path(*a, **k)))
        cfg = tmp_path / "negative.json"
        cfg.write_text(json.dumps({**BANDS_DOC, "dphi": -0.01}))
        rc = main(["bands", str(cfg), "-o", str(tmp_path / "bands.csv"),
                   "--model", "both"])
        assert rc == 1
        assert "band-edge ordering violated" in capsys.readouterr().err
        assert solves == []
        assert list(tmp_path.glob("*.csv")) == []

    def test_block_solver_non_convergence_exits_1(self, tmp_path, capsys,
                                                  monkeypatch):
        from phczeeman import planewave
        monkeypatch.setattr(planewave, "_BLOCK_MAX_ITERATIONS", 1)
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(
            {**BANDS_DOC, "basis_halfwidth": planewave._BLOCK_MIN_HALFWIDTH}))
        out = tmp_path / "bands.csv"
        rc = main(["bands", str(cfg), "-o", str(out), "--samples", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("computation failed: block eigensolver")
        assert "at k-point 0 (kx=0, ky=0)" in err
        assert not out.exists()

    def test_strong_repulsive_pattern_converges(self, tmp_path):
        # a cold block solve at T on this lattice takes more than 100 steps
        cfg = tmp_path / "strong.json"
        cfg.write_text(json.dumps(STRONG_REPULSIVE_DOC))
        out = tmp_path / "bands.csv"
        with pytest.warns(UserWarning, match="weak-contrast"):
            rc = main(["bands", str(cfg), "-o", str(out), "--model", "opw",
                       "--kpath", "T", "--samples", "1"])
        assert rc == 0
        _, rows = _read_rows(out)
        assert len(rows) == 8


class TestSplitCommand:
    def test_linear_columns_and_agreement(self, weak_cfg_file, tmp_path):
        out = tmp_path / "split.csv"
        rc = main(["split", weak_cfg_file, "-o", str(out),
                   "--omega-list", "0,10,100,1000"])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header[0] == "omega_rot_rad_s"
        assert len(rows) == 4
        # zero-rotation row is exactly zero
        assert float(rows[0][1]) == 0.0
        assert float(rows[0][2]) == 0.0
        # k.p vs formula relative difference bounded
        for row in rows[1:]:
            assert float(row[5]) <= 1e-10
            assert float(row[6]) <= 1e-10
        # linearity across rows
        dws = [float(r[1]) for r in rows]
        omegas = [float(r[0]) for r in rows]
        slope = dws[-1] / omegas[-1]
        for om, val in zip(omegas[1:], dws[1:]):
            assert val == pytest.approx(slope * om, rel=1e-10)

    def test_negative_rotation_flips_signs(self, weak_cfg_file, tmp_path):
        out = tmp_path / "split.csv"
        assert main(["split", weak_cfg_file, "-o", str(out),
                     "--omega-list", "100,-100"]) == 0
        _, rows = _read_rows(out)
        assert float(rows[1][1]) == -float(rows[0][1])
        assert float(rows[1][2]) == -float(rows[0][2])

    def test_bad_omega_list(self, weak_cfg_file, tmp_path):
        rc = main(["split", weak_cfg_file, "-o", str(tmp_path / "s.csv"),
                   "--omega-list", "ten"])
        assert rc == 2


    def test_one_fast_rotation_warning(self, weak_cfg_file, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["split", weak_cfg_file, "-o", str(tmp_path / "s.csv"),
                       "--omega-list", "1e9,2e9,3e9,4e9"])
        assert rc == 0
        regime = [w for w in caught if "slow-rotation" in str(w.message)]
        assert len(regime) == 1
        assert "4 of 4 rotation rates" in str(regime[0].message)
        assert "omega_z = 4e+09" in str(regime[0].message)

    def test_t_edges_eigenvalue_only(self, bands_cfg_file, tmp_path,
                                     monkeypatch):
        # the edges feed only kp_from_opw's order check: no eigenvectors,
        # no T-point analysis
        from phczeeman import planewave
        calls = []
        eigh, analyse = np.linalg.eigh, planewave.t_point_analysis
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: (
            calls.append("eigh") or eigh(*a, **k)))
        monkeypatch.setattr(planewave, "t_point_analysis", lambda *a, **k: (
            calls.append("t_point_analysis") or analyse(*a, **k)))
        rc = main(["split", bands_cfg_file, "-o", str(tmp_path / "s.csv")])
        assert rc == 0
        assert calls == []

    def test_negative_contrast_fails_on_edge_order(self, tmp_path, capsys):
        # dphi < 0 reverses the corner edges, which the k.p model rejects
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({**BANDS_DOC, "dphi": -0.01}))
        rc = main(["split", str(path), "-o", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "band-edge ordering" in capsys.readouterr().err


class TestSweepCommand:
    def test_dphi_log_sweep_slope(self, weak_cfg_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", weak_cfg_file, "-o", str(out), "--param",
                   "dphi", "--from", "1e-5", "--to", "1e-2", "--points",
                   "7", "--log"])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["dphi", "pitch_um", "M_plus", "M_minus", "M",
                          "dwL_over_Omega", "dwS_over_Omega",
                          "spread_rms_mm", "consistency_ratio"]
        dphis = np.array([float(r[0]) for r in rows])
        m_tot = np.array([float(r[4]) for r in rows])
        assert np.all(np.diff(dphis) > 0)
        slope = (math.log(m_tot[-1]) - math.log(m_tot[0])) / (
            math.log(dphis[-1]) - math.log(dphis[0])
        )
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_pitch_ordering(self, weak_cfg_file, tmp_path):
        rows = {}
        for pitch_um, tag in ((4.0, "a"), (6.0, "b")):
            out = tmp_path / f"sweep_{tag}.csv"
            assert main(["sweep", weak_cfg_file, "-o", str(out), "--param",
                         "pitch", "--from", str(pitch_um), "--to",
                         str(pitch_um), "--points", "2"]) == 0
            _, r = _read_rows(out)
            rows[tag] = float(r[0][5])  # dwL_over_Omega
        assert rows["b"] < rows["a"]  # larger pitch, weaker splitting

    def test_ff_sweep_ratio_monotone(self, weak_cfg_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", weak_cfg_file, "-o", str(out), "--param",
                     "ff", "--from", "0.3", "--to", "0.9", "--points",
                     "7"]) == 0
        _, rows = _read_rows(out)
        ratio = [float(r[3]) / float(r[2]) for r in rows]  # M-/M+
        assert all(a > b for a, b in zip(ratio, ratio[1:]))

    def test_one_weak_contrast_warning(self, weak_cfg_file, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["sweep", weak_cfg_file, "-o", str(tmp_path / "s.csv"),
                       "--param", "dphi", "--from", "0.001", "--to", "0.03",
                       "--points", "50"])
        assert rc == 0
        regime = [w for w in caught if "weak-contrast" in str(w.message)]
        assert len(regime) == 1
        assert "17 of 50 swept dphi values" in str(regime[0].message)
        assert "|dphi| = 0.03 " in str(regime[0].message)

    @pytest.mark.filterwarnings("ignore:dphi < 0")
    def test_linear_sweep_through_zero_contrast(self, weak_cfg_file,
                                                tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", weak_cfg_file, "-o", str(out), "--param", "dphi",
                   "--from=-0.01", "--to", "0.01", "--points", "3"])
        assert rc == 2
        assert "singular at dphi = 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param, lo, hi", [
        ("dphi", "1e-5", "1e-2"), ("ff", "0.05", "0.95"), ("pitch", "2", "30"),
    ])
    def test_rows_match_single_lattice_results(self, weak_cfg_file, tmp_path,
                                               param, lo, hi):
        from phczeeman import zeeman_result
        out = tmp_path / "sweep.csv"
        assert main(["sweep", weak_cfg_file, "-o", str(out), "--param",
                     param, "--from", lo, "--to", hi, "--points", "9"]) == 0
        _, rows = _read_rows(out)
        field, factor = {"dphi": ("dphi", 1.0), "ff": ("fill_factor", 1.0),
                         "pitch": ("pitch", 1e-6)}[param]
        base = LatticeSpec(960e-9, 3.53, 4e-6, 0.65, 1e-4)
        for value, row in zip(np.linspace(float(lo), float(hi), 9), rows):
            lattice = replace(base, **{field: float(value) * factor})
            res = zeeman_result(lattice)
            want = [lattice.dphi, lattice.pitch * 1e6, res.m_plus,
                    res.m_minus, res.m_total, res.delta_omega_L_per_Omega,
                    res.delta_omega_S_per_Omega, res.spread_rms * 1e3,
                    res.consistency_ratio]
            np.testing.assert_allclose([float(x) for x in row], want,
                                       rtol=8 * np.finfo(float).eps, atol=0)

    def test_bounds_validated_before_run(self, weak_cfg_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", weak_cfg_file, "-o", str(out), "--param", "ff",
                   "--from", "0.5", "--to", "1.5", "--points", "3"])
        assert rc == 2
        assert not out.exists()


class TestValidateCommand:
    def test_reference_config_all_pass(self, bands_cfg_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["validate", bands_cfg_file, "-o", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        for name in ("fourier_vs_quadrature", "eigh_contract", "t_degeneracy",
                     "kp_vs_opw", "fsum_roundtrip", "mass_vs_closed_form",
                     "eta_unimodular", "consistency_ratio"):
            assert statuses[name] == "pass", name
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_very_weak_contrast_all_pass(self, tmp_path):
        cfg = tmp_path / "very_weak.json"
        cfg.write_text(json.dumps({**BANDS_DOC, "dphi": 1e-5}))
        report_path = tmp_path / "report.json"
        assert main(["validate", str(cfg), "-o", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["fsum_roundtrip"] == "pass"

    def test_small_basis_flags_convergence_warning(self, tmp_path):
        cfg = tmp_path / "coarse.json"
        cfg.write_text(json.dumps({**BANDS_DOC, "basis_halfwidth": 2}))
        report_path = tmp_path / "report.json"
        rc = main(["validate", str(cfg), "-o", str(report_path)])
        assert rc == 0  # warning, not failure
        report = json.loads(report_path.read_text())
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["convergence"] == "warn"

    def test_convergence_rung_reads_edges_only(self, bands_cfg_file,
                                               tmp_path, monkeypatch):
        # one T-point analysis at the config's halfwidth; the h + 2 rung
        # takes its edges eigenvalue-only
        from phczeeman import planewave
        analyses, edges = [], []
        analyse, solve = planewave.t_point_analysis, planewave.t_edges
        monkeypatch.setattr(planewave, "t_point_analysis", lambda lattice, h: (
            analyses.append(h) or analyse(lattice, h)))
        monkeypatch.setattr(planewave, "t_edges", lambda lattice, h: (
            edges.append(h) or solve(lattice, h)))
        assert main(["validate", bands_cfg_file,
                     "-o", str(tmp_path / "report.json")]) == 0
        assert analyses == [7]
        assert edges == [9]

    def test_convergence_detail_against_corner_span(self, bands_cfg_file,
                                                    tmp_path):
        # the status reads the change against the absolute edge (8.4e-8 at
        # h = 7); the detail also gives the largest edge change (the XY
        # edge's, 1.65e8 rad/s) against the corner span edges[2] - edges[0]
        from phczeeman import planewave
        report_path = tmp_path / "report.json"
        assert main(["validate", bands_cfg_file, "-o", str(report_path)]) == 0
        check = {c["name"]: c for c in json.loads(
            report_path.read_text())["checks"]}["convergence"]
        assert check["detail"] == (
            "edge change 8.401e-08 for halfwidth 7 -> 9 (advisory bound "
            "1e-6); 9.678e-05 of the corner span")
        lattice = LatticeSpec(960e-9, 3.53, 4e-6, 0.65, 0.02)
        edges = planewave.t_point_analysis(lattice, 7).edges
        change = max(abs(a - b) for a, b in zip(planewave.t_edges(lattice, 9),
                                                edges))
        assert f"{change / (edges[2] - edges[0]):.3e}" == "9.678e-05"

    def test_kp_vs_opw_block_solved_above_crossover(self, monkeypatch):
        # at h = 10 the path through T that holds both rays goes through
        # the warm-started block solver, never _solve, and agrees with the
        # dense path, which solves its 17 points (T once)
        from phczeeman import ExperimentConfig, kp, planewave
        config = ExperimentConfig(LatticeSpec(960e-9, 3.53, 4e-6, 0.65, 0.02),
                                  basis_halfwidth=10)
        analysis = planewave.t_point_analysis(config.lattice,
                                                config.basis_halfwidth)
        model = kp.kp_from_opw(analysis.edges, config.lattice)
        span = analysis.edges[2] - analysis.edges[0]
        calls = []
        solve = planewave._solve
        monkeypatch.setattr(planewave, "_solve",
                            lambda *a, **k: calls.append(a[1:3]) or solve(*a, **k))
        blocked = cli._kp_vs_opw_worst(config, model, span)
        assert calls == []
        monkeypatch.setattr(planewave, "_BLOCK_MIN_HALFWIDTH", 11)
        dense = cli._kp_vs_opw_worst(config, model, span)
        assert len(calls) == 17
        assert blocked == pytest.approx(dense, rel=5e-10, abs=0)
        assert 0 < blocked <= 0.05

    @pytest.mark.parametrize("halfwidth", [3, 7, 10, 14])
    @pytest.mark.parametrize("doc", [BANDS_DOC, {**BANDS_DOC, "pitch_um": 4.37,
                                                 "ff": 0.713, "dphi": 0.0137}])
    def test_kp_vs_opw_one_path_is_two_rays(self, doc, halfwidth):
        # one path through T, dense or block-solved, gives the worst
        # deviation of the two rays solved as paths out of T
        from phczeeman import ExperimentConfig, kp, planewave
        config = ExperimentConfig(
            LatticeSpec(doc["lambda_nm"] * 1e-9, doc["n"],
                        doc["pitch_um"] * 1e-6, doc["ff"], doc["dphi"]),
            basis_halfwidth=halfwidth)
        analysis = planewave.t_point_analysis(config.lattice,
                                                config.basis_halfwidth)
        model = kp.kp_from_opw(analysis.edges, config.lattice)
        span = analysis.edges[2] - analysis.edges[0]
        assert cli._kp_vs_opw_worst(config, model, span) == (
            two_ray_kp_vs_opw_worst(config, model, span))

    def test_fourier_quadrature_per_coefficient(self, monkeypatch):
        # one product serves all 121 quadratures; each analytic coefficient
        # is still evaluated on its own
        calls = []
        coefficient = cli.fourier_coefficient
        monkeypatch.setattr(cli, "fourier_coefficient",
                            lambda lat, m, n: calls.append((m, n))
                            or coefficient(lat, m, n))
        for doc in (BANDS_DOC, JITTERED_DOC, {**BANDS_DOC, "pitch_um": 4.37,
                                              "ff": 0.713, "dphi": 0.0137}):
            calls.clear()
            lat = LatticeSpec(doc["lambda_nm"] * 1e-9, doc["n"],
                              doc["pitch_um"] * 1e-6, doc["ff"], doc["dphi"])
            assert cli._fourier_vs_quadrature(lat) <= 1e-16
            assert calls == [(m, n) for m in range(-5, 6) for n in range(-5, 6)]

    @pytest.mark.parametrize("dphi", [1e-11, 1e-16, 1e-300])
    def test_tiny_contrast_writes_its_report(self, tmp_path, capsys, dphi):
        # the corner states cluster into one group (1e-11), or the edges
        # round to one omega (1e-16, 1e-300): the checks that need a k.p
        # model or an edge mass fail with the reason, and the rest still run
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({**BANDS_DOC, "dphi": dphi}))
        report_path = tmp_path / "report.json"
        assert main(["validate", str(cfg), "-o", str(report_path)]) == 1
        checks = {c["name"]: c for c in json.loads(
            report_path.read_text())["checks"]}
        assert list(checks) == CHECK_NAMES
        assert checks["t_degeneracy"]["status"] == "fail"
        # alpha rounds to exactly its floor dphi*FF at 1e-300
        assert checks["eta_unimodular"]["status"] == "pass"
        assert checks["mass_vs_closed_form"] == {
            "name": "mass_vs_closed_form", "status": "fail",
            "detail": "edge T1(S) is degenerate; the curvature mass needs a "
                      "nondegenerate band"}
        if dphi == 1e-11:
            assert checks["kp_vs_opw"]["status"] == "pass"
        else:
            for name in ("kp_vs_opw", "fsum_roundtrip", "consistency_ratio"):
                assert checks[name]["status"] == "fail"
                assert checks[name]["detail"].startswith(
                    "band-edge ordering violated")
            # a zero corner span: no change against it
            assert "corner span" not in checks["convergence"]["detail"]
        assert "FAILED checks:" in capsys.readouterr().err

    def test_solve_error_fails_only_its_checks(self, bands_cfg_file, tmp_path,
                                               capsys, monkeypatch):
        # a path solve that does not converge fails the two checks that
        # solve a path, with the solver's message; the report is still
        # written and the other checks run
        from phczeeman import planewave
        monkeypatch.setattr(planewave, "_BLOCK_MAX_ITERATIONS", 1)
        report_path = tmp_path / "report.json"
        assert main(["validate", bands_cfg_file, "-o", str(report_path)]) == 1
        checks = json.loads(report_path.read_text())["checks"]
        assert [c["name"] for c in checks] == CHECK_NAMES
        for check in checks:
            if check["name"] in ("kp_vs_opw", "eta_unimodular"):
                assert check["status"] == "fail"
                assert check["detail"].startswith(
                    "block eigensolver left a residual")
            else:
                assert check["status"] == "pass", check["name"]
        assert capsys.readouterr().err == (
            "FAILED checks: kp_vs_opw, eta_unimodular\n")

    @pytest.mark.parametrize("dphi", [-0.01, 0.0])
    def test_nonpositive_contrast_skips_corner_checks(self, tmp_path, dphi):
        # without dphi > 0 the corner bands have no order to check: the
        # Fourier and eigensolver checks run, the other seven are skipped
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps({**BANDS_DOC, "dphi": dphi}))
        report_path = tmp_path / "report.json"
        assert main(["validate", str(cfg), "-o", str(report_path)]) == 0
        checks = json.loads(report_path.read_text())["checks"]
        assert [c["name"] for c in checks] == CHECK_NAMES
        assert [c["status"] for c in checks[:2]] == ["pass", "pass"]
        for check in checks[2:]:
            assert (check["status"], check["detail"]) == (
                "skipped", "requires dphi > 0")

    def test_clustered_xy_edge_has_no_mass(self, tmp_path):
        # the lone XY state above the pair group is not the edge, so the
        # mass check fails instead of reading that state's mass
        cfg = tmp_path / "clustered.json"
        cfg.write_text(json.dumps(CLUSTERED_XY_DOC))
        report_path = tmp_path / "report.json"
        assert main(["validate", str(cfg), "-o", str(report_path)]) == 1
        check = {c["name"]: c for c in json.loads(
            report_path.read_text())["checks"]}["mass_vs_closed_form"]
        assert check["status"] == "fail"
        assert check["detail"].startswith("edge T4(XY) is degenerate")

    def test_corrupted_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        rc = main(["validate", str(cfg)])
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["validate", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_invalid_config_value(self, tmp_path):
        cfg = tmp_path / "bad_ff.json"
        cfg.write_text(json.dumps({**BANDS_DOC, "ff": 1.2}))
        rc = main(["validate", str(cfg)])
        assert rc == 2


def _t_sector_solves(monkeypatch):
    """Record (solver, order) of every eigensolve of a block that
    ``_TSectors.block`` built, and of no other matrix, such as the block
    path solver's Rayleigh-Ritz matrices of the same orders."""
    from phczeeman import planewave
    blocks, solves = [], []
    build = planewave._TSectors.block
    monkeypatch.setattr(planewave._TSectors, "block", lambda self, name: (
        blocks.append(build(self, name)) or blocks[-1]))

    def recording(solver, original):
        def solve(a, *args, **kwargs):
            if any(a is block for block in blocks):
                solves.append((solver, np.shape(a)[-1]))
            return original(a, *args, **kwargs)
        return solve

    for solver in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver,
                            recording(solver, getattr(np.linalg, solver)))
    return solves


class TestTSectorSolves:
    """Each command solves each T sector at most once per halfwidth: S, XY
    (36 waves at h = 7) and (x-odd, y-even) (64) eigenvalue-only for the
    edges, and all five sectors with eigh for validate's analysis."""

    EDGES = [("eigvalsh", 36), ("eigvalsh", 36), ("eigvalsh", 64)]

    @pytest.mark.parametrize("model", ["both", "kp"])
    def test_bands(self, bands_cfg_file, tmp_path, monkeypatch, model):
        solves = _t_sector_solves(monkeypatch)
        assert main(["bands", bands_cfg_file, "-o", str(tmp_path / "b.csv"),
                     "--samples", "4", "--model", model]) == 0
        assert solves == self.EDGES

    def test_validate(self, bands_cfg_file, tmp_path, monkeypatch):
        solves = _t_sector_solves(monkeypatch)
        assert main(["validate", bands_cfg_file,
                     "-o", str(tmp_path / "report.json")]) == 0
        # S, S', XY, XY', X at h, then the h + 2 rung's edges
        assert solves == [("eigh", 36), ("eigh", 28), ("eigh", 36),
                          ("eigh", 28), ("eigh", 64), ("eigvalsh", 55),
                          ("eigvalsh", 55), ("eigvalsh", 100)]

    def test_split(self, bands_cfg_file, tmp_path, monkeypatch):
        solves = _t_sector_solves(monkeypatch)
        assert main(["split", bands_cfg_file,
                     "-o", str(tmp_path / "s.csv")]) == 0
        assert solves == self.EDGES


class TestDumpFourier:
    def test_values_match_analytic(self, bands_cfg_file, tmp_path):
        from phczeeman import fourier_coefficient
        out = tmp_path / "fourier.csv"
        rc = main(["dump-fourier", bands_cfg_file, "-o", str(out),
                   "--halfwidth", "2"])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["m", "n", "value"]
        assert len(rows) == 25
        lattice = LatticeSpec(lambda_vac=960e-9, n_refr=3.53, pitch=4e-6,
                              fill_factor=0.65, dphi=0.02)
        for m, n, value in rows:
            assert float(value) == pytest.approx(
                fourier_coefficient(lattice, int(m), int(n)), rel=1e-12, abs=0
            )

    @pytest.mark.parametrize("doc", [
        BANDS_DOC, JITTERED_DOC,
        {**BANDS_DOC, "pitch_um": 4.37, "ff": 0.713, "dphi": 0.0137},
    ])
    def test_bytes_match_per_entry_coefficients(self, doc, tmp_path):
        # the outer product of the pattern factors writes the same floats
        # as fourier_coefficient entry by entry
        from phczeeman import fourier_coefficient, load_config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "fourier.csv"
        assert main(["dump-fourier", str(cfg), "-o", str(out),
                     "--halfwidth", "30"]) == 0
        lattice = load_config(cfg.read_text()).lattice
        lines = ["m,n,value"] + [
            f"{m},{n},{fourier_coefficient(lattice, m, n)!r}"
            for m in range(-30, 31) for n in range(-30, 31)]
        assert out.read_text() == "\n".join(lines) + "\n"


def _no_nan_written(path):
    return not path.exists() or "nan" not in path.read_text().lower()


class TestNonFiniteInputs:
    @pytest.mark.parametrize("key,field", [
        ("lambda_nm", "lambda_vac"), ("n", "n_refr"), ("pitch_um", "pitch"),
        ("ff", "fill_factor"), ("dphi", "dphi"), ("omega_rad_s", "omega_z"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_number(self, tmp_path, capsys, key, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**WEAK_DOC, key: value}))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", str(cfg), "-o", str(out), "--param", "dphi",
                   "--from", "1e-5", "--to", "1e-3", "--points", "3"])
        assert rc == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [("nan", "1e-3"), ("1e-5", "nan"),
                                        ("1e-5", "inf"), ("-inf", "1e-3")])
    @pytest.mark.parametrize("log", [False, True])
    def test_sweep_bounds(self, weak_cfg_file, tmp_path, capsys, bounds, log):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", weak_cfg_file, "-o", str(out), "--param", "dphi",
                f"--from={bounds[0]}", f"--to={bounds[1]}", "--points", "3"]
        rc = main(argv + (["--log"] if log else []))
        assert rc == 2
        assert "dphi must be finite" in capsys.readouterr().err
        assert _no_nan_written(out)

    @pytest.mark.parametrize("omega_list", ["nan", "1,nan", "inf", "0,-inf"])
    def test_split_omega_list(self, weak_cfg_file, tmp_path, capsys,
                              omega_list):
        out = tmp_path / "split.csv"
        rc = main(["split", weak_cfg_file, "-o", str(out),
                   "--omega-list", omega_list])
        assert rc == 2
        assert "omega_z must be finite" in capsys.readouterr().err
        assert _no_nan_written(out)


    @pytest.mark.parametrize("model,poisoned", [
        ("opw", "opw"), ("kp", "kp"), ("both", "opw"), ("both", "kp"),
        ("both", "diff"),
    ])
    def test_non_finite_band_value(self, bands_cfg_file, tmp_path, capsys,
                                   monkeypatch, model, poisoned):
        # a NaN in the plane-wave or k.p omegas; for the diff file alone,
        # finite omegas whose difference overflows
        from phczeeman import kp, planewave
        solve_bands, kp_bands = planewave.solve_bands, kp.kp_bands

        def bad_opw(*args, **kwargs):
            bs = solve_bands(*args, **kwargs)
            if poisoned == "diff":
                bs.omegas[:] = -1e308
            else:
                bs.omegas[1, 3] = math.nan
            return bs

        def bad_kp(*args, **kwargs):
            spectrum = kp_bands(*args, **kwargs)
            if poisoned == "diff":
                spectrum.omegas[:] = 1e308
            else:
                spectrum.omegas[1, 3] = math.nan
            return spectrum

        if poisoned in ("opw", "diff"):
            monkeypatch.setattr(planewave, "solve_bands", bad_opw)
        if poisoned in ("kp", "diff"):
            monkeypatch.setattr(kp, "kp_bands", bad_kp)
        out = tmp_path / "bands.csv"
        rc = main(["bands", bands_cfg_file, "-o", str(out), "--model", model,
                   "--kpath", "G:Z", "--samples", "2"])
        assert rc == 1
        assert "non-finite value" in capsys.readouterr().err
        poisoned_file = out if model != "both" else (
            tmp_path / f"bands_{poisoned}.csv")
        assert not poisoned_file.exists()
        for path in tmp_path.glob("bands*.csv"):
            text = path.read_text().lower()
            assert "nan" not in text and "inf" not in text, path.name

    @pytest.mark.filterwarnings("ignore")  # fast-rotation and overflow warnings
    def test_overflowing_splitting_is_computation_failure(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "vacuum.json"
        cfg.write_text(json.dumps({**WEAK_DOC, "n": 1.0}))
        out = tmp_path / "split.csv"
        rc = main(["split", str(cfg), "-o", str(out),
                   "--omega-list=-1e308,1e308"])
        assert rc == 1
        assert "non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_rotation_is_silent(self, tmp_path, capsys):
        cfg = tmp_path / "vacuum.json"
        cfg.write_text(json.dumps({**WEAK_DOC, "n": 1.0}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["split", str(cfg), "-o", str(tmp_path / "split.csv"),
                       "--omega-list=1e308"])
        assert rc == 1
        assert ("matrix holds a non-finite value (4x4)"
                in capsys.readouterr().err)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]


class TestRows:
    """``cli._rows`` formats a broadcast column once per value; its rows
    equal those of formatting every cell (``oracles.rows_per_cell``)."""

    FLOATS = [-0.0, 5e-324, 1e16, 1e-5, 0.1]

    def test_mixed_shapes_match_per_cell_oracle(self):
        n, m = len(self.FLOATS), 3
        full = np.array(self.FLOATS)[:, None] * np.array([1.0, -1.0, 3.0])
        labels = np.full((n, m), "", dtype=object)
        labels[1, 2] = "T1(S)"
        columns = (np.float64(0.1), np.array(self.FLOATS)[:, None],
                   np.arange(m)[None, :], full, "2", 7, -0.0,
                   np.array(self.FLOATS[::-1])[:, None], labels,
                   np.where(np.arange(n) % 2 == 0, "", "extrapolation")[:, None])
        got = list(cli._rows(*columns))
        assert got == list(rows_per_cell(*columns))
        assert len(got) == n * m and got[0][:3] == ("0.1", "-0.0", "0")

    def test_scalars_only(self):
        assert list(cli._rows(1e16, "x", 3)) == [("1e+16", "x", "3")]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_broadcast_column_message(self, bad):
        columns = (np.arange(3.0), np.float64(bad), np.ones((2, 1)))
        messages = []
        for rows in (cli._rows, rows_per_cell):
            with pytest.raises(ComputationError) as info:
                rows(*columns)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"non-finite value {bad} in the output"

    def test_non_finite_broadcast_column_writes_no_file(
            self, weak_cfg_file, tmp_path, capsys, monkeypatch):
        # a sweep over dphi writes dwS_over_Omega as one broadcast scalar
        zeeman_result = cli.zm.zeeman_result
        monkeypatch.setattr(cli.zm, "zeeman_result", lambda lattice: replace(
            zeeman_result(lattice), delta_omega_S_per_Omega=math.nan))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", weak_cfg_file, "-o", str(out), "--param", "dphi",
                   "--from", "1e-5", "--to", "1e-3", "--points", "4"])
        assert rc == 1
        assert "non-finite value nan in the output" in capsys.readouterr().err
        assert not out.exists()


# the smallest pitch (um) of the weak lattice that passes the cavity-length
# bound pitch*n/lambda >= 2
PITCH_FLOOR_UM = 0.5439093484419265
ONE_BELOW = 0.9999999999999999  # the largest float below 1


class TestColumnChecks:
    """``sweep`` and ``split`` check their value columns from array masks;
    exit code, stderr, warnings and output equal those of building every
    value's spec (``oracles.build_each``)."""

    @staticmethod
    def _run(argv, tmp_path, capsys, tag):
        out = tmp_path / f"{tag}.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv[:2] + ["-o", str(out)] + argv[2:])
        regime = [(w.category, str(w.message)) for w in caught
                  if "out of regime" in str(w.message)]
        return (rc, capsys.readouterr().err, regime,
                out.read_bytes() if out.exists() else None)

    @pytest.mark.parametrize("doc, args", [
        # dphi across the soft limit, linear and log; symmetric bounds tie
        (WEAK_DOC, ["dphi", "0.001", "0.03", "50"]),
        (WEAK_DOC, ["dphi", "1e-3", "0.05", "40", "--log"]),
        (WEAK_DOC, ["dphi", "-0.05", "0.05", "10"]),
        (WEAK_DOC, ["dphi", "0.001", "0.015", "9"]),
        # bounds at the hard limits
        (WEAK_DOC, ["dphi", "-0.1", "0.1", "8"]),
        (WEAK_DOC, ["dphi", "0.1", "0.09999999999999996", "5", "--log"]),
        (WEAK_DOC, ["dphi", "0.1", "0.100000000001", "5"]),
        (WEAK_DOC, ["pitch", str(PITCH_FLOOR_UM), "5", "7"]),
        (WEAK_DOC, ["pitch", str(PITCH_FLOOR_UM), str(PITCH_FLOOR_UM), "5",
                    "--log"]),
        (WEAK_DOC, ["pitch", "5", "0.5439", "7"]),
        (WEAK_DOC, ["ff", "5e-324", "2e-323", "6"]),
        (WEAK_DOC, ["ff", "2e-323", "5e-324", "6"]),
        (WEAK_DOC, ["ff", "0.5", str(ONE_BELOW), "9", "--log"]),
        (WEAK_DOC, ["ff", "0.5", "1.0", "9"]),
        # pitch and ff sweeps on an out-of-regime base dphi
        ({**WEAK_DOC, "dphi": 0.05}, ["pitch", "3", "6", "7"]),
        ({**WEAK_DOC, "dphi": -0.05}, ["ff", "0.3", "0.9", "7", "--log"]),
    ])
    def test_sweep_matches_per_value_specs(self, tmp_path, capsys,
                                           monkeypatch, doc, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        param, lo, hi, points, *flags = args
        argv = ["sweep", str(cfg), "--param", param, f"--from={lo}",
                f"--to={hi}", "--points", points, *flags]
        self._assert_matches(argv, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("omega_list", [
        "1,2,1e12,nan", "1e12,inf,-inf", "0,-inf,nan", "5,1e12,inf",
        # +-omega ties above the slow-rotation limit: +omega's message wins
        "1e12,-1e12", "-1e12,1e12,5", "-3e12,1e12,-2e12", "1,10,100",
    ])
    def test_split_matches_per_value_specs(self, weak_cfg_file, tmp_path,
                                           capsys, monkeypatch, omega_list):
        argv = ["split", weak_cfg_file, f"--omega-list={omega_list}"]
        self._assert_matches(argv, tmp_path, capsys, monkeypatch)

    def _assert_matches(self, argv, tmp_path, capsys, monkeypatch):
        got = self._run(argv, tmp_path, capsys, "masks")
        monkeypatch.setattr(
            cli, "_check_column",
            lambda build, values, suspect, flagged, what:
            build_each(build, values.tolist(), what))
        want = self._run(argv, tmp_path, capsys, "each")
        assert got == want
        assert len(got[2]) <= 1


class TestResourceAndWriteErrors:
    def test_basis_halfwidth_above_cap(self, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({**BANDS_DOC, "basis_halfwidth": 1000}))
        out = tmp_path / "bands.csv"
        rc = main(["bands", str(cfg), "-o", str(out)])
        assert rc == 2
        assert "basis_halfwidth must be <=" in capsys.readouterr().err
        assert not out.exists()

    def test_samples_above_cap(self, bands_cfg_file, tmp_path, capsys):
        out = tmp_path / "bands.csv"
        rc = main(["bands", bands_cfg_file, "-o", str(out),
                   f"--samples={MAX_SAMPLES_PER_SEGMENT + 1}"])
        assert rc == 2
        assert "samples_per_segment must be <=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", [MAX_SWEEP_POINTS + 1, 10 ** 9])
    def test_sweep_points_above_cap(self, weak_cfg_file, tmp_path, capsys,
                                    points):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", weak_cfg_file, "-o", str(out), "--param", "dphi",
                   "--from", "1e-5", "--to", "1e-2", f"--points={points}"])
        assert rc == 2
        assert f"--points must be in [2, {MAX_SWEEP_POINTS}]" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("halfwidth", [0, -3, MAX_FOURIER_HALFWIDTH + 1])
    def test_dump_fourier_halfwidth_out_of_range(self, bands_cfg_file,
                                                 tmp_path, capsys, halfwidth):
        out = tmp_path / "fourier.csv"
        rc = main(["dump-fourier", bands_cfg_file, "-o", str(out),
                   f"--halfwidth={halfwidth}"])
        assert rc == 2
        assert "--halfwidth must be in" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_plotscript(self, weak_cfg_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        (tmp_path / "x.gp").mkdir()
        rc = main(["sweep", weak_cfg_file, "-o", str(out), "--param", "ff",
                   "--from", "0.3", "--to", "0.9", "--points", "3",
                   "--emit-plotscript"])
        assert rc == 2
        assert "cannot write plot script" in capsys.readouterr().err

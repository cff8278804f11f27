import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from phczeeman.cli import main
from phczeeman.core import (
    MAX_FOURIER_HALFWIDTH, MAX_SAMPLES_PER_SEGMENT, MAX_SWEEP_POINTS,
)
from oracles import folded_free_bands
from phczeeman import LatticeSpec

BANDS_DOC = {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65, "dphi": 0.02}
WEAK_DOC = {**BANDS_DOC, "dphi": 1e-4}


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

    def test_overflowing_rotation_is_silent(self, tmp_path):
        cfg = tmp_path / "vacuum.json"
        cfg.write_text(json.dumps({**WEAK_DOC, "n": 1.0}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["split", str(cfg), "-o", str(tmp_path / "split.csv"),
                       "--omega-list=1e308"])
        assert rc == 1
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]


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

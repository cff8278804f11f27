"""Tests of the benchmark's own logic: span arithmetic, tracing across a
thread pool, golden comparison and seeded workloads.

    python3 -m pytest perfbench/tests
"""
import json
import math
import threading

import pytest

import golden
import layers
import tracer
import workloads


def span(sid, name, start, end, parent=None, thread=1, work=None):
    return (sid, name, start, end, parent, thread, work)


def test_union_length_merges_overlaps_and_gaps():
    assert layers.union_length([]) == 0.0
    assert layers.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert layers.union_length([(1, 4), (2, 3)]) == pytest.approx(3.0)


def test_self_time_subtracts_union_of_overlapping_children_from_two_threads():
    spans = [
        span(1, "planewave.solve_bands", 0.0, 10.0, work=121),
        # pool threads A and B overlap on [3, 5]
        span(2, "planewave.eigensolve", 1.0, 5.0, parent=1, thread=101, work=[225, 1]),
        span(3, "planewave.eigensolve", 3.0, 8.0, parent=1, thread=102, work=[225, 1]),
        # runs past its parent's end: only [9, 10] counts
        span(4, "planewave.labelling", 9.0, 12.0, parent=1),
        # a grandchild is covered by its own parent, not subtracted again
        span(5, "kernels.fill_hamiltonian", 1.5, 2.0, parent=2, thread=101, work=225),
    ]
    own = layers.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert own[2] == pytest.approx(4.0 - 0.5)
    assert own[3] == pytest.approx(5.0)

    metrics = layers.invocation_metrics(spans, {"kp.eigh.calls": 3})
    assert metrics["planewave.solve_bands.self_s"] == pytest.approx(2.0)
    assert metrics["planewave.solve_bands.kpoints"] == 121
    assert metrics["planewave.eigensolve.busy_s"] == pytest.approx(9.0)
    # 9 s of solves inside 7 s of covered time
    assert metrics["planewave.eigensolve.concurrency"] == pytest.approx(9.0 / 7.0)
    assert metrics["planewave.eigensolve.n3_sum"] == 2 * 225 ** 3
    assert metrics["planewave.eigensolve.ns_per_n3"] == pytest.approx(9e9 / (2 * 225 ** 3))
    assert metrics["kernels.fill_hamiltonian.bytes_computed"] == 225 ** 2 * 8
    assert metrics["kp.eigh.calls"] == 3
    assert metrics["core.derive_params.calls"] == 0


def test_pool_spans_get_the_submitting_span_as_parent():
    rec = tracer.Recorder()
    barrier = threading.Barrier(2, timeout=10)

    def solve(x):
        barrier.wait()  # both tasks run at once, on different threads
        return x

    traced_solve = rec.span("planewave.eigensolve", solve)

    def solve_all():
        with tracer.ContextThreadPoolExecutor(max_workers=2) as ex:
            return list(ex.map(traced_solve, [1, 2]))

    assert rec.span("planewave.solve_bands", solve_all)() == [1, 2]
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s[1], []).append(s)
    (outer,) = by_name["planewave.solve_bands"]
    inner = by_name["planewave.eigensolve"]
    assert [s[4] for s in inner] == [outer[0], outer[0]]
    assert len({s[5] for s in inner}) == 2


def test_nested_call_of_the_same_layer_is_not_a_second_span():
    rec = tracer.Recorder()
    inner = rec.span("zeeman", lambda: 1)
    outer = rec.span("zeeman", lambda: inner() + 1)
    assert outer() == 2
    assert [s[1] for s in rec.spans] == ["zeeman"]


def _golden_text(workload, name):
    return golden.read_golden(workload, name).decode("utf-8")


def _replace_field(text, row, col, new):
    lines = text.split("\n")
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    old = fields[header.index(col)]
    fields[header.index(col)] = new(old)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def _t_row(text, label):
    rows = text.split("\n")[1:]
    return next(i for i, r in enumerate(rows) if r.endswith("," + label))


def test_golden_check_reports_a_one_ulp_change_without_failing():
    tol = golden.load_tolerances()
    text = _golden_text("bands_ref", "bands_opw.csv")
    changed = _replace_field(text, 5, "omega_rad_s",
                             lambda v: repr(math.nextafter(float(v), math.inf)))
    rep = golden.compare_csv(text.encode(), changed.encode(), tol)
    assert rep["identical"] is False
    assert rep["problems"] == []
    ulp = math.ulp(float(text.split("\n")[6].split(",")[6]))
    assert rep["columns"]["omega_rad_s"][0] == ulp
    assert rep["columns"]["omega_rad_s"][1] > 0
    assert rep["columns"]["kx"] == [0.0, 0.0]


def test_golden_check_fails_a_relabelled_t_row():
    tol = golden.load_tolerances()
    text = _golden_text("bands_ref", "bands_opw.csv")
    row = _t_row(text, "T1(S)")
    changed = _replace_field(text, row, "rep_label", lambda v: "T4(XY)")
    rep = golden.compare_csv(text.encode(), changed.encode(), tol)
    assert rep["problems"] and "rep_label" in rep["problems"][0]
    # the structural check of other seeds catches it too
    rep = golden.check_csv_structure(text.encode(), changed.encode(), 968, tol,
                                     plane_wave_bands=True)
    assert any("lowest T labels" in p for p in rep["problems"])


@pytest.mark.parametrize("new", ["nan", "inf", "1e999"])
def test_golden_check_fails_a_non_finite_value(new):
    tol = golden.load_tolerances()
    text = _golden_text("closed_form", "sweep.csv")
    changed = _replace_field(text, 3, "M", lambda v: new)
    assert golden.compare_csv(text.encode(), changed.encode(), tol)["problems"]
    assert golden.check_csv_structure(text.encode(), changed.encode(), 5000, tol,
                                      plane_wave_bands=False)["problems"]


def test_golden_check_fails_a_float_beyond_tolerance_and_a_row_count_change():
    tol = golden.load_tolerances()
    text = _golden_text("closed_form", "split.csv")
    changed = _replace_field(text, 0, "dwl_kp_rad_s", lambda v: repr(float(v) * (1 + 1e-6)))
    assert golden.compare_csv(text.encode(), changed.encode(), tol)["problems"]
    shorter = "\n".join(text.split("\n")[:-2]) + "\n"
    rep = golden.compare_csv(text.encode(), shorter.encode(), tol)
    assert any("row count" in p for p in rep["problems"])


def test_validation_report_compares_statuses_and_only_lists_details():
    ref = golden.read_golden("validate_ref", "report.json")
    doc = json.loads(ref)
    doc["checks"][0]["detail"] = "some other wording"
    rep = golden.compare_report(ref, json.dumps(doc).encode())
    assert rep["problems"] == []
    assert rep["changed_details"] == [doc["checks"][0]["name"]]
    doc["checks"][2]["status"] = "fail"
    doc["passed"] = False
    assert golden.compare_report(ref, json.dumps(doc).encode())["problems"]
    assert golden.check_report_structure(ref, json.dumps(doc).encode())["problems"]


def test_seed_zero_is_the_reference_and_other_seeds_jitter_in_range():
    assert workloads.lattice_for_seed(0) == workloads.REFERENCE
    for seed in (1, 2, 99):
        lattice = workloads.lattice_for_seed(seed)
        assert lattice == workloads.lattice_for_seed(seed)
        for key, (lo, hi) in workloads.JITTER.items():
            assert lo <= lattice[key] <= hi
    assert workloads.lattice_for_seed(1) != workloads.lattice_for_seed(2)


def test_argv_lists_substitute_config_and_output_directory():
    wl = workloads.WORKLOADS["closed_form"]
    split, sweep = workloads.argv_lists(wl, "cfg.json", "out")
    assert split[:4] == ["split", "cfg.json", "-o", "out/split.csv"]
    assert len(split[5].split(",")) == workloads.OMEGA_RATES
    assert sweep[sweep.index("--points") + 1] == str(workloads.SWEEP_POINTS)

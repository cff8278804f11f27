#!/usr/bin/env python3
"""End-to-end benchmark of the phczeeman CLI, with a traced run for per-layer
numbers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bands_ref --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --write-golden        # store the seed-0 outputs

The load is a closed loop with one client: each invocation is a fresh Python
process (``worker.py``) that imports ``phczeeman.cli`` from ``src/`` and runs
the workload's ``cli.main`` calls; the next starts when it has ended and its
outputs are checked. Invocations start until the next one would end after
``--seconds``. BLAS thread variables are passed through as found, never set.

With ``--trace 0`` the result reports the medians of ``wall_s`` (the
``cli.main`` calls, import excluded), ``setup_s`` (import of numpy and
``phczeeman.cli``), ``cpu_s`` (process user+sys CPU over the ``wall_s``
interval, all threads) and ``peak_rss_mb``. With ``--trace 1`` untraced and
traced invocations alternate; the traced ones give the per-layer metrics of
``layers.py`` and the untraced ones the tracing overhead. The last line of
standard output is the JSON result; run context, sample counts, tail
percentiles and per-column output differences are printed above it and
written, with the spans, under ``.bench_build/perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import golden
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_INVOCATIONS = 3
# Set-up samples per untraced run: runs with few, long invocations are topped
# up with import-only processes, spread over the run.
SETUP_SAMPLES = 20
INVOCATION_TIMEOUT_S = 150.0


class SetupError(Exception):
    """The checkout cannot be benchmarked (no source tree, wrong package)."""


class Bench:
    """Runs invocations of one checkout and checks their outputs."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "phczeeman", "cli.py")):
            raise SetupError(f"no phczeeman source under {self.src}")
        self.work = os.path.join(root, ".bench_build", "perfbench")
        self.results_dir = os.path.join(self.work, "results")
        os.makedirs(self.results_dir, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)
        self.tolerances = golden.load_tolerances()
        self._serial = 0

    def invoke(self, calls, trace=False, context=False):
        """Run one fresh-process invocation; returns (result, output dir)."""
        self._serial += 1
        inv_dir = os.path.join(self.work, f"inv-{os.getpid()}-{self._serial}")
        shutil.rmtree(inv_dir, ignore_errors=True)
        os.makedirs(inv_dir)
        spec_path = os.path.join(inv_dir, "spec.json")
        result_path = os.path.join(inv_dir, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"calls": calls(inv_dir), "trace": trace,
                       "context": context}, fh)
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, result_path, spec_path],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {INVOCATION_TIMEOUT_S} s"}, inv_dir
        stderr = proc.stderr.decode("utf-8", errors="replace")
        if proc.returncode != 0 or not os.path.exists(result_path):
            return {"error": f"worker exit {proc.returncode}: {stderr[-2000:]}"}, inv_dir
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["stderr"] = stderr[-2000:]
        return result, inv_dir

    def context(self) -> dict:
        """Import once (filling the bytecode cache) and describe the stack."""
        result, inv_dir = self.invoke(lambda _: [], context=True)
        shutil.rmtree(inv_dir, ignore_errors=True)
        if "error" in result:
            raise SetupError(result["error"])
        ctx = result["context"]
        if not ctx["phczeeman_file"].startswith(self.src + os.sep):
            raise SetupError(f"imported {ctx['phczeeman_file']}, not the checkout's")
        ctx.update({
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "git_commit": git_commit(self.root),
        })
        return ctx

    def check(self, wl, seed, result, inv_dir) -> dict:
        """Per-file reports for one invocation's outputs."""
        reports = {}
        for name in wl.outputs:
            path = os.path.join(inv_dir, name)
            ref = golden.read_golden(wl.name, name)
            if not os.path.exists(path):
                reports[name] = {"identical": False, "problems": ["missing"]}
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".json"):
                check = (golden.compare_report if seed == workloads.DEFAULT_SEED
                         else golden.check_report_structure)
                reports[name] = check(ref, data)
            elif seed == workloads.DEFAULT_SEED:
                reports[name] = golden.compare_csv(ref, data, self.tolerances)
            else:
                reports[name] = golden.check_csv_structure(
                    ref, data, wl.outputs[name], self.tolerances,
                    plane_wave_bands=name in ("bands_opw.csv", "bands.csv"))
        return reports

    def run(self, wl, seed, seconds, trace):
        """Closed-loop invocations for ``seconds``; returns the run record."""
        cfg_dir = os.path.join(self.work, f"cfg-{os.getpid()}")
        os.makedirs(cfg_dir, exist_ok=True)
        cfg_path = os.path.join(cfg_dir, f"{wl.name}-{seed}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(wl, seed))
        ctx = self.context()
        ctx["seed"] = seed
        ctx["config"] = workloads.config_text(wl, seed).strip()

        invocations = []
        durations = []
        setup_samples = []
        steal0 = cpu_steal_s()
        start = time.perf_counter()
        deadline = start + seconds
        minimum = 2 * MIN_INVOCATIONS if trace else MIN_INVOCATIONS
        while True:
            i = len(invocations)
            if i >= minimum and (not trace or i % 2 == 0):
                est = statistics.median(durations[-4:])
                if time.perf_counter() + est > deadline:
                    break
            traced = trace and i % 2 == 1
            t = time.perf_counter()
            result, inv_dir = self.invoke(
                lambda out: workloads.argv_lists(wl, cfg_path, out), trace=traced)
            durations.append(time.perf_counter() - t)
            result["traced"] = traced
            result["failures"] = []
            if "error" in result:
                result["failures"].append(result["error"])
            else:
                bad = [c for c in result["exit_codes"] if c != 0]
                if bad:
                    result["failures"].append(
                        f"exit codes {result['exit_codes']}: {result['stderr']}")
                result["outputs"] = self.check(wl, seed, result, inv_dir)
                for name, rep in result["outputs"].items():
                    result["failures"] += [f"{name}: {p}" for p in rep["problems"]]
            shutil.rmtree(inv_dir, ignore_errors=True)
            invocations.append(result)
            if not trace and "error" not in result:
                setup_samples.append(result["setup_s"])
                share = (time.perf_counter() - start) / seconds
                while (len(setup_samples) < SETUP_SAMPLES * min(1.0, share)
                       and time.perf_counter() < deadline):
                    extra, extra_dir = self.invoke(lambda _: [])
                    shutil.rmtree(extra_dir, ignore_errors=True)
                    if "error" in extra:
                        break
                    setup_samples.append(extra["setup_s"])
        shutil.rmtree(cfg_dir, ignore_errors=True)
        steal1 = cpu_steal_s()
        ctx["steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0
        return summarize(wl, seed, trace, ctx, invocations, setup_samples)


def cpu_steal_s():
    """Machine-wide CPU time taken by the hypervisor (from /proc/stat), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit(root: str) -> str:
    """HEAD commit read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples):
    """(percentile, value) of the highest order statistic with >= 10 samples above."""
    n = len(samples)
    if n < 11:
        return None
    j = n - 11
    return 100.0 * (j + 1) / n, sorted(samples)[j]


def merge_outputs(invocations) -> dict:
    """Per file: identical count, worst per-column differences, problems."""
    merged = {}
    for inv in invocations:
        for name, rep in inv.get("outputs", {}).items():
            m = merged.setdefault(name, {"identical": 0, "checked": 0,
                                         "columns": {}, "problems": []})
            m["checked"] += 1
            m["identical"] += bool(rep["identical"])
            for col, (d_abs, d_rel) in rep.get("columns", {}).items():
                worst = m["columns"].setdefault(col, [0.0, 0.0])
                worst[0] = max(worst[0], d_abs)
                worst[1] = max(worst[1], d_rel)
            m["problems"] += rep["problems"][: 5 - len(m["problems"])]
            if rep.get("changed_details"):
                m["changed_details"] = rep["changed_details"]
    return merged


def summarize(wl, seed, trace, ctx, invocations, setup_samples) -> dict:
    # timings come from every invocation that ran; output failures only
    # clear the correct flag
    ran = [inv for inv in invocations if "error" not in inv]
    untraced = [inv for inv in ran if not inv["traced"]]
    failures = [f for inv in invocations for f in inv["failures"]]
    record = {
        "workload": wl.name, "seed": seed, "trace": int(trace), "context": ctx,
        "attempted": len(invocations),
        "failed": sum(bool(inv["failures"]) for inv in invocations),
        "failures": list(dict.fromkeys(failures))[:10],
        "outputs": merge_outputs(invocations),
        "samples": {k: [inv[k] for inv in untraced] for k in END_TO_END_UNITS},
    }
    record["samples"]["setup_s"] = setup_samples
    if not trace:
        record["metrics"] = {
            k: {"value": statistics.median(v) if v else 0.0, "unit": END_TO_END_UNITS[k]}
            for k, v in record["samples"].items()
        }
        return record
    traced = [inv for inv in ran if inv["traced"]]
    per_inv = []
    for inv in traced:
        m = layers.invocation_metrics(inv["spans"], inv["counts"])
        m["cli.numpy_import_s"] = inv["numpy_import_s"]
        m["cli.import_s"] = inv["import_s"]
        per_inv.append(m)
    med = layers.median_metrics(per_inv) if per_inv else {}
    walls = record["samples"]["wall_s"]
    traced_walls = [inv["wall_s"] for inv in traced]
    if walls and traced_walls:
        med["tracing.overhead"] = statistics.median(traced_walls) / statistics.median(walls)
    record["traced_wall_s"] = traced_walls
    exclusive = layers.median_metrics(
        [layers.exclusive_by_layer(inv["spans"]) for inv in traced]) if traced else {}
    record["exclusive_s"] = dict(sorted(exclusive.items(), key=lambda kv: -kv[1]))
    record["metrics"] = {k: {"value": med.get(k, 0.0), "unit": unit}
                         for k, unit in layers.PER_LAYER_UNITS.items()}
    record["spans"] = [[n, *span] for n, inv in enumerate(traced) for span in inv["spans"]]
    return record


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_lines(record) -> list:
    steal = record["context"]["steal_s"]
    lines = [f"== {record['workload']} seed={record['seed']} trace={record['trace']}: "
             f"{record['attempted']} invocations, {record['failed']} failed"
             + ("" if steal is None else f"; CPU steal during the run {steal:.2f} s")]
    if record["trace"]:
        for name, m in record["metrics"].items():
            lines.append(f"  {name:42s} {_fmt(m['value']):>14s} {m['unit']}")
        lines.append(f"  (per-invocation medians over {len(record['traced_wall_s'])} "
                     f"traced invocations; untraced wall_s median over "
                     f"{len(record['samples']['wall_s'])})")
        top = list(record["exclusive_s"].items())[:4]
        lines.append("  largest self time, summed over threads: "
                     + ", ".join(f"{name} {_fmt(sec)} s" for name, sec in top))
    else:
        for name, m in record["metrics"].items():
            samples = record["samples"][name]
            t = tail(samples)
            tail_txt = (f"p{t[0]:.0f} {_fmt(t[1])}" if t
                        else "no percentile with 10 samples beyond")
            lines.append(f"  {name:12s} {_fmt(m['value']):>12s} {m['unit']:4s} "
                         f"median; {tail_txt}; n={len(samples)}")
    for name, m in record["outputs"].items():
        diffs = ", ".join(f"{c} {a:.3g}/{r:.3g}" for c, (a, r) in m["columns"].items()
                          if a or r)
        lines.append(f"  output {name}: byte-identical {m['identical']}/{m['checked']}"
                     + (f"; max abs/rel diff {diffs}" if diffs else ""))
        if m.get("changed_details"):
            lines.append(f"    changed details: {', '.join(m['changed_details'])}")
    for failure in record["failures"]:
        lines.append(f"  FAILED: {failure}")
    return lines


def save(bench, record) -> None:
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    with open(os.path.join(bench.results_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(os.path.join(bench.results_dir, stem + "-spans.json"), "w",
                  encoding="utf-8") as fh:
            fh.write('{"fields": ["invocation", "id", "name", "start", "end", '
                     '"parent", "thread", "work"], "spans": ')
            json.dump(spans, fh)
            fh.write("}\n")


def write_golden(bench) -> None:
    for wl in workloads.WORKLOADS.values():
        cfg_path = os.path.join(bench.work, f"golden-{wl.name}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(wl, workloads.DEFAULT_SEED))
        result, inv_dir = bench.invoke(
            lambda out, wl=wl: workloads.argv_lists(wl, cfg_path, out))
        if "error" in result or any(c != 0 for c in result["exit_codes"]):
            raise SetupError(f"{wl.name}: {result.get('error') or result['stderr']}")
        for name in wl.outputs:
            with open(os.path.join(inv_dir, name), "rb") as fh:
                golden.write_golden(wl.name, name, fh.read())
        shutil.rmtree(inv_dir, ignore_errors=True)
        os.remove(cfg_path)
        print(f"stored golden outputs of {wl.name}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bench = Bench(os.getcwd())
        if args.write_golden:
            write_golden(bench)
            return 0
        if args.workload:
            plan = [(args.workload, bool(args.trace))]
        else:
            plan = [(name, trace) for name in workloads.WORKLOADS for trace in (False, True)]
        records = []
        for name, trace in plan:
            record = bench.run(workloads.WORKLOADS[name], args.seed, args.seconds, trace)
            print("context: " + json.dumps(record["context"], sort_keys=True))
            print("\n".join(report_lines(record)), flush=True)
            save(bench, record)
            records.append(record)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

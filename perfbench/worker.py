"""One benchmark invocation: a fresh interpreter that imports the CLI and runs
one workload's ``cli.main`` calls.

    python3 perfbench/worker.py RESULT_JSON SPEC_JSON

SPEC_JSON holds ``{"calls": [argv, ...], "trace": bool, "context": bool}``.
Only ``time`` and ``sys`` are imported before the import of numpy and
``phczeeman.cli`` is timed, so the set-up time is the one every CLI user pays.
The result file holds the timings, exit codes, and with tracing the spans and
counters; with ``context`` it also describes the numeric stack.
"""
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402
t1 = time.perf_counter()
import phczeeman.cli as cli  # noqa: E402
t2 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_calls(calls) -> list:
    codes = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # report the traceback, count the call as failed
            traceback.print_exc()
            code = "exception"
        codes.append(code)
    return codes


def numeric_context() -> dict:
    from phczeeman import _kernels

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "phczeeman_file": os.path.abspath(cli.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "backend": _kernels.BACKEND,
    }


def main(result_path: str, spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"numpy_import_s": t1 - t0, "import_s": t2 - t1,
              "setup_s": t2 - t0}
    recorder = None
    if spec["trace"]:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    cpu0 = time.process_time()
    w0 = time.perf_counter()
    result["exit_codes"] = run_calls(spec["calls"])
    result["wall_s"] = time.perf_counter() - w0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counts"] = recorder.counts
    if spec.get("context"):
        result["context"] = numeric_context()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

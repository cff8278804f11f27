"""Per-layer metrics from the spans and counters of traced invocations.

Busy time is the summed duration of a layer's spans; self time is a span's
duration minus the union of its direct children's intervals (clipped to the
span), so children running concurrently on pool threads are not subtracted
twice.
"""
from __future__ import annotations

import statistics

# name -> unit, in report order; BENCHMARK.json lists the same names.
# "kernels." is the _kernels module (metric names start with a letter).
PER_LAYER_UNITS = {
    "planewave.eigensolve.calls": "count",
    "planewave.eigensolve.busy_s": "s",
    "planewave.eigensolve.n3_sum": "n3",
    "planewave.eigensolve.max_n": "count",
    "planewave.eigensolve.ns_per_n3": "ns/n3",
    "planewave.eigensolve.concurrency": "ratio",
    "kernels.fill_hamiltonian.calls": "count",
    "kernels.fill_hamiltonian.busy_s": "s",
    "kernels.fill_hamiltonian.bytes_computed": "B",
    "planewave.solve_bands.calls": "count",
    "planewave.solve_bands.kpoints": "count",
    "planewave.solve_bands.busy_s": "s",
    "planewave.solve_bands.self_s": "s",
    "planewave.labelling.busy_s": "s",
    "planewave.t_point_analysis.calls": "count",
    "planewave.t_point_analysis.busy_s": "s",
    "planewave.opw_mass_at_t.calls": "count",
    "planewave.opw_mass_at_t.busy_s": "s",
    "lattice.basis.calls": "count",
    "lattice.basis.busy_s": "s",
    "lattice.fourier_coefficient.calls": "count",
    "lattice.fourier_coefficient.busy_s": "s",
    "kp.kp_bands.calls": "count",
    "kp.kp_bands.busy_s": "s",
    "kp.zeeman_splittings_at_T.calls": "count",
    "kp.zeeman_splittings_at_T.busy_s": "s",
    "kp.fsum_fd_masses.calls": "count",
    "kp.fsum_fd_masses.busy_s": "s",
    "kp.eigh.calls": "count",
    "zeeman.calls": "count",
    "zeeman.busy_s": "s",
    "core.derive_params.calls": "count",
    "cli.main.self_s": "s",
    "cli.run_validation.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "cli.numpy_import_s": "s",
    "cli.import_s": "s",
    "tracing.overhead": "ratio",
}

_BUSY = ("planewave.eigensolve", "kernels.fill_hamiltonian",
         "planewave.solve_bands", "planewave.labelling",
         "planewave.t_point_analysis", "planewave.opw_mass_at_t",
         "lattice.basis", "lattice.fourier_coefficient", "kp.kp_bands",
         "kp.zeeman_splittings_at_T", "kp.fsum_fd_masses", "zeeman")
_SELF = ("planewave.solve_bands", "cli.main", "cli.run_validation")
_COUNTERS = ("kp.eigh.calls", "core.derive_params.calls", "cli.rows_written",
             "cli.bytes_written")


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's clipped intervals."""
    children = {}
    for sid, _name, start, end, parent, _thread, _work in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _thread, _work in spans:
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(sid, ()) if min(e, end) > max(s, start)]
        out[sid] = (end - start) - union_length(clipped)
    return out


def exclusive_by_layer(spans) -> dict:
    """Layer name -> summed self time of its spans (pool threads add up)."""
    own = self_times(spans)
    out = {}
    for span in spans:
        out[span[1]] = out.get(span[1], 0.0) + own[span[0]]
    return out


def invocation_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced invocation (tracing overhead excluded)."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    exclusive = exclusive_by_layer(spans)
    out = {}
    for name in _BUSY:
        group = by_name.get(name, [])
        out[f"{name}.calls"] = len(group)
        out[f"{name}.busy_s"] = sum(s[3] - s[2] for s in group)
    for name in _SELF:
        out[f"{name}.self_s"] = exclusive.get(name, 0.0)

    eig = by_name.get("planewave.eigensolve", [])
    n3 = sum(batch * n ** 3 for n, batch in (s[6] for s in eig))
    busy = out["planewave.eigensolve.busy_s"]
    covered = union_length((s[2], s[3]) for s in eig)
    out["planewave.eigensolve.n3_sum"] = n3
    out["planewave.eigensolve.max_n"] = max((s[6][0] for s in eig), default=0)
    out["planewave.eigensolve.ns_per_n3"] = busy * 1e9 / n3 if n3 else 0.0
    out["planewave.eigensolve.concurrency"] = busy / covered if covered else 0.0
    out["kernels.fill_hamiltonian.bytes_computed"] = sum(
        s[6] ** 2 * 8 for s in by_name.get("kernels.fill_hamiltonian", []))
    out["planewave.solve_bands.kpoints"] = sum(
        s[6] for s in by_name.get("planewave.solve_bands", []))
    for key in _COUNTERS:
        out[key] = counts.get(key, 0)
    return out


def median_metrics(per_invocation) -> dict:
    """Median of each metric over invocations, a missing one counting as 0."""
    keys = dict.fromkeys(k for m in per_invocation for k in m)
    return {k: statistics.median(m.get(k, 0) for m in per_invocation) for k in keys}

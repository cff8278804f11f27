"""Span recording for the traced benchmark run, installed from outside the package.

The recorder wraps public functions of the phczeeman modules (and the dense
``numpy.linalg`` eigensolvers) in place: every module attribute that is the
original function object is replaced, so the wrapper runs wherever the code
looks the name up. Spans are kept in memory as tuples and handed to the
caller when the invocation ends.

A span is ``(id, name, start, end, parent_id, thread_id, work)``; ``work`` is
a layer-specific size (matrix order, k-point count) or ``None``. A call made
while the innermost open span already has the same name is not recorded, so
``calls`` and ``busy_s`` count entries into a layer, not its internal calls.
The parent of a span started on a pool thread is the span that submitted the
task, carried over by :class:`ContextThreadPoolExecutor`.
"""
from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import itertools
import math
import os
import sys
import threading
import time

import numpy as np

_current = contextvars.ContextVar("perfbench_span", default=None)

# Dense eigensolves of order <= this are the 8x8 Ritz and 4x4 k.p solves,
# not the plane-wave eigensolve layer.
SMALL_EIGH_MAX = 8


class ContextThreadPoolExecutor(concurrent.futures.ThreadPoolExecutor):
    """Thread pool that runs each task in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Recorder:
    """Collects spans and counters for one invocation."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name, fn, size=None, result_work=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``size(*args, **kwargs)`` or ``result_work(result)`` gives the work
        recorded with the span.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            if parent is not None and parent[1] == name:
                return fn(*args, **kwargs)
            work = size(*args, **kwargs) if size is not None else None
            sid = next(rec._ids)
            token = _current.set((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
            if result_work is not None:
                work = result_work(result)
            rec.spans.append((sid, name, start, end,
                              parent[0] if parent else None,
                              threading.get_ident(), work))
            return result

        return wrapper

    def counter(self, key, fn):
        """Wrap ``fn`` so each call adds one to counter ``key``."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.count(key)
            return fn(*args, **kwargs)

        return wrapper


def _eigh_work(a, *args, **kwargs):
    """(order, number of stacked matrices) of an eigensolver argument."""
    shape = np.shape(a)
    return (shape[-1], math.prod(shape[:-2]))


def replace_everywhere(original, replacement) -> None:
    """Point every phczeeman module attribute bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or modname.split(".")[0] != "phczeeman":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch(module, attr, wrap) -> None:
    original = getattr(module, attr)
    replacement = wrap(original)
    setattr(module, attr, replacement)
    replace_everywhere(original, replacement)


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries of an imported ``phczeeman.cli``."""
    from phczeeman import _kernels, cli, core, kp, lattice, planewave, zeeman

    spans = [
        (cli, "main", "cli.main"),
        (cli, "run_validation", "cli.run_validation"),
        (planewave, "t_point_analysis", "planewave.t_point_analysis"),
        (planewave, "opw_mass_at_t", "planewave.opw_mass_at_t"),
        (planewave, "classify_t_states", "planewave.labelling"),
        (planewave, "cluster_degenerate", "planewave.labelling"),
        (lattice, "reciprocal_basis", "lattice.basis"),
        (lattice, "t_centered_basis", "lattice.basis"),
        (lattice, "fourier_coefficient", "lattice.fourier_coefficient"),
        (kp, "kp_bands", "kp.kp_bands"),
        (kp, "zeeman_splittings_at_T", "kp.zeeman_splittings_at_T"),
        (kp, "fsum_fd_masses", "kp.fsum_fd_masses"),
    ]
    spans += [(zeeman, fn, "zeeman") for fn in (
        "pattern_sinc", "m_closed_form", "splittings", "spread_rms",
        "consistency_ratio", "effective_index", "zeeman_result",
    )]
    for module, attr, name in spans:
        _patch(module, attr, functools.partial(recorder.span, name))
    _patch(planewave, "solve_bands", lambda fn: recorder.span(
        "planewave.solve_bands", fn, result_work=lambda bs: len(bs.kpoints)))
    _patch(_kernels, "fill_hamiltonian", lambda fn: recorder.span(
        "kernels.fill_hamiltonian", fn, size=lambda m_idx, *a, **k: m_idx.size))
    for attr in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, attr)
        wrapped = recorder.span("planewave.eigensolve", original, size=_eigh_work)
        # below the threshold the wrapper passes the call straight through
        setattr(np.linalg, attr, _threshold(wrapped, original))

    _patch(core, "derive_params", lambda fn: recorder.counter("core.derive_params.calls", fn))
    kp.eigh = recorder.counter("kp.eigh.calls", kp.eigh)
    planewave.ThreadPoolExecutor = ContextThreadPoolExecutor

    write_csv = cli._write_csv

    def counting_write_csv(path, header, rows):
        rows = list(rows)
        write_csv(path, header, rows)
        recorder.count("cli.rows_written", len(rows))
        recorder.count("cli.bytes_written", os.path.getsize(path))

    cli._write_csv = counting_write_csv


def _threshold(wrapped, original):
    """Record only eigensolves of order above SMALL_EIGH_MAX."""

    @functools.wraps(original)
    def dispatch(a, *args, **kwargs):
        if np.shape(a)[-1] > SMALL_EIGH_MAX:
            return wrapped(a, *args, **kwargs)
        return original(a, *args, **kwargs)

    return dispatch

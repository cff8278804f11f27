"""Numeric kernels over the plane-wave basis: Hamiltonian assembly and the
pattern-overlap sum.

The pattern of square pixels is rank one: its Fourier coefficient at (m, n)
is depth * s_m * s_n, with depth = dphi*FF and s_j = sinc(pi*j*sqrt(FF)).
On a ``lattice.Window``, m-major and square by construction, the matrix
phi[(mi - mj, ni - nj)] is therefore the Kronecker product (depth*S) ⊗ S of
the Toeplitz factor S[a, b] = s[a - b] over the window's axis.
``axis_factor`` builds S, and ``pattern_overlap`` applies S along both axes
of the coefficients reshaped onto the window. ``fill_hamiltonian`` writes
out a scaled Kronecker product of two factors: the dense pattern term
(depth*S) ⊗ S, and the (x-odd, y-even) T sector's S- ⊗ S+ of the corner
window's folded factors. ``BACKEND`` names the implementation for run
reports.

``serial_blas`` runs OpenBLAS on one thread, except that ``pooled`` gives a
dense solve of order ``POOL_MIN_ORDER`` or more the thread count found on
entry: on smaller matrices a second thread gains no wall time and only
spins, and its reductions can move eigenvalues in the last digits.
``cli.main`` runs every subcommand inside it. One thread alone does not
stop the spinning: the worker pool that OpenBLAS starts when numpy is
imported busy-waits for about 0.1 s before its workers sleep, so
``serial_blas`` also parks the pool (stops its workers) on entry. A pooled
solve rebuilds it and parks it again when it drops back to one thread, and
the exit restores the count found on entry, which rebuilds the pool for
the caller. The thread count and the pool are set through the loaded
OpenBLAS's own functions (numpy exposes no setter), looked up at first
use; where none is found (another BLAS, no /proc/self/maps) all do
nothing, and where the park function is missing the count is still set.
"""
from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os

import numpy as np

BACKEND = "numpy"
# eigvalsh wall time on 2 threads against 1 (2-core x86, OpenBLAS 0.3.31):
# 2.4-3.0 against 2.9 ms at order 225, for twice the CPU; 9.1-9.4 against
# 10.0-10.3 ms at 400; 15.1-15.5 against 18.8-19.2 ms at 512
POOL_MIN_ORDER = 512
_THREAD_FUNCTIONS = (  # (set, get) by OpenBLAS build: scipy wheel, ILP64, plain
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# stops the pool's workers, as OpenBLAS's own fork handler does; the next
# thread-count change or threaded call rebuilds the pool
_PARK_FUNCTION = "blas_thread_shutdown_"
# the thread count serial_blas found on entry, while it holds
_POOL = contextvars.ContextVar("blas_pool", default=None)


@functools.cache
def _openblas():
    """The (set, get, park) thread functions of the OpenBLAS this process
    has loaded, found by its path in /proc/self/maps; None without one.
    park is None where the build does not export ``_PARK_FUNCTION``."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            # the path is the sixth field, present on file-backed mappings
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in os.path.basename(line).lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _THREAD_FUNCTIONS:
            try:
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
            except AttributeError:
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            park = getattr(lib, _PARK_FUNCTION, None)
            if park is not None:
                park.argtypes, park.restype = [], ctypes.c_int
            return set_threads, get_threads, park
    return None


def blas_thread_count() -> int | None:
    """OpenBLAS's current thread count; None where it is not found."""
    control = _openblas()
    return None if control is None else control[1]()


def _park(control):
    """One thread, then the pool parked: any count change rebuilds a
    parked pool, so the park comes last."""
    set_threads, _, park = control
    set_threads(1)
    if park is not None:
        park()


@contextlib.contextmanager
def serial_blas():
    """Run the body with OpenBLAS on one thread and its worker pool parked;
    ``pooled`` solves inside it get the thread count found on entry, which
    the exit restores. The count and the pool are process-wide: do not
    enter it while another thread is inside BLAS."""
    control = _openblas()
    if control is None:
        yield
        return
    found = control[1]()
    token = _POOL.set(found)
    try:
        _park(control)
        yield
    finally:
        control[0](found)
        _POOL.reset(token)


@contextlib.contextmanager
def pooled(order: int):
    """Context for a dense solve of ``order``: inside ``serial_blas``, one of
    order ``POOL_MIN_ORDER`` or more runs on the count it found on entry,
    and the pool is parked again after it; anything else runs on the count
    as it is."""
    found = _POOL.get()
    if found is None or order < POOL_MIN_ORDER:
        yield
        return
    control = _openblas()
    control[0](found)
    try:
        yield
    finally:
        _park(control)


def axis_factor(s) -> np.ndarray:
    """The Toeplitz factor S[a, b] = s[a - b] over an axis of width w, from
    the pattern factors ``s`` = s_j for j = 1-w..w-1 (index j + w - 1)."""
    width = (s.size + 1) // 2
    axis = np.arange(width)
    return s[axis[:, None] - axis[None, :] + width - 1]


def fill_hamiltonian(left, right, scale):
    """-scale * (left ⊗ right), written into one array without the
    temporaries np.kron makes: each entry is (left[a, b] * right[c, d]) *
    -scale, as np.kron(left, right) * -scale rounds it.

    The plane-wave pattern term is (depth*S, S, v): H[i, j] =
    -v*((depth*s[mi-mj])*s[ni-nj]) over the window's ``axis_factor`` S. A
    T sector's is (S_p, S_q, c) over the corner window's folded factors."""
    shape = (left.shape[0], right.shape[0], left.shape[1], right.shape[1])
    out = np.empty((shape[0] * shape[1], shape[2] * shape[3]))
    np.multiply(left[:, None, :, None], right[None, :, None, :],
                out=out.reshape(shape))
    out *= -scale
    return out


def pattern_overlap(coeffs, factor, depth) -> float:
    """Real part of sum_ij conj(c_i) c_j phi[(mi-mj, ni-nj)], computed as
    depth * Re<C, S C S^T> on the coefficients C reshaped onto the window of
    axis factor S = ``factor``."""
    c = np.asarray(coeffs).reshape(factor.shape)
    return depth * float(np.vdot(c, factor @ c @ factor.T).real)

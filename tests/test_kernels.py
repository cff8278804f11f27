import contextlib
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from phczeeman import (
    derive_params,
    fourier_coefficient,
    pattern_factors,
    reciprocal_basis,
    solve_bands,
    t_centered_basis,
    t_edges,
)
from phczeeman import _kernels, planewave


def _fill_args(lattice, window):
    dp = derive_params(lattice)
    s = pattern_factors(lattice, window.width - 1)
    return (window.m, window.n, s, lattice.dphi * lattice.fill_factor,
            dp.v_prefactor)


@pytest.fixture(scope="module")
def fill_args(bands_lattice):
    return _fill_args(bands_lattice, reciprocal_basis(4, bands_lattice.pitch))


def test_numpy_fill_matches_direct_formula(bands_lattice):
    for window in (reciprocal_basis, t_centered_basis):
        args = _fill_args(bands_lattice, window(4, bands_lattice.pitch))
        m_idx, n_idx, s, depth, v = args
        factor = _kernels.axis_factor(s)
        h = _kernels.fill_hamiltonian(depth * factor, factor, v)
        expected = np.array([
            [-v * fourier_coefficient(bands_lattice, int(mi - mj), int(ni - nj))
             for mj, nj in zip(m_idx, n_idx)]
            for mi, ni in zip(m_idx, n_idx)
        ])
        assert np.array_equal(h, expected), window.__name__


def test_fill_is_scaled_kron():
    # -scale * (left ⊗ right), bit for bit as np.kron rounds it, also for
    # factors of different shapes and strides
    rng = np.random.default_rng(7)
    left, right = rng.standard_normal((3, 4)), rng.standard_normal((5, 2))
    for a, b in ((left, right), (left[::-1, ::-1], right.T)):
        assert np.array_equal(_kernels.fill_hamiltonian(a, b, 0.3),
                              np.kron(a, b) * -0.3)


def test_overlap_matches_quadratic_form(bands_lattice, fill_args):
    m_idx, n_idx, s, depth, _ = fill_args
    rng = np.random.default_rng(22)
    c = rng.normal(size=m_idx.size) + 1j * rng.normal(size=m_idx.size)
    c /= np.linalg.norm(c)
    phi = np.array([
        [fourier_coefficient(bands_lattice, int(mi - mj), int(ni - nj))
         for mj, nj in zip(m_idx, n_idx)]
        for mi, ni in zip(m_idx, n_idx)
    ])
    direct = float(np.real(c.conj() @ phi @ c))
    got = _kernels.pattern_overlap(c, _kernels.axis_factor(s), depth)
    assert got == pytest.approx(direct, rel=1e-12, abs=0)


needs_openblas = pytest.mark.skipif(_kernels.blas_thread_count() is None,
                                    reason="no OpenBLAS thread control found")


@contextlib.contextmanager
def _blas_threads(n):
    """OpenBLAS on ``n`` threads in the body, and the count found on entry
    after it, also on an exception."""
    set_threads, get_threads, _ = _kernels._openblas()
    found = get_threads()
    set_threads(n)
    try:
        yield
    finally:
        set_threads(found)


@needs_openblas
def test_lapack_pools_only_large_solves_inside_serial_blas():
    seen = []

    def solver(h):
        seen.append((h.shape[0], _kernels.blas_thread_count()))
        return np.linalg.eigvalsh(h)

    large = _kernels.POOL_MIN_ORDER
    with _blas_threads(2), _kernels.serial_blas():
        assert _kernels.blas_thread_count() == 1
        for order in (600, 225, large, large - 1):
            planewave._lapack(solver, np.eye(order))
        assert _kernels.blas_thread_count() == 1
        assert seen == [(600, 2), (225, 1), (large, 2), (large - 1, 1)]
    # outside serial_blas the count is left as the caller set it
    seen.clear()
    with _blas_threads(2):
        planewave._lapack(solver, np.eye(225))
        assert seen == [(225, 2)]


@needs_openblas
def test_solve_bands_outside_cli_keeps_callers_thread_count(bands_config,
                                                            monkeypatch):
    seen = set()
    eigvalsh = np.linalg.eigvalsh

    def recording(h):
        seen.add(_kernels.blas_thread_count())
        return eigvalsh(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    cfg = replace(bands_config, basis_halfwidth=3, samples_per_segment=3)
    with _blas_threads(2):
        solve_bands(cfg, t_edges(cfg.lattice, 3))
        assert _kernels.blas_thread_count() == 2
    assert seen == {2}


def test_thread_control_does_nothing_without_openblas(monkeypatch):
    monkeypatch.setattr(_kernels, "_openblas", lambda: None)
    assert _kernels.blas_thread_count() is None
    with _kernels.serial_blas(), _kernels.pooled(10 * _kernels.POOL_MIN_ORDER):
        assert _kernels._POOL.get() is None


def _fake_openblas(monkeypatch, found, park=True):
    """Stand in (set, get, park) functions that record the set and park
    calls, with ``found`` threads to begin with; no park where ``park`` is
    False."""
    calls = []
    count = [found]

    def set_threads(n):
        calls.append(("set", n))
        count[0] = n

    control = (set_threads, lambda: count[0],
               (lambda: calls.append(("park",))) if park else None)
    monkeypatch.setattr(_kernels, "_openblas", lambda: control)
    return calls


def test_serial_blas_parks_after_one_thread_and_restores_last(monkeypatch):
    calls = _fake_openblas(monkeypatch, found=3)
    large = np.eye(_kernels.POOL_MIN_ORDER)
    with _kernels.serial_blas():
        assert calls == [("set", 1), ("park",)]
        calls.clear()
        planewave._lapack(np.diag, large)
        assert calls == [("set", 3), ("set", 1), ("park",)]
        calls.clear()
        planewave._lapack(np.diag, large[1:, 1:])
        assert calls == []
    assert calls == [("set", 3)]


def test_serial_blas_restores_count_when_the_body_raises(monkeypatch):
    calls = _fake_openblas(monkeypatch, found=3)

    def failing(h):
        raise RuntimeError

    with pytest.raises(RuntimeError), _kernels.serial_blas():
        planewave._lapack(failing, np.eye(_kernels.POOL_MIN_ORDER))
    assert calls == [("set", 1), ("park",), ("set", 3), ("set", 1),
                     ("park",), ("set", 3)]


def test_serial_blas_without_park_still_sets_and_restores(monkeypatch):
    calls = _fake_openblas(monkeypatch, found=3, park=False)
    with _kernels.serial_blas():
        planewave._lapack(np.diag, np.eye(_kernels.POOL_MIN_ORDER))
    assert calls == [("set", 1), ("set", 3), ("set", 1), ("set", 3)]


def _os_threads(limit):
    """The process's OS thread count, once it is at most ``limit`` or after
    a second: a joined thread can stay listed for a moment after its join
    returns."""
    deadline = time.monotonic() + 1.0
    while True:
        count = len(os.listdir("/proc/self/task"))
        if count <= limit or time.monotonic() > deadline:
            return count
        time.sleep(0.001)


def _can_park_real_pool():
    control = _kernels._openblas()
    try:
        os.listdir("/proc/self/task")
    except OSError:
        return False
    return control is not None and control[2] is not None


@pytest.mark.skipif(not _can_park_real_pool(),
                    reason="no OpenBLAS park function or no /proc/self/task")
def test_serial_blas_parks_the_real_pool():
    with _blas_threads(2):
        pooled_threads = len(os.listdir("/proc/self/task"))
        with _kernels.serial_blas():
            parked = _os_threads(limit=pooled_threads - 1)
            assert parked < pooled_threads
            h = np.diag(np.arange(600.0)) + 1e-3
            planewave._lapack(np.linalg.eigvalsh, h)
            assert _os_threads(limit=parked) == parked
        assert _kernels.blas_thread_count() == 2
        h = np.diag(np.arange(1.0, 201.0))
        np.testing.assert_allclose(np.linalg.eigvalsh(h), np.arange(1.0, 201.0),
                                   rtol=1e-12)

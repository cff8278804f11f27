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
        h = _kernels.fill_hamiltonian(_kernels.axis_factor(s), depth, v)
        expected = np.array([
            [-v * fourier_coefficient(bands_lattice, int(mi - mj), int(ni - nj))
             for mj, nj in zip(m_idx, n_idx)]
            for mi, ni in zip(m_idx, n_idx)
        ])
        assert np.array_equal(h, expected), window.__name__


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


@needs_openblas
def test_blas_threads_sets_and_restores():
    with _kernels.blas_threads(2):
        with _kernels.blas_threads(1):
            assert _kernels.blas_thread_count() == 1
        assert _kernels.blas_thread_count() == 2
        with pytest.raises(RuntimeError):
            with _kernels.blas_threads(1):
                assert _kernels.blas_thread_count() == 1
                raise RuntimeError
        assert _kernels.blas_thread_count() == 2


@needs_openblas
def test_lapack_pools_only_large_solves_inside_serial_blas():
    seen = []

    def solver(h):
        seen.append((h.shape[0], _kernels.blas_thread_count()))
        return np.linalg.eigvalsh(h)

    large = _kernels.POOL_MIN_ORDER
    with _kernels.blas_threads(2), _kernels.serial_blas():
        assert _kernels.blas_thread_count() == 1
        for order in (600, 225, large, large - 1):
            planewave._lapack(solver, np.eye(order))
        assert _kernels.blas_thread_count() == 1
        assert seen == [(600, 2), (225, 1), (large, 2), (large - 1, 1)]
    # outside serial_blas the count is left as the caller set it
    seen.clear()
    with _kernels.blas_threads(2):
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
    with _kernels.blas_threads(2):
        solve_bands(cfg, t_edges(cfg.lattice, 3))
        assert _kernels.blas_thread_count() == 2
    assert seen == {2}


def test_thread_control_does_nothing_without_openblas(monkeypatch):
    monkeypatch.setattr(_kernels, "_openblas", lambda: None)
    assert _kernels.blas_thread_count() is None
    with _kernels.serial_blas(), _kernels.pooled(10 * _kernels.POOL_MIN_ORDER):
        assert _kernels._POOL.get() is None

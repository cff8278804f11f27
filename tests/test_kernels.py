import numpy as np
import pytest

from phczeeman import (
    ValidationError,
    derive_params,
    fourier_coefficient,
    pattern_factors,
    reciprocal_basis,
    t_centered_basis,
)
from phczeeman import _kernels


def _fill_args(lattice, basis):
    dp = derive_params(lattice)
    m_idx = np.array([rv.m for rv in basis], dtype=np.int64)
    n_idx = np.array([rv.n for rv in basis], dtype=np.int64)
    s = pattern_factors(lattice, int(np.ptp(m_idx)))
    return m_idx, n_idx, s, lattice.dphi * lattice.fill_factor, dp.v_prefactor


@pytest.fixture(scope="module")
def fill_args(bands_lattice):
    return _fill_args(bands_lattice, reciprocal_basis(4, bands_lattice.pitch))


def test_numpy_fill_matches_direct_formula(bands_lattice):
    for window in (reciprocal_basis, t_centered_basis):
        args = _fill_args(bands_lattice, window(4, bands_lattice.pitch))
        m_idx, n_idx, _, _, v = args
        h = _kernels.fill_hamiltonian(*args)
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
    got = _kernels.pattern_overlap(c, m_idx, n_idx, s, depth)
    assert got == pytest.approx(direct, rel=1e-12, abs=0)


def test_non_window_rejected(fill_args):
    m_idx, n_idx, s, depth, v = fill_args
    order = np.random.default_rng(3).permutation(m_idx.size)
    with pytest.raises(ValidationError, match="square window"):
        _kernels.fill_hamiltonian(m_idx[order], n_idx[order], s, depth, v)
    with pytest.raises(ValidationError, match="square window"):
        _kernels.fill_hamiltonian(m_idx[:-1], n_idx[:-1], s, depth, v)
    # factors that do not reach every axis difference
    with pytest.raises(ValidationError, match="square window"):
        _kernels.fill_hamiltonian(m_idx, n_idx, s[1:-1], depth, v)

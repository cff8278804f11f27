import numpy as np
import pytest

from phczeeman import (
    derive_params,
    fourier_coefficient,
    pattern_factors,
    reciprocal_basis,
    t_centered_basis,
)
from phczeeman import _kernels


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


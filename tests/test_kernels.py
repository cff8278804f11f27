import numpy as np
import pytest

from phczeeman import PatternFourier, derive_params, fourier_coefficient, reciprocal_basis
from phczeeman import _kernels
from phczeeman.constants import HBAR


@pytest.fixture(scope="module")
def fill_args(bands_lattice):
    dp = derive_params(bands_lattice)
    basis = reciprocal_basis(4, bands_lattice.pitch)
    pf = PatternFourier.from_lattice(bands_lattice, 8)
    m_idx = np.array([rv.m for rv in basis], dtype=np.int64)
    n_idx = np.array([rv.n for rv in basis], dtype=np.int64)
    gx = np.array([rv.gx for rv in basis])
    gy = np.array([rv.gy for rv in basis])
    kin = HBAR * (gx**2 + gy**2) / (2 * dp.m0)
    return m_idx, n_idx, kin, pf.table, pf.halfwidth, dp.v_prefactor


def test_numpy_fill_matches_direct_formula(bands_lattice, fill_args):
    m_idx, n_idx, kin, table, offset, v = fill_args
    h = _kernels.fill_hamiltonian(*fill_args)
    ns = m_idx.size
    for i in range(0, ns, 17):
        for j in range(0, ns, 13):
            expected = -v * fourier_coefficient(
                bands_lattice, int(m_idx[i] - m_idx[j]),
                int(n_idx[i] - n_idx[j])
            )
            if i == j:
                expected += kin[i]
            assert h[i, j] == pytest.approx(expected, rel=1e-15, abs=1e-3)


def test_overlap_matches_quadratic_form(fill_args):
    m_idx, n_idx, _, table, offset, _ = fill_args
    rng = np.random.default_rng(22)
    c = rng.normal(size=m_idx.size) + 1j * rng.normal(size=m_idx.size)
    c /= np.linalg.norm(c)
    phi = table[m_idx[:, None] - m_idx[None, :] + offset,
                n_idx[:, None] - n_idx[None, :] + offset]
    direct = float(np.real(c.conj() @ phi @ c))
    got = _kernels.pattern_overlap(c, m_idx, n_idx, table, offset)
    assert got == pytest.approx(direct, rel=1e-12)

"""Numeric kernels over the plane-wave basis: Hamiltonian assembly and the
pattern-overlap sum.

Both gather the pattern Fourier table at the index differences of a basis,
phi[(mi - mj, ni - nj)], with numpy fancy indexing. ``BACKEND`` names the
implementation for run reports.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _pattern_matrix(m_idx, n_idx, table, offset) -> np.ndarray:
    """phi[(mi-mj, ni-nj)] for every pair of basis waves."""
    dm = m_idx[:, None] - m_idx[None, :] + offset
    dn = n_idx[:, None] - n_idx[None, :] + offset
    return table[dm, dn]


def fill_hamiltonian(m_idx, n_idx, kin_diag, table, offset, v_prefactor):
    """Assemble H[i,j] = -v*phi[(mi-mj, ni-nj)] + delta_ij*kin_diag[i]."""
    h = -v_prefactor * _pattern_matrix(m_idx, n_idx, table, offset)
    h[np.diag_indices(m_idx.size)] += kin_diag
    return h


def pattern_overlap(coeffs, m_idx, n_idx, table, offset) -> float:
    """Real part of sum_ij conj(c_i) c_j phi[(mi-mj, ni-nj)]."""
    phi = _pattern_matrix(m_idx, n_idx, table, offset)
    re = np.ascontiguousarray(coeffs.real)
    im = np.ascontiguousarray(coeffs.imag)
    return float(re @ phi @ re + im @ phi @ im)

"""Numeric kernels over the plane-wave basis: Hamiltonian assembly and the
pattern-overlap sum.

The pattern of square pixels is rank one: its Fourier coefficient at (m, n)
is depth * s_m * s_n, with depth = dphi*FF and s_j = sinc(pi*j*sqrt(FF)).
On the m-major square window that ``reciprocal_basis`` and
``t_centered_basis`` produce, the matrix phi[(mi - mj, ni - nj)] is therefore
the Kronecker product (depth*S) ⊗ S of the Toeplitz factor S[a, b] = s[a - b]
over the window's axis; both kernels build it so. ``BACKEND`` names the
implementation for run reports.
"""
from __future__ import annotations

import math

import numpy as np

from .core import ValidationError

BACKEND = "numpy"


def _pattern_matrix(m_idx, n_idx, s, depth) -> np.ndarray:
    """phi[(mi-mj, ni-nj)] = ((depth*s[mi-mj])*s[ni-nj]) for every pair of waves.

    ``s`` holds s_j at index j + s.size // 2. The waves must run over
    axis x axis with n fastest, and ``s`` must cover every difference of the
    axis; anything else raises ValidationError.
    """
    width = math.isqrt(m_idx.size)
    axis = np.arange(width) + (m_idx[0] if width else 0)
    if (not np.array_equal(m_idx, np.repeat(axis, width))
            or not np.array_equal(n_idx, np.tile(axis, width))
            or s.size < 2 * width - 1):
        raise ValidationError(
            "the basis waves do not form an m-major square window covered by "
            "the pattern factors"
        )
    factor = s[axis[:, None] - axis[None, :] + s.size // 2]
    # np.kron(depth * factor, factor), written into one array without the
    # temporaries np.kron makes
    phi = np.empty((m_idx.size, m_idx.size))
    np.multiply((depth * factor)[:, None, :, None], factor[None, :, None, :],
                out=phi.reshape(width, width, width, width))
    return phi


def fill_hamiltonian(m_idx, n_idx, s, depth, v_prefactor):
    """Assemble the pattern term H[i,j] = -v*phi[(mi-mj, ni-nj)]."""
    h = _pattern_matrix(m_idx, n_idx, s, depth)
    h *= -v_prefactor
    return h


def pattern_overlap(coeffs, m_idx, n_idx, s, depth) -> float:
    """Real part of sum_ij conj(c_i) c_j phi[(mi-mj, ni-nj)]."""
    phi = _pattern_matrix(m_idx, n_idx, s, depth)
    re = np.ascontiguousarray(coeffs.real)
    im = np.ascontiguousarray(coeffs.imag)
    return float(re @ phi @ re + im @ phi @ im)

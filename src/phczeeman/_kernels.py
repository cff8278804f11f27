"""Numeric kernels over the plane-wave basis: Hamiltonian assembly and the
pattern-overlap sum.

The pattern of square pixels is rank one: its Fourier coefficient at (m, n)
is depth * s_m * s_n, with depth = dphi*FF and s_j = sinc(pi*j*sqrt(FF)).
On the m-major square window that ``reciprocal_basis`` and
``t_centered_basis`` produce, the matrix phi[(mi - mj, ni - nj)] is therefore
the Kronecker product (depth*S) ⊗ S of the Toeplitz factor S[a, b] = s[a - b]
over the window's axis. ``axis_factor`` builds S and checks the window,
``fill_hamiltonian`` writes the product out from S, and ``pattern_overlap``
applies S along both axes of the coefficients reshaped onto the window
instead. ``BACKEND`` names the implementation for run
reports.
"""
from __future__ import annotations

import math

import numpy as np

from .core import ValidationError

BACKEND = "numpy"


def axis_factor(m_idx, n_idx, s) -> np.ndarray:
    """The Toeplitz factor S[a, b] = s[a - b] over the axis of the window.

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
    return s[axis[:, None] - axis[None, :] + s.size // 2]


def fill_hamiltonian(factor, depth, v_prefactor):
    """Assemble the pattern term H[i,j] = -v*phi[(mi-mj, ni-nj)], with
    phi = ((depth*s[mi-mj])*s[ni-nj]) for every pair of waves, from the
    window's ``axis_factor`` S."""
    # np.kron(depth * factor, factor), written into one array without the
    # temporaries np.kron makes
    h = np.empty((factor.size, factor.size))
    np.multiply((depth * factor)[:, None, :, None], factor[None, :, None, :],
                out=h.reshape(factor.shape * 2))
    h *= -v_prefactor
    return h


def pattern_overlap(coeffs, m_idx, n_idx, s, depth) -> float:
    """Real part of sum_ij conj(c_i) c_j phi[(mi-mj, ni-nj)], computed as
    depth * Re<C, S C S^T> on the coefficients C reshaped onto the window."""
    factor = axis_factor(m_idx, n_idx, s)
    c = np.asarray(coeffs).reshape(factor.shape)
    return depth * float(np.vdot(c, factor @ c @ factor.T).real)

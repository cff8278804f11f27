"""Numeric kernels over the plane-wave basis: Hamiltonian assembly and the
pattern-overlap sum.

The pattern of square pixels is rank one: its Fourier coefficient at (m, n)
is depth * s_m * s_n, with depth = dphi*FF and s_j = sinc(pi*j*sqrt(FF)).
On a ``lattice.Window``, m-major and square by construction, the matrix
phi[(mi - mj, ni - nj)] is therefore the Kronecker product (depth*S) ⊗ S of
the Toeplitz factor S[a, b] = s[a - b] over the window's axis.
``axis_factor`` builds S, ``fill_hamiltonian`` writes the product out from
S, and ``pattern_overlap`` applies S along both axes of the coefficients
reshaped onto the window instead. ``BACKEND`` names the implementation for
run reports.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def axis_factor(s) -> np.ndarray:
    """The Toeplitz factor S[a, b] = s[a - b] over an axis of width w, from
    the pattern factors ``s`` = s_j for j = 1-w..w-1 (index j + w - 1)."""
    width = (s.size + 1) // 2
    axis = np.arange(width)
    return s[axis[:, None] - axis[None, :] + width - 1]


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


def pattern_overlap(coeffs, factor, depth) -> float:
    """Real part of sum_ij conj(c_i) c_j phi[(mi-mj, ni-nj)], computed as
    depth * Re<C, S C S^T> on the coefficients C reshaped onto the window of
    axis factor S = ``factor``."""
    c = np.asarray(coeffs).reshape(factor.shape)
    return depth * float(np.vdot(c, factor @ c @ factor.T).real)

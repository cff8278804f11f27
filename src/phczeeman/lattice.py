"""Mirror phase pattern, its Fourier series and the plane-wave windows.

The pattern is a square lattice (period ``pitch`` in x and y) of square
pixels of side ``pitch*sqrt(fill_factor)`` centered on the lattice sites,
carrying phase ``dphi`` against a zero-phase background. Centering the pixel
at the cell origin makes every Fourier coefficient real and keeps the full
square-lattice point symmetry exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LatticeSpec, ValidationError

# Below this argument the direct ratio sin(x)/x loses accuracy to cancellation.
_SINC_SERIES_CUTOFF = 1e-4


def sinc(x):
    """sin(x)/x with sinc(0) = 1; series branch for |x| < 1e-4.

    Accepts scalars or arrays.
    """
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    small = np.abs(arr) < _SINC_SERIES_CUTOFF
    out = np.empty_like(arr)
    xs = arr[small]
    out[small] = 1.0 - xs * xs / 6.0 * (1.0 - xs * xs / 20.0)
    xl = arr[~small]
    out[~small] = np.sin(xl) / xl
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Window:
    """The square window of plane waves G = 2*pi*(m, n)/pitch with m and n
    in [start, start + width), m-major, n fastest.

    ``m``, ``n``, ``gx`` and ``gy`` are arrays over its width**2 waves in
    that order; ``axis`` holds the indices one axis runs over.
    """

    start: int
    width: int
    pitch: float

    def __post_init__(self):
        if self.width < 1:
            raise ValidationError(f"window width must be >= 1, got {self.width}")
        if not (math.isfinite(self.pitch) and self.pitch > 0):
            raise ValidationError(
                f"pitch must be finite and > 0, got {self.pitch}")

    def __len__(self) -> int:
        return self.width * self.width

    @property
    def axis(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.width)

    @property
    def m(self) -> np.ndarray:
        return np.repeat(self.axis, self.width)

    @property
    def n(self) -> np.ndarray:
        return np.tile(self.axis, self.width)

    @property
    def gx(self) -> np.ndarray:
        return 2.0 * math.pi * self.m / self.pitch

    @property
    def gy(self) -> np.ndarray:
        return 2.0 * math.pi * self.n / self.pitch


def reciprocal_basis(halfwidth: int, pitch: float) -> Window:
    """The symmetric window |m|, |n| <= halfwidth, of (2*halfwidth + 1)**2
    waves."""
    if halfwidth < 1:
        raise ValidationError(f"halfwidth must be >= 1, got {halfwidth}")
    return Window(-halfwidth, 2 * halfwidth + 1, pitch)


def t_centered_basis(halfwidth: int, pitch: float) -> Window:
    """The corner window m, n in [-halfwidth-1, halfwidth].

    At the Brillouin-zone corner T = (pi/pitch, pi/pitch) the folded waves are
    exp(i*pi*((2m+1)x + (2n+1)y)/pitch); this window keeps |2m+1| <= 2h+1 and
    is therefore invariant under the full C4v point group of T, unlike the
    symmetric window of :func:`reciprocal_basis` which breaks the x -> -x
    mirror at finite size and splits the degenerate pair by a truncation
    artifact. Use it for T-point degeneracy and band-edge analysis.
    """
    if halfwidth < 1:
        raise ValidationError(f"halfwidth must be >= 1, got {halfwidth}")
    return Window(-halfwidth - 1, 2 * halfwidth + 2, pitch)


def phase_pattern(lattice: LatticeSpec, x, y):
    """Pattern phase at (x, y): dphi inside the centered pixel, else 0.

    Coordinates are wrapped into the unit cell; accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pitch = lattice.pitch
    xw = x - pitch * np.round(x / pitch)
    yw = y - pitch * np.round(y / pitch)
    half_side = 0.5 * pitch * math.sqrt(lattice.fill_factor)
    inside = (np.abs(xw) < half_side) & (np.abs(yw) < half_side)
    out = np.where(inside, lattice.dphi, 0.0)
    return out if out.ndim else float(out)


def fourier_coefficient(lattice: LatticeSpec, m: int, n: int) -> float:
    """Fourier coefficient of the pattern at reciprocal index (m, n).

    For the centered square pixel this is
    dphi * FF * sinc(pi*m*sqrt(FF)) * sinc(pi*n*sqrt(FF)), real and even in
    each index.
    """
    root_ff = math.sqrt(lattice.fill_factor)
    return (
        lattice.dphi * lattice.fill_factor
        * sinc(math.pi * m * root_ff) * sinc(math.pi * n * root_ff)
    )


def pattern_factors(lattice: LatticeSpec, halfwidth: int) -> np.ndarray:
    """s_j = sinc(pi*j*sqrt(FF)) for j = -halfwidth..halfwidth (index j + halfwidth).

    The pattern is rank one: its coefficient at (m, n) is
    ((dphi*FF) * s_m) * s_n, the evaluation order of fourier_coefficient.
    """
    idx = np.arange(-halfwidth, halfwidth + 1)
    return sinc(np.pi * idx * math.sqrt(lattice.fill_factor))

"""Closed-form rotation-splitting quantities for the square-pixel lattice.

Everything here is a pure stateless function: the orbital parameters
m_plus/m_minus of the corner bands, the spin and orbital splittings per unit
rotation rate, the transverse wave-function spread, the consistency ratio
between the two printed forms of the orbital splitting, and the effective
refractive index of a paraxial wave in the rotating frame.

Apart from ``effective_index`` every function works elementwise: a number
may be an array, and a lattice (with its derived parameters) may carry an
array in a field, as the columns of a sweep do. An array gives the same
bits as a loop over its values, with one exception: a float P is squared by
``pow`` (the k.p model's values depend on its rounding), an array of P (a
pitch sweep) by multiplication; the two can differ in the last place, and
the quantities derived from P^2 by a few units in the last place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR
from .core import DerivedParams, LatticeSpec, ValidationError, derive_params
from .lattice import sinc


@dataclass(frozen=True)
class ZeemanResult:
    """Sweep-ready bundle of closed-form quantities for one lattice, or of
    arrays for a sweep.

    ``delta_omega_S_per_Omega`` = 2/n^2 and ``delta_omega_L_per_Omega`` =
    2*m_total/n^2 by construction; ``spread_rms`` is the rms transverse
    extent of the corner-manifold wave functions and exceeds the pitch
    whenever m_total > 10 (delocalization regime); ``consistency_ratio`` is
    that of ``consistency_ratio``.
    """

    m_plus: float
    m_minus: float
    m_total: float
    delta_omega_S_per_Omega: float
    delta_omega_L_per_Omega: float
    spread_rms: float
    consistency_ratio: float


def pattern_sinc(fill_factor):
    """s = sinc(pi*sqrt(FF)), the single-step Fourier ratio of the pattern."""
    return sinc(math.pi * np.sqrt(fill_factor))


def _first_failure(ok, *values):
    """The elements of ``values`` where ``ok`` is first false."""
    ok, *values = np.broadcast_arrays(ok, *values)
    first = np.argmin(ok)
    return [value.flat[first] for value in values]


def m_closed_form(lattice: LatticeSpec, dp: DerivedParams):
    """Orbital parameters (m_plus, m_minus) of the square-pixel lattice.

    m_pm = 2*n*l_z*P^2 / (hbar*m0*c*FF*dphi) / (s*(1 +- s)) with
    s = sinc(pi*sqrt(FF)); the sign follows the sign of dphi. Singular at
    dphi = 0 (empty lattice, where the corner model itself is undefined);
    ValidationError also where a division by zero, an overflow or an
    underflow to zero in floating point leaves them unusable. Over a sweep
    the error names the first such value.
    """
    if np.any(lattice.dphi == 0.0):
        raise ValidationError(
            "closed-form orbital parameters are singular at dphi = 0"
        )
    s = pattern_sinc(lattice.fill_factor)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            prefactor = (
                2.0 * lattice.n_refr * dp.l_z * dp.p_interband ** 2
                / (HBAR * dp.m0 * C * lattice.fill_factor * lattice.dphi)
            )
            m_plus = prefactor / (s * (1.0 + s))
            m_minus = prefactor / (s * (1.0 - s))
            # the spread squares them and the consistency ratio divides by
            # their sum
            in_range = (m_plus != 0.0) & np.isfinite(m_plus * m_plus
                                                     + m_minus * m_minus)
        except ArithmeticError:  # floats: division by zero or overflow in ** 2
            in_range = False
    if not np.all(in_range):
        dphi, fill_factor, pitch = _first_failure(
            in_range, lattice.dphi, lattice.fill_factor, lattice.pitch)
        raise ValidationError(
            "closed-form orbital parameters are singular or leave the float "
            f"range at dphi = {dphi}, fill_factor = {fill_factor}, "
            f"pitch = {pitch}"
        )
    return m_plus, m_minus


def splittings(m_plus, m_minus, n_refr, omega_rot):
    """(spin, orbital) splittings at rotation rate omega_rot.

    Spin: 2*Omega/n^2 for the doubly degenerate corner states; orbital:
    2*(m_plus + m_minus)*Omega/n^2 within the fourfold manifold. Both exactly
    linear and sign-odd in Omega. An overflow gives inf, as it does for
    floats.
    """
    with np.errstate(over="ignore"):
        x = omega_rot / n_refr ** 2
        return 2.0 * x, 2.0 * (m_plus + m_minus) * x


def spread_rms(m_plus, m_minus, p_interband):
    """Root-mean-square transverse spread of the fourfold-manifold states.

    sqrt(<r_perp^2>) = hbar*sqrt((m_plus^2 + m_minus^2)/2)/P.
    """
    positive = np.greater(p_interband, 0)
    if not np.all(positive):
        bad, = _first_failure(positive, p_interband)
        raise ValidationError(f"p_interband must be > 0, got {bad}")
    with np.errstate(over="ignore"):
        return (HBAR * np.sqrt((m_plus * m_plus + m_minus * m_minus) / 2.0)
                / p_interband)


def consistency_ratio(lattice: LatticeSpec, m_plus, m_minus):
    """Ratio of the spread-based orbital splitting to the direct 2M/n^2 form.

    R1 = 2*(m_plus + m_minus)/n^2; R2 = 2*pi*sqrt(2*<r^2>)/(n^2*pitch) /
    (1 + s^2), n the lattice's refractive index. The two printed forms of
    the same quantity disagree by exactly 1/sqrt(1 + s^2) when
    m_plus/m_minus take their closed-form values (about 2.5% at FF = 0.65);
    this diagnostic reports the ratio rather than hiding the discrepancy.
    Independent of dphi and of the rotation rate.
    """
    spread = spread_rms(m_plus, m_minus, derive_params(lattice).p_interband)
    return _consistency_ratio(lattice, m_plus, m_minus, spread)


def _consistency_ratio(lattice: LatticeSpec, m_plus, m_minus, spread):
    """``consistency_ratio`` from the ``spread_rms`` the caller has."""
    n_refr = lattice.n_refr
    s = pattern_sinc(lattice.fill_factor)
    r1 = 2.0 * (m_plus + m_minus) / n_refr ** 2
    r2 = (
        2.0 * math.pi * np.sqrt(2.0 * (spread * spread))
        / (n_refr ** 2 * lattice.pitch) / (1.0 + s * s)
    )
    return r2 / r1


def effective_index(n_refr: float, omega_rot, r, tau, omega0: float,
                    handedness: int) -> float:
    """Effective refractive index of a circular paraxial wave when rotating.

    n_eff = n + ((Omega x r)/c).tau + handedness*(Omega.tau)/(omega0*n);
    the middle term is the path nonreciprocity (odd in tau), the last the
    circular birefringence (handedness +1 = left, -1 = right).
    """
    if handedness not in (1, -1):
        raise ValidationError(f"handedness must be +1 or -1, got {handedness}")
    omega_rot = np.asarray(omega_rot, dtype=float)
    r = np.asarray(r, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if abs(np.linalg.norm(tau) - 1.0) > 1e-9:
        raise ValidationError("tau must be a unit 3-vector")
    sagnac = float(np.dot(np.cross(omega_rot, r) / C, tau))
    circular = handedness * float(np.dot(omega_rot, tau)) / (omega0 * n_refr)
    return n_refr + sagnac + circular


def zeeman_result(lattice: LatticeSpec) -> ZeemanResult:
    """Assemble the closed-form quantities for one lattice (a sweep row), or
    for the lattices of a sweep at once when ``lattice`` holds columns."""
    dp = derive_params(lattice)
    m_plus, m_minus = m_closed_form(lattice, dp)
    dws, dwl = splittings(m_plus, m_minus, lattice.n_refr, 1.0)
    spread = spread_rms(m_plus, m_minus, dp.p_interband)
    return ZeemanResult(
        m_plus=m_plus,
        m_minus=m_minus,
        m_total=m_plus + m_minus,
        delta_omega_S_per_Omega=dws,
        delta_omega_L_per_Omega=dwl,
        spread_rms=spread,
        consistency_ratio=_consistency_ratio(lattice, m_plus, m_minus, spread),
    )

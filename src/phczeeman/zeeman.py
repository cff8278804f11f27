"""Closed-form rotation-splitting quantities for the square-pixel lattice.

Everything here is a pure stateless function: the orbital parameters
m_plus/m_minus of the corner bands, the spin and orbital splittings per unit
rotation rate, the transverse wave-function spread, the consistency ratio
between the two printed forms of the orbital splitting, and the effective
refractive index of a paraxial wave in the rotating frame.
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
    """Sweep-ready bundle of closed-form quantities for one lattice.

    ``delta_omega_S_per_Omega`` = 2/n^2 and ``delta_omega_L_per_Omega`` =
    2*m_total/n^2 by construction; ``spread_rms`` is the rms transverse
    extent of the corner-manifold wave functions and exceeds the pitch
    whenever m_total > 10 (delocalization regime).
    """

    m_plus: float
    m_minus: float
    m_total: float
    delta_omega_S_per_Omega: float
    delta_omega_L_per_Omega: float
    spread_rms: float
    sinc_s: float


def pattern_sinc(fill_factor: float) -> float:
    """s = sinc(pi*sqrt(FF)), the single-step Fourier ratio of the pattern."""
    return sinc(math.pi * math.sqrt(fill_factor))


def m_closed_form(lattice: LatticeSpec, dp: DerivedParams) -> tuple[float, float]:
    """Orbital parameters (m_plus, m_minus) of the square-pixel lattice.

    m_pm = 2*n*l_z*P^2 / (hbar*m0*c*FF*dphi) / (s*(1 +- s)) with
    s = sinc(pi*sqrt(FF)); the sign follows the sign of dphi. Singular at
    dphi = 0 (empty lattice, where the corner model itself is undefined);
    ValidationError also where a division by zero, an overflow or an
    underflow to zero in floating point leaves them unusable.
    """
    if lattice.dphi == 0.0:
        raise ValidationError(
            "closed-form orbital parameters are singular at dphi = 0"
        )
    s = pattern_sinc(lattice.fill_factor)
    try:
        prefactor = (
            2.0 * lattice.n_refr * dp.l_z * dp.p_interband ** 2
            / (HBAR * dp.m0 * C * lattice.fill_factor * lattice.dphi)
        )
        m_plus = prefactor / (s * (1.0 + s))
        m_minus = prefactor / (s * (1.0 - s))
        # the spread squares them and the consistency ratio divides by their sum
        in_range = m_plus != 0.0 and math.isfinite(m_plus * m_plus
                                                   + m_minus * m_minus)
    except ArithmeticError:  # division by zero or overflow in ** 2
        in_range = False
    if not in_range:
        raise ValidationError(
            "closed-form orbital parameters are singular or leave the float "
            f"range at dphi = {lattice.dphi}, fill_factor = "
            f"{lattice.fill_factor}, pitch = {lattice.pitch}"
        )
    return m_plus, m_minus


def splittings(m_plus: float, m_minus: float, n_refr: float,
               omega_rot: float) -> tuple[float, float]:
    """(spin, orbital) splittings at rotation rate omega_rot.

    Spin: 2*Omega/n^2 for the doubly degenerate corner states; orbital:
    2*(m_plus + m_minus)*Omega/n^2 within the fourfold manifold. Both exactly
    linear and sign-odd in Omega.
    """
    x = omega_rot / n_refr ** 2
    return 2.0 * x, 2.0 * (m_plus + m_minus) * x


def spread_rms(m_plus: float, m_minus: float, p_interband: float) -> float:
    """Root-mean-square transverse spread of the fourfold-manifold states.

    sqrt(<r_perp^2>) = hbar*sqrt((m_plus^2 + m_minus^2)/2)/P.
    """
    if not p_interband > 0:
        raise ValidationError(f"p_interband must be > 0, got {p_interband}")
    return HBAR * math.sqrt((m_plus ** 2 + m_minus ** 2) / 2.0) / p_interband


def consistency_ratio(lattice: LatticeSpec, m_plus: float, m_minus: float,
                      n_refr: float) -> float:
    """Ratio of the spread-based orbital splitting to the direct 2M/n^2 form.

    R1 = 2*(m_plus + m_minus)/n^2; R2 = 2*pi*sqrt(2*<r^2>)/(n^2*pitch) /
    (1 + s^2). The two printed forms of the same quantity disagree by
    exactly 1/sqrt(1 + s^2) when m_plus/m_minus take their closed-form
    values (about 2.5% at FF = 0.65); this diagnostic reports the ratio
    rather than hiding the discrepancy. Independent of dphi and of the
    rotation rate.
    """
    dp = derive_params(lattice)
    s = pattern_sinc(lattice.fill_factor)
    r1 = 2.0 * (m_plus + m_minus) / n_refr ** 2
    r_sq = spread_rms(m_plus, m_minus, dp.p_interband) ** 2
    r2 = (
        2.0 * math.pi * math.sqrt(2.0 * r_sq)
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
    """Assemble the closed-form quantities for one lattice (sweep row)."""
    dp = derive_params(lattice)
    m_plus, m_minus = m_closed_form(lattice, dp)
    dws, dwl = splittings(m_plus, m_minus, lattice.n_refr, 1.0)
    return ZeemanResult(
        m_plus=m_plus,
        m_minus=m_minus,
        m_total=m_plus + m_minus,
        delta_omega_S_per_Omega=dws,
        delta_omega_L_per_Omega=dwl,
        spread_rms=spread_rms(m_plus, m_minus, dp.p_interband),
        sinc_s=pattern_sinc(lattice.fill_factor),
    )

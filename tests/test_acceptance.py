"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Tolerances are fixed here, not calibrated elsewhere."""
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from phczeeman import (
    ExperimentConfig,
    RotationSpec,
    derive_params,
    effective_index,
    fourier_coefficient,
    fsum_fd_masses,
    fsum_target_masses,
    kp_bands,
    kp_from_opw,
    longitudinal_profile,
    m_closed_form,
    named_kpoint,
    opw_mass_at_t,
    pattern_sinc,
    perturbative_edges,
    reciprocal_basis,
    solve_path,
    t_point_analysis,
    zeeman_splittings_at_T,
)
from phczeeman.cli import main
from phczeeman.planewave import LABEL_S, LABEL_XY, _problem
from oracles import (
    dense_eigh,
    mp_closed_form_total,
    quadrature_fourier_coefficient,
)


def _report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_kp_opw_agreement(bands_config, bands_t_analysis):
    """Eight-band k.p spectrum tracks the plane-wave bands near the corner."""
    start = time.perf_counter()
    lattice = bands_config.lattice
    model = kp_from_opw(bands_t_analysis.edges, lattice)
    span = bands_t_analysis.edges[2] - bands_t_analysis.edges[0]
    t_pt = named_kpoint("T", lattice.pitch)
    basis = reciprocal_basis(bands_config.basis_halfwidth, lattice.pitch)
    problem = _problem(lattice, basis)
    window = 0.25 * math.pi / lattice.pitch
    worst = 0.0
    for frac in np.linspace(0.0, 1.0, 11):
        for direction in ((-1.0, 0.0),
                          (-1.0 / math.sqrt(2), -1.0 / math.sqrt(2))):
            kx = t_pt[0] + frac * window * direction[0]
            ky = t_pt[1] + frac * window * direction[1]
            w_opw, _ = dense_eigh(problem, kx, ky, 8)
            k_rel = np.array([[kx - t_pt[0], ky - t_pt[1]]])
            kp8 = kp_bands(model, k_rel, RotationSpec(0.0)).omegas[0]
            for w in kp8:
                worst = max(worst, float(np.min(np.abs(w_opw - w))) / span)
    elapsed = time.perf_counter() - start
    _report(1, worst <= 0.05 and elapsed <= 10.0,
            f"worst k.p-vs-plane-wave deviation {worst:.4%} of the "
            f"eight-band span (bound 5%), runtime {elapsed:.1f}s (bound 10s)")


def test_criterion_02_t_degeneracy_structure(bands_lattice):
    """Scalar multiplicities {1,2,1} at T, 1 rad/s coherent, gaps >= 1e6."""
    ok = True
    details = []
    for dphi in (1e-4, 0.02):
        cfg = ExperimentConfig(lattice=replace(bands_lattice, dphi=dphi))
        analysis = t_point_analysis(cfg.lattice, cfg.basis_halfwidth)
        w = analysis.omegas[:4]
        spreads = (0.0, w[2] - w[1], 0.0)
        gaps = (w[1] - w[0], w[3] - w[2])
        sizes_ok = (w[2] - w[1] <= 1.0 and w[1] - w[0] > 1.0
                    and w[3] - w[2] > 1.0)
        gaps_ok = all(g >= 1e6 for g in gaps)
        ok = ok and sizes_ok and gaps_ok
        details.append(
            f"dphi={dphi:g}: pair spread {spreads[1]:.3g} rad/s, "
            f"gaps {gaps[0]:.3g}/{gaps[1]:.3g} rad/s"
        )
    _report(2, ok, "multiplicities {1,2,1} with <=1 rad/s coherence and "
            ">=1e6 rad/s gaps; " + "; ".join(details))


def test_criterion_03_spin_splitting_exact(weak_lattice):
    """Spin splitting from diagonalization equals 2/n^2 to 1e-12 relative."""
    model = kp_from_opw(perturbative_edges(weak_lattice), weak_lattice)
    expected = 2.0 / weak_lattice.n_refr ** 2
    worst = 0.0
    for omega_rot in (1.0, 1e3, 1e6):
        dws, _ = zeeman_splittings_at_T(model, omega_rot)
        worst = max(worst, abs(dws / omega_rot - expected) / expected)
    printed_value_ok = abs(expected - 0.160503) < 2e-6
    _report(3, worst <= 1e-12 and printed_value_ok,
            f"dwS/Omega = {expected:.9f} (2/n^2, n=3.53), worst relative "
            f"deviation {worst:.3g} over Omega in {{1, 1e3, 1e6}} rad/s "
            "(bound 1e-12)")


def test_criterion_04_orbital_enhancement(weak_lattice):
    """Closed-form M ~ 1.04e3 (+-2%) against arbitrary-precision oracle."""
    dp = derive_params(weak_lattice)
    m_plus, m_minus = m_closed_form(weak_lattice, dp)
    m_total = m_plus + m_minus
    _, _, oracle = mp_closed_form_total(weak_lattice, dps=50)
    oracle_ok = abs(m_total - oracle) / oracle <= 1e-10
    value_ok = abs(m_total - 1.04e3) <= 0.02 * 1.04e3
    exceeds = m_total > 1e3
    _report(4, oracle_ok and value_ok and exceeds,
            f"M = {m_total:.4f}: vs 50-digit oracle rel "
            f"{abs(m_total - oracle) / oracle:.2g} (bound 1e-10), within 2% "
            "of 1.04e3, exceeds 1e3")


def test_criterion_05_fsum_round_trip(weak_lattice):
    """k.p branch masses reproduce the f-sum images of m_plus/m_minus."""
    model = kp_from_opw(perturbative_edges(weak_lattice), weak_lattice)
    fd = fsum_fd_masses(model)
    target = fsum_target_masses(model)
    rel = max(abs(fd[0] - target[0]) / abs(target[0]),
              abs(fd[1] - target[1]) / abs(target[1]))
    _report(5, rel <= 1e-6,
            "k.p sum vs f-sum masses: worst relative deviation "
            f"{rel:.3g} (bound 1e-6)")


def test_criterion_06_closed_form_vs_opw_masses(weak_t_analysis,
                                                weak_lattice):
    """Plane-wave masses at T give m_plus/m_minus within 25% of closed form."""
    dp = derive_params(weak_lattice)
    m_plus_cf, m_minus_cf = m_closed_form(weak_lattice, dp)
    m_t5 = opw_mass_at_t(weak_t_analysis, LABEL_S)
    m_t5p = opw_mass_at_t(weak_t_analysis, LABEL_XY)
    m_plus_fd = -0.5 * (dp.m0 / m_t5 - 1.0)
    m_minus_fd = 0.5 * (dp.m0 / m_t5p - 1.0)
    dev_p = abs(m_plus_fd - m_plus_cf) / m_plus_cf
    dev_m = abs(m_minus_fd - m_minus_cf) / m_minus_cf
    _report(6, max(dev_p, dev_m) <= 0.25,
            f"actual deviations: m_plus {dev_p:.2%}, m_minus {dev_m:.2%} "
            "(bound 25%)")


def test_criterion_07_fourier_oracle(bands_lattice):
    """Analytic pattern coefficients match quadrature to 1e-10 absolute."""
    worst = 0.0
    for m in range(-5, 6):
        for n in range(-5, 6):
            quad = quadrature_fourier_coefficient(bands_lattice, m, n)
            worst = max(worst, abs(fourier_coefficient(bands_lattice, m, n)
                                   - quad.real), abs(quad.imag))
    _report(7, worst <= 1e-10,
            f"max |analytic - quadrature| = {worst:.3g} over |m|,|n| <= 5 "
            "(bound 1e-10)")


def test_criterion_08_longitudinal_factor(bands_config):
    """|1 + eta| = 1 to 1e-12 and alpha strictly inside (dphi*FF, dphi)."""
    cfg = bands_config
    basis = reciprocal_basis(cfg.basis_halfwidth, cfg.lattice.pitch)
    _, vectors = solve_path(cfg.lattice, basis, [(0.0, 0.0)], keep={0})
    profile = longitudinal_profile(vectors[0][:, 0], basis, cfg.lattice,
                                   samples=1024)
    dev = float(np.max(np.abs(np.abs(1.0 + profile.eta_samples) - 1.0)))
    lo = cfg.lattice.dphi * cfg.lattice.fill_factor
    hi = cfg.lattice.dphi
    inside = lo < profile.alpha < hi
    _report(8, dev <= 1e-12 and inside,
            f"max ||1+eta|-1| = {dev:.3g} (bound 1e-12); alpha = "
            f"{profile.alpha:.6g} strictly inside ({lo:.6g}, {hi:.6g})")


def test_criterion_09_splitting_linearity(tmp_path, weak_lattice):
    """Splitting table linear in Omega to 1e-10 of the two-point slope."""
    cfg_path = tmp_path / "weak.json"
    cfg_path.write_text(json.dumps(
        {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65,
         "dphi": 1e-4}
    ))
    out = tmp_path / "split.csv"
    omegas = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
    rc = main(["split", str(cfg_path), "-o", str(out),
               "--omega-list", ",".join(repr(o) for o in omegas)])
    assert rc == 0
    lines = out.read_text().splitlines()[1:]
    rows = [[float(tok) for tok in line.split(",")] for line in lines]
    worst = 0.0
    for col in (1, 2):  # k.p spin and orbital splittings
        slope = (rows[-1][col] - rows[0][col]) / (rows[-1][0] - rows[0][0])
        for row in rows:
            predicted = slope * row[0]
            worst = max(worst, abs(row[col] - predicted) / abs(row[col]))
    _report(9, worst <= 1e-10,
            f"two-point-slope residual over Omega in [1, 1e6] rad/s: "
            f"{worst:.3g} (bound 1e-10)")


def test_criterion_10_consistency_ratio(weak_lattice):
    """Spread-based vs direct orbital splitting: ratio = 1/sqrt(1+s^2)."""
    from phczeeman import consistency_ratio
    dp = derive_params(weak_lattice)
    m_plus, m_minus = m_closed_form(weak_lattice, dp)
    ratio = consistency_ratio(weak_lattice, m_plus, m_minus)
    s = pattern_sinc(weak_lattice.fill_factor)
    expected = 1.0 / math.sqrt(1.0 + s * s)
    dev = abs(ratio - expected)
    _report(10, dev <= 1e-10,
            f"R2/R1 = {ratio:.10f} vs algebraic {expected:.10f} "
            f"(|diff| = {dev:.3g}, bound 1e-10; the ~2.5% gap between the "
            "two printed forms at FF=0.65 is a documented discrepancy)")


def test_criterion_11_effective_index(bands_lattice):
    """Rotating-frame effective index: identity at rest, circular term."""
    dp = derive_params(bands_lattice)
    n = bands_lattice.n_refr
    at_rest = effective_index(n, [0, 0, 0], [0, 0, 0], [0, 0, 1],
                              dp.omega0, +1)
    rest_ok = at_rest == n
    shift = effective_index(n, [0, 0, 1e3], [0, 0, 0], [0, 0, 1],
                            dp.omega0, +1) - n
    circ_ok = abs(shift - 1.44e-13) <= 1e-15
    _report(11, rest_ok and circ_ok,
            f"n_eff(Omega=0) == n exactly: {rest_ok}; circular term at "
            f"Omega=1e3, tau=z: {shift:.6g} (target 1.44e-13 +- 1e-15)")

"""Command-line front end: band runs, splitting tables, sweeps, validation.

Exit codes: 0 success, 1 computation/check failure, 2 usage/config error.
Output files are UTF-8 CSV with '\\n' line endings and shortest-round-trip
float formatting, so identical configs and flags produce byte-identical
files.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import kp as kpmod
from . import planewave as pw
from . import zeeman as zm
from .core import (
    MAX_FOURIER_HALFWIDTH,
    MAX_SAMPLES_PER_SEGMENT,
    ComputationError,
    ConfigError,
    ExperimentConfig,
    RotationSpec,
    ValidationError,
    derive_params,
    eigh,
    load_config,
)
from .lattice import (
    PatternFourier,
    fourier_coefficient,
    phase_pattern,
    reciprocal_basis,
)

BAND_HEADER = "k_index,path_pos,kx,ky,band,degeneracy,omega_rad_s,detuning_GHz,rep_label"
KP_BAND_HEADER = BAND_HEADER + ",block"
DIFF_HEADER = "k_index,path_pos,kx,ky,band,omega_kp_rad_s,omega_opw_rad_s,diff_rad_s"
SPLIT_HEADER = ("omega_rot_rad_s,dws_kp_rad_s,dwl_kp_rad_s,"
                "dws_formula_rad_s,dwl_formula_rad_s,dws_rel_diff,dwl_rel_diff")
SWEEP_HEADER = ("dphi,pitch_um,M_plus,M_minus,M,dwL_over_Omega,dwS_over_Omega,"
                "spread_rms_mm,consistency_ratio")


def _fmt(x) -> str:
    """Shortest-round-trip float formatting; NaN and inf never reach a file."""
    x = float(x)
    if not math.isfinite(x):
        raise ComputationError(f"non-finite value {x} in the output")
    return repr(x)


def _write_csv(path: str, header: str, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _read_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return load_config(text)


def _derived_paths(base: str, tags) -> dict[str, str]:
    stem, dot, ext = base.rpartition(".")
    if not dot:
        stem, ext = base, "csv"
    return {tag: f"{stem}_{tag}.{ext}" for tag in tags}


# --------------------------------------------------------------------------
# bands

def _band_rows(bs: pw.BandStructure):
    omega0 = derive_params(bs.config.lattice).omega0
    for kp_pt, row in zip(bs.kpoints, bs.states):
        for st in row:
            detuning_ghz = (st.omega - omega0) / (2.0 * math.pi * 1e9)
            yield (
                str(kp_pt.index), _fmt(kp_pt.path_pos), _fmt(kp_pt.kx),
                _fmt(kp_pt.ky), str(st.band_index), str(st.degeneracy),
                _fmt(st.omega), _fmt(detuning_ghz), st.rep_label or "",
            )


def _kp_spectrum_on_path(config: ExperimentConfig, kpts) -> kpmod.KpSpectrum:
    analysis = pw.t_point_analysis(config)
    model = kpmod.kp_from_opw(analysis.edges, config.lattice,
                              source="closed_form")
    t_pt = pw.named_kpoint("T", config.lattice.pitch)
    k_rel = np.array([[p.kx - t_pt[0], p.ky - t_pt[1]] for p in kpts])
    return kpmod.kp_bands(model, k_rel, config.rotation)


def _kp_rows(config: ExperimentConfig, kpts, spectrum: kpmod.KpSpectrum):
    omega0 = derive_params(config.lattice).omega0
    for i, kp_pt in enumerate(kpts):
        note = "" if spectrum.within_window[i] else "extrapolation"
        for b in range(8):
            w = spectrum.omegas[i, b]
            yield (
                str(kp_pt.index), _fmt(kp_pt.path_pos), _fmt(kp_pt.kx),
                _fmt(kp_pt.ky), str(b), "1", _fmt(w),
                _fmt((w - omega0) / (2.0 * math.pi * 1e9)), note,
                str(spectrum.blocks[i, b]),
            )


def _diff_rows(bs: pw.BandStructure, spectrum: kpmod.KpSpectrum):
    opw = bs.omegas()
    for i, kp_pt in enumerate(bs.kpoints):
        for b in range(8):
            w = spectrum.omegas[i, b]
            nearest = float(opw[i, np.argmin(np.abs(opw[i] - w))])
            yield (
                str(kp_pt.index), _fmt(kp_pt.path_pos), _fmt(kp_pt.kx),
                _fmt(kp_pt.ky), str(b), _fmt(w), _fmt(nearest),
                _fmt(w - nearest),
            )


_PLOT_TEMPLATE = """# gnuplot script generated by phczeeman
set datafile separator ','
set key off
set xlabel '{xlabel}'
set ylabel '{ylabel}'
plot {plots}
"""


def _emit_plotscript(csv_path: str, kind: str) -> str:
    gp_path = csv_path.rsplit(".", 1)[0] + ".gp"
    if kind == "bands":
        body = _PLOT_TEMPLATE.format(
            xlabel="path position (rad/m)", ylabel="detuning (GHz)",
            plots=f"'{csv_path}' every ::1 using 2:8 with points pt 7 ps 0.3",
        )
    elif kind == "split":
        body = _PLOT_TEMPLATE.format(
            xlabel="rotation rate (rad/s)", ylabel="splitting (rad/s)",
            plots=(f"'{csv_path}' every ::1 using 1:2 with linespoints, "
                   f"'{csv_path}' every ::1 using 1:3 with linespoints"),
        )
    else:
        body = _PLOT_TEMPLATE.format(
            xlabel="swept parameter", ylabel="relative splitting",
            plots=(f"'{csv_path}' every ::1 using 1:6 with linespoints, "
                   f"'{csv_path}' every ::1 using 1:7 with linespoints"),
        )
    try:
        with open(gp_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
    except OSError as exc:
        raise ConfigError(f"cannot write plot script {gp_path}: {exc}") from exc
    return gp_path


def cmd_bands(args) -> int:
    config = _read_config(args.config)
    if args.kpath:
        tokens = tuple(t.strip() for t in args.kpath.split(":") if t.strip())
        config = replace(config, kpath=tokens)
    if args.samples is not None:
        config = replace(config, samples_per_segment=args.samples)

    need_opw = args.model in ("opw", "both")
    need_kp = args.model in ("kp", "both")
    kpts = pw.build_kpath(config.kpath, config.lattice.pitch,
                          config.samples_per_segment)

    bs = None
    if need_opw:
        bs = pw.solve_bands(config)
    spectrum = None
    if need_kp:
        spectrum = _kp_spectrum_on_path(config, kpts)

    if args.model == "both":
        paths = _derived_paths(args.output, ("opw", "kp", "diff"))
        _write_csv(paths["opw"], BAND_HEADER, _band_rows(bs))
        _write_csv(paths["kp"], KP_BAND_HEADER, _kp_rows(config, kpts, spectrum))
        _write_csv(paths["diff"], DIFF_HEADER, _diff_rows(bs, spectrum))
        written = [paths["opw"], paths["kp"], paths["diff"]]
    elif args.model == "opw":
        _write_csv(args.output, BAND_HEADER, _band_rows(bs))
        written = [args.output]
    else:
        _write_csv(args.output, KP_BAND_HEADER, _kp_rows(config, kpts, spectrum))
        written = [args.output]

    if args.emit_plotscript:
        written.append(_emit_plotscript(written[0], "bands"))
    for path in written:
        print(path)
    return 0


# --------------------------------------------------------------------------
# split

def cmd_split(args) -> int:
    config = _read_config(args.config)
    try:
        omega_list = [float(tok) for tok in args.omega_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --omega-list: {exc}") from exc
    if not omega_list:
        raise ConfigError("--omega-list must contain at least one value")
    rotations = [RotationSpec(w) for w in omega_list]  # rejects NaN/inf up front

    analysis = pw.t_point_analysis(config)
    model = kpmod.kp_from_opw(analysis.edges, config.lattice,
                              source="closed_form")
    if config.lattice.dphi < 0:
        warnings.warn(
            "dphi < 0 is outside the demonstrated parameter regime; "
            "orbital parameters are negative", UserWarning,
        )

    rows = []
    for rot in rotations:
        omega_rot = rot.omega_z
        dws_kp, dwl_kp = kpmod.zeeman_splittings_at_T(model, rot)
        dws_f, dwl_f = zm.splittings(model.m_plus, model.m_minus,
                                     config.lattice.n_refr, omega_rot)
        def _rel(a, b):
            scale = max(abs(a), abs(b))
            return abs(a - b) / scale if scale else 0.0
        rows.append((
            _fmt(omega_rot), _fmt(dws_kp), _fmt(dwl_kp), _fmt(dws_f),
            _fmt(dwl_f), _fmt(_rel(dws_kp, dws_f)), _fmt(_rel(dwl_kp, dwl_f)),
        ))
    _write_csv(args.output, SPLIT_HEADER, rows)
    print(args.output)
    if args.emit_plotscript:
        print(_emit_plotscript(args.output, "split"))
    return 0


# --------------------------------------------------------------------------
# sweep

def _sweep_lattice(base, param: str, value: float):
    if param == "dphi":
        return replace(base, dphi=value)
    if param == "pitch":
        return replace(base, pitch=value * 1e-6)
    if param == "ff":
        return replace(base, fill_factor=value)
    raise ConfigError(f"unknown sweep parameter {param!r}")


def cmd_sweep(args) -> int:
    config = _read_config(args.config)
    if args.points < 2:
        raise ConfigError("--points must be >= 2")
    # validate both bounds before any computation
    for bound in (args.sweep_from, args.sweep_to):
        _sweep_lattice(config.lattice, args.param, bound)
    if args.log:
        if args.sweep_from <= 0 or args.sweep_to <= 0:
            raise ConfigError("--log sweep requires positive bounds")
        values = np.geomspace(args.sweep_from, args.sweep_to, args.points)
    else:
        values = np.linspace(args.sweep_from, args.sweep_to, args.points)

    if args.param == "dphi" and (args.sweep_from < 0 or args.sweep_to < 0):
        warnings.warn(
            "dphi < 0 is outside the demonstrated parameter regime; "
            "orbital parameters are negative", UserWarning,
        )

    rows = []
    for value in values:
        lattice = _sweep_lattice(config.lattice, args.param, float(value))
        res = zm.zeeman_result(lattice)
        ratio = zm.consistency_ratio(lattice, res.m_plus, res.m_minus,
                                     lattice.n_refr)
        rows.append((
            _fmt(lattice.dphi), _fmt(lattice.pitch * 1e6), _fmt(res.m_plus),
            _fmt(res.m_minus), _fmt(res.m_total),
            _fmt(res.delta_omega_L_per_Omega),
            _fmt(res.delta_omega_S_per_Omega),
            _fmt(res.spread_rms * 1e3), _fmt(ratio),
        ))
    _write_csv(args.output, SWEEP_HEADER, rows)
    print(args.output)
    if args.emit_plotscript:
        print(_emit_plotscript(args.output, "sweep"))
    return 0


# --------------------------------------------------------------------------
# dump-fourier

def cmd_dump_fourier(args) -> int:
    config = _read_config(args.config)
    hw = config.basis_halfwidth if args.halfwidth is None else args.halfwidth
    if not 1 <= hw <= MAX_FOURIER_HALFWIDTH:
        raise ConfigError(
            f"--halfwidth must be in [1, {MAX_FOURIER_HALFWIDTH}], got {hw}"
        )
    rows = (
        (str(m), str(n), _fmt(fourier_coefficient(config.lattice, m, n)))
        for m in range(-hw, hw + 1)
        for n in range(-hw, hw + 1)
    )
    _write_csv(args.output, "m,n,value", rows)
    print(args.output)
    return 0


# --------------------------------------------------------------------------
# validate

def _gl_quadrature_coefficient(lattice, m: int, n: int, order: int = 48) -> float:
    """Pattern Fourier coefficient by Gauss-Legendre quadrature.

    The integrand is sampled from phase_pattern over the pixel support (the
    pattern vanishes outside), where it is smooth, so fixed-order GL is
    accurate to round-off.
    """
    half = 0.5 * lattice.pitch * math.sqrt(lattice.fill_factor)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = half * nodes
    wx = half * weights
    gx = 2.0 * math.pi * m / lattice.pitch
    gy = 2.0 * math.pi * n / lattice.pitch
    xx, yy = np.meshgrid(x, x, indexing="ij")
    vals = phase_pattern(lattice, xx, yy) * np.cos(gx * xx) * np.cos(gy * yy)
    return float(wx @ vals @ wx) / lattice.pitch ** 2


def _kp_vs_opw_worst(config: ExperimentConfig, dp, pf: PatternFourier,
                     model: kpmod.KpModel, span: float) -> float:
    """Worst |omega_kp - omega_opw| / span within 0.25*pi/pitch of T.

    A function of its own so that the plane-wave problem is freed before
    the later checks run.
    """
    lattice = config.lattice
    basis = tuple(reciprocal_basis(config.basis_halfwidth, lattice.pitch))
    problem = pw._problem(dp, pf, basis)
    t_pt = pw.named_kpoint("T", lattice.pitch)
    worst_rel = 0.0
    window = 0.25 * math.pi / lattice.pitch
    for frac in np.linspace(0.0, 1.0, 9):
        for direction in ((-1.0, 0.0), (-1.0 / math.sqrt(2), -1.0 / math.sqrt(2))):
            kx = t_pt[0] + frac * window * direction[0]
            ky = t_pt[1] + frac * window * direction[1]
            w_opw = pw._solve_omegas(problem, kx, ky, 8)
            k_rel = np.array([[kx - t_pt[0], ky - t_pt[1]]])
            spec8 = kpmod.kp_bands(model, k_rel, RotationSpec(0.0)).omegas[0]
            for w_kp in spec8:
                worst_rel = max(
                    worst_rel, float(np.min(np.abs(w_opw - w_kp))) / span
                )
    return worst_rel


def run_validation(config: ExperimentConfig) -> dict:
    """Cross-validation suite; returns a machine-readable report."""
    checks = []
    lattice = config.lattice
    dp = derive_params(lattice)

    def record(name, status, detail):
        checks.append({"name": name, "status": status, "detail": detail})

    # 1. analytic Fourier coefficients vs quadrature
    worst = 0.0
    for m in range(-5, 6):
        for n in range(-5, 6):
            ana = fourier_coefficient(lattice, m, n)
            quad = _gl_quadrature_coefficient(lattice, m, n)
            worst = max(worst, abs(ana - quad))
    record("fourier_vs_quadrature",
           "pass" if worst <= 1e-10 else "fail",
           f"max |analytic - quadrature| = {worst:.3e} over |m|,|n| <= 5 "
           "(bound 1e-10)")

    # 2. eigensolver contract on a seeded random Hermitian matrix
    rng = np.random.default_rng(2024)
    a = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    h = 0.5 * (a + a.conj().T)
    w, v = eigh(h)
    residual = max(
        float(np.linalg.norm(h @ v[:, i] - w[i] * v[:, i])) for i in range(50)
    )
    fro = float(np.linalg.norm(h))
    ortho = float(np.max(np.abs(v.conj().T @ v - np.eye(50))))
    ok = residual <= 1e-10 * fro and ortho <= 1e-10 and np.all(np.diff(w) >= 0)
    record("eigh_contract", "pass" if ok else "fail",
           f"residual {residual:.3e} (bound {1e-10 * fro:.3e}), "
           f"orthonormality {ortho:.3e} (bound 1e-10)")

    if lattice.dphi <= 0:
        for name in ("t_degeneracy", "kp_vs_opw", "fsum_roundtrip",
                     "mass_vs_closed_form", "eta_unimodular",
                     "consistency_ratio", "convergence"):
            record(name, "skipped", "requires dphi > 0")
        passed = all(c["status"] != "fail" for c in checks)
        return {"passed": passed, "checks": checks}

    # 3. corner-point degeneracy structure
    analysis = pw.t_point_analysis(config)
    sizes = [len(g) for g in analysis.groups[:3]]
    gaps_ok = True
    low = analysis.omegas
    groups = analysis.groups
    for a_grp, b_grp in zip(groups[:2], groups[1:3]):
        gap = low[b_grp[0]] - low[a_grp[-1]]
        gaps_ok = gaps_ok and gap >= 1e6
    deg_ok = sizes == [1, 2, 1] and gaps_ok and list(analysis.labels[:3]) == [
        pw.LABEL_S, pw.LABEL_PAIR, pw.LABEL_XY,
    ]
    record("t_degeneracy", "pass" if deg_ok else "fail",
           f"group sizes {sizes} labels {list(analysis.labels[:3])}, "
           f"gaps >= 1e6 rad/s: {gaps_ok}")

    # 4. k.p vs plane-wave band agreement near T
    model = kpmod.kp_from_opw(analysis.edges, lattice, source="closed_form")
    span = analysis.edges[2] - analysis.edges[0]
    pf = PatternFourier.from_lattice(lattice, 2 * config.basis_halfwidth)
    worst_rel = _kp_vs_opw_worst(config, dp, pf, model, span)
    record("kp_vs_opw", "pass" if worst_rel <= 0.05 else "fail",
           f"worst |omega_kp - omega_opw| / span = {worst_rel:.3e} "
           "(bound 0.05) within 0.25*pi/pitch of T")

    # 5. f-sum round trip on a consistent model
    edges_pt = pw.perturbative_edges(lattice)
    model_c = kpmod.kp_from_opw(edges_pt, lattice, source="closed_form")
    fd = kpmod.fsum_fd_masses(model_c)
    target = kpmod.fsum_target_masses(model_c)
    rel = max(abs(fd[0] - target[0]) / abs(target[0]),
              abs(fd[1] - target[1]) / abs(target[1]))
    record("fsum_roundtrip", "pass" if rel <= 1e-6 else "fail",
           f"worst relative mass deviation {rel:.3e} (bound 1e-6)")

    # 6. closed-form orbital parameters vs plane-wave masses
    m_t5 = pw.opw_mass_at_t(config, pw.LABEL_S, analysis=analysis)
    m_t5p = pw.opw_mass_at_t(config, pw.LABEL_XY, analysis=analysis)
    mp_fd = -0.5 * (dp.m0 / m_t5 - 1.0)
    mm_fd = 0.5 * (dp.m0 / m_t5p - 1.0)
    dev_p = abs(mp_fd - model.m_plus) / abs(model.m_plus)
    dev_m = abs(mm_fd - model.m_minus) / abs(model.m_minus)
    record("mass_vs_closed_form",
           "pass" if max(dev_p, dev_m) <= 0.25 else "fail",
           f"m_plus deviation {dev_p:.3%}, m_minus deviation {dev_m:.3%} "
           "(bound 25%)")

    # 7. unimodular longitudinal factor and bounded alpha at Gamma
    gamma_cfg = replace(config, kpath=("G",), samples_per_segment=1)
    bs_gamma = pw.solve_bands(gamma_cfg)
    ground = bs_gamma.states[0][0]
    profile = pw.longitudinal_profile(ground, pf)
    dev_eta = float(np.max(np.abs(np.abs(1.0 + profile.eta_samples) - 1.0)))
    mean_floor = lattice.dphi * lattice.fill_factor
    alpha_ok = mean_floor < profile.alpha < lattice.dphi
    record("eta_unimodular",
           "pass" if dev_eta <= 1e-12 and alpha_ok else "fail",
           f"max ||1+eta|-1| = {dev_eta:.3e} (bound 1e-12); alpha = "
           f"{profile.alpha:.6g} in ({mean_floor:.6g}, {lattice.dphi:.6g}): "
           f"{alpha_ok}")

    # 8. consistency ratio of the two orbital-splitting forms
    s = zm.pattern_sinc(lattice.fill_factor)
    ratio = zm.consistency_ratio(lattice, model.m_plus, model.m_minus,
                                 lattice.n_refr)
    expected = 1.0 / math.sqrt(1.0 + s * s)
    ratio_ok = abs(ratio - expected) <= 1e-10
    record("consistency_ratio", "pass" if ratio_ok else "fail",
           f"R2/R1 = {ratio:.12f}, algebraic 1/sqrt(1+s^2) = {expected:.12f} "
           "(documented discrepancy between the two printed forms)")

    # 9. basis convergence (advisory: warns, never fails)
    bigger = pw.t_point_analysis(config, halfwidth=config.basis_halfwidth + 2)
    conv = max(
        abs(a - b) / abs(a) for a, b in zip(bigger.edges, analysis.edges)
    )
    record("convergence", "pass" if conv < 1e-6 else "warn",
           f"edge change {conv:.3e} for halfwidth {config.basis_halfwidth} "
           f"-> {config.basis_halfwidth + 2} (advisory bound 1e-6)")

    passed = all(c["status"] != "fail" for c in checks)
    return {"passed": passed, "checks": checks}


def cmd_validate(args) -> int:
    config = _read_config(args.config)
    report = run_validation(config)
    for check in report["checks"]:
        print(f"[{check['status'].upper():>4}] {check['name']}: {check['detail']}")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report {args.output}: {exc}") from exc
        print(args.output)
    if not report["passed"]:
        failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phczeeman",
        description=(
            "Band structure and rotation-induced splitting analysis of "
            "patterned-mirror microcavity lattices"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_bands = sub.add_parser("bands", help="band structure along a k-path")
    p_bands.add_argument("config")
    p_bands.add_argument("-o", "--output", required=True)
    p_bands.add_argument("--kpath", default=None,
                         help="colon-separated node names, e.g. G:Z:T:G")
    p_bands.add_argument("--samples", type=int, default=None,
                         help="samples per path segment "
                         f"(1 to {MAX_SAMPLES_PER_SEGMENT})")
    p_bands.add_argument("--model", choices=("opw", "kp", "both"),
                         default="opw")
    p_bands.add_argument("--emit-plotscript", action="store_true")
    p_bands.set_defaults(func=cmd_bands)

    p_split = sub.add_parser("split", help="rotation splitting table")
    p_split.add_argument("config")
    p_split.add_argument("-o", "--output", required=True)
    p_split.add_argument("--omega-list", default="0,1,10,100,1000",
                         help="comma-separated rotation rates (rad/s)")
    p_split.add_argument("--emit-plotscript", action="store_true")
    p_split.set_defaults(func=cmd_split)

    p_sweep = sub.add_parser("sweep", help="closed-form parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("-o", "--output", required=True)
    p_sweep.add_argument("--param", choices=("dphi", "pitch", "ff"),
                         required=True)
    p_sweep.add_argument("--from", dest="sweep_from", type=float, required=True,
                         help="start value (pitch in um)")
    p_sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=25)
    p_sweep.add_argument("--log", action="store_true",
                         help="logarithmic spacing")
    p_sweep.add_argument("--emit-plotscript", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the cross-validation suite")
    p_val.add_argument("config")
    p_val.add_argument("-o", "--output", default=None,
                       help="write the JSON report here")
    p_val.set_defaults(func=cmd_validate)

    p_dump = sub.add_parser("dump-fourier",
                            help="dump pattern Fourier coefficients as CSV")
    p_dump.add_argument("config")
    p_dump.add_argument("-o", "--output", required=True)
    p_dump.add_argument("--halfwidth", type=int, default=None,
                        help="largest |m|, |n| dumped (1 to "
                        f"{MAX_FOURIER_HALFWIDTH}; default: the config's "
                        "basis_halfwidth)")
    p_dump.set_defaults(func=cmd_dump_fourier)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # float overflow or division by zero
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: band runs, splitting tables, sweeps, validation.

Exit codes: 0 success, 1 computation/check failure, 2 usage/config error.
Output files are UTF-8 CSV with '\\n' line endings and shortest-round-trip
float formatting, so identical configs and flags produce byte-identical
files. Every subcommand runs with BLAS on one thread, dense solves of order
``_kernels.POOL_MIN_ORDER`` and up excepted (``_kernels.serial_blas``): a
multithreaded solve of the small matrices can differ in the last digits
from run to run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from . import _kernels
from . import kp as kpmod
from . import planewave as pw
from . import zeeman as zm
from .core import (
    MAX_FOURIER_HALFWIDTH,
    MAX_SAMPLES_PER_SEGMENT,
    MAX_SWEEP_POINTS,
    ComputationError,
    ConfigError,
    ExperimentConfig,
    RotationSpec,
    ValidationError,
    beyond_slow_rotation,
    beyond_weak_contrast,
    derive_params,
    load_config,
)
from .lattice import (
    fourier_coefficient,
    pattern_factors,
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


def _rows(*columns):
    """CSV rows of strings from columns broadcast together. A float column
    is written as shortest-round-trip reprs and checked for NaN and inf
    once, before any row is made; any other column (integers, labels)
    through ``str``. A column smaller than the broadcast shape (a scalar,
    or a per-k-point column of a band file) is formatted once per value and
    its strings are broadcast; a full-size column is formatted as the rows
    are made."""
    columns = [np.asarray(column) for column in columns]
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    cells = []
    for column in columns:
        if column.dtype.kind == "f":
            finite = np.isfinite(column)
            if not finite.all():
                raise ComputationError(
                    f"non-finite value {column[~finite][0]} in the output"
                )
        text = map(repr if column.dtype.kind == "f" else str,
                   column.ravel().tolist())
        if column.shape != shape:
            text = np.array(list(text), dtype=object).reshape(column.shape)
            text = np.broadcast_to(text, shape).ravel().tolist()
        cells.append(text)
    return zip(*cells)


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


def _warning_of(build, value) -> str:
    """The message of the last warning ``build(value)`` issues."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build(value)
    return str(caught[-1].message)


def _check_column(build, values, suspect, flagged, what: str) -> None:
    """Check the array ``values`` as building each value's spec would,
    building only the values the boolean masks pick out.

    ``suspect`` marks the values whose ``build`` may raise; they are built
    in column order, so the first error is the one a value-by-value loop
    would raise. ``flagged`` (broadcast to the column) marks the values
    whose spec warns. A spec's warning carries its value, so Python's
    once-per-location filter would print one per value; instead one
    warning is issued with the count of flagged values and the largest
    (|value|, message) among them, whose spec is built for its message.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for value in values[suspect].tolist():
            build(value)
    flagged = np.broadcast_to(flagged, values.shape)
    if flagged.any():
        candidates = values[flagged]
        magnitudes = np.abs(candidates)
        largest = set(candidates[magnitudes == magnitudes.max()].tolist())
        message = max(_warning_of(build, value) for value in largest)
        warnings.warn(
            f"{np.count_nonzero(flagged)} of {values.size} {what} are out of "
            f"regime; the largest: {message}", UserWarning, stacklevel=2,
        )


def _derived_paths(base: str, tags) -> dict[str, str]:
    stem, ext = os.path.splitext(base)
    return {tag: f"{stem}_{tag}{ext or '.csv'}" for tag in tags}


# --------------------------------------------------------------------------
# bands

def _path_columns(kpts, n_bands: int) -> tuple:
    """The k_index, path_pos, kx, ky and band columns of a path's rows, as
    a column per k-point and a row of bands, broadcast by ``_rows`` to one
    row per (k-point, band)."""
    return (*(np.array([getattr(p, name) for p in kpts])[:, None]
              for name in ("index", "path_pos", "kx", "ky")),
            np.arange(n_bands))


def _detuning_ghz(omegas, config: ExperimentConfig):
    omega0 = derive_params(config.lattice).omega0
    return (omegas - omega0) / (2.0 * math.pi * 1e9)


def _nearest(omegas, targets):
    """The entry of each row of ``omegas`` nearest to each target in the
    same row of ``targets``, as an array of the targets' shape."""
    gaps = np.abs(omegas[:, None, :] - targets[:, :, None])
    return np.take_along_axis(omegas, np.argmin(gaps, axis=2), axis=1)


def _band_rows(bs: pw.BandStructure):
    # every scalar band carries the two photon spin states: degeneracy 2
    return _rows(*_path_columns(bs.kpoints, bs.n_bands), "2", bs.omegas,
                 _detuning_ghz(bs.omegas, bs.config), bs.rep_labels)


def _kp_spectrum_on_path(config: ExperimentConfig, kpts,
                         model: kpmod.KpModel) -> kpmod.KpSpectrum:
    t_pt = pw.named_kpoint("T", config.lattice.pitch)
    k_rel = np.array([[p.kx - t_pt[0], p.ky - t_pt[1]] for p in kpts])
    return kpmod.kp_bands(model, k_rel, config.rotation)


def _kp_rows(config: ExperimentConfig, kpts, spectrum: kpmod.KpSpectrum):
    note = np.where(spectrum.within_window, "", "extrapolation")[:, None]
    return _rows(*_path_columns(kpts, spectrum.omegas.shape[1]), "1",
                 spectrum.omegas, _detuning_ghz(spectrum.omegas, config),
                 note, spectrum.blocks)


def _diff_rows(bs: pw.BandStructure, spectrum: kpmod.KpSpectrum):
    with np.errstate(over="ignore"):  # the finiteness check reports it
        nearest = _nearest(bs.omegas, spectrum.omegas)
        diff = spectrum.omegas - nearest
    return _rows(*_path_columns(bs.kpoints, spectrum.omegas.shape[1]),
                 spectrum.omegas, nearest, diff)


_PLOT_TEMPLATE = """# gnuplot script generated by phczeeman
set datafile separator ','
set key off
set xlabel '{xlabel}'
set ylabel '{ylabel}'
plot {plots}
"""


def _emit_plotscript(csv_path: str, kind: str) -> str:
    gp_path = os.path.splitext(csv_path)[0] + ".gp"
    # absolute, so the script plots from any directory; gnuplot escapes a
    # quote inside a single-quoted string by doubling it
    data = "'" + os.path.abspath(csv_path).replace("'", "''") + "'"
    if kind == "bands":
        body = _PLOT_TEMPLATE.format(
            xlabel="path position (rad/m)", ylabel="detuning (GHz)",
            plots=f"{data} every ::1 using 2:8 with points pt 7 ps 0.3",
        )
    elif kind == "split":
        body = _PLOT_TEMPLATE.format(
            xlabel="rotation rate (rad/s)", ylabel="splitting (rad/s)",
            plots=(f"{data} every ::1 using 1:2 with linespoints, "
                   f"{data} every ::1 using 1:3 with linespoints"),
        )
    else:
        body = _PLOT_TEMPLATE.format(
            xlabel="swept parameter", ylabel="relative splitting",
            plots=(f"{data} every ::1 using 1:6 with linespoints, "
                   f"{data} every ::1 using 1:7 with linespoints"),
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

    # the T sectors first: the k.p model checks their order, and the path's
    # T node takes its labels from them, before any path point is solved
    edges = None
    if need_kp or any(p.label == "T" for p in kpts):
        edges = pw.t_edges(config.lattice, config.basis_halfwidth)
    model = kpmod.kp_from_opw(edges, config.lattice) if need_kp else None
    bs = pw.solve_bands(config, edges) if need_opw else None
    spectrum = _kp_spectrum_on_path(config, kpts, model) if need_kp else None

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
    rates = np.array(omega_list)
    # rejects NaN/inf up front
    _check_column(RotationSpec, rates, ~np.isfinite(rates),
                  beyond_slow_rotation(rates), "rotation rates")

    # the splittings and closed forms read no edge; kp_from_opw checks
    # their order, so eigenvalue-only sector solves suffice
    edges = pw.t_edges(config.lattice, config.basis_halfwidth)
    model = kpmod.kp_from_opw(edges, config.lattice)
    dws_kp, dwl_kp = kpmod.zeeman_splittings_at_T(model, rates)
    dws_f, dwl_f = zm.splittings(model.m_plus, model.m_minus,
                                 config.lattice.n_refr, rates)
    rel_diffs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in ((dws_kp, dws_f), (dwl_kp, dwl_f)):
            diff, scale = np.abs(a - b), np.maximum(np.abs(a), np.abs(b))
            rel_diffs.append(np.divide(diff, scale, out=np.zeros_like(diff),
                                       where=scale != 0))
    _write_csv(args.output, SPLIT_HEADER,
               _rows(rates, dws_kp, dwl_kp, dws_f, dwl_f, *rel_diffs))
    print(args.output)
    if args.emit_plotscript:
        print(_emit_plotscript(args.output, "split"))
    return 0


# --------------------------------------------------------------------------
# sweep

# swept parameter -> (LatticeSpec field, factor from the command-line unit)
_SWEEP_FIELDS = {"dphi": ("dphi", 1.0), "pitch": ("pitch", 1e-6),
                 "ff": ("fill_factor", 1.0)}


def _sweep_lattice(base, param: str, value):
    """``base`` with the swept field set to ``value``, a float or an array.

    A float gives a validated LatticeSpec. An array gives the sweep's
    lattices as one lattice of columns, for the regime check and the
    elementwise closed forms; it is not validated, so the column must have
    been checked first (``_check_column``).
    """
    field, factor = _SWEEP_FIELDS[param]
    if isinstance(value, np.ndarray):
        return SimpleNamespace(**{**vars(base), field: value * factor})
    return replace(base, **{field: value * factor})


def cmd_sweep(args) -> int:
    config = _read_config(args.config)
    if not 2 <= args.points <= MAX_SWEEP_POINTS:
        raise ConfigError(
            f"--points must be in [2, {MAX_SWEEP_POINTS}], got {args.points}"
        )
    # validate both bounds before any computation; the sweep below warns
    # for them if they are out of regime
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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

    # Every LatticeSpec bound is an interval in the swept field and both
    # ends of the sweep passed it, so only a value that rounding puts
    # outside [from, to] can raise.
    lattice = _sweep_lattice(config.lattice, args.param, values)
    low, high = sorted((args.sweep_from, args.sweep_to))
    _check_column(
        lambda value: _sweep_lattice(config.lattice, args.param, value),
        values, ~((values >= low) & (values <= high)),
        beyond_weak_contrast(lattice.dphi), f"swept {args.param} values")
    res = zm.zeeman_result(lattice)
    _write_csv(args.output, SWEEP_HEADER, _rows(
        lattice.dphi, lattice.pitch * 1e6, res.m_plus, res.m_minus,
        res.m_total, res.delta_omega_L_per_Omega, res.delta_omega_S_per_Omega,
        res.spread_rms * 1e3, res.consistency_ratio,
    ))
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
    axis = np.arange(-hw, hw + 1)
    m, n = np.repeat(axis, axis.size), np.tile(axis, axis.size)
    # ((dphi*FF)*s_m)*s_n, the evaluation order of fourier_coefficient
    lattice = config.lattice
    s = pattern_factors(lattice, hw)
    values = np.outer((lattice.dphi * lattice.fill_factor) * s, s).ravel()
    _write_csv(args.output, "m,n,value", _rows(m, n, values))
    print(args.output)
    return 0


# --------------------------------------------------------------------------
# validate

def _fourier_vs_quadrature(lattice) -> float:
    """Largest |analytic - Gauss-Legendre quadrature| pattern Fourier
    coefficient over |m|, |n| <= 5.

    The integrand is sampled from phase_pattern over the pixel support (the
    pattern vanishes outside), where it is smooth, so fixed-order GL is
    accurate to round-off. The pattern is even, so every coefficient is the
    cosine integral w_m^T P w_n, w_m the weights times cos(g_m x) at the
    nodes: all of them are one product W P W^T of the (11, 48) rows.
    """
    half = 0.5 * lattice.pitch * math.sqrt(lattice.fill_factor)
    nodes, weights = np.polynomial.legendre.leggauss(48)
    x = half * nodes
    xx, yy = np.meshgrid(x, x, indexing="ij")
    pattern = phase_pattern(lattice, xx, yy)
    orders = range(-5, 6)
    g = 2.0 * math.pi * np.array(orders, dtype=float) / lattice.pitch
    rows = (half * weights) * np.cos(g[:, None] * x)
    quad = rows @ pattern @ rows.T / lattice.pitch ** 2
    analytic = np.array([[fourier_coefficient(lattice, m, n) for n in orders]
                         for m in orders])
    return float(np.max(np.abs(analytic - quad)))


def _kp_vs_opw_worst(config: ExperimentConfig, model: kpmod.KpModel,
                     span: float) -> float:
    """Worst |omega_kp - omega_opw| / span within 0.25*pi/pitch of T, on
    nine points of each of two rays out of T (along -x and the diagonal).

    The plane-wave omegas come from one path through T
    (``planewave.solve_path``): in along the -x ray to T, then out along the
    diagonal one. So T is solved once, and from the block solver's
    crossover each point starts from the blocks of the three before it.
    """
    lattice = config.lattice
    t_pt = np.array(pw.named_kpoint("T", lattice.pitch))
    window = 0.25 * math.pi / lattice.pitch
    directions = np.array([(-1.0, 0.0), (-1.0 / math.sqrt(2), -1.0 / math.sqrt(2))])
    rays = t_pt + (np.linspace(0.0, 1.0, 9) * window)[:, None, None] * directions
    spectra = kpmod.kp_bands(model, (rays - t_pt).reshape(-1, 2),
                             RotationSpec(0.0)).omegas
    path = np.concatenate([rays[::-1, 0], rays[1:, 1]])  # T at position 8
    basis = reciprocal_basis(config.basis_halfwidth, lattice.pitch)
    opw, _ = pw.solve_path(lattice, basis, path.tolist())
    # each ray out of T, in the order kp_bands took the rays' points
    opw = np.stack([opw[8::-1], opw[8:]], axis=1).reshape(spectra.shape)
    return float(np.max(np.abs(spectra - _nearest(opw, spectra)))) / span


def _check_fourier_vs_quadrature(config, analysis):
    worst = _fourier_vs_quadrature(config.lattice)
    return worst <= 1e-10, (f"max |analytic - quadrature| = {worst:.3e} over "
                            "|m|,|n| <= 5 (bound 1e-10)")


def _check_eigh_contract(config, analysis):
    # the residual and bound of the T-sector block whose ratio is largest
    residual, bound, ortho, ascending = analysis.contract
    return (residual <= bound and ortho <= 1e-10 and ascending,
            f"residual {residual:.3e} (bound {bound:.3e}), "
            f"orthonormality {ortho:.3e} (bound 1e-10)")


def _check_t_degeneracy(config, analysis):
    groups, low = analysis.groups, analysis.omegas
    sizes = [len(g) for g in groups[:3]]
    labels = list(analysis.labels[:3])
    gaps_ok = all(low[b[0]] - low[a[-1]] >= 1e6
                  for a, b in zip(groups[:2], groups[1:3]))
    return (sizes == [1, 2, 1] and gaps_ok
            and labels == [pw.LABEL_S, pw.LABEL_PAIR, pw.LABEL_XY],
            f"group sizes {sizes} labels {labels}, gaps >= 1e6 rad/s: {gaps_ok}")


def _check_kp_vs_opw(config, analysis):
    model = kpmod.kp_from_opw(analysis.edges, config.lattice)
    worst = _kp_vs_opw_worst(config, model, analysis.edges[2] - analysis.edges[0])
    return worst <= 0.05, (f"worst |omega_kp - omega_opw| / span = {worst:.3e} "
                           "(bound 0.05) within 0.25*pi/pitch of T")


def _check_fsum_roundtrip(config, analysis):
    # on a consistent model
    model = kpmod.kp_from_opw(pw.perturbative_edges(config.lattice),
                              config.lattice)
    fd = kpmod.fsum_fd_masses(model)
    target = kpmod.fsum_target_masses(model)
    rel = max(abs(fd[0] - target[0]) / abs(target[0]),
              abs(fd[1] - target[1]) / abs(target[1]))
    return rel <= 1e-6, f"worst relative mass deviation {rel:.3e} (bound 1e-6)"


def _check_mass_vs_closed_form(config, analysis):
    # the edge masses before the model: a degenerate edge is the reason given
    m_t5 = pw.opw_mass_at_t(analysis, pw.LABEL_S)
    m_t5p = pw.opw_mass_at_t(analysis, pw.LABEL_XY)
    model = kpmod.kp_from_opw(analysis.edges, config.lattice)
    mp_fd = -0.5 * (model.m0 / m_t5 - 1.0)
    mm_fd = 0.5 * (model.m0 / m_t5p - 1.0)
    dev_p = abs(mp_fd - model.m_plus) / abs(model.m_plus)
    dev_m = abs(mm_fd - model.m_minus) / abs(model.m_minus)
    return max(dev_p, dev_m) <= 0.25, (f"m_plus deviation {dev_p:.3%}, m_minus "
                                       f"deviation {dev_m:.3%} (bound 25%)")


def _check_eta_unimodular(config, analysis):
    # unimodular longitudinal factor and bounded alpha at Gamma
    lattice = config.lattice
    basis = reciprocal_basis(config.basis_halfwidth, lattice.pitch)
    _, vectors = pw.solve_path(lattice, basis, [(0.0, 0.0)], keep={0})
    profile = pw.longitudinal_profile(vectors[0][:, 0], basis, lattice)
    dev_eta = float(np.max(np.abs(np.abs(1.0 + profile.eta_samples) - 1.0)))
    # alpha can round to exactly dphi*FF, its floor (at dphi = 1e-300)
    mean_floor = lattice.dphi * lattice.fill_factor
    alpha_ok = mean_floor <= profile.alpha < lattice.dphi
    return (dev_eta <= 1e-12 and alpha_ok,
            f"max ||1+eta|-1| = {dev_eta:.3e} (bound 1e-12); alpha = "
            f"{profile.alpha:.6g} in [{mean_floor:.6g}, {lattice.dphi:.6g}): "
            f"{alpha_ok}")


def _check_consistency_ratio(config, analysis):
    model = kpmod.kp_from_opw(analysis.edges, config.lattice)
    ratio = zm.consistency_ratio(config.lattice, model.m_plus, model.m_minus)
    s = zm.pattern_sinc(config.lattice.fill_factor)
    expected = 1.0 / math.sqrt(1.0 + s * s)
    return (abs(ratio - expected) <= 1e-10,
            f"R2/R1 = {ratio:.12f}, algebraic 1/sqrt(1+s^2) = {expected:.12f} "
            "(documented discrepancy between the two printed forms)")


def _check_convergence(config, analysis):
    # advisory: warns, never fails. The detail also gives the largest change
    # against the corner span, the scale the splittings are read on, if any.
    h, edges = config.basis_halfwidth, analysis.edges
    bigger = pw.t_edges(config.lattice, h + 2)
    conv = max(abs(a - b) / abs(a) for a, b in zip(bigger, edges))
    change = max(abs(a - b) for a, b in zip(bigger, edges))
    span = edges[2] - edges[0]
    return ("pass" if conv < 1e-6 else "warn",
            f"edge change {conv:.3e} for halfwidth {h} -> {h + 2} "
            "(advisory bound 1e-6)"
            + (f"; {change / span:.3e} of the corner span" if span else ""))


_CHECKS = (
    ("fourier_vs_quadrature", _check_fourier_vs_quadrature),
    ("eigh_contract", _check_eigh_contract),
    ("t_degeneracy", _check_t_degeneracy),
    ("kp_vs_opw", _check_kp_vs_opw),
    ("fsum_roundtrip", _check_fsum_roundtrip),
    ("mass_vs_closed_form", _check_mass_vs_closed_form),
    ("eta_unimodular", _check_eta_unimodular),
    ("consistency_ratio", _check_consistency_ratio),
    ("convergence", _check_convergence),
)


def run_validation(config: ExperimentConfig) -> dict:
    """Cross-validation suite; returns a machine-readable report.

    Each check of ``_CHECKS`` takes the config and its T-point analysis and
    returns (status, detail), a status of True or False reading "pass" or
    "fail". One rule for errors: a check that raises a computation error (a
    k.p model or edge mass that cannot be formed, a solve that does not
    converge) fails with its message, and the other checks still run. At
    dphi <= 0 the checks after eigh_contract are skipped.
    """
    analysis = pw.t_point_analysis(config.lattice, config.basis_halfwidth)
    checks = []
    for index, (name, check) in enumerate(_CHECKS):
        if index > 1 and config.lattice.dphi <= 0:  # after eigh_contract
            status, detail = "skipped", "requires dphi > 0"
        else:
            try:
                status, detail = check(config, analysis)
            except ComputationError as exc:
                status, detail = "fail", str(exc)
        if not isinstance(status, str):
            status = "pass" if status else "fail"
        checks.append({"name": name, "status": status, "detail": detail})
    return {"passed": all(c["status"] != "fail" for c in checks), "checks": checks}


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
    p_sweep.add_argument("--points", type=int, default=25,
                         help=f"number of values (2 to {MAX_SWEEP_POINTS})")
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
        with _kernels.serial_blas():
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

"""The benchmark's workloads: configs made from a seed, CLI argument lists,
and the output files each invocation writes.

Seed 0 is the paper's reference lattice exactly, whose outputs are stored
under ``golden/``. Any other seed jitters pitch, fill factor and contrast
within ranges where the corner bands keep their ordering; those outputs are
checked for structure only.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

REFERENCE = {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65, "dphi": 0.02}

JITTER = {"pitch_um": (3.5, 4.5), "ff": (0.55, 0.75), "dphi": (0.01, 0.02)}

N_BANDS = 8  # planewave.DEFAULT_N_BANDS, the rows per k-point of a bands CSV

OMEGA_RATES = 1000
SWEEP_POINTS = 5000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict            # keys added to the seeded lattice
    calls: tuple            # argument lists, {cfg} and {out} substituted
    outputs: dict           # output file -> data rows expected, None for JSON


def _kpoints(segments: int, samples: int) -> int:
    return segments * samples + 1


def _omega_list() -> str:
    # 1e-2 .. 1e3 rad/s, log-spaced, written with full precision
    return ",".join(repr(10.0 ** (-2 + 5 * i / (OMEGA_RATES - 1)))
                    for i in range(OMEGA_RATES))


_REF_K = _kpoints(3, 40)
_WIDE_K = _kpoints(3, 8)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="bands_ref",
            why=("paper's band diagram at default settings: 121 concurrent "
                 "225-wave eigensolves, shows threading and per-k overhead"),
            config={},
            calls=(("bands", "{cfg}", "-o", "{out}/bands.csv", "--model", "both"),),
            outputs={"bands_opw.csv": _REF_K * N_BANDS,
                     "bands_kp.csv": _REF_K * N_BANDS,
                     "bands_diff.csv": _REF_K * N_BANDS},
        ),
        Workload(
            name="bands_wide",
            why=("841-wave basis on 25 k-points: the O(n^3) eigensolve and "
                 "assembly dominate, per-k Python work and CSV writing vanish"),
            config={"basis_halfwidth": 14, "samples_per_segment": 8},
            calls=(("bands", "{cfg}", "-o", "{out}/bands.csv", "--model", "opw"),),
            outputs={"bands.csv": _WIDE_K * N_BANDS},
        ),
        Workload(
            name="validate_ref",
            why=("validation suite: ~30 scattered single solves, finite "
                 "differences and quadrature, no k-path to batch"),
            config={},
            calls=(("validate", "{cfg}", "-o", "{out}/report.json"),),
            outputs={"report.json": None},
        ),
        Workload(
            name="closed_form",
            why=("split over 1000 rates and a 5000-point sweep: one eigensolve "
                 "in total, k.p, closed forms, CSV writing and import dominate"),
            config={},
            calls=(
                ("split", "{cfg}", "-o", "{out}/split.csv", "--omega-list", "{omegas}"),
                ("sweep", "{cfg}", "-o", "{out}/sweep.csv", "--param", "dphi",
                 "--from", "1e-5", "--to", "1e-2", "--points", str(SWEEP_POINTS),
                 "--log"),
            ),
            outputs={"split.csv": OMEGA_RATES, "sweep.csv": SWEEP_POINTS},
        ),
    )
}


def lattice_for_seed(seed: int) -> dict:
    """The reference lattice for the default seed, a jittered one otherwise."""
    lattice = dict(REFERENCE)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        for key, (lo, hi) in JITTER.items():
            lattice[key] = rng.uniform(lo, hi)
    return lattice


def config_text(workload: Workload, seed: int) -> str:
    return json.dumps({**lattice_for_seed(seed), **workload.config}) + "\n"


def argv_lists(workload: Workload, cfg_path: str, out_dir: str) -> list:
    subs = {"{cfg}": cfg_path, "{omegas}": _omega_list()}
    lists = []
    for call in workload.calls:
        argv = []
        for token in call:
            token = subs.get(token, token)
            argv.append(token.replace("{out}", out_dir))
        lists.append(argv)
    return lists

"""Property tests of the CLI exit-code contract.

For any JSON config and any flags argparse accepts, ``main`` returns 0
(success), 1 (computation failure) or 2 (usage/config error) and never lets
an exception escape. Generated values include NaN, infinities, huge and
negative numbers, wrong types, bad k-path tokens and bad rate lists. Costs
stay small: valid basis halfwidths are at most 3, valid sample counts at most
2, valid dump-fourier halfwidths at most 4 and valid sweep point counts at
most 3; the larger sizes generated are above their caps and rejected before
any work. A second test draws in-range lattices at halfwidths from the
block eigensolver's crossover to 9, where every path point goes through it,
and runs ``bands`` with each model and ``validate`` on each.
"""
import csv
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phczeeman.cli import main
from phczeeman.core import (
    MAX_FOURIER_HALFWIDTH, MAX_SAMPLES_PER_SEGMENT, MAX_SWEEP_POINTS,
)
from phczeeman.planewave import _BLOCK_MIN_HALFWIDTH

REFERENCE = {"lambda_nm": 960, "n": 3.53, "pitch_um": 4, "ff": 0.65,
             "dphi": 0.02}
# Small values for the keys whose defaults make a run expensive.
CHEAP = {"basis_halfwidth": 2, "samples_per_segment": 2}
MISSING = object()

BAD_NUMBERS = (math.nan, math.inf, -math.inf, 0, -1, -1e-300, 1e308,
               10 ** 400, -(10 ** 400))
NOT_NUMBERS = (None, True, "3.5", [1], {})

numbers = st.one_of(st.sampled_from(BAD_NUMBERS), st.floats(),
                    st.integers(min_value=-10 ** 30, max_value=10 ** 30))

kpath_text = st.one_of(
    st.sampled_from(["G:Z:T", "T", "G", "Z:T", "Q:Z", "", ":", "G::T", "t:g"]),
    st.text(alphabet="GZTQgt: ", max_size=8),
)

# Values that may replace a key of the reference config: in-range ones, so
# that configs reach the solvers, and invalid ones of every kind.
VALUES = {
    "lambda_nm": st.floats(500.0, 1500.0),
    "n": st.floats(1.0, 4.0),
    "pitch_um": st.floats(2.0, 8.0),
    "ff": st.floats(0.05, 0.95),
    "dphi": st.floats(-0.1, 0.1),
    "omega_rad_s": st.floats(-1e4, 1e4),
    "basis_halfwidth": st.sampled_from([2, 3, 41, 1000, 10 ** 30, 1, 0, -5]),
    "samples_per_segment": st.sampled_from(
        [1, 2, 0, -1, MAX_SAMPLES_PER_SEGMENT + 1, 10 ** 9]),
    "kpath": kpath_text,
    "pitch_nm": st.just(4000),  # an unknown key
}


@st.composite
def config_docs(draw):
    """The cheap reference config with up to two keys changed or removed.

    The keys in CHEAP are never removed and never take an arbitrary integer:
    their defaults and large in-range values make a run expensive.
    """
    doc = {**REFERENCE, **CHEAP}
    for key in draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=2,
                             unique=True)):
        bad = st.sampled_from(NOT_NUMBERS)
        if key not in CHEAP:
            bad = st.one_of(bad, numbers, st.just(MISSING))
        value = draw(st.one_of(VALUES[key], bad))
        if value is MISSING:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


rate_text = st.one_of(
    st.sampled_from(["0,1", "nan", "1,nan", "inf", "-inf", "1e400", "ten", "",
                     ",", "1,,2", "-1e308,1e308", "1e300"]),
    st.text(alphabet="0123456789.,e-naif ", max_size=12),
)
bound_text = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e-5", "0.5", "4", "-0.01", "0",
                     "1e308", "-1e308"]),
    st.floats().map(repr),
)


@st.composite
def flags(draw):
    sub = draw(st.sampled_from(["bands", "split", "sweep", "validate",
                                "dump-fourier"]))
    argv = []
    if sub == "bands":
        argv += ["--model", draw(st.sampled_from(["opw", "kp", "both"]))]
        if draw(st.booleans()):
            argv += [f"--kpath={draw(kpath_text)}"]
        samples = draw(st.sampled_from(
            [None, 1, 2, 0, -3, MAX_SAMPLES_PER_SEGMENT + 1, 10 ** 9]))
        if samples is not None:
            argv += [f"--samples={samples}"]
    elif sub == "split":
        argv += [f"--omega-list={draw(rate_text)}"]
    elif sub == "sweep":
        points = draw(st.sampled_from(
            [2, 3, 1, 0, -5, MAX_SWEEP_POINTS + 1, 10 ** 9]))
        argv += ["--param", draw(st.sampled_from(["dphi", "pitch", "ff"])),
                 f"--from={draw(bound_text)}", f"--to={draw(bound_text)}",
                 f"--points={points}"]
        if draw(st.booleans()):
            argv.append("--log")
    elif sub == "dump-fourier":
        halfwidth = draw(st.sampled_from(
            [-3, 0, 1, 4, MAX_FOURIER_HALFWIDTH + 1, 10 ** 9]))
        argv += [f"--halfwidth={halfwidth}"]
    if sub in ("bands", "split", "sweep") and draw(st.booleans()):
        argv.append("--emit-plotscript")
    return sub, argv


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=config_docs(), command=flags())
def test_main_returns_contract_exit_code(doc, command):
    sub, argv = command
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out.json" if sub == "validate" else "out.csv")
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            rc = main([sub, cfg, "-o", out, *argv])
    assert rc in (0, 1, 2)


# The lattice keys of VALUES over their in-range values only, at a basis
# wide enough for the block eigensolver.
wide_docs = st.fixed_dictionaries({
    **{key: VALUES[key] for key in ("lambda_nm", "n", "pitch_um", "ff",
                                    "dphi", "omega_rad_s")},
    "basis_halfwidth": st.sampled_from(range(_BLOCK_MIN_HALFWIDTH, 10)),
})


def _assert_finite_cells(path):
    """Every cell of the CSV at ``path`` that reads as a number is finite."""
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a header or a label
                assert math.isfinite(value), (os.path.basename(path), row)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=wide_docs, samples=st.sampled_from([1, 2]))
def test_wide_basis_commands_return_contract_exit_code(doc, samples):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for model in ("opw", "kp", "both"):
            out = os.path.join(tmp, model)
            os.mkdir(out)
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                rc = main(["bands", cfg, "-o", os.path.join(out, "bands.csv"),
                           "--model", model, f"--samples={samples}"])
            assert rc in (0, 1, 2)
            if rc == 0:
                written = sorted(os.listdir(out))
                assert len(written) == (3 if model == "both" else 1)
                for name in written:
                    _assert_finite_cells(os.path.join(out, name))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            rc = main(["validate", cfg, "-o", os.path.join(tmp, "report.json")])
        assert rc in (0, 1, 2)

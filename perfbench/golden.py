"""Checks of an invocation's outputs: against the stored golden outputs for the
default seed, and for structure only for any other seed.

A CSV report records byte identity, the largest absolute and relative
difference per float column, and the problems that fail the invocation: a
changed header or row count, a changed integer or label column, a
non-finite value, or a float column outside its tolerance in
``golden/tolerances.json``. For the validation report the check names,
statuses and verdict are compared; changed detail strings are only listed.
"""
from __future__ import annotations

import gzip
import json
import math
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Lowest four scalar states at the zone corner, by C4v representation.
T_LABELS = ["T1(S)", "T5(X,Y)", "T5(X,Y)", "T4(XY)"]

MAX_PROBLEMS = 5


def load_tolerances() -> dict:
    with open(os.path.join(GOLDEN_DIR, "tolerances.json"), encoding="utf-8") as fh:
        return json.load(fh)["columns"]


def golden_path(workload: str, filename: str) -> str:
    suffix = ".gz" if filename.endswith(".csv") else ""
    return os.path.join(GOLDEN_DIR, workload, filename + suffix)


def read_golden(workload: str, filename: str) -> bytes:
    path = golden_path(workload, filename)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        return fh.read()


def write_golden(workload: str, filename: str, data: bytes) -> None:
    path = golden_path(workload, filename)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if path.endswith(".gz"):
        with open(path, "wb") as raw, \
                gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
            fh.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


class _Problems(list):
    """Problem messages; the first MAX_PROBLEMS are kept."""

    def add(self, msg: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(msg)


def _parse(text: str, tolerances):
    """Header and rows; the label column may hold commas, as in T5(X,Y)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return [], []
    header = lines[0].split(",")
    labels = [i for i, c in enumerate(header) if tolerances.get(c) == "label"]
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        extra = len(fields) - len(header)
        if extra > 0 and len(labels) == 1:
            i = labels[0]
            fields[i:i + extra + 1] = [",".join(fields[i:i + extra + 1])]
        rows.append(fields)
    return header, rows


def _is_finite_float(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_values(header, rows, tolerances, problems) -> None:
    """Every column typed, ints parse, floats finite."""
    for col in header:
        if col not in tolerances:
            problems.add(f"unknown column {col!r}")
            return
    for r, row in enumerate(rows):
        if len(row) != len(header):
            problems.add(f"row {r}: {len(row)} fields, header has {len(header)}")
            return
        for col, val in zip(header, row):
            kind = tolerances[col]
            if kind == "int":
                if not val.lstrip("-").isdigit():
                    problems.add(f"row {r} {col}: {val!r} is not an integer")
            elif isinstance(kind, dict) and not _is_finite_float(val):
                problems.add(f"row {r} {col}: {val!r} is not a finite number")


def compare_csv(golden: bytes, actual: bytes, tolerances) -> dict:
    """Compare one CSV against its golden copy."""
    problems = _Problems()
    g_header, g_rows = _parse(golden.decode("utf-8"), tolerances)
    a_header, a_rows = _parse(actual.decode("utf-8", errors="replace"), tolerances)
    report = {"identical": golden == actual, "rows": len(a_rows),
              "columns": {}, "problems": problems}
    floats = [c for c in g_header if isinstance(tolerances.get(c), dict)]
    report["columns"] = {c: [0.0, 0.0] for c in floats}
    if report["identical"]:
        return report
    if a_header != g_header:
        problems.add(f"header changed: {','.join(a_header)}")
        return report
    if len(a_rows) != len(g_rows):
        problems.add(f"row count {len(a_rows)}, golden {len(g_rows)}")
        return report
    check_values(a_header, a_rows, tolerances, problems)
    if problems:
        return report
    for r, (g_row, a_row) in enumerate(zip(g_rows, a_rows)):
        for col, g_val, a_val in zip(g_header, g_row, a_row):
            kind = tolerances[col]
            if not isinstance(kind, dict):
                if g_val != a_val:
                    problems.add(f"row {r} {col}: {a_val!r}, golden {g_val!r}")
                continue
            g, a = float(g_val), float(a_val)
            diff = abs(a - g)
            rel = diff / abs(g) if g else (0.0 if diff == 0 else math.inf)
            worst = report["columns"][col]
            worst[0] = max(worst[0], diff)
            worst[1] = max(worst[1], rel)
            if diff > kind["abs"] + kind["rel"] * abs(g):
                problems.add(f"row {r} {col}: {a_val}, golden {g_val}, "
                             f"beyond abs {kind['abs']} + rel {kind['rel']}")
    return report


def _checks(doc) -> list:
    return [(c["name"], c["status"]) for c in doc["checks"]]


def compare_report(golden: bytes, actual: bytes) -> dict:
    """Compare validation reports: verdict, check names and statuses."""
    problems = _Problems()
    report = {"identical": golden == actual, "problems": problems,
              "changed_details": []}
    if report["identical"]:
        return report
    try:
        doc = json.loads(actual)
        g_doc = json.loads(golden)
        if doc["passed"] != g_doc["passed"]:
            problems.add(f"passed {doc['passed']}, golden {g_doc['passed']}")
        if _checks(doc) != _checks(g_doc):
            problems.add(f"checks {_checks(doc)}, golden {_checks(g_doc)}")
        report["changed_details"] = [
            c["name"] for c, g in zip(doc["checks"], g_doc["checks"])
            if c["detail"] != g["detail"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        problems.add(f"unreadable report: {exc}")
    return report


def t_labels(header, rows) -> list:
    """Labels of the lowest four states at the first labelled k-point."""
    k_col, b_col, l_col = (header.index(c) for c in ("k_index", "band", "rep_label"))
    labelled = [row for row in rows if row[l_col]]
    if not labelled:
        return []
    first_k = labelled[0][k_col]
    at_t = sorted((int(row[b_col]), row[l_col]) for row in labelled
                  if row[k_col] == first_k)
    return [label for _, label in at_t[:4]]


def check_csv_structure(golden: bytes, actual: bytes, expected_rows: int,
                        tolerances, plane_wave_bands: bool) -> dict:
    """Structural check of a CSV from a non-default seed."""
    problems = _Problems()
    g_header, _ = _parse(golden.decode("utf-8"), tolerances)
    header, rows = _parse(actual.decode("utf-8", errors="replace"), tolerances)
    report = {"identical": golden == actual, "rows": len(rows),
              "columns": {}, "problems": problems}
    if header != g_header:
        problems.add(f"header changed: {','.join(header)}")
        return report
    if len(rows) != expected_rows:
        problems.add(f"row count {len(rows)}, expected {expected_rows}")
    check_values(header, rows, tolerances, problems)
    if plane_wave_bands and not problems:
        labels = t_labels(header, rows)
        if labels != T_LABELS:
            problems.add(f"lowest T labels {labels}, expected {T_LABELS}")
    return report


def check_report_structure(golden: bytes, actual: bytes) -> dict:
    """A non-default seed's validation report passes with the same checks."""
    problems = _Problems()
    report = {"identical": golden == actual, "problems": problems,
              "changed_details": []}
    try:
        doc = json.loads(actual)
        names = [name for name, _ in _checks(doc)]
        g_names = [name for name, _ in _checks(json.loads(golden))]
        if doc["passed"] is not True:
            problems.add("validation did not pass")
        if names != g_names:
            problems.add(f"checks {names}, golden {g_names}")
    except (ValueError, KeyError, TypeError) as exc:
        problems.add(f"unreadable report: {exc}")
    return report

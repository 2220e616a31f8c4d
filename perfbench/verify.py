"""Correctness checks on the outputs of one benchmark invocation.

Every seed: the exit code is 0, the report parses strictly (no NaN or
Infinity), every built-in verdict holds, and the audit dump agrees with
its report.  On the reference seed the parsed outputs must also match the
committed reference outputs: exit codes, verdicts, integers and strings
exactly, floats to ``REL_TOL``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

# 2^-43 ~ 1.1e-13, about 500 ulp of a double: a reordered or regrouped
# exact sum of positive terms moves a few ulp, a wrong term moves more
REL_TOL = 2.0**-43
# rounding-level error estimates; both sides below the package's own
# oracle tolerance count as equal
NOISE_FLOOR = {"oracle_rel_diff": 1e-12}

SWEEP_HEADER = ["delta", "computed", "bound", "margin", "verdict"]
TABLE1_HEADER = ["T_minus", "T_plus", "G_KLB1", "G_KLB21", "G_KLB22"]
DUMP_HEADER = ["q", "p", "class", "k", "a", "strip_n", "L"]
REPORT_KEYS = {"command", "params", "results", "verdicts", "version"}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        if not math.isfinite(value):
            raise ValueError(f"non-finite CSV value {text!r}")
        return value
    return text


def _csv(text: str, header: list) -> list:
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != header:
        raise ValueError(f"CSV header {rows[:1]} is not {header}")
    return [[_cell(c) for c in row] for row in rows[1:]]


def load_report(path: str, kind: str):
    """Parsed report: a dict for JSON, a list of typed rows for CSV."""
    with open(path) as fh:
        text = fh.read()
    if kind == "json":
        report = json.loads(text, parse_constant=_reject_constant)
        if not isinstance(report, dict) or set(report) != REPORT_KEYS:
            raise ValueError(f"report keys {sorted(report)} are not {sorted(REPORT_KEYS)}")
        return report
    return _csv(text, SWEEP_HEADER if kind == "sweep" else TABLE1_HEADER)


def dump_summary(path: str) -> dict:
    """Row and class counts, exact sum of L and a digest of the exact columns."""
    classes: dict = {}
    digest = hashlib.sha256()
    L = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != DUMP_HEADER:
            raise ValueError("dump header mismatch")
        for row in reader:
            classes[row[2]] = classes.get(row[2], 0) + 1
            digest.update(",".join(row[:6]).encode() + b"\n")
            value = float(row[6])
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"dump L value {row[6]!r} at q={row[0]} p={row[1]}")
            L.append(value)
    return {
        "rows": len(L),
        "classes": dict(sorted(classes.items())),
        "L_sum": math.fsum(L),
        "exact_columns_sha256": digest.hexdigest(),
    }


def close(a: float, b: float, key: str = "") -> bool:
    if a == b:
        return True
    floor = NOISE_FLOOR.get(key)
    if floor is not None and abs(a) <= floor and abs(b) <= floor:
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(ref, got, path: str = "") -> list:
    """Differences between a reference and a measured value, as messages."""
    if isinstance(ref, float) and type(got) is float:
        if close(ref, got, path.rsplit(".", 1)[-1]):
            return []
        return [f"{path}: expected {ref!r}, got {got!r} (relative bound {REL_TOL:.2g})"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys differ"]
        return [m for k in ref for m in compare(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: lengths differ"]
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in compare(r, g, f"{path}[{i}]")]
    if type(ref) is type(got) and ref == got:
        return []
    return [f"{path}: expected {ref!r}, got {got!r}"]


def builtin_problems(inv, report, dump) -> list:
    """Verdicts and invariants every seed must satisfy."""
    problems = []
    if inv.report == "json":
        if report["command"] != inv.args[0]:
            problems.append(f"command {report['command']!r} is not {inv.args[0]!r}")
        problems += [f"verdict {k} is {v!r}"
                     for k, v in report["verdicts"].items() if v is not True]
        results = report["results"]
        if inv.args[0] == "solve":
            for norm in ("data_norm", "solution_norm"):
                if not results[norm]["sampled_lower"] <= results[norm]["upper"]:
                    problems.append(f"{norm}: sampled lower bound exceeds the upper bound")
    elif inv.report == "sweep":
        if not report:
            problems.append("sweep has no rows")
        problems += [f"sweep delta {row[0]}: verdict {row[4]!r}"
                     for row in report if row[4] is not True]
    elif len(report) != 11 or not all(v >= 0 for row in report for v in row[2:]):
        problems.append("table1 needs 11 rows of nonnegative constants")
    if dump is not None:
        results = report["results"]
        Q = report["params"]["Q"]
        if dump["rows"] != (2 * Q + 1) ** 2 - 1:
            problems.append(f"dump has {dump['rows']} rows for Q = {Q}")
        if dump["classes"] != {k: v for k, v in sorted(results["counts"].items()) if v}:
            problems.append(f"dump classes {dump['classes']} differ from the report counts")
        if not close(dump["L_sum"], results["oracle_total"]):
            problems.append(f"dump L sum {dump['L_sum']!r} is not oracle_total")
    return problems

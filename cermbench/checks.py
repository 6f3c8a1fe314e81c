"""Correctness checks on a workload's results CSV.

Every check rests on a property the method must have, or on arithmetic done
here apart from cerm; none compares against a stored copy of the output.
``check_rows`` and ``check_same`` return {check name: [failure, ...]}, with
an empty list for a check that passed, so a caller can see which checks ran.
"""

from __future__ import annotations

import csv
import math

import workloads

WALL_COLUMN = "wall_time_ms"
REQUIRED = ("member_mean_excess", "ensemble_excess", "ensemble_excess_se")
OPTIONAL = ("psi_hat", "bracket_total")
EXCESS = ("member_mean_excess", "ensemble_excess", "psi_hat")
JENSEN_RTOL = 1e-9  # the two sides sum the same squared losses in another order
EXACT_RTOL = 1e-12  # rounding only


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _without_wall_time(rows: list[dict]) -> list[tuple]:
    """The rows without the wall-time column, which is outside the
    determinism contract."""
    return [tuple((key, val) for key, val in row.items() if key != WALL_COLUMN) for row in rows]


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def check_rows(workload: str, config: dict, rows: list[dict]) -> dict[str, list[str]]:
    """Check one CSV of ``workload`` written by ``run_experiment(config)``."""
    fails: dict[str, list[str]] = {"no_error": [], "finite": [], "nonnegative": [], "grid": [], "k_rule": []}
    if workload == "reg_spectral":
        fails["jensen"] = []
        fails["bracket"] = []
    else:
        fails["vote"] = []
    if workload == "assouad_small":
        fails["exact_se"] = []

    grid = [
        (n, m, t)
        for n in sorted(set(config["n_list"]))
        for m in sorted(set(config["m_list"]))
        for t in range(config["trials"])
    ]
    try:
        got = [(int(r["n"]), int(r["m"]), int(r["trial"])) for r in rows]
    except (KeyError, ValueError) as exc:
        got = None
        fails["grid"].append(f"unreadable n/m/trial column: {exc}")
    if got is not None and got != grid:
        fails["grid"].append(f"rows {got} differ from the configured grid {grid}")

    for i, row in enumerate(rows):
        where = f"row {i}"
        if row.get("error", ""):
            fails["no_error"].append(f"{where}: {row['error']}")
            continue
        num = {}
        required = REQUIRED + (OPTIONAL if workload == "reg_spectral" else ())
        for col in REQUIRED + OPTIONAL:
            text = row.get(col, "")
            if text == "" and col not in required:
                continue
            val = _number(text)
            if val is None or not math.isfinite(val):
                fails["finite"].append(f"{where}: {col}={text!r}")
            else:
                num[col] = val
        for col in EXCESS + ("ensemble_excess_se",):
            if col in num and num[col] < 0.0:
                fails["nonnegative"].append(f"{where}: {col}={num[col]!r} < 0")
        try:
            n, k, m = int(row["n"]), int(row["k"]), int(row["m"])
        except (KeyError, ValueError) as exc:
            fails["k_rule"].append(f"{where}: unreadable n/k/m: {exc}")
            continue
        if k != workloads.expected_k(workload, n):
            fails["k_rule"].append(f"{where}: k={k} at n={n}, rule gives {workloads.expected_k(workload, n)}")

        member, ens = num.get("member_mean_excess"), num.get("ensemble_excess")
        if member is None or ens is None:
            continue
        if workload == "reg_spectral":
            # Jensen: the clipped mean is the mean (members lie in [-beta, beta]),
            # and the squared loss is convex on the shared test draw.
            if ens > member * (1.0 + JENSEN_RTOL):
                fails["jensen"].append(f"{where}: ensemble {ens!r} > member mean {member!r}")
            psi, total = num.get("psi_hat"), num.get("bracket_total")
            if psi is not None and total is not None:
                want = workloads.expected_bracket(psi, n, k, m)
                if abs(total - want) > EXACT_RTOL * abs(want):
                    fails["bracket"].append(f"{where}: bracket_total {total!r} != {want!r}")
        elif ens > 2.0 * member * (1.0 + EXACT_RTOL):
            # A wrong majority vote needs at least half of the members wrong there.
            fails["vote"].append(f"{where}: ensemble {ens!r} > 2 x member mean {member!r}")
        if workload == "assouad_small" and num.get("ensemble_excess_se") != 0.0:
            fails["exact_se"].append(f"{where}: ensemble_excess_se={row.get('ensemble_excess_se')!r} != 0")
    return fails


def check_same(reps: list[list[dict]]) -> dict[str, list[str]]:
    """Determinism contract: every repetition gives the same CSV values."""
    fails = []
    first = _without_wall_time(reps[0]) if reps else []
    for i, rows in enumerate(reps[1:], start=1):
        if _without_wall_time(rows) != first:
            fails.append(f"repetition {i} differs from repetition 0")
    return {"determinism": fails}

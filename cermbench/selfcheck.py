"""Show that every CSV check passes on real output and fails on corrupted output.

    python3 cermbench/selfcheck.py

Run from the root of a checkout.  Runs each workload's experiment once
(seed 1), checks the CSVs it writes, then applies one deliberate
corruption per check and confirms that the check catches it.  Exits 1 if a
check fails on real output or misses its corruption.
"""

from __future__ import annotations

import copy
import math
import os
import shutil
import sys

import checks
import run
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _set(rows, col, fn):
    rows = copy.deepcopy(rows)
    rows[0][col] = fn(rows[0])
    return rows


def corruptions(workload: str) -> dict:
    """Check name -> a function from good rows to rows that check must reject."""
    out = {
        "no_error": lambda r: _set(r, "error", lambda row: "ValueError: corrupted"),
        "finite": lambda r: _set(r, "ensemble_excess", lambda row: "nan"),
        "nonnegative": lambda r: _set(r, "ensemble_excess", lambda row: "-1e-06"),
        "grid": lambda r: _set(r, "trial", lambda row: str(int(row["trial"]) + 7)),
        "k_rule": lambda r: _set(r, "k", lambda row: str(int(row["k"]) + 1)),
    }
    if workload == "reg_spectral":
        out["jensen"] = lambda r: _set(r, "ensemble_excess", lambda row: repr(1.01 * float(row["member_mean_excess"])))
        out["bracket"] = lambda r: _set(r, "bracket_total", lambda row: repr(float(row["bracket_total"]) * (1 + 1e-9)))
    else:
        out["vote"] = lambda r: _set(r, "ensemble_excess", lambda row: repr(2.01 * float(row["member_mean_excess"])))
    if workload == "assouad_small":
        out["exact_se"] = lambda r: _set(r, "ensemble_excess_se", lambda row: "1e-05")
    return out


def main() -> int:
    src = os.path.abspath("src")
    env = run.child_env(src)  # the workload processes' environment, set before numpy loads
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, src)
    import cerm

    out_dir = os.path.join(BENCH_DIR, "out", f"selfcheck-{os.getpid()}")
    bad = 0
    try:
        for workload in workloads.WORKLOADS:
            for config in workloads.configs(workload, 1, out_dir):
                rows = checks.read_csv(cerm.run_experiment(config))
                label = f"{workload}/{os.path.basename(config['output'])}"
                base = {k: v for k, v in checks.check_rows(workload, config, rows).items() if v}
                base.update({k: v for k, v in checks.check_same([rows, rows]).items() if v})
                print(f"{label}: real output {'passes every check' if not base else 'FAILS ' + str(base)}")
                bad += bool(base)
                for name, corrupt in corruptions(workload).items():
                    failed = sorted(k for k, v in checks.check_rows(workload, config, corrupt(rows)).items() if v)
                    caught = name in failed
                    bad += not caught
                    print(f"  corrupt {name:12s} -> failing checks {failed} {'caught' if caught else 'MISSED'}")
                nudged = _set(rows, "ensemble_excess", lambda row: repr(math.nextafter(float(row["ensemble_excess"]), math.inf)))
                caught = bool(checks.check_same([rows, nudged])["determinism"])
                bad += not caught
                print(f"  corrupt {'determinism':12s} -> {'caught' if caught else 'MISSED'} (last bit of one value)")
                timing = _set(rows, checks.WALL_COLUMN, lambda row: "1.5")
                spared = not checks.check_same([rows, timing])["determinism"]
                bad += not spared
                print(f"  wall time only differs  -> {'passes' if spared else 'WRONGLY FAILS'}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("selfcheck " + ("ok" if not bad else f"FAILED ({bad} problems)"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

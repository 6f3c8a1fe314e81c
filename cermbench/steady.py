"""Steadiness check: two sets of runs of the same code, compared metric by metric.

    python3 cermbench/steady.py [--runs 10]

Run from the root of a checkout.  For each workload of BENCHMARK.json,
run i of set A uses seed i + 1 and run i of set B seed 101 + i; the two
sets alternate which goes first.  For every metric the report gives each
set's median, quartiles and spread (quartile distance over median), the
shift of set B's median against set A's in the worse direction, and the
bound from BENCHMARK.json.  A metric passes when both spreads are within
the bound and set B's median is not worse than set A's by more than the
bound; a spread above a third of the bound is marked "wide".  The failed
share of trials must be exactly equal in every run.  The report is also
written to cermbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    report = {"run_seconds": bench["run_seconds"], "runs": args.runs, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed = i + 1 if label == "A" else 101 + i
                res = run_once(workload, seed, bench["run_seconds"])
                sets[label].append(res)
                print(f"{workload} set {label} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} wall={res['wall_s']:.1f}s "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        runs = sets["A"] + sets["B"]
        shares = {r["failed"] / r["attempted"] for r in runs}
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted(shares),
            "failed_share_equal": len(shares) == 1,
            "metrics": {},
        }
        ok &= entry["correct"] and entry["failed_share_equal"]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            row = {label: summarize([r["metrics"][name]["value"] for r in sets[label]]) for label in sets}
            bound = row["bound"] = metric["bound"]
            a, b = row["A"]["median"], row["B"]["median"]
            shift = (b - a) / a if a else 0.0
            row["shift"] = shift if metric["better"] == "lower" else -shift
            spread = max(row["A"]["spread"], row["B"]["spread"])
            row["pass"] = spread <= bound and row["shift"] <= bound
            row["wide"] = spread > bound / 3
            ok &= row["pass"]
            entry["metrics"][name] = row
            line = f"{workload:14s} {name:14s}"
            for label in sets:
                s = row[label]
                line += f" {label}: med {s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] spread {s['spread']:.3%}"
            line += f" shift {row['shift']:+.3%} bound {bound:.0%} {'ok' if row['pass'] else 'FAIL'}"
            print(line + (" wide" if row["wide"] else ""), flush=True)
        report["workloads"][workload] = entry
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"{'steady' if ok else 'NOT steady'}; report in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

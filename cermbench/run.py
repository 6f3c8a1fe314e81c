"""Benchmark of cerm's rate experiments, end to end and layer by layer.

    python3 cermbench/run.py --workload cls_margin --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each run starts fresh processes
with BLAS and OpenMP at one thread and ``CERM_THREADS`` unset, so only the
config sets the thread budget:

* set-up probes (``--trace 0`` only): fresh processes that import cerm,
  validate the workload's configs and build their distributions; ``setup_s``
  is the median over the probes and the workload process's own set-up;
* one workload process that repeats the workload's ``run_experiment`` calls
  for ``--seconds``; ``experiment_s`` is the median repetition and
  ``peak_rss_mb`` the process's peak resident memory.  With ``--trace 1``
  the repetitions alternate untraced and traced, and the traced ones give
  the per-layer metrics (see spans.py).

Every repetition's CSVs are checked (see checks.py).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; ``attempted`` counts trials and ``failed`` the trials whose CSV
row has an error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4  # before and again after the workload process
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {"setup_s": "s", "experiment_s": "s", "peak_rss_mb": "MB"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("CERM_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = src
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Start worker.py in a fresh process; return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args, "--t0", repr(_now())]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker {args[:3]} ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker {args[:3]} exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def why(workload: str) -> str:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return next(w["why"] for w in json.load(fh)["workloads"] if w["name"] == workload)


def evaluate(workload: str, configs: list[dict], reps: list[dict]) -> tuple[dict, int, int]:
    """Run every check on every repetition; return (failures, attempted, failed)."""
    fails: dict[str, list[str]] = {}
    attempted = failed = 0
    for r, rep in enumerate(reps):
        for config, rows in zip(configs, rep["csv"]):
            attempted += len(rows)
            failed += sum(1 for row in rows if row.get("error"))
            for name, msgs in checks.check_rows(workload, config, rows).items():
                fails.setdefault(name, []).extend(f"rep {r} {config['output']}: {m}" for m in msgs)
    for c in range(len(configs)):
        for name, msgs in checks.check_same([rep["csv"][c] for rep in reps]).items():
            fails.setdefault(name, []).extend(msgs)
    return fails, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = _now() + DEADLINE_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "cerm", "__init__.py")):
        print(f"no cerm sources under {src}; run from the root of a cerm checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(BENCH_DIR, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(src)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--out", out_dir]
    try:
        setups = []
        if not args.trace:
            run_worker(["setup", *base], env, deadline)  # warm-up: writes the bytecode caches
            setups += [run_worker(["setup", *base], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = run_worker(
            ["run", *base, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
        if not args.trace:
            setups += [run_worker(["setup", *base], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    configs = workloads.configs(args.workload, args.seed, out_dir)
    reps = result["reps"]
    fails, attempted, failed = evaluate(args.workload, configs, reps)
    plain = [rep["experiment_s"] for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]

    print(f"workload {args.workload}: {why(args.workload)}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"experiment_s per repetition (untraced): {[round(t, 4) for t in plain]}")
    if traced:
        print(f"experiment_s per repetition (traced): {[round(r['experiment_s'], 4) for r in traced]}")
    if setups:
        print(f"setup_s per probe: {[round(t, 4) for t in setups]}, in the workload process: {result['setup_s']:.4f}")
    for name, msgs in sorted(fails.items()):
        print(f"check {name}: {'ok' if not msgs else 'FAILED'}")
        for msg in msgs[:5]:
            print(f"  {msg}")

    if args.trace:
        values = spans.median_metrics([rep["layers"] for rep in traced])
        values["harness.output_bytes"] = statistics.median_low(rep["output_bytes"] for rep in traced)
        values["trace.overhead_s"] = statistics.median(r["experiment_s"] for r in traced) - statistics.median(plain)
        units = spans.LAYER_METRICS
    else:
        values = {
            "setup_s": statistics.median(setups + [result["setup_s"]]),
            "experiment_s": statistics.median(plain),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not any(fails.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: set up, then repeat the workload's experiment.

    python3 cermbench/worker.py setup --workload W --seed N --out DIR --t0 T
    python3 cermbench/worker.py run --workload W --seed N --out DIR --t0 T \\
        --seconds S --trace 0|1

``run.py`` starts it in a fresh process with ``PYTHONPATH`` set to the
checkout's ``src``.  ``--t0`` is the parent's CLOCK_MONOTONIC reading just
before the start, so set-up time counts the interpreter start and the
imports.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import checks
import workloads


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _setup(args):
    import cerm

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cerm.__file__).startswith(src + os.sep):
        raise SystemExit(f"cerm was imported from {cerm.__file__}, not from {src}")
    configs = workloads.configs(args.workload, args.seed, args.out)
    for raw in configs:
        cerm.ExperimentConfig.from_dict(raw).make_dist()
    return cerm, configs, _now() - args.t0


def _environment(cerm, configs) -> dict:
    import numpy as np
    import scipy

    if cerm.harness.THREADS_ENV_VAR in os.environ:
        raise SystemExit(f"{cerm.harness.THREADS_ENV_VAR} is set; the configs must set the thread budget")
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cerm": cerm.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "thread_budget": [raw["threads"] for raw in configs],
    }


def _output_bytes(csv_path: str) -> int:
    stem = csv_path[: -len(".csv")]
    return os.path.getsize(csv_path) + os.path.getsize(stem + ".manifest.jsonl")


def _run(args):
    cerm, configs, setup_s = _setup(args)
    env = _environment(cerm, configs)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    # Traced and untraced repetitions alternate, untraced first.
    min_reps = 4 if args.trace else 3
    reps = []
    start = _now()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            paths = [cerm.run_experiment(raw) for raw in configs]
            dt = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        rep = {
            "traced": traced,
            "experiment_s": dt,
            "csv": [checks.read_csv(p) for p in paths],
            "output_bytes": sum(_output_bytes(p) for p in paths),
        }
        if traced:
            rep["layers"] = tracer.layer_metrics()
        reps.append(rep)
        if len(reps) >= min_reps and _now() - start + dt > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "env": env, "reps": reps, "peak_rss_mb": peak_kb / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = {"setup_s": _setup(args)[2]}
    else:
        result = _run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

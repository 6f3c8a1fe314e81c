"""The benchmark's workloads: experiment configs generated from a seed.

Each workload is one or more ``run_experiment`` configs.  ``configs`` is a
pure function of (workload, seed, output directory), so the same seed gives
the same inputs.  The seed picks the configs' ``master_seed`` and, for the
Assouad family, the member's sign pattern; the laws and grid shapes are
fixed, so every seed does the same amount of work.

This module uses the standard library only: the parent process imports it
to check results without importing numpy.
"""

from __future__ import annotations

import math
import os
import random

#: The workloads ``configs`` builds; BENCHMARK.json gives the reason for each.
WORKLOADS = ("cls_margin", "reg_spectral", "assouad_small")

#: Assouad size.  AssouadDist.atoms() refuses q >= 6324, so q stays below it.
#: At q=3000 the dense (q+1)^2 atom matrix is 72 MB: peak memory reads about
#: 150 MB against about 110 MB at q=1000 or 2000, and the matrix's projections
#: and sums take about 2.5 s of a 6.5 s repetition, while the exact enumerator
#: still takes the largest share.  At q=4000 the matrix work overtakes it.
ASSOUAD_Q = 3000
#: Exponents the Assouad member's (r, v, epsilon) are built from, with the
#: formulas of build_assouad_family evaluated at q = ASSOUAD_Q.
ASSOUAD_EXPONENTS = (2.0, 2.0, 0.5)

#: Descent cap of the classification members.  At this shape the first
#: plateau stops come after 150 steps, so every member runs exactly 150
#: steps on every seed; at criterion 10's cap of 500 the plateau stops made
#: one trial's training time vary twofold from seed to seed.
CLS_SOLVER_ITERS = 150

DELTA = 0.05  # the harness default, restated for the bracket check


def master_seed(seed: int) -> int:
    """The configs' master seed: a fixed, invertible mix of the workload seed."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return (seed * 0x9E3779B97F4A7C15 + 20260817) % (1 << 63)


def _assouad_distribution(seed: int) -> dict:
    gamma, rho, alpha = ASSOUAD_EXPONENTS
    two_gr = 2.0 * (gamma + rho)
    q = ASSOUAD_Q
    rng = random.Random(seed)
    return {
        "type": "assouad",
        "q": q,
        "r": q ** (gamma / two_gr),
        "v": q ** (-rho * gamma * alpha / two_gr),
        "epsilon": q ** (-gamma * rho * (1.0 - alpha) / two_gr),
        "sigma": [rng.choice((-1, 1)) for _ in range(q)],
    }


def configs(workload: str, seed: int, out_dir: str) -> list[dict]:
    """The ``run_experiment`` configs one repetition of the workload runs."""
    ms = master_seed(seed)
    if workload == "cls_margin":
        return [
            {
                "distribution": {"type": "gauss_margin", "d": 50, "gamma": 2.0, "rho": 2.0, "alpha": 0.0},
                "n_list": [4096],
                "m_list": [25],
                "k_rule": {"rule": "classification", "gamma": 2.0, "rho": 2.0, "alpha": 0.0},
                "trials": 2,
                "n_test": 50_000,
                "master_seed": ms,
                "solver": "surrogate",
                "solver_iters": CLS_SOLVER_ITERS,
                "threads": 2,
                "output": os.path.join(out_dir, "cls_margin"),
            }
        ]
    if workload == "reg_spectral":
        return [
            {
                "distribution": {
                    "type": "regression",
                    "d": 32,
                    "spectral_constant": 1.0,
                    "spectral_decay": 0.2,
                    "w": [1.0] * 32,
                },
                "n_list": [8192],
                "m_list": [25],
                "k_rule": {"rule": "regression"},
                "trials": 1,
                "n_test": 50_000,
                "master_seed": ms,
                "solver_iters": 300,
                "threads": 1,
                "compressibility": {"reps": 3, "pop_factor": 1},
                "output": os.path.join(out_dir, "reg_spectral"),
            }
        ]
    if workload == "assouad_small":
        dist = _assouad_distribution(seed)
        return [
            {
                "distribution": dist,
                "n_list": [200],
                "m_list": [25],
                "k_rule": {"rule": "fixed", "k": 2},
                "trials": 1,
                "master_seed": ms,
                "solver": solver,
                "solver_iters": 500,
                "threads": 1,
                "output": os.path.join(out_dir, f"assouad_{solver}"),
            }
            for solver in ("exact", "surrogate")
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def log_plus(x: float) -> float:
    return max(math.log(x), 1.0)


def expected_k(workload: str, n: int) -> int:
    """k computed apart from cerm: the classification rule at gamma=rho=2,
    alpha=0 is ceil((n / log+ n)^(1/2)); the regression rule is ceil(log+ n)."""
    if workload == "cls_margin":
        return math.ceil((n / log_plus(n)) ** 0.5)
    if workload == "reg_spectral":
        return math.ceil(log_plus(n))
    return 2


def expected_bracket(psi_hat: float, n: int, k: int, m: int) -> float:
    """psi + ((k log+ n + log+(1/delta)) / n)^(1/(2-alpha)) + log+(1/delta) / m,
    with alpha = 1, the regression rule's exponent."""
    alpha = 1.0
    conf = log_plus(1.0 / DELTA)
    return psi_hat + ((k * log_plus(n) + conf) / n) ** (1.0 / (2.0 - alpha)) + conf / m

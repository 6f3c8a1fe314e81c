"""Command-line front end.

Subcommands:

* ``run`` — execute an experiment config and print the results path.
* ``fit`` — fit a power law to a results CSV.
* ``compressibility`` — estimate the compressed-class gap over a k list.
* ``check-dist`` — run the assumption checkers on a distribution spec; a
  finite-support or Assouad law reports its atom count and exact Bayes risk.
* ``jl-check`` — empirical distortion check for a projection family.
* ``ols-check`` — sketched-least-squares bound check on a spectral design.

All subcommands read JSON and print JSON, one result object per run.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness import ExperimentConfig, fit_rate, run_experiment
from .hypotheses import EXACT_MAX_K, EXACT_MAX_N
from .projections import FAMILIES, empirical_jl_check, jl_target_dim, sample_projection
from .riskbounds import estimate_compressibility, sketched_ols_ratio
from .seeds import derive_seed
from .synthdist import (
    RegressionDist,
    check_geometric_margin,
    check_moment,
    check_spectral_decay,
    check_tsybakov,
    dist_from_config,
)

__all__ = ["main"]


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload: dict):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True, default=_jsonable)
    sys.stdout.write("\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_dict(_load_json(args.config))
    path = run_experiment(config)
    _emit({"results": path, "manifest": config.output + ".manifest.jsonl"})
    return 0


def _cmd_fit(args) -> int:
    _emit(fit_rate(args.results, x_field=args.x, y_field=args.y))
    return 0


def _cmd_compressibility(args) -> int:
    k_list = [int(tok) for tok in args.k_list.split(",") if tok]
    if not k_list:
        raise ValueError("--k-list must name at least one k")
    if args.solver == "exact":
        # The exact solver refuses larger fits, but only after the points
        # are sampled; refuse the flags before any work, as configs are.
        if args.pop_n > EXACT_MAX_N:
            raise SystemExit(
                f"cerm compressibility: --pop-n {args.pop_n}: "
                f"the exact solver takes n <= {EXACT_MAX_N}"
            )
        if max(k_list) > EXACT_MAX_K:
            raise SystemExit(
                f"cerm compressibility: --k-list has k = {max(k_list)}: "
                f"the exact solver takes k <= {EXACT_MAX_K}"
            )
    dist = dist_from_config(_load_json(args.dist_spec))
    out = []
    for i, k in enumerate(sorted(set(k_list))):
        est = estimate_compressibility(
            dist,
            args.family,
            k,
            reps=args.reps,
            pop_n=args.pop_n,
            solver=args.solver,
            seed=derive_seed(args.seed, i),
        )
        out.append({"k": k, "psi_hat": est.value, "se": est.std_error})
    _emit({"family": args.family, "estimates": out})
    return 0


def _cmd_check_dist(args) -> int:
    dist = dist_from_config(_load_json(args.dist_spec))
    report: dict = {"type": type(dist).__name__}
    if isinstance(dist, RegressionDist):
        X, _ = dist.sample(args.mc_n, args.seed)
        spectral = check_spectral_decay(X)
        report["spectral"] = {
            "omega_hat": spectral["omega_hat"],
            "C_hat": spectral["C_hat"],
            "rank_deficient": spectral["rank_deficient"],
        }
        report["bayes_risk"] = dist.bayes_risk(seed=args.seed).value
    elif hasattr(dist, "atoms"):
        report["atom_count"] = len(dist.atoms()[1])
        report["bayes_risk"] = dist.bayes_risk().value
    else:
        xi_grid = np.geomspace(0.05, 0.8, 6)
        s_grid = np.geomspace(1.5, 12.0, 6)
        eps_grid = np.geomspace(0.05, 0.8, 6)
        geom = check_geometric_margin(dist, xi_grid, mc_n=args.mc_n, seed=args.seed)
        moment = check_moment(dist, s_grid, mc_n=args.mc_n, seed=args.seed)
        tsy = check_tsybakov(dist, eps_grid, mc_n=args.mc_n, seed=args.seed)
        report["geometric_margin"] = {
            "gamma_hat": geom["gamma_hat"],
            "pass_fraction": float(np.mean(geom["passes"])),
        }
        report["moment"] = {
            "rho_hat": moment["rho_hat"],
            "pass_fraction": float(np.mean(moment["passes"])),
        }
        report["tsybakov"] = {
            "exponent_hat": tsy["exponent_hat"],
            "target_exponent": tsy["target_exponent"],
            "pass_fraction": float(np.mean(tsy["passes"])),
        }
        report["bayes_risk"] = dist.bayes_risk().value
    _emit(report)
    return 0


def _cmd_jl_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    points = rng.standard_normal((args.q, args.d))
    k = args.k if args.k is not None else jl_target_dim(args.q, args.delta, args.epsilon)
    failure_rate = empirical_jl_check(
        args.family, points, args.epsilon, k, trials=args.trials, seed=derive_seed(args.seed, 1)
    )
    _emit(
        {
            "family": args.family,
            "k": k,
            "epsilon": args.epsilon,
            "trials": args.trials,
            "failure_rate": failure_rate,
            "target_delta": args.delta,
        }
    )
    return 0


def _cmd_ols_check(args) -> int:
    if args.d > args.q:
        raise ValueError("need d <= q to realize the spectral design exactly")
    rng = np.random.default_rng(args.seed)
    scales = np.sqrt(args.spectral_constant * args.decay ** np.arange(1, args.d + 1))
    basis, _ = np.linalg.qr(rng.standard_normal((args.q, args.q)))
    Xmat = scales[:, None] * basis[: args.d, :]
    w_diamond = rng.standard_normal(args.d)
    successes = 0
    ratios = []
    for trial in range(args.trials):
        pmap = sample_projection("gaussian", args.k, args.d, derive_seed(args.seed, trial + 1))
        ratio = sketched_ols_ratio(Xmat, w_diamond, pmap, args.r)["ratio"]
        ratios.append(ratio)
        if ratio <= 1.0:
            successes += 1
    _emit(
        {
            "d": args.d,
            "q": args.q,
            "k": args.k,
            "r": args.r,
            "trials": args.trials,
            "within_bound": successes,
            "max_ratio": float(np.max(ratios)),
            "median_ratio": float(np.median(ratios)),
        }
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cerm", description="Compressive ensemble ERM experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.set_defaults(func=_cmd_run)

    p_fit = sub.add_parser("fit", help="fit a power law to results")
    p_fit.add_argument("results", help="path to a results CSV")
    p_fit.add_argument("--x", default="n", choices=("n", "k", "m"))
    p_fit.add_argument("--y", default="ensemble_excess")
    p_fit.set_defaults(func=_cmd_fit)

    p_psi = sub.add_parser("compressibility", help="estimate the compressed-class gap per k")
    p_psi.add_argument("dist_spec", help="path to a distribution spec JSON")
    p_psi.add_argument("--k-list", required=True, help="comma-separated k values")
    p_psi.add_argument("--family", default="gaussian", choices=FAMILIES)
    p_psi.add_argument("--reps", type=int, default=32)
    p_psi.add_argument("--pop-n", type=int, default=2000)
    p_psi.add_argument("--solver", default="surrogate", choices=("surrogate", "exact"))
    p_psi.add_argument("--seed", type=int, default=0)
    p_psi.set_defaults(func=_cmd_compressibility)

    p_check = sub.add_parser("check-dist", help="run the assumption checkers")
    p_check.add_argument("dist_spec", help="path to a distribution spec JSON")
    p_check.add_argument("--mc-n", type=int, default=100_000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check_dist)

    p_jl = sub.add_parser("jl-check", help="empirical distortion check")
    p_jl.add_argument("--family", default="gaussian", choices=FAMILIES)
    p_jl.add_argument("--q", type=int, default=50)
    p_jl.add_argument("--d", type=int, default=256)
    p_jl.add_argument("--epsilon", type=float, default=0.5)
    p_jl.add_argument("--delta", type=float, default=0.05)
    p_jl.add_argument("--k", type=int, default=None, help="override the target dimension")
    p_jl.add_argument("--trials", type=int, default=400)
    p_jl.add_argument("--seed", type=int, default=0)
    p_jl.set_defaults(func=_cmd_jl_check)

    p_ols = sub.add_parser("ols-check", help="sketched-least-squares bound check")
    p_ols.add_argument("--d", type=int, default=40)
    p_ols.add_argument("--q", type=int, default=40)
    p_ols.add_argument("--k", type=int, default=15)
    p_ols.add_argument("--r", type=int, default=5)
    p_ols.add_argument("--decay", type=float, default=0.5)
    p_ols.add_argument("--spectral-constant", type=float, default=1.0)
    p_ols.add_argument("--trials", type=int, default=100)
    p_ols.add_argument("--seed", type=int, default=0)
    p_ols.set_defaults(func=_cmd_ols_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

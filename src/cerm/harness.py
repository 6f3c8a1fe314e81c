"""Declarative experiment runner.

A JSON config names a distribution, a loss, a projection family, sweep lists
for the sample size n and ensemble size m, a rule for picking the compressed
dimension k, and seeding/output choices.  ``run_experiment`` executes every
(n, m) cell for the configured number of trials, writes one CSV row per
trial, and records a JSONL manifest with the config hash, library version,
and every seed used.  ``fit_rate`` turns a results file into a fitted
power-law exponent with a confidence interval.

Determinism contract: all randomness flows from ``master_seed`` through
``derive_seed``; rows are emitted in sorted (n, k, m, trial) order; thread
budgets change scheduling only, never values.  The wall-time column is the
single exception and is excluded from the reproducibility guarantee.

The risk-bound bracket needs a confidence level even though none is
observable in an experiment; it is fixed at delta = 0.05 (configurable) and
recorded here because the bracket serves as a shape diagnostic, not a
calibrated certificate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .ensemble import member_excess_risks, train_ensemble
from .hypotheses import EXACT_MAX_K, EXACT_MAX_N, ScaleGuardError, SweepUncertifiedError
from .losses import LossDomainError, LossSpec
from .projections import FAMILIES
from .riskbounds import (
    estimate_compressibility,
    optimal_k_classification,
    optimal_k_regression,
    risk_bound_bracket,
)
from .seeds import derive_seed
from .synthdist import (
    ConfigError,
    _int_field,
    _loss,
    _number_field,
    _object,
    _require,
    dist_from_config,
)

__all__ = [
    "ConfigError",
    "InsufficientPointsError",
    "ExperimentConfig",
    "Cell",
    "plan_cells",
    "run_experiment",
    "fit_rate",
    "config_hash",
    "CSV_COLUMNS",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "CERM_THREADS"

CSV_COLUMNS = (
    "n",
    "k",
    "m",
    "trial",
    "seed",
    "member_mean_excess",
    "ensemble_excess",
    "ensemble_excess_se",
    "psi_hat",
    "bracket_total",
    "error",
    "wall_time_ms",
)

_K_RULES = ("fixed", "classification", "regression")

#: The numerical failures a trial records in its row's error column.  Any
#: other exception is a fault in the program or its input and ends the run.
_TRIAL_FAILURES = (
    ScaleGuardError,
    SweepUncertifiedError,
    LossDomainError,
    np.linalg.LinAlgError,
)


class InsufficientPointsError(ValueError):
    """Raised when a rate fit has fewer than three usable x values."""


def config_hash(config_dict: dict) -> str:
    """sha256 over the canonical JSON form of the parsed config."""
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _int_list(raw, path: str) -> tuple[int, ...]:
    _require(isinstance(raw, (list, tuple)) and len(raw) > 0, path, "must be a non-empty list")
    return tuple(_int_field(v, f"{path}[{i}]") for i, v in enumerate(raw))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.  Build with ``from_dict``."""

    dist_config: dict
    loss: LossSpec
    family: str
    n_list: tuple[int, ...]
    m_list: tuple[int, ...]
    k_rule: dict
    trials: int
    n_test: int
    master_seed: int
    solver: str
    solver_iters: int
    output: str
    compressibility: dict | None
    bracket_alpha: float | None
    delta: float
    threads: int
    raw: dict

    _KNOWN_KEYS = frozenset(
        {
            "distribution",
            "loss",
            "family",
            "n_list",
            "m_list",
            "k_rule",
            "trials",
            "n_test",
            "master_seed",
            "solver",
            "solver_iters",
            "output",
            "compressibility",
            "bracket_alpha",
            "delta",
            "threads",
        }
    )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "", "config must be a JSON object")
        _object(raw, "", cls._KNOWN_KEYS)

        dist_config = raw.get("distribution")
        _require(isinstance(dist_config, dict), "distribution", "must be an object")
        try:
            dist = dist_from_config(dist_config)
        except Exception as exc:
            raise ConfigError(f"distribution: {exc}") from exc

        loss_cfg = raw.get("loss")
        if loss_cfg is None:
            loss = dist.loss_spec
        else:
            loss = _loss(loss_cfg, "loss")
            _require(
                loss.kind == dist.loss_spec.kind,
                "loss.kind",
                f"distribution expects {dist.loss_spec.kind!r}",
            )
            if loss.kind != "zero_one":
                _require(
                    loss.beta == dist.loss_spec.beta,
                    "loss.beta",
                    f"distribution expects beta = {dist.loss_spec.beta}",
                )

        family = raw.get("family", "gaussian")
        _require(family in FAMILIES, "family", f"must be one of {FAMILIES}")

        n_list = _int_list(raw.get("n_list"), "n_list")
        m_list = _int_list(raw.get("m_list"), "m_list")

        k_rule = raw.get("k_rule")
        _require(isinstance(k_rule, dict), "k_rule", "must be an object")
        rule = k_rule.get("rule")
        _require(rule in _K_RULES, "k_rule.rule", f"must be one of {_K_RULES}")
        if rule == "fixed":
            _object(k_rule, "k_rule", {"rule", "k"})
            _int_field(k_rule.get("k"), "k_rule.k")
        elif rule == "classification":
            _object(k_rule, "k_rule", {"rule", "gamma", "rho", "alpha"})
            for name in ("gamma", "rho", "alpha"):
                val = _number_field(k_rule.get(name), f"k_rule.{name}", "must be a number")
                configured = getattr(dist, name, None)
                if configured is not None:
                    _require(
                        val == float(configured),
                        f"k_rule.{name}",
                        f"inconsistent with the distribution's value {configured}",
                    )
            _require(k_rule["gamma"] > 0, "k_rule.gamma", "must be positive")
            _require(k_rule["rho"] > 0, "k_rule.rho", "must be positive")
            _require(0 <= k_rule["alpha"] < 1, "k_rule.alpha", "must lie in [0, 1)")
        else:
            _object(k_rule, "k_rule", {"rule"})

        trials = _int_field(raw.get("trials"), "trials")
        n_test = _int_field(raw.get("n_test", 100_000), "n_test")
        master_seed = _int_field(raw.get("master_seed", 0), "master_seed", minimum=0)

        solver = raw.get("solver", "surrogate")
        _require(solver in ("surrogate", "exact"), "solver", "must be 'surrogate' or 'exact'")
        if solver == "exact":
            _require(loss.kind == "zero_one", "solver", "'exact' is only defined for the zero-one loss")
        solver_iters = _int_field(raw.get("solver_iters", 2000), "solver_iters")

        output = raw.get("output")
        _require(isinstance(output, str) and len(output) > 0, "output", "must be a non-empty path stem")

        compressibility = raw.get("compressibility")
        if compressibility is not None:
            _object(compressibility, "compressibility", {"reps", "pop_factor"})
            for name in ("reps", "pop_factor"):
                _int_field(compressibility.get(name), f"compressibility.{name}")

        if solver == "exact":
            # The exact solver refuses larger inputs, so such a config would
            # only record ScaleGuardError in every trial after sampling, or
            # end the run in the compressibility fits.
            for n in n_list:
                _require(n <= EXACT_MAX_N, "n_list", f"the exact solver takes n <= {EXACT_MAX_N}, got {n}")
                k = _k_for(k_rule, n)
                _require(
                    k <= EXACT_MAX_K,
                    "k_rule",
                    f"the exact solver takes k <= {EXACT_MAX_K}, but the rule gives k = {k} at n = {n}",
                )
            if compressibility is not None:
                pop_n = compressibility["pop_factor"] * max(n_list)
                _require(
                    pop_n <= EXACT_MAX_N,
                    "compressibility.pop_factor",
                    f"the exact solver takes n <= {EXACT_MAX_N}, but the fits use {pop_n} points",
                )

        bracket_alpha = raw.get("bracket_alpha")
        if bracket_alpha is not None:
            bracket_alpha = _number_field(
                bracket_alpha, "bracket_alpha", "must lie in [0, 1]", lambda v: 0 <= v <= 1
            )
        delta = _number_field(
            raw.get("delta", 0.05), "delta", "must lie in (0, 1)", lambda v: 0 < v < 1
        )
        threads = _int_field(raw.get("threads", 1), "threads")

        return cls(
            dist_config=dist_config,
            loss=loss,
            family=family,
            n_list=n_list,
            m_list=m_list,
            k_rule=dict(k_rule),
            trials=trials,
            n_test=n_test,
            master_seed=master_seed,
            solver=solver,
            solver_iters=solver_iters,
            output=output,
            compressibility=None if compressibility is None else dict(compressibility),
            bracket_alpha=bracket_alpha,
            delta=delta,
            threads=threads,
            raw=raw,
        )

    def make_dist(self):
        return dist_from_config(self.dist_config)

    def resolve_bracket_alpha(self) -> float:
        """Noise exponent used in the bracket: explicit config value first,
        then the k rule's own exponent, then a conservative loss default."""
        if self.bracket_alpha is not None:
            return self.bracket_alpha
        rule = self.k_rule["rule"]
        if rule == "classification":
            return float(self.k_rule["alpha"])
        if rule == "regression":
            return 1.0
        return 0.0 if self.loss.kind == "zero_one" else 1.0


def _k_for(k_rule: dict, n: int) -> int:
    rule = k_rule["rule"]
    if rule == "fixed":
        return int(k_rule["k"])
    if rule == "classification":
        return optimal_k_classification(n, k_rule["gamma"], k_rule["rho"], k_rule["alpha"])
    return optimal_k_regression(n)


@dataclass(frozen=True)
class Cell:
    """One (n, k, m) grid point with its seeds."""

    index: int
    n: int
    k: int
    m: int
    seed: int
    trial_seeds: tuple[int, ...]


def plan_cells(config: ExperimentConfig) -> list[Cell]:
    """Enumerate cells in deterministic sorted order and derive their seeds.

    Cell seeds depend only on the cell's position in the sorted (n, m) grid,
    so adding trials or changing thread budgets never reshuffles randomness.
    """
    ns = sorted(set(config.n_list))
    ms = sorted(set(config.m_list))
    cells = []
    index = 0
    for n in ns:
        k = _k_for(config.k_rule, n)
        for m in ms:
            cell_seed = derive_seed(config.master_seed, index)
            trial_seeds = tuple(derive_seed(cell_seed, t) for t in range(config.trials))
            cells.append(Cell(index=index, n=n, k=k, m=m, seed=cell_seed, trial_seeds=trial_seeds))
            index += 1
    return cells


def _psi_cache(config: ExperimentConfig, cells: list[Cell]) -> dict[int, float]:
    """Estimate the compressed-class approximation gap once per distinct k."""
    if config.compressibility is None:
        return {}
    reps = config.compressibility["reps"]
    pop_n = config.compressibility["pop_factor"] * max(config.n_list)
    cache = {}
    for k_index, k in enumerate(sorted({cell.k for cell in cells})):
        est = estimate_compressibility(
            config.make_dist(),
            config.family,
            k,
            reps=reps,
            pop_n=pop_n,
            solver=config.solver,
            seed=derive_seed(config.master_seed, 1_000_000 + k_index),
            iters=config.solver_iters,
        )
        cache[k] = est.value
    return cache


def _run_trial(config: ExperimentConfig, dist, cell: Cell, trial: int, psi_hat: float | None) -> dict:
    start = time.perf_counter()
    trial_seed = cell.trial_seeds[trial]
    row = {
        "n": cell.n,
        "k": cell.k,
        "m": cell.m,
        "trial": trial,
        "seed": trial_seed,
        "member_mean_excess": None,
        "ensemble_excess": None,
        "ensemble_excess_se": None,
        "psi_hat": psi_hat,
        "bracket_total": None,
        "error": "",
        "wall_time_ms": None,
    }
    try:
        X, y = dist.sample(cell.n, derive_seed(trial_seed, 0))
        model = train_ensemble(
            X,
            y,
            config.loss,
            config.family,
            cell.k,
            cell.m,
            solver=config.solver,
            master_seed=derive_seed(trial_seed, 1),
            iters=config.solver_iters,
        )
        member_ests, ens_est = member_excess_risks(
            model, dist, n_test=config.n_test, seed=derive_seed(trial_seed, 2)
        )
        row["member_mean_excess"] = float(np.mean([e.value for e in member_ests]))
        row["ensemble_excess"] = ens_est.value
        row["ensemble_excess_se"] = ens_est.std_error
        if psi_hat is not None:
            bracket = risk_bound_bracket(
                n=cell.n,
                k=cell.k,
                m=cell.m,
                delta=config.delta,
                alpha=config.resolve_bracket_alpha(),
                psi_hat=psi_hat,
            )
            row["bracket_total"] = bracket.total
    except _TRIAL_FAILURES as exc:  # expected numerical failure: record and continue
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time_ms"] = (time.perf_counter() - start) * 1e3
    return row


def _format_cell_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean result values are not part of the CSV contract")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _thread_budget(config: ExperimentConfig) -> int:
    """The thread budget: ``CERM_THREADS`` if set, else the config's ``threads``.

    The override obeys the same rule as the config field, an integer >= 1.
    """
    override = os.environ.get(THREADS_ENV_VAR)
    if override is None:
        return config.threads
    try:
        budget = int(override)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV_VAR}: must be an integer, got {override!r}") from exc
    _require(budget >= 1, THREADS_ENV_VAR, f"must be an integer >= 1, got {override!r}")
    return budget


def run_experiment(config) -> str:
    """Run every configured cell and trial; return the results CSV path.

    Writes ``<output>.csv`` and ``<output>.manifest.jsonl``.  A trial that
    fails numerically (ScaleGuardError, SweepUncertifiedError,
    LossDomainError or LinAlgError) is recorded as a row with the error
    column set and empty metrics, and the run continues; any other exception
    propagates and no results are written.  Identical configs produce
    identical CSVs (wall-time column aside) at any thread budget.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    budget = _thread_budget(config)
    cells = plan_cells(config)
    psi_by_k = _psi_cache(config, cells)

    jobs = [(cell, trial) for cell in cells for trial in range(config.trials)]
    rows: list[dict | None] = [None] * len(jobs)

    def execute(job_index: int):
        cell, trial = jobs[job_index]
        # Each job gets its own distribution object: sampling is stateless
        # given the seed, and separate objects keep trials thread-safe.
        rows[job_index] = _run_trial(config, config.make_dist(), cell, trial, psi_by_k.get(cell.k))

    if budget <= 1:
        for j in range(len(jobs)):
            execute(j)
    else:
        with ThreadPoolExecutor(max_workers=budget) as pool:
            list(pool.map(execute, range(len(jobs))))

    out_dir = os.path.dirname(os.path.abspath(config.output))
    os.makedirs(out_dir, exist_ok=True)
    csv_path = config.output + ".csv"
    manifest_path = config.output + ".manifest.jsonl"

    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell_value(row[col]) for col in CSV_COLUMNS])

    with open(manifest_path, "w", encoding="utf-8") as fh:
        head = {"config_hash": config_hash(config.raw), "version": __version__}
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for cell in cells:
            fh.write(
                json.dumps(
                    {
                        "cell_index": cell.index,
                        "n": cell.n,
                        "k": cell.k,
                        "m": cell.m,
                        "cell_seed": cell.seed,
                        "trial_seeds": list(cell.trial_seeds),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    return csv_path


def fit_rate(results_path: str, x_field: str = "n", y_field: str = "ensemble_excess") -> dict:
    """Fit ln(mean y) = intercept + slope * ln(x) across distinct x values.

    Per-x means come from the trial scatter; points are weighted by the
    delta-method inverse variance of ln(mean), with a plain unweighted fit
    (and residual-based standard error) when any scatter estimate is zero or
    unusable.  Nonpositive means are dropped with a warning; fewer than three
    surviving x values raises InsufficientPointsError.
    """
    if x_field not in ("n", "k", "m"):
        raise ValueError("x_field must be one of 'n', 'k', 'm'")
    if y_field not in CSV_COLUMNS:
        raise ValueError(f"unknown y_field {y_field!r}")

    groups: dict[float, list[float]] = {}
    skipped_rows = 0
    with open(results_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if row.get("error"):
                skipped_rows += 1
                continue
            y_raw = row.get(y_field, "")
            if y_raw == "":
                skipped_rows += 1
                continue
            groups.setdefault(float(row[x_field]), []).append(float(y_raw))

    xs, means, ses = [], [], []
    dropped = 0
    for x in sorted(groups):
        values = np.asarray(groups[x])
        mean = float(np.mean(values))
        if mean <= 0:
            dropped += 1
            continue
        se = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
        xs.append(x)
        means.append(mean)
        ses.append(se)
    if dropped:
        warnings.warn(f"fit_rate dropped {dropped} x-group(s) with nonpositive mean {y_field}")
    if len(xs) < 3:
        raise InsufficientPointsError(
            f"need >= 3 distinct {x_field} values with positive mean {y_field}, got {len(xs)}"
        )

    lx = np.log(np.asarray(xs))
    ly = np.log(np.asarray(means))
    means_arr = np.asarray(means)
    ses_arr = np.asarray(ses)

    if np.all(ses_arr > 0) and np.all(np.isfinite(ses_arr / means_arr)):
        # Var(ln mean) ~ (se / mean)^2 by the delta method.
        weights = (means_arr / ses_arr) ** 2
        xw = float(np.sum(weights * lx) / np.sum(weights))
        yw = float(np.sum(weights * ly) / np.sum(weights))
        sxx = float(np.sum(weights * (lx - xw) ** 2))
        slope = float(np.sum(weights * (lx - xw) * (ly - yw)) / sxx)
        intercept = yw - slope * xw
        slope_se = math.sqrt(1.0 / sxx)
    else:
        xm = float(np.mean(lx))
        ym = float(np.mean(ly))
        sxx = float(np.sum((lx - xm) ** 2))
        slope = float(np.sum((lx - xm) * (ly - ym)) / sxx)
        intercept = ym - slope * xm
        resid = ly - (intercept + slope * lx)
        sigma2 = float(np.sum(resid**2)) / (len(xs) - 2)
        slope_se = math.sqrt(sigma2 / sxx)

    return {
        "slope": slope,
        "intercept": float(intercept),
        "ci95": 1.96 * slope_se,
        "n_points": len(xs),
        "dropped": dropped,
        "skipped_rows": skipped_rows,
    }

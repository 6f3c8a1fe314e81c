"""Declarative experiment runner.

A JSON config names a distribution, whose own loss every fit and score
uses, a projection family, sweep lists for the sample size n and ensemble
size m, a rule for picking the compressed dimension k, and seeding/output
choices.  ``ExperimentConfig.from_dict`` parses it once: it builds the law
and hashes the config as written, so a config that is not plain JSON is
refused before any trial runs.
``run_experiment`` maps one job function over the ordered (cell, trial)
jobs, on a thread pool above a budget of one, writes one CSV row per trial,
and records a JSONL manifest with the config hash, library version, and
every seed used.  ``fit_rate`` turns a results file into a fitted power-law
exponent with a confidence interval.

Determinism contract: all randomness flows from ``master_seed`` through
``derive_seed``; rows are emitted in sorted (n, k, m, trial) order; thread
budgets change scheduling only, never values.  Every job samples from the
one parsed law, which no method writes to.  The wall-time column is the
single exception and is excluded from the reproducibility guarantee.

The risk-bound bracket needs a confidence level even though none is
observable in an experiment; it is fixed at delta = 0.05 (configurable) and
recorded here because the bracket serves as a shape diagnostic, not a
calibrated certificate.
"""

from __future__ import annotations

import copy
import csv
import functools
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
from .hypotheses import ScaleGuardError, SweepUncertifiedError, _check_fit
from .losses import LossDomainError
from .projections import FAMILIES
from .riskbounds import (
    estimate_compressibility,
    optimal_k_classification,
    optimal_k_regression,
    risk_bound_bracket,
)
from .seeds import derive_seed
from .synthdist import (
    _REQUIRED,
    ConfigError,
    _int_field,
    _number_field,
    _number_in,
    _one_of,
    _read_fields,
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
    """sha256 over the canonical JSON form of the config as written, without the defaults."""
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _int_list(value, path: str) -> tuple[int, ...]:
    _require(isinstance(value, (list, tuple)) and len(value) > 0, path, "must be a non-empty list")
    return tuple(_int_field(v, f"{path}[{i}]") for i, v in enumerate(value))


def _output(value, path: str) -> str:
    _require(isinstance(value, str) and len(value) > 0, path, "must be a non-empty path stem")
    return value


def _distribution(value, path: str):
    """The law the config describes, built once per parse."""
    _require(isinstance(value, dict), path, "must be an object")
    try:
        return dist_from_config(value)
    except ValueError as exc:  # ConfigError, LossDomainError and the constructors' refusals
        raise ConfigError(f"{path}: {exc}") from exc


def _exponent(message: str, in_range):
    """A reader of a k-rule exponent: a number, then one that passes ``in_range``."""
    return lambda value, path: _number_in(message, in_range)(_number_field(value, path), path)


#: Each k rule's fields besides ``rule``, as field -> (reader, default).
_K_RULE_FIELDS = {
    "fixed": {"k": (_int_field, _REQUIRED)},
    "classification": {
        "gamma": (_exponent("must be positive", lambda v: v > 0), _REQUIRED),
        "rho": (_exponent("must be positive", lambda v: v > 0), _REQUIRED),
        "alpha": (_exponent("must lie in [0, 1)", lambda v: 0 <= v < 1), _REQUIRED),
    },
    "regression": {},
}


def _k_rule(value, path: str) -> dict:
    _require(isinstance(value, dict), path, "must be an object")
    rule = _one_of(tuple(_K_RULE_FIELDS))(value.get("rule"), f"{path}.rule")
    return {"rule": rule, **_read_fields(value, path, _K_RULE_FIELDS[rule], extra=("rule",))}


def _compressibility(value, path: str) -> dict:
    fields = {"reps": (_int_field, _REQUIRED), "pop_factor": (_int_field, _REQUIRED)}
    return _read_fields(value, path, fields)


#: The top-level config keys, as field -> (reader, default).  A field whose
#: default is None may be null; the checks below fill ``bracket_alpha`` when
#: it is.
_FIELDS = {
    "distribution": (_distribution, _REQUIRED),
    "family": (_one_of(FAMILIES), "gaussian"),
    "n_list": (_int_list, _REQUIRED),
    "m_list": (_int_list, _REQUIRED),
    "k_rule": (_k_rule, _REQUIRED),
    "trials": (_int_field, _REQUIRED),
    "n_test": (_int_field, 100_000),
    "master_seed": (lambda value, path: _int_field(value, path, minimum=0), 0),
    "solver": (_one_of(("surrogate", "exact"), "must be 'surrogate' or 'exact'"), "surrogate"),
    "solver_iters": (_int_field, 2000),
    "output": (_output, _REQUIRED),
    "compressibility": (_compressibility, None),
    "bracket_alpha": (_number_in("must lie in [0, 1]", lambda v: 0 <= v <= 1), None),
    "delta": (_number_in("must lie in (0, 1)", lambda v: 0 < v < 1), 0.05),
    "threads": (_int_field, 1),
}


def _k_rule_matches_law(values: dict):
    """The classification rule's exponents must be the law's, where it has them."""
    for name in ("gamma", "rho", "alpha"):
        configured = getattr(values["distribution"], name, None)
        if name in values["k_rule"] and configured is not None:
            _require(
                values["k_rule"][name] == float(configured),
                f"k_rule.{name}",
                f"inconsistent with the distribution's value {configured}",
            )


def _fits_the_solver_takes(values: dict):
    """Every fit the config asks for must pass ``hypotheses._check_fit``: a
    refused fit would only record ScaleGuardError in every trial after
    sampling, or end the run in the compressibility fits."""
    kind, solver = values["distribution"].loss_spec.kind, values["solver"]

    def check(path, context="", **size):
        try:
            _check_fit(kind, solver, **size)
        except ValueError as exc:
            raise ConfigError(f"{path}: {context}{exc}") from exc

    check("solver")
    for n in values["n_list"]:
        check("n_list", n=n)
        k = _k_for(values["k_rule"], n)
        check("k_rule", f"the rule gives k = {k} at n = {n}, but ", k=k)
    if values["compressibility"] is not None:
        pop_n = values["compressibility"]["pop_factor"] * max(values["n_list"])
        check("compressibility.pop_factor", f"the fits use {pop_n} points, but ", n=pop_n)


def _bracket_alpha_default(values: dict):
    """The bracket's noise exponent, unless written out: the classification
    rule's alpha, 0 for the zero-one loss at a fixed k, and 1 otherwise."""
    if values["bracket_alpha"] is None:
        k_rule = values["k_rule"]
        zero_one = values["distribution"].loss_spec.kind == "zero_one"
        fixed_zero_one = k_rule["rule"] == "fixed" and zero_one
        values["bracket_alpha"] = k_rule.get("alpha", 0.0 if fixed_zero_one else 1.0)


#: The checks that involve more than one field, run in this order after the
#: readers.
_CROSS_FIELD_CHECKS = (_k_rule_matches_law, _fits_the_solver_takes, _bracket_alpha_default)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.  Build with ``from_dict``.

    Each field but ``config_hash`` holds its key's parsed value, defaults
    filled in; ``distribution`` holds the law, which every trial shares, and
    its ``loss_spec`` is the loss the trials fit and score.
    ``config_hash`` is the hash of the config as written, taken at parse.
    """

    distribution: object
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
    bracket_alpha: float
    delta: float
    threads: int
    config_hash: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "", "config must be a JSON object")
        values = _read_fields(raw, "", _FIELDS)
        for check in _CROSS_FIELD_CHECKS:
            check(values)
        try:
            written = config_hash(raw)
        except (TypeError, ValueError) as exc:  # a value JSON cannot hold
            raise ConfigError(f"config must hold JSON values only: {exc}") from exc
        return cls(**values, config_hash=written)

    def make_dist(self):
        """A deep copy of the parsed law, for a caller that wants its own;
        the harness samples from ``distribution`` itself."""
        return copy.deepcopy(self.distribution)


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
            config.distribution,
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


def _run_trial(config: ExperimentConfig, psi_by_k: dict[int, float], job: tuple[Cell, int]) -> dict:
    start = time.perf_counter()
    cell, trial = job
    trial_seed = cell.trial_seeds[trial]
    psi_hat = psi_by_k.get(cell.k)
    row = dict.fromkeys(CSV_COLUMNS)
    row.update(n=cell.n, k=cell.k, m=cell.m, trial=trial, seed=trial_seed, psi_hat=psi_hat)
    try:
        X, y = config.distribution.sample(cell.n, derive_seed(trial_seed, 0))
        model = train_ensemble(
            X,
            y,
            config.distribution.loss_spec,
            config.family,
            cell.k,
            cell.m,
            solver=config.solver,
            master_seed=derive_seed(trial_seed, 1),
            iters=config.solver_iters,
        )
        member_ests, ens_est = member_excess_risks(
            model, config.distribution, n_test=config.n_test, seed=derive_seed(trial_seed, 2)
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
                alpha=config.bracket_alpha,
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

    One job function runs each (cell, trial) job in order, through the
    thread pool's ``map`` above a budget of one and the builtin ``map`` at
    one, and every job samples from ``config.distribution``.  Writes
    ``<output>.csv`` and ``<output>.manifest.jsonl``.  A trial that fails
    numerically (ScaleGuardError, SweepUncertifiedError, LossDomainError or
    LinAlgError) is recorded as a row with the error column set and empty
    metrics, and the run continues; any other exception propagates and no
    results are written.  Identical configs produce identical CSVs
    (wall-time column aside) at any thread budget.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    budget = _thread_budget(config)
    cells = plan_cells(config)
    psi_by_k = _psi_cache(config, cells)

    jobs = [(cell, trial) for cell in cells for trial in range(config.trials)]
    run_job = functools.partial(_run_trial, config, psi_by_k)
    if budget > 1:
        with ThreadPoolExecutor(max_workers=budget) as pool:
            rows = list(pool.map(run_job, jobs))
    else:
        rows = list(map(run_job, jobs))

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
        head = {"config_hash": config.config_hash, "version": __version__}
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
    surviving x values raises InsufficientPointsError, and a file without the
    x column ValueError.
    """
    if x_field not in ("n", "k", "m"):
        raise ValueError("x_field must be one of 'n', 'k', 'm'")
    if y_field not in CSV_COLUMNS:
        raise ValueError(f"unknown y_field {y_field!r}")

    groups: dict[float, list[float]] = {}
    skipped_rows = 0
    with open(results_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if x_field not in (reader.fieldnames or ()):
            raise ValueError(f"no {x_field!r} column")
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
    means_arr, ses_arr = np.asarray(means), np.asarray(ses)
    ly = np.log(means_arr)
    if np.all(ses_arr > 0) and np.all(np.isfinite(ses_arr / means_arr)):
        # Var(ln mean) ~ (se / mean)^2 by the delta method: weight mean / se.
        coeffs, cov = np.polyfit(lx, ly, 1, w=means_arr / ses_arr, cov="unscaled")
    else:  # unweighted; the covariance is scaled by the residual variance
        coeffs, cov = np.polyfit(lx, ly, 1, cov=True)
    return {
        "slope": float(coeffs[0]),
        "intercept": float(coeffs[1]),
        "ci95": 1.96 * math.sqrt(cov[0, 0]),
        "n_points": len(xs),
        "dropped": dropped,
        "skipped_rows": skipped_rows,
    }

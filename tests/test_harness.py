"""Tests for the experiment harness: config validation, planning, runs, fits."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import cerm
from cerm import hypotheses, synthdist
from cerm.harness import (
    CSV_COLUMNS,
    THREADS_ENV_VAR,
    ConfigError,
    ExperimentConfig,
    InsufficientPointsError,
    config_hash,
    fit_rate,
    plan_cells,
    run_experiment,
)
from cerm.hypotheses import EXACT_MAX_K, EXACT_MAX_N
from cerm.projections import AxisPoints
from cerm.seeds import derive_seed


def regression_config(tmp_path, **overrides):
    cfg = {
        "distribution": {
            "type": "regression",
            "d": 4,
            "spectral_constant": 1.0,
            "spectral_decay": 0.5,
            "w": [0.3, 0.3, 0.3, 0.3],
        },
        "n_list": [30, 60],
        "m_list": [2],
        "k_rule": {"rule": "fixed", "k": 2},
        "trials": 2,
        "n_test": 1000,
        "master_seed": 7,
        "solver_iters": 150,
        "output": str(tmp_path / "run"),
    }
    cfg.update(overrides)
    return cfg


def classification_config(tmp_path, **overrides):
    cfg = {
        "distribution": {
            "type": "gauss_margin",
            "d": 5,
            "gamma": 2.0,
            "rho": 2.0,
            "alpha": 0.0,
        },
        "n_list": [20],
        "m_list": [2],
        "k_rule": {"rule": "fixed", "k": 4},
        "trials": 2,
        "n_test": 1000,
        "master_seed": 3,
        "solver_iters": 100,
        "output": str(tmp_path / "cls"),
    }
    cfg.update(overrides)
    return cfg


def read_rows(csv_path):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def strip_wall_time(csv_path):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_ms")
    return [tuple(v for i, v in enumerate(row) if i != drop) for row in rows]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_dict(regression_config(tmp_path, bogus=1))
    # Nested objects refuse unknown keys too: a misspelt "noise" must not
    # make the law silently noiseless.
    distribution = regression_config(tmp_path)["distribution"]
    noise = {"kind": "bounded_uniform", "amplitude": 0.1}
    misspelt = {**noise, "amplitud": 0.1}
    for path, override in (
        ("distribution: noize", {"distribution": {**distribution, "noize": noise}}),
        ("distribution: noise.amplitud", {"distribution": {**distribution, "noise": misspelt}}),
        ("k_rule.gamma", {"k_rule": {"rule": "fixed", "k": 2, "gamma": 2.0}}),
        ("k_rule.k", {"k_rule": {"rule": "regression", "k": 2}}),
        ("loss.bta", {"loss": {"kind": "squared", "bta": 1.0}}),
        ("compressibility.rep", {"compressibility": {"reps": 2, "pop_factor": 2, "rep": 2}}),
    ):
        with pytest.raises(ConfigError, match=f"^{path}: unknown"):
            ExperimentConfig.from_dict(regression_config(tmp_path, **override))


def test_config_requires_distribution(tmp_path):
    cfg = regression_config(tmp_path)
    del cfg["distribution"]
    with pytest.raises(ConfigError, match="distribution"):
        ExperimentConfig.from_dict(cfg)


def test_config_loss_must_match_distribution(tmp_path):
    cfg = regression_config(tmp_path, loss={"kind": "zero_one"})
    with pytest.raises(ConfigError, match="loss.kind"):
        ExperimentConfig.from_dict(cfg)
    cfg = regression_config(tmp_path, loss={"kind": "squared", "beta": 3.0})
    with pytest.raises(ConfigError, match="loss.beta"):
        ExperimentConfig.from_dict(cfg)


def test_config_defaults_loss_from_distribution(tmp_path):
    config = ExperimentConfig.from_dict(regression_config(tmp_path))
    assert config.loss.kind == "squared"
    assert config.delta == 0.05
    assert config.threads == 1


def test_config_k_rule_validation(tmp_path):
    cfg = regression_config(tmp_path, k_rule={"rule": "annealed"})
    with pytest.raises(ConfigError, match="k_rule.rule"):
        ExperimentConfig.from_dict(cfg)
    cfg = regression_config(tmp_path, k_rule={"rule": "fixed", "k": 0})
    with pytest.raises(ConfigError, match="k_rule.k"):
        ExperimentConfig.from_dict(cfg)
    # exponents handed to the rule must agree with the distribution's own
    cfg = classification_config(
        tmp_path, k_rule={"rule": "classification", "gamma": 3.0, "rho": 2.0, "alpha": 0.0}
    )
    with pytest.raises(ConfigError, match="k_rule.gamma"):
        ExperimentConfig.from_dict(cfg)


def test_config_exact_solver_needs_zero_one(tmp_path):
    cfg = regression_config(tmp_path, solver="exact")
    with pytest.raises(ConfigError, match="solver"):
        ExperimentConfig.from_dict(cfg)


def test_config_list_and_scalar_validation(tmp_path):
    with pytest.raises(ConfigError, match=r"n_list\[1\]"):
        ExperimentConfig.from_dict(regression_config(tmp_path, n_list=[10, 0]))
    with pytest.raises(ConfigError, match="m_list"):
        ExperimentConfig.from_dict(regression_config(tmp_path, m_list=[]))
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig.from_dict(regression_config(tmp_path, trials=True))
    # JSON true is a bool, which Python counts as the integer 1: every
    # integer and number field must still refuse it.
    for field in ("n_test", "threads", "solver_iters", "bracket_alpha"):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict(regression_config(tmp_path, **{field: True}))
    for name in ("reps", "pop_factor"):
        compressibility = {"reps": 2, "pop_factor": 2, name: True}
        with pytest.raises(ConfigError, match=f"compressibility.{name}"):
            ExperimentConfig.from_dict(regression_config(tmp_path, compressibility=compressibility))
    with pytest.raises(ConfigError, match="loss.beta"):
        ExperimentConfig.from_dict(
            regression_config(tmp_path, loss={"kind": "squared", "beta": True})
        )
    for field in ("master_seed", "delta"):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict(regression_config(tmp_path, **{field: False}))
    # Distribution fields are checked, not converted by int() or float().
    assouad = {"type": "assouad", "q": 10, "r": 2.0, "v": 0.5, "epsilon": 0.25}
    regression = regression_config(tmp_path)["distribution"]
    gauss_margin = classification_config(tmp_path)["distribution"]
    nan, inf = json.loads("[NaN, Infinity]")
    for distribution, message in (
        ({**gauss_margin, "t": nan}, "t: must be finite"),
        ({**gauss_margin, "radius_cap": inf}, "radius_cap: must be finite"),
        ({**gauss_margin, "radius_cap": 10**400}, "radius_cap: must be finite"),
        ({**gauss_margin, "w": [0.5, nan, 0.5, 0.5, 0.5]}, "w: must hold finite numbers only"),
        ({**regression, "spectral_constant": nan}, "spectral_constant: must be finite"),
        ({**regression, "t": -inf}, "t: must be finite"),
        ({**regression, "w": [0.3, nan, 0.3, 0.3]}, "w: must hold finite numbers only"),
        ({**regression, "noise": {"kind": "bounded_uniform", "amplitude": nan}},
         "noise.amplitude: must be finite"),
        ({**assouad, "sigma": [1.0] * 9 + [inf]}, "sigma: must hold finite numbers only"),
        ({**assouad, "q": "10"}, "q: must be an integer"),
        ({**assouad, "q": 10.9}, "q: must be an integer"),
        ({**assouad, "r": True}, "r: must be a number"),
        ({**assouad, "sigma": [True] * 10}, "sigma: must be an array of numbers"),
        ({**regression, "d": "5"}, "d: must be an integer"),
        ({**regression, "w": ["0.3"] * 4}, "w: must be an array of numbers"),
        ({**regression, "noise": {"kind": "bounded_uniform", "amplitude": False}},
         "noise.amplitude: must be a number"),
    ):
        with pytest.raises(ConfigError, match=f"^distribution: {message}"):
            ExperimentConfig.from_dict(regression_config(tmp_path, distribution=distribution))
    with pytest.raises(ConfigError, match="delta"):
        ExperimentConfig.from_dict(regression_config(tmp_path, delta=1.0))
    with pytest.raises(ConfigError, match="output"):
        ExperimentConfig.from_dict(regression_config(tmp_path, output=""))


#: An override value that removes the key from the config.
ABSENT = object()


@pytest.mark.parametrize(
    "override, message",
    [
        ({"family": "bogus"}, "family: must be one of ('gaussian', 'rademacher', 'achlioptas_sparse')"),
        ({"solver": "annealed"}, "solver: must be 'surrogate' or 'exact'"),
        ({"n_test": 0}, "n_test: must be an integer >= 1"),
        ({"master_seed": -1}, "master_seed: must be an integer >= 0"),
        ({"threads": 0}, "threads: must be an integer >= 1"),
        ({"bracket_alpha": 1.5}, "bracket_alpha: must lie in [0, 1]"),
        ({"delta": 0}, "delta: must lie in (0, 1)"),
        ({"output": 5}, "output: must be a non-empty path stem"),
        ({"trials": ABSENT}, "trials: must be an integer >= 1"),
        (None, ": config must be a JSON object"),
    ],
)
def test_config_refusal_names_its_field(tmp_path, override, message):
    if override is None:  # the config is a JSON list, not an object
        cfg = [regression_config(tmp_path)]
    else:
        cfg = {k: v for k, v in regression_config(tmp_path, **override).items() if v is not ABSENT}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(cfg)


#: A valid law of each type, and one bad value per check of its constructor.
_LAWS = {
    "finite": {"points": [[0.0], [1.0]], "probs": [0.5, 0.5],
               "label_values": [[-1.0, 1.0], [-1.0, 1.0]], "label_probs": [[0.3, 0.7], [0.9, 0.1]]},
    "assouad": {"q": 4, "r": 1.5, "v": 0.5, "epsilon": 0.25},
    "gauss_margin": {"d": 3, "gamma": 2.0, "rho": 2.0, "alpha": 0.5},
    "regression": {"d": 2, "spectral_constant": 1.0, "spectral_decay": 0.5, "w": [0.3, 0.3]},
}
_BAD_LAW_FIELDS = [
    ("finite", "points", [0.0, 1.0]),
    ("finite", "probs", [1.0]),
    ("finite", "probs", [0.7, 0.7]),
    ("finite", "label_values", [[-1.0, 1.0]]),
    ("finite", "label_values", [[0.0, 1.0], [-1.0, 1.0]]),  # off the zero_one domain
    ("finite", "label_probs", [[0.5, 0.5]]),
    ("finite", "label_probs", [[0.5, 0.6], [0.5, 0.5]]),
    ("assouad", "q", 0),
    ("assouad", "r", 0.5),
    ("assouad", "r", 2.5),  # above sqrt(q)
    ("assouad", "v", 1.5),
    ("assouad", "epsilon", 0.5),
    ("assouad", "sigma", [1.0, -1.0]),  # not length q
    ("assouad", "sigma", [1.0, 0.0, 1.0, -1.0]),
    ("gauss_margin", "d", 1),
    ("gauss_margin", "gamma", 0.0),
    ("gauss_margin", "rho", -1.0),
    ("gauss_margin", "alpha", 1.5),
    ("gauss_margin", "radius_cap", 0.5),
    ("gauss_margin", "w", [1.0, 0.0]),
    ("gauss_margin", "w", [1.0, 1.0, 0.0]),
    ("regression", "d", 0),
    ("regression", "spectral_constant", 0.5),
    ("regression", "spectral_decay", 1.0),
    ("regression", "beta", 0.0),
    ("regression", "w", [0.3, 0.3, 0.3]),
    ("regression", "w", [10.0, 10.0]),  # beyond w_max
    ("regression", "noise", {"kind": "bounded_uniform", "amplitude": -0.1}),
]


@pytest.mark.parametrize("kind, field, value", _BAD_LAW_FIELDS)
def test_law_refusal_names_its_field(tmp_path, kind, field, value):
    distribution = {"type": kind, **_LAWS[kind], field: value}
    with pytest.raises(ConfigError, match=f"^distribution: {field}: "):
        ExperimentConfig.from_dict(regression_config(tmp_path, distribution=distribution))


@pytest.mark.parametrize("noise", [{"kind": "gaussian", "amplitude": 0.1}, {"amplitude": 0.1}])
def test_noise_kind_refusal_names_its_field(tmp_path, noise):
    cfg = regression_config(tmp_path)
    cfg["distribution"]["noise"] = noise
    message = "distribution: noise.kind: must be one of ('bounded_uniform',)"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(cfg)


def test_solver_iters_defaults_at_parse_time_only(tmp_path):
    cfg = regression_config(tmp_path)
    del cfg["solver_iters"]
    config = ExperimentConfig.from_dict(cfg)
    assert config.solver_iters == 2000
    assert config.config_hash == config_hash(cfg)


def assouad_distribution(q):
    return {"type": "assouad", "q": q, "r": q**0.25, "v": q**-0.25, "epsilon": q**-0.25}


def test_config_accepts_an_assouad_law_at_any_q(tmp_path):
    for q in (3000, 6324, 20000):
        cfg = classification_config(tmp_path, distribution=assouad_distribution(q))
        assert ExperimentConfig.from_dict(cfg).make_dist().q == q


def test_config_refuses_exact_sizes_the_solver_refuses(tmp_path):
    with pytest.raises(ConfigError, match="n_list: the exact solver takes n <= 200, got 1000"):
        ExperimentConfig.from_dict(
            classification_config(
                tmp_path, solver="exact", n_list=[1000], k_rule={"rule": "fixed", "k": 5}
            )
        )
    with pytest.raises(ConfigError, match="k_rule: .* gives k = 4 at n = 20"):
        ExperimentConfig.from_dict(classification_config(tmp_path, solver="exact"))
    # The classification rule gives k = 7 already at n = 200.
    rule = {"rule": "classification", "gamma": 2.0, "rho": 2.0, "alpha": 0.0}
    with pytest.raises(ConfigError, match="k_rule: .* gives k = 7 at n = 200"):
        ExperimentConfig.from_dict(
            classification_config(tmp_path, solver="exact", n_list=[20, 200], k_rule=rule)
        )
    with pytest.raises(ConfigError, match="compressibility.pop_factor: .* 400 points"):
        ExperimentConfig.from_dict(
            classification_config(
                tmp_path,
                solver="exact",
                n_list=[200],
                k_rule={"rule": "fixed", "k": 3},
                compressibility={"reps": 2, "pop_factor": 2},
            )
        )
    at_the_limit = classification_config(
        tmp_path,
        solver="exact",
        n_list=[EXACT_MAX_N],
        k_rule={"rule": "fixed", "k": EXACT_MAX_K},
        compressibility={"reps": 2, "pop_factor": 1},
    )
    assert ExperimentConfig.from_dict(at_the_limit).solver == "exact"
    # The surrogate solver has no size limit.
    big = classification_config(tmp_path, n_list=[1000], k_rule={"rule": "fixed", "k": 5})
    assert ExperimentConfig.from_dict(big).solver == "surrogate"


def test_bracket_alpha_defaults_at_parse_time(tmp_path):
    rule = {"rule": "classification", "gamma": 2.0, "rho": 2.0, "alpha": 0.25}
    law = {"type": "gauss_margin", "d": 5, "gamma": 2.0, "rho": 2.0, "alpha": 0.25}
    for cfg, alpha in (
        (classification_config(tmp_path, distribution=law, k_rule=rule), 0.25),
        (classification_config(tmp_path), 0.0),  # fixed k, zero-one loss
        (regression_config(tmp_path), 1.0),  # fixed k, squared loss
        (regression_config(tmp_path, k_rule={"rule": "regression"}), 1.0),
        (regression_config(tmp_path, bracket_alpha=0.5), 0.5),
    ):
        assert ExperimentConfig.from_dict(cfg).bracket_alpha == alpha


def test_config_lets_a_programming_error_in_a_law_out(tmp_path, monkeypatch):
    class Broken:
        def __init__(self, **kwargs):
            raise NameError("name 'undefined_helper' is not defined")

    _, fields = synthdist._CONFIG_SCHEMA["gauss_margin"]
    monkeypatch.setitem(synthdist._CONFIG_SCHEMA, "gauss_margin", (Broken, fields))
    with pytest.raises(NameError, match="undefined_helper"):
        ExperimentConfig.from_dict(classification_config(tmp_path))


def test_config_owns_its_data(tmp_path):
    cfg = classification_config(tmp_path)
    config = ExperimentConfig.from_dict(cfg)
    written = config_hash(cfg)
    cfg["distribution"]["d"] = 9
    cfg["trials"] = 5
    assert config.distribution.d == 5
    assert config.trials == 2
    assert config.config_hash == written


def test_config_owns_the_lists_of_its_raw_form(tmp_path):
    sigma = [1, -1, 1, 1, -1, -1, 1, -1, 1, 1]
    assouad = {"type": "assouad", "q": 10, "r": 2.0, "v": 0.5, "epsilon": 0.25, "sigma": sigma}
    cfg = classification_config(tmp_path, distribution=assouad, n_list=[20, 40],
                                k_rule={"rule": "fixed", "k": 2}, solver="exact")
    config = ExperimentConfig.from_dict(cfg)
    written = config_hash(cfg)
    assert config.config_hash == written
    cfg["distribution"]["sigma"][0] = -1
    cfg["n_list"].append(80)
    cfg["k_rule"]["k"] = 3
    assert config.config_hash == written != config_hash(cfg)
    assert config.distribution.sigma[0] == 1.0
    assert config.n_list == (20, 40)
    assert config.k_rule["k"] == 2


def test_config_that_json_cannot_hold_is_refused_at_parse(tmp_path):
    cfg = regression_config(tmp_path)
    cfg["distribution"]["w"] = np.ones(4)
    with pytest.raises(ConfigError, match="^: config must hold JSON values only: .*ndarray"):
        ExperimentConfig.from_dict(cfg)
    with pytest.raises(ConfigError, match="JSON values only"):
        run_experiment(cfg)
    assert not (tmp_path / "run.csv").exists()
    assert not (tmp_path / "run.manifest.jsonl").exists()


def test_config_hash_is_order_insensitive(tmp_path):
    cfg = regression_config(tmp_path)
    reordered = dict(reversed(list(cfg.items())))
    assert config_hash(cfg) == config_hash(reordered)
    assert config_hash(cfg) != config_hash(regression_config(tmp_path, master_seed=8))


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def test_plan_cells_order_and_seeds(tmp_path):
    cfg = regression_config(tmp_path, n_list=[60, 30, 60], m_list=[4, 2], trials=3)
    config = ExperimentConfig.from_dict(cfg)
    cells = plan_cells(config)
    assert [(c.n, c.m) for c in cells] == [(30, 2), (30, 4), (60, 2), (60, 4)]
    assert [c.index for c in cells] == [0, 1, 2, 3]
    for cell in cells:
        assert cell.k == 2
        assert cell.seed == derive_seed(config.master_seed, cell.index)
        assert cell.trial_seeds == tuple(derive_seed(cell.seed, t) for t in range(3))


def test_plan_cells_regression_rule_scales_k(tmp_path):
    cfg = regression_config(
        tmp_path, n_list=[148, 1_000_000], k_rule={"rule": "regression"}, trials=1
    )
    cells = plan_cells(ExperimentConfig.from_dict(cfg))
    assert [cell.k for cell in cells] == [5, 14]


def test_plan_cells_classification_rule(tmp_path):
    cfg = classification_config(
        tmp_path,
        n_list=[10_000],
        k_rule={"rule": "classification", "gamma": 2.0, "rho": 2.0, "alpha": 0.0},
    )
    cells = plan_cells(ExperimentConfig.from_dict(cfg))
    assert cells[0].k == 33


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def test_run_writes_rows_and_manifest(tmp_path):
    cfg = regression_config(tmp_path)
    csv_path = run_experiment(cfg)
    assert csv_path == str(tmp_path / "run.csv")
    rows = read_rows(csv_path)
    assert len(rows) == 4  # 2 cells x 2 trials
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    for row in rows:
        assert row["error"] == ""
        assert float(row["ensemble_excess_se"]) >= 0.0
        assert float(row["wall_time_ms"]) > 0.0
        assert row["psi_hat"] == ""  # compressibility not requested
        assert row["bracket_total"] == ""

    with open(str(tmp_path / "run.manifest.jsonl"), encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[0]["config_hash"] == config_hash(cfg)
    cells = plan_cells(ExperimentConfig.from_dict(cfg))
    assert len(lines) == 1 + len(cells)
    for cell, entry in zip(cells, lines[1:]):
        assert entry["cell_index"] == cell.index
        assert entry["cell_seed"] == cell.seed
        assert entry["trial_seeds"] == list(cell.trial_seeds)


def test_rerun_is_identical_and_thread_invariant(tmp_path, monkeypatch):
    cfg = regression_config(tmp_path)
    first = strip_wall_time(run_experiment(cfg))
    second = strip_wall_time(run_experiment(cfg))
    assert first == second
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    third = strip_wall_time(run_experiment(cfg))
    assert first == third


def test_classification_rerun_is_identical_and_thread_invariant(tmp_path, monkeypatch):
    cfg = classification_config(tmp_path, n_list=[20, 120], m_list=[1, 3], trials=3, solver_iters=40)
    monkeypatch.setenv(THREADS_ENV_VAR, "1")
    first = strip_wall_time(run_experiment(cfg))
    second = strip_wall_time(run_experiment(cfg))
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    third = strip_wall_time(run_experiment(cfg))
    assert first == second == third
    assert len(first) == 1 + 12
    assert all(row[CSV_COLUMNS.index("error")] == "" for row in first[1:])


def _run_at_blas_threads(cfg, blas_threads):
    """Run ``cfg`` in a fresh interpreter whose BLAS uses ``blas_threads``
    threads; the CSV's rows without the wall-time column."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cerm.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop(THREADS_ENV_VAR, None)
    cfg = dict(cfg, output=f"{cfg['output']}_blas{blas_threads}")
    script = "import json, sys, cerm; print(cerm.run_experiment(json.loads(sys.argv[1])))"
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(cfg)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return strip_wall_time(done.stdout.strip())


@pytest.mark.parametrize("law", ["regression", "gauss_margin"])
def test_results_do_not_depend_on_the_blas_thread_count(tmp_path, law):
    """Byte-identical CSVs at one and two BLAS threads.  With 50 003 test
    points and the regression law's n = 8195, whole-array products X @ w
    round some rows differently on two threads; the row-blocked products
    do not."""
    if law == "regression":
        cfg = regression_config(
            tmp_path,
            distribution={"type": "regression", "d": 32, "spectral_constant": 1.0,
                          "spectral_decay": 0.2, "w": [1.0] * 32},
            n_list=[1001, 8195], m_list=[5], k_rule={"rule": "regression"},
            trials=2, n_test=50_003, master_seed=0, solver_iters=300,
        )
    else:
        cfg = classification_config(
            tmp_path,
            distribution={"type": "gauss_margin", "d": 50, "gamma": 2.0, "rho": 2.0,
                          "alpha": 0.5, "t": 0.1},
            n_list=[1001], m_list=[3], k_rule={"rule": "fixed", "k": 8},
            trials=2, n_test=50_003, master_seed=0, solver_iters=50,
        )
    one, two = (_run_at_blas_threads(cfg, threads) for threads in (1, 2))
    assert len(one) == 1 + len(cfg["n_list"]) * cfg["trials"]
    assert all(row[CSV_COLUMNS.index("error")] == "" for row in one[1:])
    assert one == two


def test_thread_override_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "many")
    with pytest.raises(ConfigError, match=THREADS_ENV_VAR):
        run_experiment(regression_config(tmp_path))


@pytest.mark.parametrize("override", ["0", "-3"])
def test_thread_override_below_one_is_refused(tmp_path, monkeypatch, override):
    """The override obeys the config field's rule; it is refused before any
    trial runs, so no worker thread starts."""
    monkeypatch.setenv(THREADS_ENV_VAR, override)
    with pytest.raises(ConfigError, match=f"{THREADS_ENV_VAR}: must be an integer >= 1"):
        run_experiment(regression_config(tmp_path))
    assert not (tmp_path / "run.csv").exists()


def test_assouad_run_at_q_7000_is_thread_invariant(tmp_path, monkeypatch):
    """q = 7000: every trial is summed exactly over the axis atoms."""
    dist = dict(assouad_distribution(7000), sigma=[(-1) ** (i % 3) for i in range(7000)])
    cfg = classification_config(
        tmp_path, distribution=dist, n_list=[40, 80], m_list=[3],
        k_rule={"rule": "fixed", "k": 2}, solver="exact",
    )
    runs = []
    for budget in ("1", "2"):
        monkeypatch.setenv(THREADS_ENV_VAR, budget)
        runs.append(strip_wall_time(run_experiment(cfg)))
    assert runs[0] == runs[1]
    assert len(runs[0]) == 1 + 4
    assert all(row[CSV_COLUMNS.index("error")] == "" for row in runs[0][1:])


def test_psi_column_filled_when_requested(tmp_path):
    cfg = regression_config(
        tmp_path,
        n_list=[30],
        compressibility={"reps": 2, "pop_factor": 4},
    )
    rows = read_rows(run_experiment(cfg))
    psi = {row["psi_hat"] for row in rows}
    assert len(psi) == 1  # one k, one cached estimate
    assert float(psi.pop()) >= 0.0
    for row in rows:
        assert float(row["bracket_total"]) > 0.0


def test_failed_trials_are_recorded_not_fatal(tmp_path, monkeypatch):
    # The config is validated against the exact solver's real limits; a lower
    # guard then makes the solver refuse every trial's k = 2 fit.
    config = ExperimentConfig.from_dict(
        classification_config(tmp_path, solver="exact", k_rule={"rule": "fixed", "k": 2})
    )
    monkeypatch.setattr(hypotheses, "EXACT_MAX_K", 1)
    rows = read_rows(run_experiment(config))
    assert len(rows) == 2
    for row in rows:
        assert row["error"].startswith("ScaleGuardError")
        assert row["ensemble_excess"] == ""
        assert float(row["wall_time_ms"]) > 0.0


def test_programming_errors_in_a_trial_end_the_run(tmp_path, monkeypatch):
    def broken_training(*args, **kwargs):
        raise NameError("name 'undefined_helper' is not defined")

    monkeypatch.setattr("cerm.harness.train_ensemble", broken_training)
    for threads in (1, 2):
        cfg = regression_config(tmp_path, threads=threads)
        with pytest.raises(NameError, match="undefined_helper"):
            run_experiment(cfg)
    assert not (tmp_path / "run.csv").exists()


def law_arrays(dist) -> dict:
    """Every array the law holds, an ``AxisPoints`` set's axes and scales included."""
    arrays = {}
    for name, value in vars(dist).items():
        if isinstance(value, AxisPoints):
            arrays[f"{name}.axes"], arrays[f"{name}.scales"] = value.axes, value.scales
        elif isinstance(value, np.ndarray):
            arrays[name] = value
    return arrays


@pytest.mark.parametrize("law", ["assouad", "gauss_margin"])
def test_trials_on_two_threads_leave_the_shared_law_unchanged(tmp_path, monkeypatch, law):
    """Every trial samples from and scores against ``config.distribution``
    itself, so no law method may write to the law."""
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    if law == "assouad":
        cfg = classification_config(
            tmp_path, distribution=assouad_distribution(50), n_list=[40, 80], m_list=[3],
            k_rule={"rule": "fixed", "k": 2}, solver="exact", threads=2,
        )
        expected = {"points.axes", "points.scales", "probs", "label_values", "label_probs", "sigma"}
    else:
        cfg = classification_config(
            tmp_path, n_list=[20, 40], trials=3, threads=2,
            compressibility={"reps": 2, "pop_factor": 2},
        )
        expected = {"w"}
    config = ExperimentConfig.from_dict(cfg)
    before = {name: array.copy() for name, array in law_arrays(config.distribution).items()}
    assert expected <= set(before)
    rows = read_rows(run_experiment(config))
    assert len(rows) == 2 * cfg["trials"]
    assert all(row["error"] == "" for row in rows)
    after = law_arrays(config.distribution)
    assert set(after) == set(before)
    for name, array in before.items():
        assert np.array_equal(after[name], array), name


def test_a_budget_of_one_runs_no_thread_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a job was submitted to a thread pool")

    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", no_pool)
    assert len(read_rows(run_experiment(regression_config(tmp_path, threads=1)))) == 4
    with pytest.raises(AssertionError, match="submitted to a thread pool"):
        run_experiment(regression_config(tmp_path, threads=2))


def test_an_uncertified_sweep_is_a_recorded_trial_failure(tmp_path, monkeypatch):
    sweep = hypotheses._sweep

    def off_by_one(U, y):
        errors, v = sweep(U, y)
        return errors - 1, v

    monkeypatch.setattr(hypotheses, "_sweep", off_by_one)
    cfg = classification_config(tmp_path, solver="exact", k_rule={"rule": "fixed", "k": 2})
    rows = read_rows(run_experiment(cfg))
    assert len(rows) == 2
    for row in rows:
        assert row["error"].startswith("SweepUncertifiedError: the sweep counted")
        assert row["ensemble_excess"] == ""


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def write_results(path, triples):
    """triples: (n, ensemble_excess, error) rows with fixed k=2, m=2."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for trial, (n, y, err) in enumerate(triples):
            writer.writerow(
                [n, 2, 2, trial, 0, "", "" if err else y, 0.0, "", "", err, 1.0]
            )


def test_fit_rate_recovers_exact_power_law(tmp_path):
    path = str(tmp_path / "exact.csv")
    rows = []
    for n in (100, 200, 400, 800):
        rows += [(n, 3.0 * n**-1.0, "")] * 3  # identical trials: zero scatter
    write_results(path, rows)
    fit = fit_rate(path)
    assert fit["slope"] == pytest.approx(-1.0, abs=1e-9)
    assert fit["intercept"] == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit["ci95"] == pytest.approx(0.0, abs=1e-9)
    assert fit["n_points"] == 4 and fit["dropped"] == 0 and fit["skipped_rows"] == 0


def test_fit_rate_weighted_fit_matches_the_delta_method_closed_form(tmp_path):
    rng = np.random.default_rng(11)
    path = str(tmp_path / "noisy.csv")
    rows = []
    for n in (100, 200, 400, 800, 1600):
        level = 5.0 * n**-0.7
        for _ in range(8):
            rows.append((n, level * math.exp(0.05 * rng.standard_normal()), ""))
    write_results(path, rows)
    fit = fit_rate(path)
    assert abs(fit["slope"] + 0.7) < 3.0 * (fit["ci95"] / 1.96)
    assert fit["ci95"] > 0.0

    # independent check: weighted least squares written out, with the
    # delta-method weights (mean / se)^2 and slope variance 1 / Sxx
    groups: dict[float, list[float]] = {}
    for n, y, _ in rows:
        groups.setdefault(n, []).append(y)
    xs = sorted(groups)
    means = np.array([np.mean(groups[x]) for x in xs])
    ses = np.array([np.std(groups[x], ddof=1) / math.sqrt(len(groups[x])) for x in xs])
    lx, ly, weights = np.log(xs), np.log(means), (means / ses) ** 2
    xw = np.sum(weights * lx) / np.sum(weights)
    yw = np.sum(weights * ly) / np.sum(weights)
    sxx = np.sum(weights * (lx - xw) ** 2)
    slope = np.sum(weights * (lx - xw) * (ly - yw)) / sxx
    assert fit["slope"] == pytest.approx(slope, rel=1e-10)
    assert fit["intercept"] == pytest.approx(yw - slope * xw, rel=1e-10)
    assert fit["ci95"] == pytest.approx(1.96 * math.sqrt(1.0 / sxx), rel=1e-10)


def test_fit_rate_skips_error_rows_and_drops_nonpositive(tmp_path):
    path = str(tmp_path / "mixed.csv")
    rows = []
    for n in (100, 200, 400, 800):
        rows += [(n, 2.0 * n**-0.5, "")] * 2
    rows.append((100, "", "RuntimeError: boom"))
    rows += [(1600, -1.0, ""), (1600, 0.5, "")]  # group mean negative: dropped
    write_results(path, rows)
    with pytest.warns(UserWarning, match="nonpositive"):
        fit = fit_rate(path)
    assert fit["n_points"] == 4
    assert fit["dropped"] == 1
    assert fit["skipped_rows"] == 1
    assert fit["slope"] == pytest.approx(-0.5, abs=1e-9)


def test_fit_rate_needs_three_points(tmp_path):
    path = str(tmp_path / "short.csv")
    write_results(path, [(100, 0.5, ""), (200, 0.3, ""), (100, 0.5, "")])
    with pytest.raises(InsufficientPointsError):
        fit_rate(path)


def test_fit_rate_field_validation(tmp_path):
    path = str(tmp_path / "fields.csv")
    write_results(path, [(100, 0.5, ""), (200, 0.3, ""), (400, 0.2, "")])
    with pytest.raises(ValueError, match="x_field"):
        fit_rate(path, x_field="trial")
    with pytest.raises(ValueError, match="y_field"):
        fit_rate(path, y_field="speed")
    # a real column that happens to be empty in every row has no points
    with pytest.raises(InsufficientPointsError):
        fit_rate(path, y_field="member_mean_excess")

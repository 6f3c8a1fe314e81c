"""End-to-end smoke tests for the command-line interface."""

import csv
import json

import pytest

from cerm.cli import main
from cerm.harness import CSV_COLUMNS


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


@pytest.fixture()
def regression_spec(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(
        json.dumps(
            {
                "type": "regression",
                "d": 4,
                "spectral_constant": 1.0,
                "spectral_decay": 0.5,
                "w": [0.3, 0.3, 0.3, 0.3],
            }
        )
    )
    return str(path)


def test_cli_run_and_fit(tmp_path, capsys):
    config = {
        "distribution": {
            "type": "regression",
            "d": 4,
            "spectral_constant": 1.0,
            "spectral_decay": 0.5,
            "w": [0.3, 0.3, 0.3, 0.3],
        },
        "n_list": [30, 60, 120],
        "m_list": [2],
        "k_rule": {"rule": "fixed", "k": 2},
        "trials": 2,
        "n_test": 1000,
        "master_seed": 5,
        "solver_iters": 150,
        "output": str(tmp_path / "cliout"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    rc, out = run_cli(capsys, ["run", str(cfg_path)])
    assert rc == 0
    assert out["results"] == str(tmp_path / "cliout.csv")
    assert out["manifest"] == str(tmp_path / "cliout.manifest.jsonl")
    with open(out["results"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert list(rows[0].keys()) == list(CSV_COLUMNS)

    rc, fit = run_cli(capsys, ["fit", out["results"]])
    assert rc == 0
    assert fit["n_points"] == 3
    assert "slope" in fit and "ci95" in fit


def test_cli_compressibility(regression_spec, capsys):
    rc, out = run_cli(
        capsys,
        [
            "compressibility",
            regression_spec,
            "--k-list",
            "2,1,2",
            "--reps",
            "2",
            "--pop-n",
            "200",
        ],
    )
    assert rc == 0
    assert out["family"] == "gaussian"
    assert [e["k"] for e in out["estimates"]] == [1, 2]  # deduped, sorted
    for entry in out["estimates"]:
        assert entry["psi_hat"] >= 0.0 and entry["se"] >= 0.0


def test_cli_compressibility_refuses_exact_sizes_before_sampling(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "gm.json"
    spec.write_text(
        json.dumps({"type": "gauss_margin", "d": 4, "gamma": 2.0, "rho": 2.0, "alpha": 0.0})
    )

    def refuse(*args, **kwargs):
        raise AssertionError("sampled before refusing the flags")

    monkeypatch.setattr("cerm.synthdist.GaussMarginDist.sample", refuse)
    for flags, named in (
        ([], "--pop-n 2000"),
        (["--pop-n", "201"], "--pop-n 201"),
        (["--pop-n", "100", "--k-list", "1,4"], "--k-list has k = 4"),
    ):
        argv = ["compressibility", str(spec), "--k-list", "2", "--solver", "exact", *flags]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cerm compressibility")
        assert err.splitlines()[-1].startswith(f"cerm compressibility: error: {named}: ")


def test_cli_compressibility_refuses_exact_on_a_law_without_zero_one_loss(
    regression_spec, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before refusing the flags")

    monkeypatch.setattr("cerm.synthdist.RegressionDist.sample", refuse)
    argv = ["compressibility", regression_spec, "--solver", "exact", "--k-list", "2", "--pop-n", "50"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cerm compressibility")
    assert err.splitlines()[-1] == (
        "cerm compressibility: error: --solver exact: the exact solver is only defined"
        " for the zero-one loss, not the law's 'squared'"
    )


@pytest.mark.parametrize(
    "flag, value",
    [("--k-list", "0"), ("--k-list", "x"), ("--k-list", ","), ("--reps", "0"), ("--pop-n", "0")],
)
def test_cli_compressibility_checks_its_flags_at_parse_time(tmp_path, capsys, flag, value):
    spec = tmp_path / "gm.json"
    spec.write_text(
        json.dumps({"type": "gauss_margin", "d": 4, "gamma": 2.0, "rho": 2.0, "alpha": 0.0})
    )
    argv = ["compressibility", str(spec), "--k-list", "2", "--pop-n", "100", flag, value]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cerm compressibility")
    assert f"argument {flag}: expected" in err
    assert repr(value) in err


def test_cli_check_dist_regression(regression_spec, capsys):
    rc, out = run_cli(capsys, ["check-dist", regression_spec, "--mc-n", "2000"])
    assert rc == 0
    assert out["type"] == "RegressionDist"
    assert set(out["spectral"]) == {"omega_hat", "C_hat", "rank_deficient"}
    assert out["spectral"]["rank_deficient"] is False
    assert out["bayes_risk"] >= 0.0


def test_cli_check_dist_classification(tmp_path, capsys):
    spec = tmp_path / "gm.json"
    spec.write_text(
        json.dumps({"type": "gauss_margin", "d": 4, "gamma": 2.0, "rho": 2.0, "alpha": 0.0})
    )
    rc, out = run_cli(capsys, ["check-dist", str(spec), "--mc-n", "4000"])
    assert rc == 0
    assert out["type"] == "GaussMarginDist"
    for block, field in (
        ("geometric_margin", "gamma_hat"),
        ("moment", "rho_hat"),
        ("tsybakov", "exponent_hat"),
    ):
        assert isinstance(out[block][field], float)
        assert 0.0 <= out[block]["pass_fraction"] <= 1.0


def test_cli_check_dist_assouad(tmp_path, capsys):
    """An Assouad law is reported like a finite one: atoms and exact Bayes risk."""
    spec = tmp_path / "assouad.json"
    spec.write_text(json.dumps({"type": "assouad", "q": 10, "r": 2.0, "v": 0.5, "epsilon": 0.25}))
    rc, out = run_cli(capsys, ["check-dist", str(spec)])
    assert rc == 0
    assert out["type"] == "AssouadDist"
    assert out["atom_count"] == 11
    # ten light atoms of mass 0.05, each misclassified with probability 0.375
    assert out["bayes_risk"] == pytest.approx(0.1875, rel=1e-12)


def test_cli_jl_check(capsys):
    rc, out = run_cli(
        capsys, ["jl-check", "--q", "10", "--d", "32", "--trials", "50", "--k", "24"]
    )
    assert rc == 0
    assert out["k"] == 24 and out["trials"] == 50
    assert 0.0 <= out["failure_rate"] <= 1.0


def test_cli_ols_check(capsys):
    rc, out = run_cli(
        capsys,
        ["ols-check", "--d", "8", "--q", "8", "--k", "5", "--r", "2", "--trials", "10"],
    )
    assert rc == 0
    assert out["within_bound"] == 10
    assert out["max_ratio"] <= 1.0


@pytest.mark.parametrize(
    "command, flag, value, expected",
    [
        ("check-dist gm", "--mc-n", "0", "an integer >= 2"),
        ("check-dist regression", "--mc-n", "0", "an integer >= 2"),
        ("check-dist regression", "--mc-n", "1", "an integer >= 2"),
        ("ols-check", "--trials", "0", "a positive integer"),
        ("ols-check", "--k", "0", "a positive integer"),
        ("ols-check", "--d", "0", "a positive integer"),
        ("ols-check", "--r", "-1", "a nonnegative integer"),
        ("ols-check", "--decay", "-1", "a finite positive number"),
        ("jl-check", "--k", "0", "a positive integer"),
        ("jl-check", "--d", "0", "a positive integer"),
        ("jl-check", "--trials", "0", "a positive integer"),
        ("jl-check", "--q", "1", "an integer >= 2"),
        ("jl-check", "--epsilon", "1", "a number in (0, 1)"),
        ("jl-check", "--delta", "nan", "a number in (0, 1)"),
    ],
)
def test_cli_checks_the_other_subcommands_flags_at_parse_time(
    tmp_path, regression_spec, capsys, command, flag, value, expected
):
    argv = command.split()
    if argv[0] == "check-dist":
        if argv[1] == "gm":
            spec = tmp_path / "gm.json"
            spec.write_text(
                json.dumps({"type": "gauss_margin", "d": 4, "gamma": 2.0, "rho": 2.0, "alpha": 0.0})
            )
            argv[1] = str(spec)
        else:
            argv[1] = regression_spec
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cerm {argv[0]}")
    assert f"argument {flag}: expected {expected}, got {value!r}" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--d", "50"], "--d 50 --q 40"),
        (["--r", "20"], "--r 20: need r < min(q, k) = 15"),
        (["--r", "5", "--q", "8", "--d", "8", "--k", "5"], "--r 5: need r < min(q, k) = 5"),
    ],
)
def test_cli_ols_check_refuses_crossed_flags_before_any_trial(monkeypatch, capsys, flags, named):
    def refuse(*args, **kwargs):
        raise AssertionError("ran a trial before refusing the flags")

    monkeypatch.setattr("cerm.cli.sample_projection", refuse)
    with pytest.raises(SystemExit) as exit_info:
        main(["ols-check", *flags])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cerm ols-check")
    assert err.splitlines()[-1].startswith(f"cerm ols-check: error: {named}")


def test_cli_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "command, spec, named",
    [
        ("run", {"distribution": {"type": "assouad", "q": 4, "r": 1.5, "v": 0.5,
                                  "epsilon": 0.25},
                 "n_list": [40], "m_list": [2], "k_rule": {"rule": "fixed", "k": 2},
                 "trails": 1, "output": "misspelt"},
         "trails: unknown config key"),
        ("check-dist", {"type": "regression", "d": 2, "spectral_constant": 1.0,
                        "spectral_decay": 0.5, "w": [0.1, 0.1],
                        "noise": {"kind": "gaussian", "amplitude": 0.1}},
         "noise.kind: must be one of ('bounded_uniform',)"),
        # The id predates the field-first message; it is pinned so the case keeps its name.
        pytest.param("check-dist", {"type": "regression", "d": 2, "spectral_constant": 1.0,
                                    "spectral_decay": 0.5, "w": [0.1, 0.1, 0.1]},
                     "w: must be a d-vector", id="check-dist-spec2-w must be a d-vector"),
        ("compressibility --k-list 2", {"type": "assouad", "q": 4, "r": 1.5}, "v: must be a number"),
    ],
)
def test_cli_refuses_a_bad_config_in_one_line(tmp_path, capsys, command, spec, named):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = command.split()
    with pytest.raises(SystemExit) as exit_info:
        main([argv[0], str(path), *argv[1:]])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cerm {argv[0]}")
    assert err.splitlines()[-1] == f"cerm {argv[0]}: error: {path}: {named}"


@pytest.mark.parametrize("command", ["run", "compressibility --k-list 2", "check-dist"])
def test_cli_refuses_an_unreadable_config_path_naming_it(tmp_path, capsys, command):
    argv = command.split()
    for path, reason in (
        (tmp_path / "nosuch.json", "No such file or directory"),
        (tmp_path, "Is a directory"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], str(path), *argv[1:]])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: cerm {argv[0]}")
        assert err.splitlines()[-1] == f"cerm {argv[0]}: error: {path}: {reason}"


def test_cli_refuses_a_config_that_is_not_an_object_without_an_empty_field_path(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"cerm run: error: {path}: config must be a JSON object"
    assert "list.json: config must be a JSON object" in err


def _fit_refusal(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", *argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cerm fit")
    assert "Traceback" not in err
    return err.splitlines()[-1]


def _results_csv(tmp_path, ns) -> str:
    path = tmp_path / "results.csv"
    rows = [",".join(CSV_COLUMNS)]
    for trial, n in enumerate(ns):
        row = dict.fromkeys(CSV_COLUMNS, "")
        row.update(n=str(n), k="2", m="2", trial=str(trial), seed="1", ensemble_excess=str(1.0 / n))
        rows.append(",".join(row[col] for col in CSV_COLUMNS))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_cli_fit_refuses_a_missing_results_file_naming_it(tmp_path, capsys):
    path = tmp_path / "nosuch.csv"
    assert _fit_refusal(capsys, [str(path)]) == f"cerm fit: error: {path}: No such file or directory"


def test_cli_fit_refuses_an_unknown_y_column_naming_the_flag(tmp_path, capsys):
    last = _fit_refusal(capsys, [_results_csv(tmp_path, [10, 20, 40]), "--y", "excess"])
    assert last.startswith("cerm fit: error: argument --y: invalid choice: 'excess'")


def test_cli_fit_refuses_a_file_without_the_x_column_naming_it(tmp_path, capsys):
    path = tmp_path / "no_n.csv"
    path.write_text("k,ensemble_excess\n2,0.1\n")
    assert _fit_refusal(capsys, [str(path)]) == f"cerm fit: error: {path}: no 'n' column"


def test_cli_fit_refuses_too_few_x_values_naming_the_file(tmp_path, capsys):
    path = _results_csv(tmp_path, [10, 20, 20])
    assert _fit_refusal(capsys, [path]) == (
        f"cerm fit: error: {path}: need >= 3 distinct n values with positive mean ensemble_excess, got 2"
    )

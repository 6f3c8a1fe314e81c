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


def test_cli_compressibility_refuses_exact_sizes_before_sampling(tmp_path, monkeypatch):
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
        assert named in str(exit_info.value.code)
        assert exit_info.value.code != 0


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


def test_cli_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])

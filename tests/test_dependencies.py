"""cerm runs on numpy alone: no code path it takes at run time needs scipy."""

import csv
import os
import subprocess
import sys

import cerm

# Runs in a fresh interpreter, because this test process has scipy loaded.
SCRIPT = r"""
import json
import sys

import cerm

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"import cerm loaded {loaded}"


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())

from cerm.cli import main

out = sys.argv[1]
cerm.run_experiment(
    {
        "distribution": {"type": "gauss_margin", "d": 5, "gamma": 2.0, "rho": 2.0, "alpha": 0.0},
        "n_list": [40],
        "m_list": [2],
        "k_rule": {"rule": "fixed", "k": 3},
        "trials": 1,
        "n_test": 500,
        "master_seed": 3,
        "solver": "surrogate",
        "solver_iters": 20,
        "output": out + "/classification",
    }
)
cerm.run_experiment(
    {
        "distribution": {
            "type": "regression",
            "d": 4,
            "spectral_constant": 1.0,
            "spectral_decay": 0.5,
            "w": [0.3, 0.3, 0.3, 0.3],
        },
        "n_list": [60],
        "m_list": [2],
        "k_rule": {"rule": "fixed", "k": 2},
        "trials": 1,
        "n_test": 500,
        "master_seed": 7,
        "solver_iters": 50,
        "compressibility": {"reps": 2, "pop_factor": 2},
        "output": out + "/regression",
    }
)
assert main(["jl-check", "--q", "20", "--trials", "5"]) == 0
"""


def test_cerm_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cerm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("CERM_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert '"failure_rate"' in done.stdout
    for name in ("classification", "regression"):
        with open(tmp_path / f"{name}.csv", newline="") as f:
            (row,) = csv.DictReader(f)
        assert row["error"] == "", (name, row["error"])
        assert row["ensemble_excess"] != "", name
    assert row["psi_hat"] != ""

"""Acceptance gate: one test per shipped guarantee, each printing PASS/FAIL.

Every test here is self-contained: it regenerates its data from frozen seeds,
recomputes its statistics, and pins its tolerance inline.  The two rate
experiments (criteria 9 and 10) run the full harness at desk scale and take
minutes; everything else is seconds.
"""

import csv
import math

import numpy as np
import pytest

from cerm.ensemble import predict, train_ensemble
from cerm.harness import fit_rate, run_experiment
from cerm.hypotheses import erm_exact_classification
from cerm.losses import (
    UndefinedBernsteinError,
    bayes_action,
    bernstein_constant,
    eval_loss,
    make_loss,
)
from cerm.projections import apply, empirical_jl_check, jl_target_dim, sample_projection
from cerm.riskbounds import (
    estimate_compressibility,
    estimate_excess_risk,
    optimal_k_classification,
    sketched_ols_ratio,
)
from cerm.seeds import derive_seed
from cerm.synthdist import (
    AssouadDist,
    FiniteSupportDist,
    GaussMarginDist,
    RegressionDist,
    assouad_min_n,
    build_assouad_family,
    check_geometric_margin,
    check_membership,
    check_moment,
    check_spectral_decay,
    check_tsybakov,
    chi_squared_adjacent,
)

EXACT_TOL = 1e-12


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# 1. loss constant table
# ---------------------------------------------------------------------------


def test_criterion_01_loss_constants():
    zo = make_loss("zero_one")
    ok = (
        zo.bound == 1.0
        and zo.lipschitz == 0.5
        and zo.quasi_convexity == 2.0
        and zo.curvature == 0.0
    )
    for beta in (1.0, 2.5):
        sq = make_loss("squared", beta)
        ok = ok and (
            sq.bound == 4.0 * beta**2 and sq.lipschitz == 4.0 * beta and sq.curvature == 2.0
        )
        kl = make_loss("kl", beta)
        ok = ok and (
            kl.bound == beta + math.log(2.0)
            and kl.lipschitz == 1.0
            and kl.curvature == math.exp(beta) / (1.0 + math.exp(beta)) ** 2
        )
    report(1, ok, "constant table matches exactly for zero_one/squared/kl")
    assert ok


# ---------------------------------------------------------------------------
# 2. Lipschitz / strong-convexity / Bernstein properties
# ---------------------------------------------------------------------------


def test_criterion_02_loss_regularity():
    rng = np.random.default_rng(202)
    n = 100_000
    failures = []

    # Lipschitz in the prediction, at matched labels
    zo = make_loss("zero_one")
    v = rng.choice([-1.0, 1.0], n)
    vp = rng.choice([-1.0, 1.0], n)
    y = rng.choice([-1.0, 1.0], n)
    gap = np.abs(eval_loss(zo, v, y) - eval_loss(zo, vp, y)) - zo.lipschitz * np.abs(v - vp)
    if np.max(gap) > EXACT_TOL:
        failures.append("zero_one lipschitz")

    for kind in ("squared", "kl"):
        loss = make_loss(kind, 1.0)
        v = rng.uniform(-1.0, 1.0, n)
        vp = rng.uniform(-1.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0, n) if kind == "squared" else rng.choice([0.0, 1.0], n)
        lv, lvp = eval_loss(loss, v, y), eval_loss(loss, vp, y)
        gap = np.abs(lv - lvp) - loss.lipschitz * np.abs(v - vp)
        if np.max(gap) > EXACT_TOL:
            failures.append(f"{kind} lipschitz")
        # strong convexity at the midpoint: loss(mid) <= avg - H/8 (v - v')^2
        mid = eval_loss(loss, 0.5 * (v + vp), y)
        slack = mid - (0.5 * (lv + lvp) - loss.curvature / 8.0 * (v - vp) ** 2)
        if np.max(slack) > EXACT_TOL:
            failures.append(f"{kind} strong convexity")

    # Bernstein: E[(l_f - l_*)^2] <= C_B E[l_f - l_*] on discrete label laws
    with pytest.raises(UndefinedBernsteinError):
        bernstein_constant(zo)
    assert bernstein_constant(make_loss("squared", 1.0)) == 32.0
    for kind in ("squared", "kl"):
        loss = make_loss(kind, 1.0)
        c_b = bernstein_constant(loss)
        for i in range(10):
            drng = np.random.default_rng(derive_seed(404, 10 * (kind == "kl") + i))
            if kind == "squared":
                values = drng.uniform(-1.0, 1.0, 3)
            else:
                values = np.array([0.0, 1.0])
            probs = drng.dirichlet(np.ones(values.size))
            star = bayes_action(loss, values, probs)
            l_star = eval_loss(loss, np.full(values.size, star), values)
            for v in drng.uniform(-1.0, 1.0, 50):
                diff = eval_loss(loss, np.full(values.size, v), values) - l_star
                first = float(probs @ diff)
                second = float(probs @ diff**2)
                if second > c_b * first + EXACT_TOL:
                    failures.append(f"{kind} bernstein at v={v:.4f}")
    ok = not failures
    report(2, ok, f"1e5-point regularity suites clean; violations: {failures or 'none'}")
    assert ok, failures


# ---------------------------------------------------------------------------
# 3. quasi-convexity of the combiner
# ---------------------------------------------------------------------------


def _random_finite_dist(rng, kind):
    atoms = int(rng.integers(3, 7))
    d = int(rng.integers(2, 5))
    points = rng.standard_normal((atoms, d))
    probs = rng.dirichlet(np.ones(atoms))
    p = rng.uniform(0.05, 0.95, atoms)
    if kind == "zero_one":
        label_values = np.tile([1.0, -1.0], (atoms, 1))
    elif kind == "squared":
        label_values = rng.uniform(-1.0, 1.0, (atoms, 2))
    else:
        label_values = np.tile([1.0, 0.0], (atoms, 1))
    label_probs = np.stack([p, 1.0 - p], axis=1)
    return FiniteSupportDist(
        points=points,
        probs=probs,
        label_values=label_values,
        label_probs=label_probs,
        loss=make_loss(kind),
    )


def test_criterion_03_quasi_convexity():
    kinds = ("zero_one", "squared", "kl")
    violations = 0
    worst = -np.inf
    for i in range(50):
        rng = np.random.default_rng(derive_seed(33, i))
        dist = _random_finite_dist(rng, kinds[i % 3])
        X, y = dist.sample(60, derive_seed(34, i))
        model = train_ensemble(
            X, y, dist.loss_spec, "gaussian", k=2, m=5, master_seed=derive_seed(35, i), iters=200
        )
        ens = estimate_excess_risk(lambda Xq: predict(model, Xq), dist).value
        member_vals = []
        for pmap, hyp in model.members:
            member_vals.append(
                estimate_excess_risk(
                    lambda Xq, _p=pmap, _h=hyp: _h.predict(apply(_p, Xq)), dist
                ).value
            )
        margin = ens - dist.loss_spec.quasi_convexity * float(np.mean(member_vals))
        worst = max(worst, margin)
        if margin > EXACT_TOL:
            violations += 1
    ok = violations == 0
    report(3, ok, f"0 violations required, saw {violations}; worst margin {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 4. JL distortion calibration
# ---------------------------------------------------------------------------


def test_criterion_04_jl_distortion():
    q, eps, delta, trials = 50, 0.5, 0.05, 400
    k = jl_target_dim(q, delta, eps)
    assert k == 222  # ceil(8 ln(50/0.05) / 0.25)
    points = np.random.default_rng(2026).standard_normal((q, 256))
    rate = empirical_jl_check("gaussian", points, eps, k, trials=trials, seed=derive_seed(2026, 1))
    rate_quarter = empirical_jl_check(
        "gaussian", points, eps, k // 4, trials=trials, seed=derive_seed(2026, 2)
    )
    threshold = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / trials)
    ok_rate = rate <= threshold
    ok_monotone = rate_quarter >= 3.0 * max(rate, 1.0 / trials)
    report(
        4,
        ok_rate and ok_monotone,
        f"failure rate {rate:.4f} <= {threshold:.4f} at k={k}; "
        f"k//4={k // 4} rate {rate_quarter:.4f} >= 3x",
    )
    assert ok_rate and ok_monotone


# ---------------------------------------------------------------------------
# 5. exact ERM equals a full threshold scan in one dimension
# ---------------------------------------------------------------------------


def _threshold_scan_risk(u, y):
    """Minimal zero-one risk over sign(u - t) and sign(t - u), all t."""
    order = np.argsort(u)
    u_sorted, y_sorted = u[order], y[order]
    cuts = np.concatenate(([u_sorted[0] - 1.0], (u_sorted[:-1] + u_sorted[1:]) / 2.0,
                           [u_sorted[-1] + 1.0]))
    best = len(u)
    for t in cuts:
        plus = np.where(u_sorted >= t, 1.0, -1.0)
        errs = min(np.sum(plus != y_sorted), np.sum(-plus != y_sorted))
        best = min(best, errs)
    return best / len(u)


def test_criterion_05_exact_erm_oracle():
    rng = np.random.default_rng(505)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        u = rng.standard_normal(n)
        y = rng.choice([-1.0, 1.0], n)
        risk = erm_exact_classification(u[:, None], y).empirical_risk
        oracle = _threshold_scan_risk(u, y)
        if risk != oracle:
            mismatches += 1
    ok = mismatches == 0
    report(5, ok, f"200 instances, {mismatches} mismatches against the threshold scan")
    assert ok


# ---------------------------------------------------------------------------
# 6. lower-bound family validity
# ---------------------------------------------------------------------------


def test_criterion_06_assouad_family():
    cases = [(g, r, a, 1) for g in (1.0, 2.0, 4.0) for r in (1.0, 2.0, 4.0) for a in (0.0, 0.5)]
    cases += [(2.0, 2.0, 0.0, 4), (4.0, 4.0, 0.5, 4)]  # 18 boundary + 2 deeper
    assert len(cases) == 20
    bad = []
    for gamma, rho, alpha, scale in cases:
        n = scale * int(math.ceil(assouad_min_n(gamma, rho, alpha)))
        params = build_assouad_family(n, gamma, rho, alpha)
        member = check_membership(params)
        if not all(member.values()):
            bad.append((gamma, rho, alpha, scale, "membership", member))
            continue
        sigma = np.ones(params.q)
        flipped = sigma.copy()
        flipped[0] = -1.0
        chi2 = chi_squared_adjacent(
            AssouadDist(params.q, params.r, params.v, params.epsilon, sigma),
            AssouadDist(params.q, params.r, params.v, params.epsilon, flipped),
        )
        limit = 16.0 * params.epsilon**2 * params.v / params.q
        if chi2 > limit * (1.0 + 1e-12):
            bad.append((gamma, rho, alpha, scale, "chi2", chi2, limit))
    ok = not bad
    report(6, ok, f"20 parameter sets valid; failures: {bad or 'none'}")
    assert ok, bad


# ---------------------------------------------------------------------------
# 7. sketched least-squares bound
# ---------------------------------------------------------------------------


def test_criterion_07_sketched_ols():
    d = q = 40
    rng = np.random.default_rng(123)
    basis, _ = np.linalg.qr(rng.standard_normal((q, q)))
    Xmat = np.sqrt(0.5 ** np.arange(1, d + 1))[:, None] * basis[:d, :]
    w_diamond = rng.standard_normal(d)
    within = 0
    worst = 0.0
    for trial in range(100):
        pmap = sample_projection("gaussian", 15, d, derive_seed(123, trial + 1))
        ratio = sketched_ols_ratio(Xmat, w_diamond, pmap, r=5)["ratio"]
        worst = max(worst, ratio)
        if ratio <= 1.0:
            within += 1
    ok = within >= 95
    report(7, ok, f"ratio <= 1 in {within}/100 sketches (need >= 95); max ratio {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 8. compressibility decays in k
# ---------------------------------------------------------------------------


def test_criterion_08_compressibility_decay():
    dist = RegressionDist(d=32, spectral_constant=1.0, spectral_decay=0.5, w=np.ones(32))
    ks = np.array([1, 2, 4, 8, 16], dtype=float)
    vals, ses = [], []
    for i, k in enumerate(ks.astype(int)):
        est = estimate_compressibility(
            dist, "gaussian", int(k), reps=32, pop_n=4000, seed=derive_seed(808, i), iters=500
        )
        vals.append(est.value)
        ses.append(est.std_error)
    vals_arr, ses_arr = np.array(vals), np.array(ses)
    monotone = bool(
        np.all(vals_arr[1:] <= vals_arr[:-1] + 2.0 * (ses_arr[1:] + ses_arr[:-1]))
    )
    # weighted semilog fit: ln psi_hat against k
    weights = (vals_arr / ses_arr) ** 2
    ly = np.log(vals_arr)
    xw = float(np.sum(weights * ks) / np.sum(weights))
    yw = float(np.sum(weights * ly) / np.sum(weights))
    sxx = float(np.sum(weights * (ks - xw) ** 2))
    slope = float(np.sum(weights * (ks - xw) * (ly - yw)) / sxx)
    ci95 = 1.96 * math.sqrt(1.0 / sxx)
    decaying = slope + ci95 < 0.0
    ok = monotone and decaying
    report(
        8,
        ok,
        f"psi_hat {vals_arr.round(5).tolist()} non-increasing within 2SE: {monotone}; "
        f"semilog slope {slope:.4f} +- {ci95:.4f} below zero: {decaying}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. regression learning rate
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_09_regression_rate(tmp_path):
    config = {
        "distribution": {
            "type": "regression",
            "d": 32,
            "spectral_constant": 1.0,
            "spectral_decay": 0.2,
            "w": [1.0] * 32,
        },
        "n_list": [2**p for p in range(7, 14)],
        "m_list": [25],
        "k_rule": {"rule": "regression"},
        "trials": 20,
        "n_test": 50_000,
        "master_seed": 20260817,
        "solver_iters": 300,
        "threads": 4,
        "output": str(tmp_path / "regrate"),
    }
    fit = fit_rate(run_experiment(config))
    ok = -1.3 <= fit["slope"] <= -0.7
    report(
        9,
        ok,
        f"excess-risk slope {fit['slope']:.4f} +- {fit['ci95']:.4f} vs n, window [-1.3, -0.7]",
    )
    assert ok, fit


# ---------------------------------------------------------------------------
# 10. classification rate direction
# ---------------------------------------------------------------------------


def _per_n_means(csv_path):
    groups: dict[int, list[float]] = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["error"]:
                continue
            groups.setdefault(int(row["n"]), []).append(float(row["ensemble_excess"]))
    out = []
    for n in sorted(groups):
        arr = np.array(groups[n])
        out.append((n, float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))))
    return out


@pytest.mark.slow
def test_criterion_10_classification_rate(tmp_path):
    config = {
        "distribution": {
            "type": "gauss_margin",
            "d": 50,
            "gamma": 2.0,
            "rho": 2.0,
            "alpha": 0.0,
        },
        "n_list": [2**p for p in range(8, 14)],
        "m_list": [25],
        "k_rule": {"rule": "classification", "gamma": 2.0, "rho": 2.0, "alpha": 0.0},
        "trials": 10,
        "n_test": 50_000,
        "master_seed": 20260817,
        "solver_iters": 500,
        "threads": 4,
        "output": str(tmp_path / "clsrate"),
    }
    csv_path = run_experiment(config)
    fit = fit_rate(csv_path)
    target = -0.25  # gamma rho / (2(gamma+rho) + gamma rho (2-alpha)) with a sign
    tight = target - 0.2 <= fit["slope"] <= target + 0.2
    if tight:
        report(10, True, f"tight path: slope {fit['slope']:.4f} within [-0.45, -0.05]")
        return
    # fallback: direction only — negative slope, and doubling n never raises
    # the mean excess by more than twice the combined standard error
    cells = _per_n_means(csv_path)
    never_rises = all(
        m2 <= m1 + 2.0 * (s1 + s2)
        for (_, m1, s1), (_, m2, s2) in zip(cells, cells[1:])
    )
    ok = fit["slope"] < 0.0 and never_rises
    report(
        10,
        ok,
        f"fallback path: slope {fit['slope']:.4f} +- {fit['ci95']:.4f} < 0 and means "
        f"{[round(m, 5) for _, m, _ in cells]} never rise beyond 2SE",
    )
    assert ok, (fit, cells)


# ---------------------------------------------------------------------------
# 11. distribution checkers recover the planted exponents
# ---------------------------------------------------------------------------


def test_criterion_11_distribution_checkers():
    dist = GaussMarginDist(8, gamma=2.0, rho=3.0, alpha=0.5)
    geom = check_geometric_margin(dist, np.geomspace(0.05, 0.8, 6), mc_n=1_000_000, seed=21)
    mom = check_moment(dist, np.geomspace(3.0, 12.0, 6), mc_n=1_000_000, seed=22)
    tsy = check_tsybakov(dist, np.geomspace(0.05, 0.8, 6), mc_n=1_000_000, seed=23)
    rdist = RegressionDist(d=12, spectral_constant=1.0, spectral_decay=0.5, w=np.full(12, 0.1))
    X, _ = rdist.sample(200_000, 5)
    spec = check_spectral_decay(X)
    checks = {
        "gamma_hat": (geom["gamma_hat"], 1.8, 2.2),
        "rho_hat": (mom["rho_hat"], 2.7, 3.3),
        "tsybakov_hat": (tsy["exponent_hat"], 0.8, 1.2),  # alpha/(1-alpha) = 1 +- 20%
        "omega_hat": (spec["omega_hat"], 0.45, 0.55),
    }
    bad = {name: val for name, (val, lo, hi) in checks.items() if not lo <= val <= hi}
    ok = not bad
    report(
        11,
        ok,
        "; ".join(f"{name}={val:.4f} in [{lo}, {hi}]" for name, (val, lo, hi) in checks.items()),
    )
    assert ok, bad


# ---------------------------------------------------------------------------
# 12. ensemble size shrinks variance without hurting the mean
# ---------------------------------------------------------------------------


def test_criterion_12_ensemble_size_effect():
    dist = GaussMarginDist(50, gamma=2.0, rho=2.0, alpha=0.0)
    loss = make_loss("zero_one")
    n, trials = 1024, 30
    k = optimal_k_classification(n, 2.0, 2.0, 0.0)
    excess = {1: [], 25: []}
    for t in range(trials):
        ts = derive_seed(20260817, t)
        X, y = dist.sample(n, derive_seed(ts, 0))
        for m in (1, 25):
            model = train_ensemble(
                X, y, loss, "gaussian", k, m, master_seed=derive_seed(ts, 1), iters=300
            )
            est = estimate_excess_risk(
                lambda Xq: predict(model, Xq), dist, n_test=20_000, seed=derive_seed(ts, 2)
            )
            excess[m].append(est.value)
    single, full = np.array(excess[1]), np.array(excess[25])
    var_ok = full.var(ddof=1) <= single.var(ddof=1)
    se = math.sqrt(single.var(ddof=1) / trials + full.var(ddof=1) / trials)
    mean_ok = full.mean() <= single.mean() + 2.0 * se
    ok = var_ok and mean_ok
    report(
        12,
        ok,
        f"var m=25 {full.var(ddof=1):.2e} <= var m=1 {single.var(ddof=1):.2e}; "
        f"mean {full.mean():.5f} vs {single.mean():.5f} + 2se",
    )
    assert ok


# ---------------------------------------------------------------------------
# 13. byte-level reproducibility across reruns and thread budgets
# ---------------------------------------------------------------------------


def _stripped_rows(csv_path):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_ms")
    return [tuple(v for i, v in enumerate(row) if i != drop) for row in rows]


def test_criterion_13_reproducibility(tmp_path, monkeypatch):
    config = {
        "distribution": {
            "type": "regression",
            "d": 6,
            "spectral_constant": 1.0,
            "spectral_decay": 0.5,
            "w": [0.3] * 6,
        },
        "n_list": [40, 80],
        "m_list": [3],
        "k_rule": {"rule": "fixed", "k": 2},
        "trials": 3,
        "n_test": 2000,
        "master_seed": 99,
        "solver_iters": 150,
        "compressibility": {"reps": 2, "pop_factor": 4},
        "output": str(tmp_path / "repro"),
    }
    monkeypatch.setenv("CERM_THREADS", "1")
    first = _stripped_rows(run_experiment(config))
    second = _stripped_rows(run_experiment(config))
    monkeypatch.setenv("CERM_THREADS", "3")
    third = _stripped_rows(run_experiment(config))
    ok = first == second == third
    report(13, ok, "rerun and 3-thread CSVs byte-identical after dropping wall_time_ms")
    assert ok

"""Tests for risk estimation, bound assembly and the sketched least-squares check."""

import math

import numpy as np
import pytest

from cerm.losses import make_loss
from cerm.projections import sample_projection
from cerm.riskbounds import (
    RiskEstimate,
    estimate_compressibility,
    estimate_excess_risk,
    log_plus,
    optimal_k_classification,
    optimal_k_regression,
    risk_bound_bracket,
    sketched_ols_ratio,
)
from cerm.synthdist import (
    AssouadDist,
    FiniteSupportDist,
    GaussMarginDist,
    RegressionDist,
)


def two_atom_dist():
    return FiniteSupportDist(
        points=np.array([[0.0], [1.0]]),
        probs=np.array([0.5, 0.5]),
        label_values=np.array([[1.0, -1.0], [1.0, -1.0]]),
        label_probs=np.array([[0.7, 0.3], [0.1, 0.9]]),
        loss=make_loss("zero_one"),
    )


# ---------------------------------------------------------------------------
# log_plus and result containers
# ---------------------------------------------------------------------------


def test_log_plus_floors_at_one():
    assert log_plus(1.0) == 1.0
    assert log_plus(2.0) == 1.0  # ln 2 < 1
    assert log_plus(math.exp(2.0)) == pytest.approx(2.0, rel=1e-15)
    out = log_plus(np.array([1.0, math.e, math.exp(3.0)]))
    assert np.allclose(out, [1.0, 1.0, 3.0], rtol=1e-15)


def test_log_plus_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_plus(0.0)
    with pytest.raises(ValueError):
        log_plus(np.array([1.0, -2.0]))


def test_risk_estimate_validation():
    with pytest.raises(ValueError):
        RiskEstimate(value=0.1, std_error=-1e-9, n_samples=10, exact=False)
    with pytest.raises(ValueError):
        RiskEstimate(value=0.1, std_error=0.01, n_samples=10, exact=True)
    est = RiskEstimate(value=0.1, std_error=0.0, n_samples=10, exact=True)
    assert est.exact


# ---------------------------------------------------------------------------
# excess-risk estimation: the three evaluation paths
# ---------------------------------------------------------------------------


def test_excess_risk_atoms_path_is_exact():
    dist = two_atom_dist()
    # Bayes predictor: +1 on the first atom, -1 on the second.
    est = estimate_excess_risk(dist.bayes_predict, dist)
    assert est.exact and est.std_error == 0.0
    assert est.value == 0.0
    # Always +1 errs with probability 0.9 on the second atom:
    # risk = .5*.3 + .5*.9 = 0.6, Bayes = .5*.3 + .5*.1 = 0.2.
    est = estimate_excess_risk(lambda X: np.ones(X.shape[0]), dist)
    assert est.value == pytest.approx(0.4, abs=1e-15)


def test_excess_risk_assouad_atoms_path():
    # With every block sign -1 the heavy anchor is unaffected and each light
    # atom has eta = (1 - eps)/2, so predicting +1 everywhere pays exactly
    # eps per unit of light mass: excess = v * eps.
    dist = AssouadDist(q=4, r=1.5, v=0.5, epsilon=0.3, sigma=-np.ones(4))
    est = estimate_excess_risk(lambda X: np.ones(X.shape[0]), dist)
    assert est.exact
    assert est.value == pytest.approx(0.5 * 0.3, rel=1e-12)


def test_excess_risk_eta_path():
    # gamma=2, alpha=0.5 puts |2 eta - 1| = M^2; predicting +1 everywhere
    # disagrees with Bayes exactly on {M < 0}, so the excess is
    # E[M^2 ; M < 0] = (1/2) * gamma/(gamma+2) = 1/4.
    dist = GaussMarginDist(4, gamma=2.0, rho=3.0, alpha=0.5)
    est = estimate_excess_risk(lambda X: np.ones(X.shape[0]), dist, n_test=100_000, seed=3)
    assert not est.exact and est.std_error > 0.0
    assert abs(est.value - 0.25) < 4.0 * est.std_error
    # the Bayes predictor itself has excess exactly zero pointwise
    est0 = estimate_excess_risk(dist.bayes_predict, dist, n_test=2_000, seed=3)
    assert est0.value == 0.0


def test_excess_risk_paired_regression_path():
    dist = RegressionDist(d=3, spectral_constant=1.0, spectral_decay=0.5, w=np.full(3, 0.2))
    est = estimate_excess_risk(dist.bayes_predict, dist, n_test=500, seed=0)
    assert est.value == 0.0 and est.std_error == 0.0 and not est.exact
    zero = estimate_excess_risk(lambda X: np.zeros(X.shape[0]), dist, n_test=20_000, seed=1)
    assert zero.value > 0.0
    assert zero.value > 4.0 * zero.std_error


def test_excess_risk_rejects_a_misshapen_prediction():
    dist = GaussMarginDist(4, gamma=2.0, rho=3.0, alpha=0.5)
    with pytest.raises(ValueError, match="prediction matrix"):
        estimate_excess_risk(lambda X: np.ones((X.shape[0], 1)), dist, n_test=100, seed=0)


def test_excess_risk_shares_the_draw():
    dist = GaussMarginDist(4, gamma=2.0, rho=3.0, alpha=0.5)
    a = estimate_excess_risk(lambda X: np.ones(X.shape[0]), dist, n_test=5_000, seed=9)
    b = estimate_excess_risk(lambda X: np.ones(X.shape[0]), dist, n_test=5_000, seed=9)
    assert a.value == b.value and a.std_error == b.std_error


# ---------------------------------------------------------------------------
# compressibility estimation
# ---------------------------------------------------------------------------


def test_compressibility_is_deterministic_and_decays():
    dist = RegressionDist(d=8, spectral_constant=1.0, spectral_decay=0.2, w=np.full(8, 1.0))
    lo = estimate_compressibility(dist, "gaussian", 1, reps=4, pop_n=300, iters=200, seed=2)
    lo2 = estimate_compressibility(dist, "gaussian", 1, reps=4, pop_n=300, iters=200, seed=2)
    hi = estimate_compressibility(dist, "gaussian", 5, reps=4, pop_n=300, iters=200, seed=2)
    assert lo.value == lo2.value and lo.std_error == lo2.std_error
    assert lo.value >= 0.0 and hi.value >= 0.0
    # steep spectral decay: one compressed direction loses real risk, five do not
    assert lo.value > hi.value + 2.0 * (lo.std_error + hi.std_error)


def test_compressibility_of_an_assouad_law_at_q_7000():
    """Each rep is scored by exact summation over the q + 1 axis atoms."""
    q = 7000
    dist = AssouadDist(q=q, r=q**0.25, v=q**-0.25, epsilon=q**-0.25)
    est = estimate_compressibility(dist, "gaussian", 2, reps=3, pop_n=150, iters=100, seed=4)
    again = estimate_compressibility(dist, "gaussian", 2, reps=3, pop_n=150, iters=100, seed=4)
    assert est == again
    assert est.n_samples == 3 and not est.exact
    # Each rep's excess is at most the heavy atom's mass plus epsilon per unit light mass.
    assert 0.0 <= est.value <= (1.0 - dist.v) + dist.v * dist.epsilon


def test_compressibility_rejects_bad_reps():
    dist = RegressionDist(d=4, spectral_constant=1.0, spectral_decay=0.5, w=np.full(4, 0.2))
    with pytest.raises(ValueError):
        estimate_compressibility(dist, "gaussian", 2, reps=0)


def test_compressibility_rejects_solvers_the_loss_does_not_take():
    dist = RegressionDist(d=4, spectral_constant=1.0, spectral_decay=0.5, w=np.full(4, 0.2))
    for solver in ("annealing", "exact"):
        with pytest.raises(ValueError, match=solver):
            estimate_compressibility(dist, "gaussian", 2, reps=1, pop_n=50, solver=solver)
    cls = GaussMarginDist(4, gamma=2.0, rho=3.0, alpha=0.5)
    with pytest.raises(ValueError, match="annealing"):
        estimate_compressibility(cls, "gaussian", 2, reps=1, pop_n=50, solver="annealing")


# ---------------------------------------------------------------------------
# closed-form bounds and tuning rules
# ---------------------------------------------------------------------------


def test_risk_bound_bracket_closed_form():
    # n=1: log_plus terms floor at 1, so the statistical term is
    # ((k + 1)/1)^(1/(2-alpha)) = sqrt(2) at k=1, alpha=0; ensemble = 1/m.
    br = risk_bound_bracket(1, 1, 2, math.exp(-1), 0.0, 0.0)
    assert br.statistical_term == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert br.ensemble_term == pytest.approx(0.5, rel=1e-15)
    assert br.compressibility_term == 0.0
    assert br.total == pytest.approx(math.sqrt(2.0) + 0.5, rel=1e-15)
    # alpha=1 removes the square root; psi_hat passes through additively
    br1 = risk_bound_bracket(1, 1, 2, math.exp(-1), alpha=1.0, psi_hat=0.25)
    assert br1.statistical_term == pytest.approx(2.0, rel=1e-15)
    assert br1.compressibility_term == pytest.approx(0.25, rel=1e-15)
    assert br1.total == pytest.approx(2.75, rel=1e-15)


def test_risk_bound_bracket_monotonicity():
    base = risk_bound_bracket(1000, 5, 10, 0.05, 0.01, 0.3).total
    assert risk_bound_bracket(4000, 5, 10, 0.05, 0.01, 0.3).total < base
    assert risk_bound_bracket(1000, 10, 10, 0.05, 0.01, 0.3).total > base
    assert risk_bound_bracket(1000, 5, 40, 0.05, 0.01, 0.3).total < base


@pytest.mark.parametrize(
    "args",
    [
        (0, 1, 1, 0.5, 0.0, 0.0),
        (10, 0, 1, 0.5, 0.0, 0.0),
        (10, 1, 0, 0.5, 0.0, 0.0),
        (10, 1, 1, 1.5, 0.0, 0.0),
        (10, 1, 1, 0.5, 2.0, 0.0),
        (10, 1, 1, 0.5, 0.0, -0.1),
    ],
)
def test_risk_bound_bracket_validation(args):
    with pytest.raises(ValueError):
        risk_bound_bracket(*args)


def test_optimal_k_classification_frozen():
    # exponent 2(gamma+rho)/(2(gamma+rho)+gamma*rho*(2-alpha)) = 1/2 here;
    # ceil((10^4 / ln 10^4)^(1/2)) = ceil(32.95...) = 33
    assert optimal_k_classification(10_000, 2.0, 2.0, 0.0) == 33
    assert optimal_k_classification(1, 2.0, 2.0, 0.0) == 1
    with pytest.raises(ValueError):
        optimal_k_classification(0, 2.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        optimal_k_classification(100, 2.0, 2.0, 1.0)  # needs alpha < 1
    with pytest.raises(ValueError):
        optimal_k_classification(100, -1.0, 2.0, 0.0)


def test_optimal_k_regression_frozen():
    assert optimal_k_regression(1) == 1
    assert optimal_k_regression(148) == 5  # ln 148 = 4.997...
    assert optimal_k_regression(1_000_000) == 14
    with pytest.raises(ValueError):
        optimal_k_regression(0)


# ---------------------------------------------------------------------------
# sketched least squares
# ---------------------------------------------------------------------------


def _spectral_design(d, q, decay, seed):
    rng = np.random.default_rng(seed)
    qmat, _ = np.linalg.qr(rng.standard_normal((q, q)))
    scales = np.sqrt(decay ** np.arange(1, d + 1))
    return scales[:, None] * qmat[:d, :]


def test_sketched_ols_ratio_spectral_design():
    X = _spectral_design(40, 40, 0.5, 123)
    rng = np.random.default_rng(123)
    w = rng.standard_normal(40)
    for trial in range(10):
        pmap = sample_projection("gaussian", 15, 40, seed=1000 + trial)
        out = sketched_ols_ratio(X, w, pmap, r=5)
        assert out["lhs"] >= 0.0 and out["rhs"] > 0.0
        assert out["ratio"] <= 1.0


def test_sketched_ols_ratio_rank_deficient_reports_zero():
    # rank-1 design: the tail past r=1 vanishes and the sketch still spans
    # the single informative direction, so lhs vanishes with it
    u = np.array([1.0, -2.0, 0.5])
    X = np.outer(u, np.arange(1.0, 7.0))
    pmap = sample_projection("gaussian", 2, 3, seed=4)
    out = sketched_ols_ratio(X, np.array([0.3, 0.1, -0.2]), pmap, r=1)
    assert out["rhs"] <= 1e-9
    assert out["ratio"] == 0.0


def test_sketched_ols_ratio_validation():
    X = np.eye(4)
    w = np.ones(4)
    pmap = sample_projection("gaussian", 3, 4, seed=0)
    with pytest.raises(ValueError):
        sketched_ols_ratio(np.ones(4), w, pmap, r=1)
    with pytest.raises(ValueError):
        sketched_ols_ratio(X, np.ones(3), pmap, r=1)
    with pytest.raises(ValueError):
        sketched_ols_ratio(X, w, sample_projection("gaussian", 3, 5, seed=0), r=1)
    with pytest.raises(ValueError):
        sketched_ols_ratio(X, w, pmap, r=3)  # needs r < min(q, k) = 3
    with pytest.raises(ValueError):
        sketched_ols_ratio(X, w, pmap, r=-1)

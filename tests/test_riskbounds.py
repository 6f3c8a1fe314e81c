"""Tests for risk estimation, bound assembly and the sketched least-squares check."""

import math

import numpy as np
import pytest

from cerm.hypotheses import LinearHypothesis, fit
from cerm.losses import LossDomainError, eval_loss, make_loss
from cerm.projections import _row_blocks, apply, sample_projection
from cerm.riskbounds import (
    RiskEstimate,
    _mc_estimate,
    _Moments,
    estimate_compressibility,
    estimate_excess_risk,
    log_plus,
    optimal_k_classification,
    optimal_k_regression,
    risk_bound_bracket,
    sketched_ols_ratio,
)
from cerm.seeds import derive_seed
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
# excess-risk estimation: exact atom sums and the conditional-excess fold
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


def test_eta_path_takes_the_margin_once(monkeypatch):
    """The weights and the Bayes predictions come from one pass over the test
    set, and the estimate equals the one formed with ``bayes_predict``."""
    dist = GaussMarginDist(4, gamma=2.0, rho=3.0, alpha=0.5)
    X, _ = dist.sample(5_000, 3)
    reference = np.mean(np.abs(2.0 * dist.eta(X) - 1.0) * (dist.bayes_predict(X) != 1.0))
    calls = []
    margin_of = GaussMarginDist.margin_of
    monkeypatch.setattr(
        GaussMarginDist, "margin_of", lambda self, X: calls.append(len(X)) or margin_of(self, X)
    )
    est = estimate_excess_risk(lambda X: np.ones(X.shape[0]), dist, n_test=5_000, seed=3)
    assert calls == [5_000]
    assert est.value == reference


def test_excess_risk_paired_regression_path():
    dist = RegressionDist(d=3, spectral_constant=1.0, spectral_decay=0.5, w=np.full(3, 0.2))
    est = estimate_excess_risk(dist.bayes_predict, dist, n_test=500, seed=0)
    assert est.value == 0.0 and est.std_error == 0.0 and not est.exact
    zero = estimate_excess_risk(lambda X: np.zeros(X.shape[0]), dist, n_test=20_000, seed=1)
    assert zero.value > 0.0
    assert zero.value > 4.0 * zero.std_error


def test_noiseless_regression_estimates_fold_the_paired_loss_differences():
    """On a noiseless law each label is ``bayes_predict`` of its point bit
    for bit, so a draw's conditional excess is its paired loss difference:
    each estimate is the ``_Moments`` fold, block by block, of the
    differences on ``sample(n_test, seed)``'s labels, exactly."""
    dist = RegressionDist(d=5, spectral_constant=1.0, spectral_decay=0.5, w=np.full(5, 0.4), t=0.1)
    loss = dist.loss_spec
    n_test = 3 * _row_blocks(1 << 18, dist.d)[0].stop + 17
    X, y = dist.sample(n_test, 11)
    rng = np.random.default_rng(11)
    for _ in range(3):
        rule = LinearHypothesis(w=rng.standard_normal(5), t=0.2, mode="clip")
        fold = _Moments(1)
        for rows in _row_blocks(*X.shape):
            paired = eval_loss(loss, rule.predict(X[rows]), y[rows]) - eval_loss(
                loss, dist.bayes_predict(X[rows]), y[rows]
            )
            fold.add(paired[None, :])
        assert estimate_excess_risk(rule, dist, n_test=n_test, seed=11) == fold.estimates()[0]


def test_regression_predictions_outside_the_label_range_are_refused():
    dist = RegressionDist(d=3, spectral_constant=1.0, spectral_decay=0.5, w=np.full(3, 0.2))
    with pytest.raises(LossDomainError, match="predictions outside"):
        estimate_excess_risk(lambda X: np.full(len(X), 1.5), dist, n_test=100, seed=0)


def test_noisy_regression_conditional_excess_agrees_with_paired_differences():
    """With bounded-uniform noise the conditional excess and the paired loss
    differences on the same draw's labels estimate one excess risk; the
    conditional one, which carries no label noise, has the smaller error."""
    dist = RegressionDist(d=5, spectral_constant=1.0, spectral_decay=0.5, w=np.full(5, 0.4), t=0.1,
                          noise=("bounded_uniform", 0.3))
    loss = dist.loss_spec
    rule = LinearHypothesis(w=np.array([0.5, 0.3, 0.0, 0.2, 0.4]), t=0.05, mode="clip")
    conditional = estimate_excess_risk(rule, dist, n_test=50_000, seed=12)
    X, y = dist.sample(50_000, 12)
    paired = _mc_estimate(eval_loss(loss, rule.predict(X), y) - eval_loss(loss, dist.bayes_predict(X), y))
    gap = abs(conditional.value - paired.value)
    assert gap <= 4.0 * math.hypot(conditional.std_error, paired.std_error), (conditional, paired)
    assert 0.0 < conditional.std_error < paired.std_error


def test_regression_evaluation_builds_no_quadrature_rule(monkeypatch):
    """The noisy law scales its Gauss-Legendre rule once, when it is built:
    an evaluation over several row blocks and its Bayes risk build none."""
    dist = RegressionDist(d=5, spectral_constant=1.0, spectral_decay=0.5, w=np.full(5, 0.4),
                          noise=("bounded_uniform", 0.3))
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda deg: calls.append(deg) or leggauss(deg))
    n_test = 3 * _row_blocks(1 << 18, dist.d)[0].stop + 17
    assert estimate_excess_risk(lambda X: np.zeros(len(X)), dist, n_test=n_test, seed=2).value > 0.0
    assert dist.bayes_risk(mc_n=n_test, seed=2).value > 0.0
    assert calls == []


class _NoDrawLaw:
    """A law without atoms whose draws must not be made: each draw method
    records its call and fails."""

    d = 3

    def __init__(self, loss, **methods):
        self.loss_spec, self.calls = loss, []
        for name, method in methods.items():
            setattr(self, name, method)

    def bayes_predict(self, X):
        return np.ones(len(X))

    def _draw(self, name):
        self.calls.append(name)
        raise AssertionError(f"{name} called")

    def sample(self, n, seed):
        self._draw("sample")

    def draw_blocks(self, n, seed, visit):
        self._draw("draw_blocks")

    def draw_scores(self, V, n, seed, visit):
        self._draw("draw_scores")

    def eta_at(self, M):
        return np.ones(len(M))


@pytest.mark.parametrize("loss, methods, lacks", [
    (make_loss("zero_one"), {}, "no eta"),
    (make_loss("kl"), {}, "kl loss"),
    (make_loss("kl"), {"eta": lambda X: np.ones(len(X))}, "kl loss"),
], ids=["zero_one_without_eta", "kl", "kl_with_eta"])
@pytest.mark.parametrize("predictor", ["callable", "linear"])
def test_a_law_the_fold_cannot_score_is_refused_before_any_draw(loss, methods, lacks, predictor):
    """A law without atoms is scored by its conditional excess, which needs
    eta under the zero-one loss and exists for no loss but the zero-one and
    squared ones; any other such law is refused before a draw is made."""
    dist = _NoDrawLaw(loss, **methods)
    rule = LinearHypothesis(w=np.ones(3), t=0.0, mode="sign")
    scored = rule if predictor == "linear" else rule.predict
    with pytest.raises(ValueError, match=rf"_NoDrawLaw has no atoms\(\).*{lacks}"):
        estimate_excess_risk(scored, dist, n_test=100, seed=0)
    assert dist.calls == []


class _SampleOnly:
    """A law that gives its test draws only through ``sample``."""

    def __init__(self, dist):
        self.d, self.loss_spec, self._dist = dist.d, dist.loss_spec, dist
        self.bayes_predict = dist.bayes_predict
        if hasattr(dist, "eta"):
            self.eta = dist.eta

    def sample(self, n, seed):
        return self._dist.sample(n, seed)


@pytest.mark.parametrize("law", ["eta", "regression"])
def test_a_law_with_only_sample_is_scored_as_its_block_draw(law):
    """``sample`` alone is adapted to the block draw and gives the same
    estimate, over several row blocks with a ragged last one."""
    if law == "eta":
        dist = GaussMarginDist(4, gamma=2.0, rho=3.0, alpha=0.5)
        predictor = lambda X: np.where(X[:, 0] >= 0.1, 1.0, -1.0)  # noqa: E731
    else:
        dist = RegressionDist(d=3, spectral_constant=1.0, spectral_decay=0.5, w=np.full(3, 0.2),
                              noise=("bounded_uniform", 0.3))
        predictor = lambda X: np.clip(X[:, 0] - 0.1, -1.0, 1.0)  # noqa: E731
    n_test = 2 * _row_blocks(1 << 18, dist.d)[0].stop + 17
    reference = estimate_excess_risk(predictor, dist, n_test=n_test, seed=5)
    assert estimate_excess_risk(predictor, _SampleOnly(dist), n_test=n_test, seed=5) == reference


def test_moments_fold_blocks_into_the_whole_array_estimate():
    """Folded block by block, r streams give ``_mc_estimate``'s mean and
    standard error of each stream to rounding, and each stream's figures
    are those it gives folded alone, bit for bit."""
    rng = np.random.default_rng(4)
    values = np.where(rng.random((3, 10_007)) < 0.1, rng.random((3, 10_007)), 0.0)
    cuts = [0, 5, 2048, 4096, 9000, 10_007]
    together, alone = _Moments(3), [_Moments(1) for _ in range(3)]
    for a, b in zip(cuts, cuts[1:]):
        together.add(values[:, a:b].copy())
        for i, fold in enumerate(alone):
            fold.add(values[i : i + 1, a:b].copy())
    estimates = together.estimates()
    for i, est in enumerate(estimates):
        whole = _mc_estimate(values[i])
        assert est.n_samples == whole.n_samples and not est.exact
        assert est.value == pytest.approx(whole.value, rel=1e-12)
        assert est.std_error == pytest.approx(whole.std_error, rel=1e-12)
        assert alone[i].estimates() == [est]


def _sign_rule(d, seed):
    rng = np.random.default_rng(seed)
    return LinearHypothesis(w=rng.standard_normal(d), t=0.2, mode="sign")


@pytest.mark.parametrize("law", ["atoms", "regression", "sample_only"])
def test_a_linear_rule_off_span_laws_is_scored_as_its_predict(law):
    """A ``LinearHypothesis`` on a law without ``draw_scores`` gives exactly
    the estimate of its ``predict``."""
    if law == "atoms":
        dist = AssouadDist(q=9, r=2.0, v=0.6, epsilon=0.3, sigma=np.where(np.arange(9) % 2, 1.0, -1.0))
        rule = _sign_rule(10, 1)
    elif law == "regression":
        dist = RegressionDist(d=5, spectral_constant=1.0, spectral_decay=0.5, w=np.full(5, 0.3),
                              noise=("bounded_uniform", 0.2))
        rule = LinearHypothesis(w=np.full(5, 0.25), t=0.1, mode="clip")
    else:
        dist = _SampleOnly(GaussMarginDist(4, gamma=2.0, rho=3.0, alpha=0.5))
        rule = _sign_rule(4, 2)
    n_test = 2 * _row_blocks(1 << 18, dist.d)[0].stop + 17
    assert estimate_excess_risk(rule, dist, n_test=n_test, seed=6) == estimate_excess_risk(
        rule.predict, dist, n_test=n_test, seed=6
    )


def test_a_linear_rule_on_a_span_law_draws_one_direction(monkeypatch):
    """On a ``gauss_margin`` law a ``LinearHypothesis`` is scored from one
    ``draw_scores`` call on its d x 1 weight, with no point drawn, and
    agrees in law with its ``predict`` on the dense draw."""
    dist = GaussMarginDist(40, gamma=2.0, rho=3.0, alpha=0.5, t=0.1)
    rule = _sign_rule(40, 3)
    shapes = []
    draw_scores = GaussMarginDist.draw_scores
    monkeypatch.setattr(GaussMarginDist, "draw_scores",
                        lambda self, V, *rest: shapes.append(V.shape) or draw_scores(self, V, *rest))
    monkeypatch.setattr(GaussMarginDist, "draw_blocks", None)
    span = estimate_excess_risk(rule, dist, n_test=200_000, seed=7)
    assert shapes == [(40, 1)]
    monkeypatch.undo()
    dense = estimate_excess_risk(rule.predict, dist, n_test=200_000, seed=8)
    assert abs(span.value - dense.value) <= 4.0 * math.hypot(span.std_error, dense.std_error)


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


def _compressibility_by_predict(dist, family, k, reps, pop_n, seed, iters):
    """``estimate_compressibility`` with each rep's rule scored through its
    ``predict`` callable: the dense evaluation every law had before span
    draws."""
    values = []
    for rep in range(reps):
        X, y = dist.sample(pop_n, derive_seed(seed, 3 * rep + 1))
        pmap = sample_projection(family, k, dist.d, derive_seed(seed, 3 * rep))
        rule = fit(apply(pmap, X), y, dist.loss_spec, "surrogate", iters).hypothesis.pull_back(pmap.matrix)
        values.append(estimate_excess_risk(rule.predict, dist, n_test=pop_n,
                                           seed=derive_seed(seed, 3 * rep + 2)).value)
    return _mc_estimate(np.array(values))


@pytest.mark.parametrize("law", ["regression", "assouad"])
def test_compressibility_off_span_laws_scores_each_rule_as_its_predict(law):
    if law == "regression":
        dist = RegressionDist(d=8, spectral_constant=1.0, spectral_decay=0.2, w=np.full(8, 1.0),
                              noise=("bounded_uniform", 0.1))
    else:
        dist = AssouadDist(q=40, r=2.0, v=0.5, epsilon=0.2)
    args = dict(family="gaussian", k=2, reps=3, pop_n=300, seed=5, iters=100)
    assert estimate_compressibility(dist, **args) == _compressibility_by_predict(dist, **args)


def test_compressibility_on_a_span_law_draws_no_test_point(monkeypatch):
    """On a ``gauss_margin`` law each rep samples its fitting draw and
    scores its rule from one span draw of its d x 1 weight."""
    dist = GaussMarginDist(30, gamma=2.0, rho=3.0, alpha=0.5)
    calls = []
    for name in ("sample", "draw_scores"):
        original = getattr(GaussMarginDist, name)
        monkeypatch.setattr(GaussMarginDist, name,
                            lambda self, *a, _n=name, _o=original: calls.append(_n) or _o(self, *a))
    est = estimate_compressibility(dist, "gaussian", 2, reps=3, pop_n=400, iters=50, seed=1)
    assert calls == ["sample", "draw_scores"] * 3
    assert est.n_samples == 3 and 0.0 <= est.value <= 1.0


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

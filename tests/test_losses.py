import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cerm.losses import (
    InvalidBetaError,
    LossDomainError,
    UndefinedBernsteinError,
    bayes_action,
    bernstein_constant,
    eval_loss,
    make_loss,
)


def test_constant_table_zero_one():
    ls = make_loss("zero_one")
    assert ls.bound == 1.0
    assert ls.lipschitz == 0.5
    assert ls.curvature == 0.0
    assert ls.quasi_convexity == 2.0
    assert ls.combiner == "mode"


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 7.25])
def test_constant_table_squared(beta):
    ls = make_loss("squared", beta)
    assert ls.bound == 4.0 * beta**2
    assert ls.lipschitz == 4.0 * beta
    assert ls.curvature == 2.0
    assert ls.quasi_convexity == 1.0
    assert ls.combiner == "mean"


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 7.25])
def test_constant_table_kl(beta):
    ls = make_loss("kl", beta)
    assert ls.bound == beta + math.log(2.0)
    assert ls.lipschitz == 1.0
    assert ls.curvature == math.exp(beta) / (1.0 + math.exp(beta)) ** 2
    assert ls.quasi_convexity == 1.0
    assert ls.combiner == "mean"


def test_make_loss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_loss("hinge")
    with pytest.raises(InvalidBetaError):
        make_loss("squared", 0.0)
    with pytest.raises(InvalidBetaError):
        make_loss("kl", -1.0)


def test_zero_one_values():
    ls = make_loss("zero_one")
    v = np.array([1.0, 1.0, -1.0, -1.0])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(eval_loss(ls, v, y), [0.0, 1.0, 1.0, 0.0])


def test_squared_values():
    ls = make_loss("squared", 2.0)
    assert eval_loss(ls, 1.5, -0.5) == 4.0
    assert eval_loss(ls, -2.0, 2.0) == 16.0  # the extreme case attaining the bound


def test_kl_values_match_direct_formula():
    """Stable evaluation must agree with the textbook cross-entropy form."""
    ls = make_loss("kl", 3.0)
    v = np.linspace(-3.0, 3.0, 41)
    for y in (0.0, 1.0):
        direct = -(y * np.log(1 / (1 + np.exp(-v))) + (1 - y) * np.log(1 - 1 / (1 + np.exp(-v))))
        assert np.allclose(eval_loss(ls, v, np.full_like(v, y)), direct, atol=1e-12)


def test_kl_extreme_scores_stay_finite():
    ls = make_loss("kl", 700.0)
    out = eval_loss(ls, np.array([-700.0, 700.0]), np.array([1.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert np.all(out <= ls.bound + 1e-9)


def test_scalar_in_scalar_out():
    ls = make_loss("squared", 1.0)
    out = eval_loss(ls, 0.25, 0.75)
    assert np.ndim(out) == 0
    assert out == pytest.approx(0.25)


def test_domain_enforcement():
    with pytest.raises(LossDomainError):
        eval_loss(make_loss("zero_one"), 0.5, 1.0)  # non-sign prediction
    with pytest.raises(LossDomainError):
        eval_loss(make_loss("zero_one"), 1.0, 0.0)  # non-sign label
    with pytest.raises(LossDomainError):
        eval_loss(make_loss("squared", 1.0), 1.5, 0.0)  # prediction outside [-beta, beta]
    with pytest.raises(LossDomainError):
        eval_loss(make_loss("squared", 1.0), 0.0, -1.5)
    with pytest.raises(LossDomainError):
        eval_loss(make_loss("kl", 1.0), 0.0, 0.5)  # kl labels are binary


def test_bernstein_constants():
    assert bernstein_constant(make_loss("squared", 1.0)) == 32.0
    assert bernstein_constant(make_loss("squared", 2.0)) == 128.0
    # 4 * Lipschitz^2 / curvature at beta = 1: 4 / (e / (1+e)^2) = 4 (1+e)^2 / e
    assert bernstein_constant(make_loss("kl", 1.0)) == pytest.approx(
        4.0 * (1.0 + math.e) ** 2 / math.e, rel=1e-15
    )
    with pytest.raises(UndefinedBernsteinError):
        bernstein_constant(make_loss("zero_one"))


def test_bound_dominates_the_whole_domain():
    """The stored range constant upper-bounds the loss everywhere in-domain.

    For zero-one and squared the constant is attained at the corners; for kl
    the true supremum is ln(1 + e^beta), strictly below beta + ln 2, so only
    domination is asserted there.
    """
    beta = 2.0
    ls = make_loss("zero_one")
    assert np.max(eval_loss(ls, np.array([1.0, -1.0]), np.array([-1.0, 1.0]))) == ls.bound

    ls = make_loss("squared", beta)
    corner = eval_loss(ls, np.array([-beta, beta]), np.array([beta, -beta]))
    assert np.max(corner) == pytest.approx(ls.bound, rel=1e-12)

    ls = make_loss("kl", beta)
    v = np.linspace(-beta, beta, 201)
    worst = max(
        float(np.max(eval_loss(ls, v, np.zeros_like(v)))),
        float(np.max(eval_loss(ls, v, np.ones_like(v)))),
    )
    assert worst == pytest.approx(math.log(1.0 + math.exp(beta)), rel=1e-12)
    assert worst <= ls.bound


@settings(max_examples=200, deadline=None)
@given(
    v1=st.floats(-2.0, 2.0),
    v2=st.floats(-2.0, 2.0),
    y=st.floats(-2.0, 2.0),
)
def test_squared_lipschitz_property(v1, v2, y):
    ls = make_loss("squared", 2.0)
    gap = abs(float(eval_loss(ls, v1, y)) - float(eval_loss(ls, v2, y)))
    assert gap <= ls.lipschitz * abs(v1 - v2) + 1e-9


@settings(max_examples=200, deadline=None)
@given(
    v1=st.floats(-3.0, 3.0),
    v2=st.floats(-3.0, 3.0),
    y=st.sampled_from([0.0, 1.0]),
)
def test_kl_lipschitz_property(v1, v2, y):
    ls = make_loss("kl", 3.0)
    gap = abs(float(eval_loss(ls, v1, y)) - float(eval_loss(ls, v2, y)))
    assert gap <= ls.lipschitz * abs(v1 - v2) + 1e-9


@settings(max_examples=200, deadline=None)
@given(
    v1=st.floats(-2.0, 2.0),
    v2=st.floats(-2.0, 2.0),
    y=st.floats(-2.0, 2.0),
    lam=st.floats(0.0, 1.0),
)
def test_squared_strong_convexity_property(v1, v2, y, lam):
    """l(lam v1 + (1-lam) v2) <= lam l(v1) + (1-lam) l(v2) - H/2 lam(1-lam)(v1-v2)^2."""
    ls = make_loss("squared", 2.0)
    lhs = float(eval_loss(ls, lam * v1 + (1 - lam) * v2, y))
    rhs = (
        lam * float(eval_loss(ls, v1, y))
        + (1 - lam) * float(eval_loss(ls, v2, y))
        - 0.5 * ls.curvature * lam * (1 - lam) * (v1 - v2) ** 2
    )
    assert lhs <= rhs + 1e-9


@settings(max_examples=200, deadline=None)
@given(
    v1=st.floats(-3.0, 3.0),
    v2=st.floats(-3.0, 3.0),
    y=st.sampled_from([0.0, 1.0]),
    lam=st.floats(0.0, 1.0),
)
def test_kl_strong_convexity_property(v1, v2, y, lam):
    ls = make_loss("kl", 3.0)
    lhs = float(eval_loss(ls, lam * v1 + (1 - lam) * v2, y))
    rhs = (
        lam * float(eval_loss(ls, v1, y))
        + (1 - lam) * float(eval_loss(ls, v2, y))
        - 0.5 * ls.curvature * lam * (1 - lam) * (v1 - v2) ** 2
    )
    assert lhs <= rhs + 1e-9


def test_bayes_action_zero_one():
    ls = make_loss("zero_one")
    vals = np.array([-1.0, 1.0])
    assert bayes_action(ls, vals, np.array([0.3, 0.7])) == 1.0
    assert bayes_action(ls, vals, np.array([0.7, 0.3])) == -1.0
    # exact tie resolves to +1
    assert bayes_action(ls, vals, np.array([0.5, 0.5])) == 1.0


def test_bayes_action_squared_is_clipped_mean():
    ls = make_loss("squared", 1.0)
    vals = np.array([-1.0, 1.0])
    assert bayes_action(ls, vals, np.array([0.25, 0.75])) == pytest.approx(0.5)
    ls_small = make_loss("squared", 0.25)
    big = bayes_action(ls_small, np.array([0.25, 0.25]), np.array([0.5, 0.5]))
    assert big == 0.25  # clipped to the prediction range


def test_bayes_action_kl_is_clipped_logit():
    ls = make_loss("kl", 2.0)
    vals = np.array([0.0, 1.0])
    eta = 0.73
    action = bayes_action(ls, vals, np.array([1 - eta, eta]))
    assert action == pytest.approx(math.log(eta / (1 - eta)))
    assert bayes_action(ls, vals, np.array([0.0, 1.0])) == 2.0
    assert bayes_action(ls, vals, np.array([1.0, 0.0])) == -2.0


def test_bayes_action_minimizes_conditional_risk():
    """Cross-check the closed forms against a dense grid search."""
    rng = np.random.default_rng(6)
    for kind, beta in (("squared", 1.5), ("kl", 1.5)):
        ls = make_loss(kind, beta)
        vals = np.array([0.0, 1.0]) if kind == "kl" else rng.uniform(-beta, beta, 3)
        probs = rng.dirichlet(np.ones(len(vals)))
        grid = np.linspace(-beta, beta, 20001)
        risks = np.sum(probs[None, :] * eval_loss(ls, grid[:, None], vals[None, :]), axis=1)
        best_grid = grid[int(np.argmin(risks))]
        action = bayes_action(ls, vals, probs)
        assert abs(action - best_grid) < 2e-4


def _one_law_bayes_action(loss, values, probs):
    """The closed forms for a single label law, written with Python scalars:
    the reference for stacked calls."""
    if loss.kind == "squared":
        return float(np.clip(np.sum(probs * values), -loss.beta, loss.beta))
    eta = float(np.sum(probs[values == 1.0]))
    if loss.kind == "zero_one":
        return 1.0 if 2.0 * eta - 1.0 >= 0.0 else -1.0
    if eta <= 0.0:
        return -loss.beta
    if eta >= 1.0:
        return loss.beta
    return float(np.clip(np.log(eta / (1.0 - eta)), -loss.beta, loss.beta))


@pytest.mark.parametrize("kind", ["zero_one", "squared", "kl"])
def test_bayes_action_on_stacked_laws_equals_the_one_law_form(kind):
    rng = np.random.default_rng(20261018)
    loss = make_loss(kind, 1.5)
    pair = {"zero_one": [-1.0, 1.0], "squared": [-1.0, 1.0], "kl": [0.0, 1.0]}[kind]
    for width in (1, 2, 3, 4):
        s = 60
        probs = rng.dirichlet(np.ones(width), size=s)
        if kind == "squared":
            values = rng.uniform(-2.0, 2.0, (s, width))
        else:
            values = rng.choice(pair, size=(s, width))
        if width == 2:
            # eta = 1/2 exactly, then the deterministic laws eta = 1 and eta = 0
            values[:3] = pair
            probs[:3] = [[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]]
        stacked = bayes_action(loss, values, probs)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (s,)
        singles = [bayes_action(loss, values[i], probs[i]) for i in range(s)]
        assert all(type(a) is float for a in singles)
        assert stacked.tolist() == singles
        assert singles == [_one_law_bayes_action(loss, values[i], probs[i]) for i in range(s)]
        deeper = bayes_action(loss, values.reshape(3, 20, width), probs.reshape(3, 20, width))
        assert np.array_equal(deeper, stacked.reshape(3, 20))
        if width == 2 and kind != "squared":
            tie, one, zero = stacked[:3]
            assert tie == (1.0 if kind == "zero_one" else 0.0)
            assert (one, zero) == ((1.0, -1.0) if kind == "zero_one" else (1.5, -1.5))


def test_bayes_action_rejects_mismatched_shapes():
    loss = make_loss("zero_one")
    with pytest.raises(ValueError):
        bayes_action(loss, np.ones((3, 2)), np.full((3, 3), 1 / 3))
    with pytest.raises(ValueError):
        bayes_action(loss, 1.0, 1.0)

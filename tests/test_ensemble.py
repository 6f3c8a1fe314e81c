import tracemalloc

import numpy as np
import pytest

from cerm.ensemble import (
    EnsembleModel,
    member_excess_risks,
    predict,
    train_ensemble,
)
from cerm.losses import bayes_action, eval_loss, make_loss
from cerm.projections import FAMILIES, apply
from cerm.riskbounds import estimate_excess_risk
from cerm.seeds import derive_seed
from cerm.synthdist import AssouadDist, GaussMarginDist, RegressionDist


def classification_data(n=120, d=8, seed=0):
    dist = GaussMarginDist(d, gamma=2.0, rho=2.0, alpha=0.0)
    return dist, *dist.sample(n, seed=seed)


def test_train_ensemble_is_deterministic():
    _, X, y = classification_data()
    loss = make_loss("zero_one")
    a = train_ensemble(X, y, loss, "gaussian", k=4, m=4, master_seed=7, iters=100)
    b = train_ensemble(X, y, loss, "gaussian", k=4, m=4, master_seed=7, iters=100)
    for (pa, ha), (pb, hb) in zip(a.members, b.members):
        assert pa.seed == pb.seed
        assert np.array_equal(pa.matrix, pb.matrix)
        assert np.array_equal(ha.w, hb.w) and ha.t == hb.t


def test_member_seeds_are_derived_and_distinct():
    _, X, y = classification_data()
    model = train_ensemble(X, y, make_loss("zero_one"), "rademacher", k=2, m=6,
                           master_seed=123, iters=50)
    seeds = [pmap.seed for pmap, _ in model.members]
    assert seeds == [derive_seed(123, i) for i in range(6)]
    assert len(set(seeds)) == 6


def test_mode_combiner_breaks_ties_toward_plus_one():
    """With an even member count and a split vote the sum is 0, which must
    land on +1 — the same convention the sign hypotheses use."""
    _, X, y = classification_data(n=40)
    model = train_ensemble(X, y, make_loss("zero_one"), "gaussian", k=2, m=2,
                           master_seed=1, iters=50)
    outputs = np.stack([h.predict(apply(p, X)) for p, h in model.members])
    combined = predict(model, X)
    split = outputs.sum(axis=0) == 0.0
    assert np.all(combined[split] == 1.0)
    assert np.all(combined[~split] == np.sign(outputs.sum(axis=0))[~split])


def test_mean_combiner_clips_to_the_label_range():
    rng = np.random.default_rng(3)
    dist = RegressionDist(d=6, spectral_constant=1.0, spectral_decay=0.5,
                          w=np.full(6, 2.0), beta=1.0)
    X, y = dist.sample(100, seed=4)
    model = train_ensemble(X, y, dist.loss_spec, "gaussian", k=3, m=5,
                           master_seed=2, iters=200)
    out = predict(model, rng.standard_normal((50, 6)) * 3.0)
    assert np.all(out <= 1.0) and np.all(out >= -1.0)
    member_mean = np.mean(
        [h.predict(apply(p, X)) for p, h in model.members], axis=0
    )
    assert np.allclose(predict(model, X), np.clip(member_mean, -1.0, 1.0))


def test_member_excess_risks_are_paired():
    dist, X, y = classification_data(n=200, seed=5)
    model = train_ensemble(X, y, dist.loss_spec, "gaussian", k=4, m=3,
                           master_seed=9, iters=100)
    members, ensemble = member_excess_risks(model, dist, n_test=2000, seed=11)
    again_members, again_ensemble = member_excess_risks(model, dist, n_test=2000, seed=11)
    assert [m.value for m in members] == [m.value for m in again_members]
    assert ensemble.value == again_ensemble.value
    assert len(members) == 3
    for est in members + [ensemble]:
        assert est.n_samples == 2000
        assert est.std_error >= 0.0


def test_ensemble_validation_errors():
    _, X, y = classification_data(n=30)
    loss = make_loss("zero_one")
    with pytest.raises(ValueError):
        train_ensemble(X, y[:-1], loss, "gaussian", k=2, m=2)
    with pytest.raises(ValueError):
        train_ensemble(X, y, loss, "gaussian", k=2, m=0)
    with pytest.raises(ValueError):
        train_ensemble(X, y, loss, "gaussian", k=2, m=2, solver="annealing")
    with pytest.raises(ValueError):
        train_ensemble(X, y, make_loss("squared"), "gaussian", k=2, m=2, solver="exact")

    model = train_ensemble(X, y, loss, "gaussian", k=2, m=2, iters=10)
    with pytest.raises(ValueError):
        EnsembleModel(
            members=(model.members[0], model.members[0]),  # duplicate seed
            loss=loss,
            family="gaussian",
            k=2,
            d=X.shape[1],
            m=2,
            member_reports=model.member_reports,
        )
    with pytest.raises(ValueError):
        EnsembleModel(
            members=model.members,
            loss=loss,
            family="rademacher",  # family mismatch with the stored maps
            k=2,
            d=X.shape[1],
            m=2,
            member_reports=model.member_reports,
        )


def test_exact_solver_inside_ensemble():
    _, X, y = classification_data(n=60)
    model = train_ensemble(X, y, make_loss("zero_one"), "gaussian", k=2, m=3,
                           solver="exact", master_seed=4)
    assert all(r.solver == "exact" for r in model.member_reports)
    surro = train_ensemble(X, y, make_loss("zero_one"), "gaussian", k=2, m=3,
                           solver="surrogate", master_seed=4, iters=400)
    # same projections, so the exact member can never do worse
    for r_ex, r_su in zip(model.member_reports, surro.member_reports):
        assert r_ex.empirical_risk <= r_su.empirical_risk + 1e-15


def _reference_excess_risk(predictor, dist, n_test, seed):
    """One predictor's excess risk, scored on its own: the estimator written
    out branch by branch, kept as the reference for the one-pass path."""
    loss = dist.loss_spec
    if hasattr(dist, "atoms"):
        points, probs, label_values, label_probs = dist.atoms()

        def conditional(pred):
            losses = eval_loss(loss, np.asarray(pred, float)[:, None], label_values)
            return np.sum(label_probs * losses, axis=1)

        bayes = np.array(
            [bayes_action(loss, label_values[i], label_probs[i]) for i in range(len(probs))]
        )
        return float(np.sum(probs * (conditional(predictor(points)) - conditional(bayes))))
    X, y = dist.sample(n_test, seed)
    if loss.kind == "zero_one":
        values = np.abs(2.0 * dist.eta(X) - 1.0) * (predictor(X) != dist.bayes_predict(X))
    else:
        values = eval_loss(loss, predictor(X), y) - eval_loss(loss, dist.bayes_predict(X), y)
    return float(np.mean(values))


def _trained_case(case):
    """(dist, model, n_test) for each branch of the excess-risk estimator."""
    if case == "atoms":
        sigma = np.where(np.arange(9) % 3 == 0, 1.0, -1.0)
        dist = AssouadDist(q=9, r=2.0, v=0.6, epsilon=0.3, sigma=sigma)
        X, y = dist.sample(120, seed=2)
        model = train_ensemble(X, y, dist.loss_spec, "gaussian", k=2, m=5,
                               solver="exact", master_seed=3)
        return dist, model, 1000
    if case == "eta":
        dist, X, y = classification_data(n=200, seed=5)
        model = train_ensemble(X, y, dist.loss_spec, "gaussian", k=4, m=6,
                               master_seed=9, iters=100)
        return dist, model, 3000
    dist = RegressionDist(d=6, spectral_constant=1.0, spectral_decay=0.5,
                          w=np.full(6, 0.5))
    X, y = dist.sample(150, seed=4)
    model = train_ensemble(X, y, dist.loss_spec, "gaussian", k=3, m=5,
                           master_seed=2, iters=200)
    return dist, model, 3000


@pytest.mark.parametrize("case", ["atoms", "eta", "regression"])
def test_member_excess_risks_match_separate_estimates_exactly(case):
    dist, model, n_test = _trained_case(case)
    members, ensemble = member_excess_risks(model, dist, n_test=n_test, seed=13)

    predictors = [
        lambda Xq, _p=pmap, _h=hyp: _h.predict(apply(_p, Xq)) for pmap, hyp in model.members
    ]
    separate = [estimate_excess_risk(f, dist, n_test=n_test, seed=13) for f in predictors]
    combined = estimate_excess_risk(lambda Xq: predict(model, Xq), dist, n_test=n_test, seed=13)
    assert members == separate
    assert ensemble == combined
    assert [e.value for e in members] == [
        _reference_excess_risk(f, dist, n_test, 13) for f in predictors
    ]
    assert ensemble.value == _reference_excess_risk(
        lambda Xq: predict(model, Xq), dist, n_test, 13
    )
    assert all(e.exact == (case == "atoms") for e in members + [ensemble])


@pytest.mark.parametrize("case", ["atoms", "eta", "regression"])
def test_member_excess_risks_draws_the_test_set_at_most_once(case):
    dist, model, n_test = _trained_case(case)
    calls = {"sample": 0, "atoms": 0}
    for name in calls:
        original = getattr(dist, name, None)
        if original is None:
            continue

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        setattr(dist, name, counted)
    member_excess_risks(model, dist, n_test=n_test, seed=13)
    assert calls["sample"] <= 1
    assert calls["sample"] + calls["atoms"] == 1


class _DenseAssouadAtoms:
    """An Assouad law's atoms with dense np.diag coordinates: the reference
    the coordinate-free atoms are compared with."""

    def __init__(self, dist):
        self.loss_spec = dist.loss_spec
        self._dist = dist

    def atoms(self):
        _, probs, label_values, label_probs = self._dist.atoms()
        q, r = self._dist.q, self._dist.r
        return np.diag(np.concatenate([[1.0], np.full(q, r)])), probs, label_values, label_probs


def _assouad_ensemble(q, family, solver, m=5):
    rng = np.random.default_rng(q)
    sigma = np.where(rng.random(q) < 0.5, -1.0, 1.0)
    dist = AssouadDist(q=q, r=q**0.25, v=q**-0.25, epsilon=0.3, sigma=sigma)
    X, y = dist.sample(120, seed=q + 1)
    model = train_ensemble(X, y, dist.loss_spec, family, k=2, m=m, solver=solver,
                           master_seed=q + 2, iters=200)
    return dist, model


@pytest.mark.parametrize("solver", ["exact", "surrogate"])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("q", [9, 3000])
def test_assouad_atoms_score_exactly_as_dense_coordinates(q, family, solver):
    dist, model = _assouad_ensemble(q, family, solver)
    members, ensemble = member_excess_risks(model, dist)
    assert (members, ensemble) == member_excess_risks(model, _DenseAssouadAtoms(dist))
    assert all(e.exact and e.n_samples == q + 1 for e in members + [ensemble])


def test_assouad_evaluation_memory_is_linear_in_q():
    """At q = 6324 the dense (q+1)^2 atom coordinates take 320 MB; summed
    over axis points, the whole evaluation pass stays under 10 MB."""
    dist, model = _assouad_ensemble(6324, "gaussian", "surrogate", m=25)
    tracemalloc.start()
    try:
        members, _ = member_excess_risks(model, dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(members) == 25
    assert peak < 10 * 2**20, f"evaluation peaked at {peak / 2**20:.1f} MiB"

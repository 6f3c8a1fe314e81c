import math
import tracemalloc

import numpy as np
import pytest

from cerm import ensemble
from cerm.ensemble import (
    EnsembleModel,
    member_excess_risks,
    predict,
    train_ensemble,
)
from cerm.losses import bayes_action, eval_loss, make_loss
from cerm.hypotheses import ErmReport, LinearHypothesis
from cerm.projections import FAMILIES, AxisPoints, _row_blocks, apply, sample_projection
from cerm.riskbounds import _Moments, estimate_compressibility, estimate_excess_risk
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
    assert model.m == 2
    for i, (pmap, hyp) in enumerate(model.members):
        assert pmap is model.maps[i]
        assert hyp is model.member_reports[i].hypothesis
    d = X.shape[1]
    reports = model.member_reports
    for maps, member_reports, message in (
        (model.maps, reports[:1], "one fit report per projection map"),
        ((), (), "at least one member"),
        ((model.maps[0], model.maps[0]), reports, "seeds must be distinct"),
        ((model.maps[0], sample_projection("rademacher", 2, d, 5)), reports, "share one family, k, and d"),
        ((model.maps[0], sample_projection("gaussian", 3, d, 5)), reports, "share one family, k, and d"),
        (tuple(sample_projection("gaussian", 3, d, s) for s in (5, 6)), reports, "dimension must match k"),
        (model.maps, (reports[0], _clipped(reports[1])), "share one output mode"),
    ):
        with pytest.raises(ValueError, match=message):
            EnsembleModel(maps=maps, member_reports=member_reports, loss=loss)


def _clipped(report):
    """The report with its rule rendered as a clipped value, not a sign."""
    hyp = report.hypothesis
    return ErmReport(LinearHypothesis(w=hyp.w, t=hyp.t, mode="clip"), report.empirical_risk, report.solver)


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


def _blocked_n_test(d):
    """An evaluation size of three full row blocks and a ragged fourth."""
    return 3 * _row_blocks(1 << 18, d)[0].stop + 17


def _trained_case(case):
    """(dist, model, n_test) for each branch of the excess-risk estimator.

    The continuous laws' test sets span several row blocks, so the one-pass
    scoring runs block by block with a ragged last block."""
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
        return dist, model, _blocked_n_test(dist.d)
    dist = RegressionDist(d=6, spectral_constant=1.0, spectral_decay=0.5,
                          w=np.full(6, 0.5))
    X, y = dist.sample(150, seed=4)
    model = train_ensemble(X, y, dist.loss_spec, "gaussian", k=3, m=5,
                           master_seed=2, iters=200)
    return dist, model, _blocked_n_test(dist.d)


def _estimates_from_score_blocks(model, dist, n_test, seed):
    """Each member's and the vote's estimate, each folded into its own
    ``_Moments`` from its values on the blocks of one ``draw_scores`` call,
    the members rendered one at a time: what the one pass must give."""
    rules = model.rules
    folds = [_Moments(1) for _ in range(model.m + 1)]

    def visit(S, M):
        signed = 2.0 * dist.eta_at(M) - 1.0
        bayes = np.where(signed >= 0.0, 1.0, -1.0)
        outputs = [np.where(S[:, i] - rule.t >= 0.0, 1.0, -1.0) for i, rule in enumerate(rules)]
        outputs.append(np.where(np.sum(outputs, axis=0) >= 0.0, 1.0, -1.0))
        for fold, out in zip(folds, outputs):
            fold.add((np.abs(signed) * (out != bayes))[None, :])

    dist.draw_scores(np.stack([rule.w for rule in rules], axis=1), n_test, seed, visit)
    estimates = [fold.estimates()[0] for fold in folds]
    return estimates[:-1], estimates[-1]


@pytest.mark.parametrize("case", ["atoms", "eta", "regression"])
def test_member_excess_risks_match_separate_estimates_exactly(case):
    """On a law with ``draw_scores`` (eta) the draw is made in the span of
    all the members' weights, so a separate estimate of one rule draws
    other points; there the check is against estimates formed one by one
    from the same blocks, and test_span_estimates_agree_in_law_with_dense_estimates
    checks the law."""
    dist, model, n_test = _trained_case(case)
    members, ensemble = member_excess_risks(model, dist, n_test=n_test, seed=13)
    if case == "eta":
        assert (members, ensemble) == _estimates_from_score_blocks(model, dist, n_test, 13)
        assert not any(e.exact for e in members + [ensemble])
        return

    # the function the pass evaluates; test_pulled_back_rule_predicts_as_the_compressed_rule
    # covers the step from it to the rule on the projected points
    predictors = [hyp.pull_back(pmap.matrix).predict for pmap, hyp in model.members]
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


def test_span_estimates_agree_in_law_with_dense_estimates():
    """Over 16 seeds, the mean of each member's and the vote's estimate from
    the span draw is within 4 combined standard errors of the mean from the
    dense draw, ``estimate_excess_risk`` on the rule's ``predict``."""
    dist, model, n_test = _trained_case("eta")
    predictors = [rule.predict for rule in model.rules] + [lambda Xq: predict(model, Xq)]
    span, dense = [], []
    for seed in range(16):
        members, ensemble = member_excess_risks(model, dist, n_test=n_test, seed=seed)
        span.append(members + [ensemble])
        dense.append([estimate_excess_risk(f, dist, n_test=n_test, seed=seed) for f in predictors])

    def mean_and_se(estimates):
        values = np.array([(e.value, e.std_error) for e in estimates])
        return values[:, 0].mean(), np.sqrt(np.sum(values[:, 1] ** 2)) / len(values)

    for j in range(model.m + 1):
        (a, se_a), (b, se_b) = (mean_and_se([row[j] for row in side]) for side in (span, dense))
        assert abs(a - b) <= 4.0 * math.hypot(se_a, se_b), (j, a, b, se_a, se_b)


@pytest.mark.parametrize("family", FAMILIES)
def test_pulled_back_rule_predicts_as_the_compressed_rule(family):
    """Scoring x through (A^T w, t) agrees with scoring A x through (w, t):
    exactly for signs on seeded draws, within 1e-12 for clipped values."""
    rng = np.random.default_rng(17)
    d, k, n = 40, 7, 5000
    pmap = sample_projection(family, k, d, seed=23)
    dense = rng.standard_normal((n, d))
    axis = AxisPoints(axes=rng.integers(0, d, size=n), scales=rng.uniform(-3.0, 3.0, size=n), d=d)
    w, t = rng.standard_normal(k), 0.3
    sign = LinearHypothesis(w=w, t=t, mode="sign")
    clip = LinearHypothesis(w=w, t=t, mode="clip", beta=1.5)
    for X in (dense, axis, axis.toarray()):
        assert np.array_equal(sign.pull_back(pmap.matrix).predict(X), sign.predict(apply(pmap, X)))
        pulled = clip.pull_back(pmap.matrix).predict(X)
        compressed = clip.predict(apply(pmap, X))
        assert np.max(np.abs(pulled - compressed)) <= 1e-12
        assert 0 < np.sum(np.abs(compressed) < 1.5) < n  # both clipped and unclipped rows
    with pytest.raises(ValueError):
        sign.pull_back(pmap.matrix.T)
    with pytest.raises(ValueError):
        sign.predict(axis)  # a k-dimensional rule on d-dimensional points


@pytest.mark.parametrize("case", ["atoms", "eta", "regression"])
def test_evaluation_projects_no_rows(case, monkeypatch):
    """Training projects its sample; predict and member_excess_risks score
    the members' pulled-back rules and send no row through ``apply``.  The
    squared loss's descent projects a member again at each of its anchors
    and for its final risk, since it holds one design at a time."""
    dist, model, n_test = _trained_case(case)
    rows = []

    def counted(pmap, X, out=None):
        rows.append(len(X))
        return apply(pmap, X, out=out)

    monkeypatch.setattr("cerm.ensemble.apply", counted)
    X, y = dist.sample(50, seed=1)
    train_ensemble(X, y, dist.loss_spec, "gaussian", k=2, m=3, iters=20)
    if dist.loss_spec.kind == "squared":
        assert set(rows) == {50} and len(rows) > 3
    else:
        assert rows == [50] * 3
    rows.clear()
    predict(model, X)
    member_excess_risks(model, dist, n_test=n_test, seed=13)
    assert rows == []


def test_compressibility_projects_only_its_fitting_draws(monkeypatch):
    dist, _, _ = _trained_case("regression")
    rows = []

    def counted(pmap, X):
        rows.append(len(X))
        return apply(pmap, X)

    monkeypatch.setattr("cerm.riskbounds.apply", counted)
    estimate_compressibility(dist, "gaussian", k=2, reps=3, pop_n=400, iters=20)
    assert rows == [400] * 3


@pytest.mark.parametrize("case", ["atoms", "eta", "regression"])
def test_member_excess_risks_draws_the_test_set_at_most_once(case):
    """One evaluation makes one draw: the atoms, one span draw of the
    members' scores, or one block draw of the test set, and no
    whole-array ``sample`` beside it."""
    dist, model, n_test = _trained_case(case)
    calls = {"sample": 0, "draw_blocks": 0, "draw_scores": 0, "atoms": 0}
    for name in calls:
        original = getattr(dist, name, None)
        if original is None:
            continue

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        setattr(dist, name, counted)
    member_excess_risks(model, dist, n_test=n_test, seed=13)
    assert calls["sample"] == 0
    assert calls["draw_blocks"] + calls["draw_scores"] + calls["atoms"] == 1
    assert calls["draw_scores"] == (case == "eta")


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
    # the atoms are scored one member at a time: the m length-d rules, which
    # a span draw would stack, are never formed together
    assert "rules" not in vars(model)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_evaluation_holds_no_test_set():
    """At N = 50 000 and d = 50 the test set alone takes N d 8 bytes (19 MiB).
    Drawn, scored and dropped block by block, an evaluation peaks below half
    of that: 25 members and their vote on a zero-one law, one predictor and
    the Bayes risk on a noisy regression law.  25 regression members and
    their vote, on the noiseless criterion-9 law (d = 32) and on the noisy
    law, peak below their (m + 1) x N outputs (9.9 MiB): each block is
    folded into the estimates as it is scored."""
    n, d = 50_000, 50
    limit = n * d * 8 / 2
    dist, X, y = classification_data(n=200, d=d, seed=3)
    model = train_ensemble(X, y, dist.loss_spec, "gaussian", k=5, m=25, master_seed=4, iters=50)
    peak = _traced_peak(lambda: member_excess_risks(model, dist, n_test=n, seed=5))
    assert peak < limit, f"member_excess_risks peaked at {peak / 2**20:.1f} MiB"
    reg = RegressionDist(d=d, spectral_constant=1.0, spectral_decay=0.9, w=np.full(d, 0.1),
                         noise=("bounded_uniform", 0.3))
    rule = LinearHypothesis(w=np.full(d, 0.05), t=0.0, mode="clip").predict
    peak = _traced_peak(lambda: estimate_excess_risk(rule, reg, n_test=n, seed=5))
    assert peak < limit, f"estimate_excess_risk peaked at {peak / 2**20:.1f} MiB"
    peak = _traced_peak(lambda: reg.bayes_risk(mc_n=n, seed=5))
    assert peak < limit, f"bayes_risk peaked at {peak / 2**20:.1f} MiB"
    criterion_9 = RegressionDist(d=32, spectral_constant=1.0, spectral_decay=0.2, w=np.ones(32))
    for law in (criterion_9, reg):
        X, y = law.sample(200, seed=6)
        model = train_ensemble(X, y, law.loss_spec, "gaussian", k=5, m=25, master_seed=7, iters=50)
        peak = _traced_peak(lambda: member_excess_risks(model, law, n_test=n, seed=8))
        outputs = (model.m + 1) * n * 8
        assert peak < outputs, f"d = {law.d}: member_excess_risks peaked at {peak / 2**20:.2f} MiB"


def test_squared_loss_training_holds_one_design():
    """The criterion-9 law's ensemble at n = 8192, k = 10, m = 25: the
    lockstep descent writes each member's design into one reused buffer,
    so training peaks below X plus two designs.  All 25 designs at once
    would add 18 MB."""
    dist = RegressionDist(d=32, spectral_constant=1.0, spectral_decay=0.2, w=np.ones(32))
    n, k, m = 8192, 10, 25
    X, y = dist.sample(n, seed=8)
    peak = _traced_peak(lambda: train_ensemble(X, y, dist.loss_spec, "gaussian", k=k, m=m,
                                               master_seed=9, iters=300))
    limit = X.nbytes + 2 * 8 * n * (k + 1)
    assert peak < limit, f"training peaked at {peak / 2**20:.2f} MiB, limit {limit / 2**20:.2f} MiB"


@pytest.mark.parametrize("solver", ["exact", "surrogate"])
@pytest.mark.parametrize("family", FAMILIES)
def test_assouad_training_on_axis_points_equals_dense_training(family, solver):
    """Each member compresses an Assouad sample by a column gather; its fit
    and the vote are those on the sample's dense coordinates, bit for bit."""
    q = 3000
    sigma = np.where(np.arange(q) % 3 == 0, 1.0, -1.0)
    dist = AssouadDist(q=q, r=q**0.25, v=q**-0.25, epsilon=0.3, sigma=sigma)
    X, y = dist.sample(150, seed=11)
    models = [
        train_ensemble(points, y, dist.loss_spec, family, k=2, m=5, solver=solver,
                       master_seed=12, iters=200)
        for points in (X, X.toarray())
    ]
    for (_, axis_hyp), (_, dense_hyp) in zip(models[0].members, models[1].members):
        assert np.array_equal(axis_hyp.w, dense_hyp.w) and axis_hyp.t == dense_hyp.t
    atoms = dist.atoms()[0]
    assert np.array_equal(predict(models[0], atoms), predict(models[1], atoms))
    assert np.array_equal(predict(models[0], X), predict(models[1], X.toarray()))


def test_assouad_training_memory_is_linear_in_q():
    """At q = 20 000 and n = 200 the dense sample would take 32 MB; trained
    on axis points, the pass peaks little above its 25 maps' 7.6 MiB."""
    q = 20_000
    dist = AssouadDist(q=q, r=q**0.25, v=q**-0.25, epsilon=0.3)
    tracemalloc.start()
    try:
        X, y = dist.sample(200, seed=5)
        model = train_ensemble(X, y, dist.loss_spec, "gaussian", k=2, m=25,
                               solver="exact", master_seed=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.m == 25
    assert peak < 12 * 2**20, f"training peaked at {peak / 2**20:.1f} MiB"


def _grouping_cases():
    """(name, X, y, loss, solver, k): training sets whose members group."""
    q = 3000
    sigma = np.where(np.arange(q) % 3 == 0, 1.0, -1.0)
    assouad = AssouadDist(q=q, r=q**0.25, v=q**-0.25, epsilon=0.3, sigma=sigma)
    X, y = assouad.sample(200, seed=21)
    _, Xg, yg = classification_data(n=150, seed=22)
    reg = RegressionDist(d=6, spectral_constant=1.0, spectral_decay=0.5, w=np.ones(6))
    Xr, yr = reg.sample(150, seed=23)
    zero_one = make_loss("zero_one")
    return [
        ("axis points, surrogate", X, y, zero_one, "surrogate", 2),
        ("dense assouad, surrogate", X.toarray(), y, zero_one, "surrogate", 2),
        ("axis points, exact", X, y, zero_one, "exact", 2),
        ("gauss margin, surrogate", Xg, yg, zero_one, "surrogate", 4),
        ("regression", Xr, yr, reg.loss_spec, "surrogate", 3),
    ]


@pytest.mark.parametrize("case", _grouping_cases(), ids=lambda case: case[0])
def test_members_do_not_depend_on_their_grouping(case, monkeypatch):
    """The default budget puts all 25 members in one group at these sizes;
    a budget of one byte fits each member alone, and changes no result."""
    _, X, y, loss, solver, k = case
    groups = []
    original = ensemble.fit

    def recorded(U, *args):
        groups.append(len(U))
        return original(U, *args)

    monkeypatch.setattr(ensemble, "fit", recorded)
    models = [train_ensemble(X, y, loss, "gaussian", k=k, m=25, solver=solver,
                             master_seed=24, iters=200)]
    assert groups == [25]
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 1)
    models.append(train_ensemble(X, y, loss, "gaussian", k=k, m=25, solver=solver,
                                 master_seed=24, iters=200))
    assert groups == [25] + [1] * 25
    grouped, alone = models
    for (pa, ha), (pb, hb) in zip(grouped.members, alone.members):
        assert pa.seed == pb.seed and np.array_equal(ha.w, hb.w) and ha.t == hb.t
    for ra, rb in zip(grouped.member_reports, alone.member_reports):
        assert ra.empirical_risk == rb.empirical_risk
        assert ra.objective_checkpoints == rb.objective_checkpoints


def test_large_members_are_fit_one_at_a_time(monkeypatch):
    """At n = 4096 and k = 23 one member's design takes 0.75 MiB, so no two
    members share a group."""
    _, X, y = classification_data(n=4096, d=50, seed=25)
    groups = []
    original = ensemble.fit

    def recorded(U, *args):
        groups.append(len(U))
        return original(U, *args)

    monkeypatch.setattr(ensemble, "fit", recorded)
    train_ensemble(X, y, make_loss("zero_one"), "gaussian", k=23, m=3, master_seed=26, iters=20)
    assert groups == [1, 1, 1]

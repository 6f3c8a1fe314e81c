"""Ensembles of predictors fit on independent random compressions.

Each member gets its own projection map, drawn from the shared family with a
seed derived from the ensemble's master seed, and a predictor fit by empirical
risk minimization on its compressed view of the same training sample.  The
combination rule is the loss's combiner: majority vote with ties broken
toward +1 for the zero-one loss, the clipped mean of member outputs
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypotheses import ErmReport, LinearHypothesis, fit
from .losses import LossSpec
from .projections import ProjectionMap, apply, sample_projection
from .riskbounds import RiskEstimate, _estimate_excess_risks
from .seeds import derive_seed

__all__ = ["EnsembleModel", "train_ensemble", "predict", "member_excess_risks"]


@dataclass(frozen=True, eq=False)
class EnsembleModel:
    """A trained compression ensemble.

    ``members`` pairs each projection map with the hypothesis fit on its
    compressed data; ``member_reports`` keeps the per-member fit reports in
    the same order.
    """

    members: tuple[tuple[ProjectionMap, LinearHypothesis], ...]
    loss: LossSpec
    family: str
    k: int
    d: int
    m: int
    member_reports: tuple[ErmReport, ...]

    def __post_init__(self):
        if self.m != len(self.members) or self.m < 1:
            raise ValueError("m must equal the number of members and be >= 1")
        if len(self.member_reports) != self.m:
            raise ValueError("one fit report per member required")
        seeds = set()
        for pmap, hyp in self.members:
            if pmap.family != self.family or pmap.k != self.k or pmap.d != self.d:
                raise ValueError("all members must share the ensemble's family, k, and d")
            if hyp.w.shape != (self.k,):
                raise ValueError("member hypothesis dimension must match k")
            seeds.add(pmap.seed)
        if len(seeds) != self.m:
            raise ValueError("member projection seeds must be distinct")


def train_ensemble(
    X,
    y,
    loss: LossSpec,
    family: str,
    k: int,
    m: int,
    solver: str = "surrogate",
    master_seed: int = 0,
    iters: int = 2000,
) -> EnsembleModel:
    """Fit an m-member ensemble on (X, y).

    Member i draws its projection with seed ``derive_seed(master_seed, i)``,
    so retraining with the same arguments is bit-identical and ensembles with
    different master seeds are independent.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be n x d with matching labels y")
    if m < 1:
        raise ValueError("m must be >= 1")
    d = X.shape[1]
    members = []
    reports = []
    for i in range(m):
        pmap = sample_projection(family, k, d, derive_seed(master_seed, i))
        report = fit(apply(pmap, X), y, loss, solver, iters)
        members.append((pmap, report.hypothesis))
        reports.append(report)
    return EnsembleModel(
        members=tuple(members),
        loss=loss,
        family=family,
        k=k,
        d=d,
        m=m,
        member_reports=tuple(reports),
    )


def _member_outputs(model: EnsembleModel, X: np.ndarray, spare_rows: int = 0) -> np.ndarray:
    """The m x N member outputs on X, followed by ``spare_rows`` unfilled rows.

    X is anything ``apply`` takes: an N x d array or an ``AxisPoints`` set.
    """
    outputs = np.empty((model.m + spare_rows, len(X)))
    for i, (pmap, hyp) in enumerate(model.members):
        outputs[i] = hyp.predict(apply(pmap, X))
    return outputs


def _combine(loss: LossSpec, outputs: np.ndarray) -> np.ndarray:
    """The loss's combination of the member output rows, one value per column."""
    if loss.combiner == "mode":
        return np.where(np.sum(outputs, axis=0) >= 0.0, 1.0, -1.0)
    return np.clip(np.mean(outputs, axis=0), -loss.beta, loss.beta)


def predict(model: EnsembleModel, X) -> np.ndarray:
    """Combined prediction: majority vote (ties to +1) or clipped mean."""
    return _combine(model.loss, _member_outputs(model, X))


def member_excess_risks(
    model: EnsembleModel, dist, n_test: int = 100_000, seed: int = 0
) -> tuple[list[RiskEstimate], RiskEstimate]:
    """Excess risk of each member alone and of the combined ensemble.

    One evaluation pass serves all m + 1 estimates: the test set is drawn
    once from ``seed`` (or, for a finite-support law, the atoms are built
    once), each member projects it once, and the combined prediction is
    formed from those same member outputs.  An Assouad law's atoms are an
    ``AxisPoints`` set, which each member projects by gathering q + 1
    columns of its map, so the pass takes O(m q) memory and no (q+1)^2
    coordinate array is built.  Member-vs-ensemble comparisons
    are therefore paired rather than independent, and each estimate equals
    what ``estimate_excess_risk`` gives for that member, or for
    ``predict(model, .)``, at the same ``n_test`` and ``seed``.
    """
    m = model.m

    def all_rows(X):
        rows = _member_outputs(model, X, spare_rows=1)
        rows[m] = _combine(model.loss, rows[:m])
        return rows

    estimates = _estimate_excess_risks(all_rows, dist, n_test=n_test, seed=seed)
    return estimates[:m], estimates[m]


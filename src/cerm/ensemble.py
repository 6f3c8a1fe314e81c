"""Ensembles of predictors fit on independent random compressions.

Each member gets its own projection map, drawn from the shared family with a
seed derived from the ensemble's master seed, and a predictor fit by empirical
risk minimization on its compressed view of the same training sample.
All the members reach one ``fit`` call as a lazy stack that projects a
member into a given buffer when the solver asks; ``fit`` decides how many
designs its solver holds at once, and that never changes a result.
The combination rule is the loss's combiner: majority vote with ties broken
toward +1 for the zero-one loss, the clipped mean of member outputs
otherwise.

Only training data is projected.  A member fit as u -> w.u - t on the
compression A x predicts x -> (A^T w).x - t, so members are scored through
these pulled-back rules on the evaluation points themselves, by the one
evaluation pass of linear rules in ``riskbounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from .hypotheses import ErmReport, LinearHypothesis, fit
from .losses import LossSpec
from .projections import AxisPoints, ProjectionMap, apply, sample_projection
from .riskbounds import RiskEstimate, _rule_excess_risks
from .seeds import derive_seed

__all__ = ["EnsembleModel", "train_ensemble", "predict", "member_excess_risks"]


@dataclass(frozen=True, eq=False)
class EnsembleModel:
    """A trained compression ensemble.

    ``maps`` holds each member's projection map and ``member_reports`` its
    fit report, in the same order; ``members`` pairs each map with its
    report's hypothesis, ``rules`` forms their pulled-back rules, and ``m``
    counts them.  The members share one output mode and beta, as rules fit
    under one loss do.
    """

    maps: tuple[ProjectionMap, ...]
    member_reports: tuple[ErmReport, ...]
    loss: LossSpec

    def __post_init__(self):
        if len(self.member_reports) != len(self.maps):
            raise ValueError("one fit report per projection map required")
        if not self.maps:
            raise ValueError("an ensemble needs at least one member")
        shape = (self.maps[0].family, self.maps[0].k, self.maps[0].d)
        first = self.member_reports[0].hypothesis
        for pmap, hyp in self.members:
            if (pmap.family, pmap.k, pmap.d) != shape:
                raise ValueError("all members must share one family, k, and d")
            if hyp.w.shape != (pmap.k,):
                raise ValueError("member hypothesis dimension must match k")
            if (hyp.mode, hyp.beta) != (first.mode, first.beta):
                raise ValueError("all members must share one output mode and beta")
        if len({pmap.seed for pmap in self.maps}) != self.m:
            raise ValueError("member projection seeds must be distinct")

    @property
    def members(self) -> tuple[tuple[ProjectionMap, LinearHypothesis], ...]:
        return tuple((pmap, report.hypothesis) for pmap, report in zip(self.maps, self.member_reports))

    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def rules(self) -> tuple[LinearHypothesis, ...]:
        """Each member's pulled-back rule on R^d, formed anew at each call;
        an evaluation forms them once and holds them for its own pass."""
        return tuple(hyp.pull_back(pmap.matrix) for pmap, hyp in self.members)


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
    different master seeds are independent.  An ``AxisPoints`` X, such as an
    Assouad sample, is compressed by ``apply``'s gather, with no n x d array
    built; the members equal those fit on ``X.toarray()`` bit for bit.

    The members are fit by one ``fit`` call on a lazy stack of their
    designs, each projected when the solver asks, straight into the
    solver's own buffer.  Each member's report equals the one its design
    gives when fit alone.
    """
    X = X if isinstance(X, AxisPoints) else np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X.shape) != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be n x d with matching labels y")
    if m < 1:
        raise ValueError("m must be >= 1")
    maps = tuple(sample_projection(family, k, X.shape[1], derive_seed(master_seed, i)) for i in range(m))
    designs = SimpleNamespace(shape=(m, len(X), k), write=lambda j, out: apply(maps[j], X, out=out))
    reports = fit(designs, y, loss, solver, iters)
    return EnsembleModel(maps=maps, member_reports=reports, loss=loss)


def _combine(loss: LossSpec, outputs: np.ndarray) -> np.ndarray:
    """The loss's combination of the member output rows, one value per column."""
    if loss.combiner == "mode":
        return np.where(np.sum(outputs, axis=0) >= 0.0, 1.0, -1.0)
    return np.clip(np.mean(outputs, axis=0), -loss.beta, loss.beta)


def predict(model: EnsembleModel, X) -> np.ndarray:
    """Combined prediction on X (N x d or ``AxisPoints``, never projected):
    majority vote (ties to +1) or clipped mean of the members' rules."""
    return _combine(model.loss, np.stack([rule.predict(X) for rule in model.rules]))


def member_excess_risks(
    model: EnsembleModel, dist, n_test: int = 100_000, seed: int = 0
) -> tuple[list[RiskEstimate], RiskEstimate]:
    """Excess risk of each member alone and of the combined ensemble.

    One evaluation pass (``riskbounds._rule_excess_risks``) serves all
    m + 1 estimates: the test set is drawn once from ``seed`` (or, for a
    finite-support law, the atoms are built once), each member scores it
    through its pulled-back rule without projecting it, and the combined
    prediction is formed from those same member outputs, so
    member-vs-ensemble comparisons are paired rather than independent.

    A Monte-Carlo test set is scored one row block at a time, by its
    conditional excess given x (no label is read), and each block is folded
    into the m + 1 running estimates and dropped, so the pass holds
    O(block) memory.  On a law with ``draw_scores`` (``gauss_margin``) no
    point is drawn: the blocks are of the m members' scores and the margin,
    in the span of the members' weights, so a draw costs O(m) numbers
    whatever d is.  Because that draw depends on every member's weight,
    each estimate equals what ``estimate_excess_risk`` gives for that
    member's rule, or for ``predict(model, .)``, in law but not bit for bit.

    On other laws each estimate equals what ``estimate_excess_risk`` gives
    for that member's pulled-back rule, or for ``predict(model, .)``, at the
    same ``n_test`` and ``seed``.  An Assouad law's atoms are an
    ``AxisPoints`` set, which each member scores by gathering q + 1 of its
    pulled-back weights, so the pass holds the m rules and the
    (m + 1) x (q + 1) outputs, O(m q) memory, and builds no (q+1)^2
    coordinate array.
    """
    estimates = _rule_excess_risks(model.rules, dist, n_test, seed, combine=partial(_combine, model.loss))
    return estimates[:-1], estimates[-1]

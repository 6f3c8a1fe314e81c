"""Ensembles of predictors fit on independent random compressions.

Each member gets its own projection map, drawn from the shared family with a
seed derived from the ensemble's master seed, and a predictor fit by empirical
risk minimization on its compressed view of the same training sample.
Members are fit in groups, one ``fit`` call each, and a group's solver runs
its members in lockstep.  A group is as many consecutive members as keep
what the solver holds per member within ``projections._BLOCK_BYTES``: an
n x (k + 1) design, so the Newton solver batches small members while a
large member is fit alone, or, for the squared loss's descent, which holds
one design for the whole group, an anchored model of about 2 % of the
rows, so all the members of an ensemble usually share one descent.  A
group's designs reach ``fit`` as a lazy stack that projects a member into
a given buffer when the solver asks.  The grouping never changes a result.
The combination rule is the loss's combiner: majority vote with ties broken
toward +1 for the zero-one loss, the clipped mean of member outputs
otherwise.

Only training data is projected.  A member fit as u -> w.u - t on the
compression A x predicts x -> (A^T w).x - t, so members are scored through
these pulled-back rules on the evaluation points themselves.  A dense
evaluation set is scored one row block at a time, every member on each
block, so the pass reads the set from memory once.  A Monte-Carlo test set
is drawn block by block too; each draw is scored by its conditional excess
given x, with no label read, and each block is folded into running
estimates before the next is drawn.  On a law with ``draw_scores`` the
members are scored without any point: the test draws are made as the m
scores x.(A_i^T w_i) and the margin, in the span of the members' weights,
so evaluation costs nothing in d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hypotheses import ErmReport, LinearHypothesis, _batch_bytes, fit
from .losses import LossSpec
from .projections import _BLOCK_BYTES, AxisPoints, ProjectionMap, _row_blocks, apply, sample_projection
from .riskbounds import RiskEstimate, _estimate_excess_risks
from .seeds import derive_seed

__all__ = ["EnsembleModel", "train_ensemble", "predict", "member_excess_risks"]


@dataclass(frozen=True, eq=False)
class EnsembleModel:
    """A trained compression ensemble.

    ``maps`` holds each member's projection map and ``member_reports`` its
    fit report, in the same order; ``members`` pairs each map with its
    report's hypothesis, ``rules`` holds their pulled-back rules, and ``m``
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

    @cached_property
    def rules(self) -> tuple[LinearHypothesis, ...]:
        """Each member's pulled-back rule on R^d, formed on first use and
        kept, so the row blocks of one evaluation share them."""
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

    Members are fit in groups of as many as keep what the solver holds per
    member (an n x (k + 1) design, or a squared-loss member's anchored
    model) within ``_BLOCK_BYTES``, at least one, one ``fit`` call per
    group.  The designs are projected on demand: whole for the
    classification solvers and the kl loss, and one at a time into one
    reused buffer for the squared loss.  Each member's report equals the
    one its design gives when fit alone, so the group size changes no
    result.
    """
    X = X if isinstance(X, AxisPoints) else np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X.shape) != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be n x d with matching labels y")
    if m < 1:
        raise ValueError("m must be >= 1")
    n, d = X.shape
    group = max(1, _BLOCK_BYTES // max(1, _batch_bytes(loss, n, k)))
    maps = []
    reports = []
    for start in range(0, m, group):
        group_maps = [sample_projection(family, k, d, derive_seed(master_seed, i))
                      for i in range(start, min(m, start + group))]
        reports.extend(fit(_Projections(group_maps, X), y, loss, solver, iters))
        maps.extend(group_maps)
    return EnsembleModel(maps=tuple(maps), member_reports=tuple(reports), loss=loss)


class _Projections:
    """The designs ``apply(pmap, X)`` of a group of maps as a lazy
    g x n x k stack for ``fit``: ``write(j, out)`` projects design j
    straight into the n x k array ``out``."""

    def __init__(self, maps: list[ProjectionMap], X):
        self.maps, self.X = maps, X
        self.shape = (len(maps), len(X), maps[0].k)

    def __len__(self) -> int:
        return len(self.maps)

    def write(self, j: int, out: np.ndarray) -> None:
        apply(self.maps[j], self.X, out=out)


def _member_outputs(model: EnsembleModel, X, out: np.ndarray | None = None) -> np.ndarray:
    """The m x N member outputs on X, written to the first m rows of ``out``
    (an r x N array with r >= m, possibly a view) or to a new m x N array.

    X is an N x d array or an ``AxisPoints`` set.  Row i is member i's
    pulled-back rule on X.  A dense X is read once, one row block at a time:
    every member scores a block while it is in cache.  Axis points are
    scored by a gather from the pulled-back weights.  X is never projected.
    """
    outputs = np.empty((model.m, len(X))) if out is None else out
    if isinstance(X, AxisPoints):
        # One length-d rule at a time: at large d, the m rules together
        # would outweigh the gather.
        for i, (pmap, hyp) in enumerate(model.members):
            outputs[i] = hyp.pull_back(pmap.matrix).predict(X)
        return outputs
    X = np.asarray(X, dtype=float)
    for rows in _row_blocks(len(X), X.shape[-1]):
        block = X[rows]
        for i, rule in enumerate(model.rules):
            outputs[i, rows] = rule.predict(block)
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
    once), each member scores it through its pulled-back rule without
    projecting it, and the combined prediction is formed from those same
    member outputs, so member-vs-ensemble comparisons are paired rather
    than independent.

    A Monte-Carlo test set is scored one row block at a time: every member
    and the vote score a block, each draw counts its conditional excess
    given x (no label is read), and the block is folded into the m + 1
    running estimates and dropped, so the pass holds O(block) memory.  On
    a law with ``draw_scores`` (``gauss_margin``) no point is drawn: the
    blocks are of the m members' scores and the margin, in the span of the
    members' weights, so a draw costs O(m) numbers whatever d is.  Because
    that draw depends on every member's weight, each estimate equals what
    ``estimate_excess_risk`` gives for that member's rule, or for
    ``predict(model, .)``, in law but not bit for bit.

    On other laws each estimate equals what ``estimate_excess_risk`` gives
    for that member's pulled-back rule, or for ``predict(model, .)``, at the
    same ``n_test`` and ``seed``.  An Assouad law's atoms are an
    ``AxisPoints`` set, which each member scores by gathering q + 1 of its
    pulled-back weights, so the pass takes O(m q) memory and no (q+1)^2
    coordinate array is built.
    """
    m = model.m

    def all_rows(X, out):
        _member_outputs(model, X, out)
        out[m] = _combine(model.loss, out[:m])

    def span():
        rules = model.rules
        offsets = np.array([[rule.t] for rule in rules])

        def all_scores(S, out):
            # the members share one mode, so the first renders them all
            out[:m] = rules[0].render(np.subtract(S.T, offsets, out=out[:m]))
            out[m] = _combine(model.loss, out[:m])

        return np.stack([rule.w for rule in rules], axis=1), all_scores

    estimates = _estimate_excess_risks(all_rows, m + 1, dist, n_test=n_test, seed=seed, span=span)
    return estimates[:m], estimates[m]

"""Risk estimation and the bound-side calculus.

This module owns the Monte-Carlo / exact-summation excess-risk estimators,
the compressibility estimator (how much excess risk the best low-dimensional
predictor must eat after a random compression), the three-term risk bracket,
the optimal-target-dimension rules and the sketched least-squares
inequality.

Predictors are scored on uncompressed points.  A predictor fit on a
compression is evaluated through its pulled-back rule on R^d
(``LinearHypothesis.pull_back``), so only training data is projected.

Distributions are duck-typed.  An object usable here provides:

* ``d`` — ambient dimension;
* ``loss_spec`` — the LossSpec its labels live under;
* ``sample(n, seed) -> (X, y)`` — i.i.d. draws, deterministic per seed;
* ``bayes_predict(X)`` — the risk-minimizing predictor, vectorized; under
  the squared loss it is E[Y | X];
* ``eta(X)`` — P(Y=+1 | X), required of a zero-one law without ``atoms()``.

Without ``atoms()``, a law is scored by Monte Carlo: each test point by
its conditional excess given x, from ``eta`` or ``bayes_predict``, with no
label read.  Such a law is refused unless its loss is zero-one or squared.
Optionally a law provides:

* ``draw_blocks(n, seed, visit) -> y`` — the draw ``sample(n, seed)``
  makes, with X handed to ``visit(rows, block)`` one row block at a time
  and dropped, and the n labels returned.  The Monte-Carlo estimators make
  every dense test draw through it and leave the labels unread, so no
  evaluation holds an n x d array.  For a law that has only ``sample`` it
  is adapted in one place (``_block_draw``): the whole draw, visited block
  by block, with the same values;
* ``draw_scores(V, n, seed, visit)`` with ``eta_at(M)``, for a zero-one
  law whose points reach eta and the Bayes side only through a signed
  margin M: the scores X @ V of n draws, for a d x r weight matrix V, and
  their margins, handed to ``visit(S, M)`` one row block at a time with
  no point formed; ``eta_at(M)`` is P(Y=+1) at those margins.  Linear
  rules (``LinearHypothesis`` predictors, ensemble members and their
  vote) are scored through it in O(r) numbers a draw, whatever d is;
* ``atoms() -> (points, probs, label_values, label_probs)`` for finite
  support, unlocking exact summation (std_error 0).  ``points`` is an
  s x d array or an ``AxisPoints`` set; either way it is handed to the
  predictors as is, and only its ``shape`` is read here.  ``label_values``
  and ``label_probs`` are matching s x L arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypotheses import LinearHypothesis, fit
from .losses import _check_range, bayes_action, eval_loss
from .projections import ProjectionMap, _row_blocks, apply, sample_projection
from .seeds import derive_seed

__all__ = [
    "RiskEstimate",
    "RiskBracket",
    "log_plus",
    "estimate_excess_risk",
    "estimate_compressibility",
    "risk_bound_bracket",
    "optimal_k_classification",
    "optimal_k_regression",
    "sketched_ols_ratio",
]


@dataclass(frozen=True)
class RiskEstimate:
    """A risk (or excess-risk) value with its sampling uncertainty.

    ``exact`` marks values computed by finite summation, which carry no
    Monte-Carlo error at all.
    """

    value: float
    std_error: float
    n_samples: int
    exact: bool = False

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.exact and self.std_error != 0.0:
            raise ValueError("exact estimates carry std_error 0")


@dataclass(frozen=True)
class RiskBracket:
    """The three-term excess-risk bracket, constant-free.

    total = compressibility_term + statistical_term + ensemble_term, where the
    statistical term is ((k log_+(n) + log_+(1/delta)) / n)^(1/(2-alpha)) and
    the ensemble term is log_+(1/delta) / m.  Used for shape comparisons only;
    the multiplicative constant in front is unknown.
    """

    compressibility_term: float
    statistical_term: float
    ensemble_term: float
    total: float


def log_plus(x):
    """max(ln x, 1) for positive x; vectorized, scalar in gives scalar out."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("log_plus requires strictly positive input")
    out = np.maximum(np.log(arr), 1.0)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# excess risk estimation
# ---------------------------------------------------------------------------


def _mc_estimate(values: np.ndarray) -> RiskEstimate:
    n = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return RiskEstimate(value=float(np.mean(values)), std_error=se, n_samples=n, exact=False)


def _atom_conditional_risks(loss, predictions, label_values, label_probs):
    """Per-atom expected loss of the given per-atom predictions."""
    losses = eval_loss(loss, np.asarray(predictions, float)[:, None], label_values)
    return np.sum(np.asarray(label_probs, float) * losses, axis=1)


def _estimate_excess_risks(
    predict_rows, r: int, dist, n_test: int = 100_000, seed: int = 0, span=None
) -> list[RiskEstimate]:
    """Excess risk of r predictors under ``dist``, all scored on one evaluation set.

    ``predict_rows(X, out)`` writes predictor i's outputs on the rows of X
    to ``out[i]``, for an r x len(X) array ``out``.  On a finite-support law
    the evaluation set is the atoms, scored in one call and summed exactly.
    On any other law it is one draw of ``n_test`` points that is a pure
    function of (dist, n_test, seed), scored one row block at a time as
    ``_block_draw`` hands it over.  Each draw is scored by its conditional
    excess given x, whose mean over x is the excess risk:
    |2 eta(x) - 1| where a prediction differs from the Bayes sign under the
    zero-one loss, and (prediction - bayes_predict(x))^2 under the squared
    loss, whose Bayes rule is E[Y | x].  So no label is read.  Each block is
    folded into the r running estimates (``_Moments``) and dropped, and the
    pass holds O(block) memory.  Each row is scored on its own, so every
    estimate is exactly what a separate call with the same seed would give.
    Such a law under another loss, or under the zero-one loss without
    ``eta``, is refused with ValueError before anything is drawn.

    ``span``, for predictors that read a point x only through x @ V,
    returns the pair (V, predict_scores) when called: V is d x q, and
    ``predict_scores(S, out)`` writes to ``out`` what ``predict_rows``
    would write on points whose scores X @ V are S.  It is called only on
    a law with ``draw_scores``, so other laws never build V.  There the
    test draws are made in the span of V and never in d: each block is
    scored through ``predict_scores`` and weighed by ``eta_at`` of its
    margins, then folded as above.  That draw depends on V, so an estimate
    equals a separate one with the same seed in law, not bit for bit; the
    r estimates of one pass still share their draws.
    """
    loss = dist.loss_spec
    if hasattr(dist, "atoms"):
        points, probs, label_values, label_probs = dist.atoms()
        bayes = bayes_action(loss, label_values, label_probs)
        bayes_risk = _atom_conditional_risks(loss, bayes, label_values, label_probs)
        probs = np.asarray(probs, float)
        rows = np.empty((r, points.shape[0]))
        predict_rows(points, rows)
        estimates = []
        for row in rows:
            pred_risk = _atom_conditional_risks(loss, row, label_values, label_probs)
            value = float(np.sum(probs * (pred_risk - bayes_risk)))
            estimates.append(
                RiskEstimate(value=value, std_error=0.0, n_samples=len(probs), exact=True)
            )
        return estimates

    law = type(dist).__name__
    if loss.kind not in ("zero_one", "squared"):
        raise ValueError(f"{law} has no atoms(), and a {loss.kind} loss has no Monte-Carlo estimate here")
    if loss.kind == "zero_one" and not hasattr(dist, "eta"):
        raise ValueError(f"{law} has no atoms() and no eta(X), which a zero-one law needs to be scored")
    moments = _Moments(r)

    def fold(predict, points, side):
        """Score a block and fold its conditional excesses; ``side`` is eta or E[Y | x] there."""
        out = np.empty((r, len(side)))
        predict(points, out)
        if loss.kind == "squared":
            _check_range("predictions", out, loss.beta)
            out -= side
            moments.add(np.square(out, out=out))
            return
        # Bayes predicts the sign of 2 eta - 1; bayes_predict differs only at weight 0.
        signed = 2.0 * side - 1.0
        differs = np.not_equal(out, np.where(signed >= 0.0, 1.0, -1.0), out=out)
        moments.add(np.multiply(differs, np.abs(signed), out=out))

    if span is not None and hasattr(dist, "draw_scores"):
        weights, predict_scores = span()
        dist.draw_scores(weights, n_test, seed, lambda S, M: fold(predict_scores, S, dist.eta_at(M)))
    else:
        side = dist.eta if loss.kind == "zero_one" else dist.bayes_predict
        _block_draw(dist)(n_test, seed, lambda rows, X: fold(predict_rows, X, side(X)))
    return moments.estimates()


class _Moments:
    """The running mean and sum of squared deviations of r value streams,
    fed one r x b block at a time and merged by Chan, Golub and LeVeque's
    update: ``_mc_estimate``'s mean and standard error without the values.
    Each stream's figures depend on its own values alone."""

    def __init__(self, r: int):
        self.n = 0
        self.mean = np.zeros(r)
        self.m2 = np.zeros(r)

    def add(self, values: np.ndarray) -> None:
        """Fold in an r x b block; ``values`` is overwritten."""
        b = values.shape[1]
        block_mean = values.mean(axis=1)
        values -= block_mean[:, None]
        block_m2 = np.square(values, out=values).sum(axis=1)
        total = self.n + b
        delta = block_mean - self.mean
        self.mean += delta * (b / total)
        self.m2 += block_m2 + delta**2 * (self.n * b / total)
        self.n = total

    def estimates(self) -> list[RiskEstimate]:
        n = self.n
        se = np.sqrt(self.m2 / (n - 1) / n) if n > 1 else np.zeros_like(self.m2)
        return [
            RiskEstimate(value=float(mean), std_error=float(e), n_samples=n, exact=False)
            for mean, e in zip(self.mean, se)
        ]


def _block_draw(dist):
    """``dist.draw_blocks``, or for a law with only ``sample``, its whole
    draw handed to the visitor block by block: one way to draw a test set,
    whose labels are left unread."""
    if hasattr(dist, "draw_blocks"):
        return dist.draw_blocks

    def draw(n, seed, visit):
        X, _ = dist.sample(n, seed)
        for rows in _row_blocks(*X.shape):
            visit(rows, X[rows])

    return draw


def estimate_excess_risk(predictor, dist, n_test: int = 100_000, seed: int = 0) -> RiskEstimate:
    """Excess risk of ``predictor`` (a callable X -> predictions, or a
    ``LinearHypothesis`` on R^d) under ``dist``.

    Finite-support distributions are summed exactly, and ``predictor`` is
    called once, on their atom points as ``atoms()`` gives them: an Assouad
    law passes an ``AxisPoints`` set, which a ``LinearHypothesis`` on R^d
    scores by a gather and whose ``shape`` and ``toarray()`` are available
    to other predictors.  On a continuous law ``predictor`` is called once
    per row block of the test draw, so it must act row by row: its output on
    a row may not depend on the other rows passed with it.
    Continuous laws average the conditional excess given each test point,
    which reads no label: E[|2 eta(X) - 1| ; predictor disagrees with Bayes]
    under the zero-one loss, and E[(predictor(X) - bayes_predict(X))^2]
    under the squared loss.  Its terms are nonnegative and carry no label
    noise.  The draw is a pure function of (dist, n_test, seed), so two
    estimates with equal arguments share their test sample.  A
    ``LinearHypothesis`` reads a point only through its weight, so on a law
    with ``draw_scores`` its test draws are made in that one direction's
    span; elsewhere it is scored as its ``predict``.  This is the one-predictor case of the evaluation pass
    that ``member_excess_risks`` makes for a whole ensemble, and on a law
    without ``draw_scores`` it gives the same value for the same predictor
    and seed.
    """
    span = None
    if isinstance(predictor, LinearHypothesis):
        rule = predictor
        predictor = rule.predict

        def one_score(S, out):
            out[0] = rule.render(S[:, 0] - rule.t)

        def span():
            return rule.w[:, None], one_score

    def one_row(X, out):
        row = np.asarray(predictor(X))
        if row.shape != (len(X),):
            raise ValueError(
                f"expected one prediction per row, a 1 x {len(X)} prediction matrix, got shape {row.shape}"
            )
        out[0] = row

    return _estimate_excess_risks(one_row, 1, dist, n_test=n_test, seed=seed, span=span)[0]


def estimate_compressibility(
    dist,
    family: str,
    k: int,
    reps: int = 32,
    pop_n: int = 2000,
    solver: str = "surrogate",
    seed: int = 0,
    iters: int = 2000,
) -> RiskEstimate:
    """Average best-achievable excess risk after a random k-dimensional compression.

    The inner infimum over the compressed class is uncomputable exactly; the
    proxy is an ERM fit on a fresh population-scale sample (``pop_n`` points)
    compressed by each drawn map, evaluated independently through its
    pulled-back rule, so the test points are not projected.  Each rep makes
    one evaluation pass on its own ``pop_n``-point draw, seeded apart from the
    fitting draw, so reps share no test points.  The returned standard error
    is across the ``reps`` map draws, which is the genuine randomness being
    averaged.  ``solver`` is dispatched by ``hypotheses.fit``: a solver the
    loss does not take raises ValueError.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    loss = dist.loss_spec
    values = np.empty(reps)
    for rep in range(reps):
        a_seed = derive_seed(seed, 3 * rep)
        data_seed = derive_seed(seed, 3 * rep + 1)
        eval_seed = derive_seed(seed, 3 * rep + 2)
        X, y = dist.sample(pop_n, data_seed)
        pmap = sample_projection(family, k, dist.d, a_seed)
        report = fit(apply(pmap, X), y, loss, solver, iters)
        values[rep] = estimate_excess_risk(
            report.hypothesis.pull_back(pmap.matrix), dist, n_test=pop_n, seed=eval_seed
        ).value
    return _mc_estimate(values)


# ---------------------------------------------------------------------------
# bound-side calculus
# ---------------------------------------------------------------------------


def risk_bound_bracket(
    n: int, k: int, m: int, delta: float, alpha: float, psi_hat: float
) -> RiskBracket:
    """Assemble the constant-free three-term excess-risk bracket."""
    if n < 1 or k < 1 or m < 1:
        raise ValueError("n, k, m must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if psi_hat < 0:
        raise ValueError("psi_hat must be nonnegative")
    log_conf = log_plus(1.0 / delta)
    statistical = ((k * log_plus(n) + log_conf) / n) ** (1.0 / (2.0 - alpha))
    ensemble = log_conf / m
    return RiskBracket(
        compressibility_term=float(psi_hat),
        statistical_term=float(statistical),
        ensemble_term=float(ensemble),
        total=float(psi_hat + statistical + ensemble),
    )


def optimal_k_classification(n: int, gamma: float, rho: float, alpha: float) -> int:
    """Rate-optimal target dimension for margin/moment classification families."""
    if gamma <= 0 or rho <= 0:
        raise ValueError("gamma and rho must be positive")
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    denom = 2.0 * (gamma + rho) + gamma * rho * (2.0 - alpha)
    exponent = 2.0 * (gamma + rho) / denom
    return int(math.ceil((n / log_plus(n)) ** exponent))


def optimal_k_regression(n: int) -> int:
    """Rate-optimal target dimension ceil(log_+ n) under spectral decay."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return int(math.ceil(log_plus(n)))


# ---------------------------------------------------------------------------
# sketched least squares
# ---------------------------------------------------------------------------


def sketched_ols_ratio(Xmat, w_diamond, pmap: ProjectionMap, r: int) -> dict:
    """Compare the sketched least-squares residual to its spectral-tail bound.

    ``Xmat`` is a d x q design, ``w_diamond`` the reference d-vector, and
    ``pmap`` a k x d compression.  lhs is the best achievable squared
    fitting error min_w || w^T A X - w_diamond^T X ||^2; rhs is
    18 ||w_diamond||^2 times the eigenvalue tail sum_{j >= r+1} lambda_j(X X^T).
    An rhs that vanishes (rank <= r designs) reports ratio 0 when the lhs
    vanishes too, and infinity otherwise.
    """
    Xmat = np.asarray(Xmat, dtype=float)
    w_diamond = np.asarray(w_diamond, dtype=float)
    if Xmat.ndim != 2:
        raise ValueError("Xmat must be d x q")
    d, q = Xmat.shape
    if w_diamond.shape != (d,):
        raise ValueError("w_diamond must be a d-vector")
    if pmap.d != d:
        raise ValueError("projection ambient dimension mismatch")
    if not 0 <= r < min(q, pmap.k):
        raise ValueError(f"need 0 <= r < min(q, k) = {min(q, pmap.k)}, got r={r}")

    sketched = pmap.matrix @ Xmat  # k x q
    target = w_diamond @ Xmat  # q
    w_hat, *_ = np.linalg.lstsq(sketched.T, target, rcond=None)
    lhs = float(np.sum((sketched.T @ w_hat - target) ** 2))

    eigs = np.linalg.eigvalsh(Xmat @ Xmat.T)[::-1]
    tail = float(np.sum(np.clip(eigs[r:], 0.0, None)))
    rhs = 18.0 * float(w_diamond @ w_diamond) * tail

    total = float(np.sum(np.clip(eigs, 0.0, None)))
    if rhs <= 1e-10 * max(1.0, 18.0 * float(w_diamond @ w_diamond) * total):
        scale = float(target @ target) + 1.0
        ratio = 0.0 if lhs <= 1e-8 * scale else math.inf
    else:
        ratio = lhs / rhs
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio}

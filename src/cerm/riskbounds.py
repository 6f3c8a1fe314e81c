"""Risk estimation and the bound-side calculus.

This module owns the Monte-Carlo / exact-summation excess-risk estimators,
the compressibility estimator (how much excess risk the best low-dimensional
predictor must eat after a random compression), the three-term risk bracket,
the optimal-target-dimension rules and the sketched least-squares
inequality.

Distributions are duck-typed.  An object usable here provides:

* ``d`` — ambient dimension;
* ``loss_spec`` — the LossSpec its labels live under;
* ``sample(n, seed) -> (X, y)`` — i.i.d. draws, deterministic per seed;
* ``bayes_predict(X)`` — the risk-minimizing predictor, vectorized;

and optionally:

* ``atoms() -> (points, probs, label_values, label_probs)`` for finite
  support, unlocking exact summation (std_error 0).  ``points`` is an
  s x d array or an ``AxisPoints`` set; either way it is handed to the
  predictors as is, and only its ``shape`` is read here.  ``label_values``
  and ``label_probs`` are matching s x L arrays;
* ``eta(X)`` — P(Y=+1 | X) for continuous classification laws, unlocking the
  low-variance pointwise estimator E[|2 eta - 1| ; predictor != bayes].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypotheses import fit
from .losses import bayes_action, eval_loss
from .projections import ProjectionMap, apply, sample_projection
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
    n: int
    k: int
    m: int
    delta: float
    alpha: float


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
    predict_rows, dist, n_test: int = 100_000, seed: int = 0
) -> list[RiskEstimate]:
    """Excess risk of r predictors under ``dist``, all scored on one evaluation set.

    ``predict_rows`` maps an N x d input to an r x N matrix whose row i is
    predictor i's output.  It is called once, on the single evaluation set:
    the atoms of a finite-support law, or else one draw of ``n_test`` points
    that is a pure function of (dist, n_test, seed).  The Bayes side (the
    eta weights, the Bayes predictions and the Bayes losses) is computed once
    on that set, and each row is then scored against it on its own, so every
    estimate is exactly what a separate call with the same seed would give.
    """
    loss = dist.loss_spec
    if hasattr(dist, "atoms"):
        points, probs, label_values, label_probs = dist.atoms()
        bayes = bayes_action(loss, label_values, label_probs)
        bayes_risk = _atom_conditional_risks(loss, bayes, label_values, label_probs)
        probs = np.asarray(probs, float)
        estimates = []
        for row in _prediction_rows(predict_rows, points):
            pred_risk = _atom_conditional_risks(loss, row, label_values, label_probs)
            value = float(np.sum(probs * (pred_risk - bayes_risk)))
            estimates.append(
                RiskEstimate(value=value, std_error=0.0, n_samples=len(probs), exact=True)
            )
        return estimates

    if loss.kind == "zero_one" and hasattr(dist, "eta"):
        X, _ = dist.sample(n_test, seed)
        weight = np.abs(2.0 * dist.eta(X) - 1.0)
        bayes = dist.bayes_predict(X)
        rows = _prediction_rows(predict_rows, X)
        return [_mc_estimate(weight * (row != bayes)) for row in rows]

    X, y = dist.sample(n_test, seed)
    bayes_loss = eval_loss(loss, dist.bayes_predict(X), y)
    rows = _prediction_rows(predict_rows, X)
    return [_mc_estimate(eval_loss(loss, row, y) - bayes_loss) for row in rows]


def _prediction_rows(predict_rows, X) -> np.ndarray:
    n = X.shape[0]
    rows = np.asarray(predict_rows(X))
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"expected an r x {n} prediction matrix, got shape {rows.shape}")
    return rows


def estimate_excess_risk(predictor, dist, n_test: int = 100_000, seed: int = 0) -> RiskEstimate:
    """Excess risk of ``predictor`` (a callable X -> predictions) under ``dist``.

    Finite-support distributions are summed exactly, and ``predictor`` is
    called on their atom points as ``atoms()`` gives them: an Assouad law
    passes an ``AxisPoints`` set, which ``apply`` projects and whose
    ``shape`` and ``toarray()`` are available to other predictors.  Continuous
    classification laws use the pointwise form E[|2 eta(X) - 1| ; predictor
    disagrees with Bayes], whose terms are nonnegative and low-variance.
    Continuous regression laws use paired loss differences on a shared draw.
    The draw is a pure function of (dist, n_test, seed), so two estimates with
    equal arguments share their test sample.  This is the one-predictor case
    of the evaluation pass that ``member_excess_risks`` makes for a whole
    ensemble, and it gives the same value for the same predictor and seed.
    """
    return _estimate_excess_risks(
        lambda X: np.asarray(predictor(X))[None], dist, n_test=n_test, seed=seed
    )[0]


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
    compressed by each drawn map, evaluated independently.  Each rep makes one
    evaluation pass on its own ``pop_n``-point draw, seeded apart from the
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

        def compressed_predictor(Xq, _pmap=pmap, _h=report.hypothesis):
            return _h.predict(apply(_pmap, Xq))

        values[rep] = estimate_excess_risk(
            compressed_predictor, dist, n_test=pop_n, seed=eval_seed
        ).value
    se = float(np.std(values, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return RiskEstimate(value=float(np.mean(values)), std_error=se, n_samples=reps, exact=False)


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
        n=n,
        k=k,
        m=m,
        delta=delta,
        alpha=alpha,
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

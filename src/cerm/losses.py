"""Bounded loss functions and their certified constants.

Three losses are supported.  A ``LossSpec`` holds a loss's kind and range
radius beta only; each constant the rest of the library relies on is a
property computed from the two:

============  =========  ==========  ===================  =============  ========
kind          bound      lipschitz   curvature            quasi_convex   combiner
============  =========  ==========  ===================  =============  ========
zero_one      1          1/2         0                    2              mode
squared       4*beta^2   4*beta      2                    1              mean
kl            beta+ln 2  1           e^b/(1+e^b)^2, b=beta 1             mean
============  =========  ==========  ===================  =============  ========

``bound`` is the largest attainable loss value, ``lipschitz`` the Lipschitz
constant of v -> loss(v, y) on the prediction domain, ``curvature`` the
strong mid-point convexity constant (0 when the loss has none), and
``quasi_convexity`` the factor by which combining predictions can inflate the
average member excess risk.  ``combiner`` names the ensemble rule the loss
calls for: majority vote for zero_one, arithmetic mean for the others.

Domains: zero_one takes predictions and labels in {-1,+1}; squared takes both
in [-beta, beta]; kl takes a prediction in [-beta, beta] (a logit) and a label
in {0, 1}.  The kl loss is evaluated in the numerically stable logit form
log(1 + exp(-(2y-1) v)), exact at y in {0, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LOSS_KINDS",
    "LossSpec",
    "make_loss",
    "eval_loss",
    "bernstein_constant",
    "bayes_action",
]

LOSS_KINDS = ("zero_one", "squared", "kl")

#: absolute slack allowed on [-beta, beta] domain checks, to admit predictions
#: that picked up a rounding ulp (e.g. a clipped value averaged m times).
_DOMAIN_TOL = 1e-9


class InvalidBetaError(ValueError):
    """Raised when a range bound beta is missing, nonpositive, or non-finite."""


class LossDomainError(ValueError):
    """Raised when eval_loss sees a prediction or label outside the loss domain."""


class UndefinedBernsteinError(ValueError):
    """Raised for losses with no strong convexity (curvature 0)."""


@dataclass(frozen=True)
class LossSpec:
    """A loss: its kind and range radius beta.  The constants in the module
    table are properties derived from the two.  Build with ``make_loss``."""

    kind: str
    beta: float

    @property
    def bound(self) -> float:
        if self.kind == "zero_one":
            return 1.0
        if self.kind == "squared":
            return 4.0 * self.beta**2
        return self.beta + np.log(2.0)

    @property
    def lipschitz(self) -> float:
        if self.kind == "zero_one":
            return 0.5
        if self.kind == "squared":
            return 4.0 * self.beta
        return 1.0

    @property
    def curvature(self) -> float:
        if self.kind == "zero_one":
            return 0.0
        if self.kind == "squared":
            return 2.0
        # kl: the minimum of e^v/(1+e^v)^2 over the logits [-beta, beta],
        # attained at |v|=beta.  (1+e^beta)^2 overflows near beta ~ 354, so
        # above 300 the algebraically equal e^-beta form is used.
        b = self.beta if self.beta <= 300.0 else -self.beta
        return float(np.exp(b) / (1.0 + np.exp(b)) ** 2)

    @property
    def quasi_convexity(self) -> float:
        return 2.0 if self.kind == "zero_one" else 1.0

    @property
    def combiner(self) -> str:
        return "mode" if self.kind == "zero_one" else "mean"


def make_loss(kind: str, beta: float = 1.0) -> LossSpec:
    """Build the LossSpec for ``kind``.

    ``beta`` is the prediction-range radius for squared and kl; it is ignored
    for zero_one (whose prediction space is {-1,+1}).
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    if kind == "zero_one":
        return LossSpec(kind="zero_one", beta=1.0)
    beta = float(beta)
    if not np.isfinite(beta) or beta <= 0:
        raise InvalidBetaError(f"beta must be a positive finite real, got {beta!r}")
    return LossSpec(kind=kind, beta=beta)


def _check_range(name: str, arr: np.ndarray, beta: float) -> None:
    if arr.size and (np.min(arr) < -beta - _DOMAIN_TOL or np.max(arr) > beta + _DOMAIN_TOL):
        raise LossDomainError(f"{name} outside [-{beta}, {beta}]")


def _check_binary(name: str, arr: np.ndarray, values: tuple) -> None:
    ok = np.zeros(arr.shape, dtype=bool)
    for val in values:
        ok |= arr == val
    if not np.all(ok):
        raise LossDomainError(f"{name} must take values in {values}")


def eval_loss(loss: LossSpec, v, y):
    """Evaluate the loss at prediction(s) v and label(s) y; vectorized.

    Inputs broadcast; scalars in give a scalar out.  Out-of-domain inputs
    raise LossDomainError rather than being thresholded silently.
    """
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_domain(loss, v, y)
    out = _loss_values(loss, v, y)
    if out.ndim == 0:
        return float(out)
    return out


def _check_domain(loss: LossSpec, v: np.ndarray, y: np.ndarray) -> None:
    if loss.kind == "zero_one":
        _check_binary("predictions", v, (-1.0, 1.0))
        _check_binary("labels", y, (-1.0, 1.0))
        return
    _check_range("predictions", v, loss.beta)
    if loss.kind == "squared":
        _check_range("labels", y, loss.beta)
    else:  # kl
        _check_binary("labels", y, (0.0, 1.0))


def _loss_values(loss: LossSpec, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The loss formulas on float arrays, with no domain checks.

    ``eval_loss`` calls it once its checks pass, and the tests' allocating
    reference descent calls it directly.  The regression descent does not:
    it evaluates the same formulas in place on its clipped predictions.
    """
    if loss.kind == "zero_one":
        return 0.5 * (1.0 - v * y)
    if loss.kind == "squared":
        return (v - y) ** 2
    return np.logaddexp(0.0, -(2.0 * y - 1.0) * v)  # kl


def bernstein_constant(loss: LossSpec) -> float:
    """The constant 4 * lipschitz^2 / curvature relating second moments to
    first moments of centered excess losses.

    Defined only for losses with strictly positive curvature.
    """
    if loss.curvature <= 0.0:
        raise UndefinedBernsteinError(f"loss {loss.kind!r} has no strong convexity")
    return 4.0 * loss.lipschitz**2 / loss.curvature


def bayes_action(loss: LossSpec, label_values, label_probs):
    """Risk-minimizing prediction for finite conditional label laws.

    ``label_values`` and ``label_probs`` describe the conditional distribution
    of the label at one point, or, stacked as matching (..., L) arrays, at
    one point per row; a single law gives a float and stacked laws give one
    action per row.  zero_one: sign of 2*P(y=+1) - 1, ties to +1.  squared:
    conditional mean clipped to [-beta, beta].  kl: logit of P(y=1) clipped
    to [-beta, beta] (so deterministic labels map to the endpoints).
    """
    values = np.asarray(label_values, dtype=float)
    probs = np.asarray(label_probs, dtype=float)
    if values.shape != probs.shape or values.ndim == 0:
        raise ValueError("label_values and label_probs must have matching shapes")
    if loss.kind == "squared":
        action = np.clip(np.sum(probs * values, axis=-1), -loss.beta, loss.beta)
    else:
        eta = np.sum(np.where(values == 1.0, probs, 0.0), axis=-1)
        if loss.kind == "zero_one":
            action = np.where(2.0 * eta - 1.0 >= 0.0, 1.0, -1.0)
        else:
            # The logit is only read where 0 < eta < 1; the endpoints divide by zero.
            with np.errstate(divide="ignore", invalid="ignore"):
                logit = np.clip(np.log(eta / (1.0 - eta)), -loss.beta, loss.beta)
            action = np.where(eta <= 0.0, -loss.beta, np.where(eta >= 1.0, loss.beta, logit))
    if action.ndim == 0:
        return float(action)
    return action

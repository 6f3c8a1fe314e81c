"""Synthetic data distributions with analytic Bayes structure.

Four families:

* ``FiniteSupportDist`` — an explicit discrete law over labeled atoms; every
  risk computed under it is an exact finite sum.
* ``AssouadDist`` — the hypercube-indexed family on q + 1 orthogonal axes that
  drives minimax lower bounds: a heavy clean atom at e_0 and q light atoms at
  radius r whose labels flip with the sign pattern sigma.
  ``build_assouad_family`` picks (q, r, v, epsilon) from a sample size and the
  margin/moment/noise exponents so that the family sits exactly on the
  boundary of the target class.
* ``GaussMarginDist`` — a continuous classification law built so each
  assumption checker has a closed-form target: the signed margin along a
  reference direction has density gamma |m|^(gamma-1) / 2 on [-1, 1] (band
  mass xi^gamma), the off-margin radius is truncated Pareto (tail s^-rho), and
  the label noise profile is |2 eta - 1| = min(1, |M|^c) with c chosen so the
  low-confidence mass has exponent alpha / (1 - alpha).
* ``RegressionDist`` — Gaussian design with geometrically decaying covariance
  spectrum and clipped-linear labels, optionally with bounded uniform noise.

Duck-typed interface consumed by the risk estimators: attributes ``d`` and
``loss_spec``; methods ``sample``, ``bayes_predict``; finite-support laws add
``atoms()``; continuous classification laws add ``eta``.  The assumption
checkers additionally use ``atom_profile()`` (exact per-atom masses, noise
weights, margins, and norms) or ``margin_profile(n, seed)`` (a Monte-Carlo
draw of the same quantities).

Floating-point note: several constructions place a family exactly on its
class boundary, turning the membership inequalities into equalities that
float evaluation may miss by an ulp.  All inequality checks in this module
therefore allow a 1e-9 relative slack, documented here once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .losses import LOSS_KINDS, LossSpec, bayes_action, eval_loss, make_loss
from .projections import AxisPoints
from .riskbounds import RiskEstimate

__all__ = [
    "ConfigError",
    "FiniteSupportDist",
    "AssouadDist",
    "AssouadParams",
    "GaussMarginDist",
    "RegressionDist",
    "SmallSampleError",
    "build_assouad_family",
    "assouad_min_n",
    "check_membership",
    "chi_squared_adjacent",
    "check_geometric_margin",
    "check_moment",
    "check_tsybakov",
    "check_spectral_decay",
    "dist_to_config",
    "dist_from_config",
]

_REL_TOL = 1e-9


class SmallSampleError(ValueError):
    """Raised when a lower-bound family is requested below its minimum sample size."""


def _leq(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to the module-wide relative slack (see module docstring)."""
    return lhs <= rhs * (1.0 + _REL_TOL) + 1e-300


# ---------------------------------------------------------------------------
# finite-support laws
# ---------------------------------------------------------------------------


class FiniteSupportDist:
    """A discrete law: atom i has probability probs[i] and conditional label
    distribution (label_values[i], label_probs[i]).

    All risks under such a law are exact finite sums, which is what makes it
    the reference oracle for the estimator and ensemble property tests.
    """

    def __init__(self, points, probs, label_values, label_probs, loss: LossSpec):
        self.points = np.asarray(points, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        self.label_values = np.asarray(label_values, dtype=float)
        self.label_probs = np.asarray(label_probs, dtype=float)
        self.loss_spec = loss
        if self.points.ndim != 2:
            raise ValueError("points must be s x d")
        s = self.points.shape[0]
        if self.probs.shape != (s,):
            raise ValueError("probs must have one entry per atom")
        if np.any(self.probs < 0) or abs(float(np.sum(self.probs)) - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        if self.label_values.shape != self.label_probs.shape or self.label_values.ndim != 2:
            raise ValueError("label_values and label_probs must be matching s x L arrays")
        if self.label_values.shape[0] != s:
            raise ValueError("one label row per atom required")
        row_sums = np.sum(self.label_probs, axis=1)
        if np.any(self.label_probs < 0) or np.any(np.abs(row_sums - 1.0) > 1e-12):
            raise ValueError("label_probs rows must be distributions")
        # Label domain check: every listed label value must be legal for the
        # loss, padded entries included.
        probe = 1.0 if loss.kind == "zero_one" else 0.0
        eval_loss(loss, probe, self.label_values)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def atoms(self):
        return self.points, self.probs, self.label_values, self.label_probs

    def bayes_actions(self) -> np.ndarray:
        return bayes_action(self.loss_spec, self.label_values, self.label_probs)

    def bayes_predict(self, X) -> np.ndarray:
        """Bayes action of the nearest atom (exact on the atoms themselves)."""
        X = np.asarray(X, dtype=float)
        actions = self.bayes_actions()
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], 4096):
            block = X[start : start + 4096]
            d2 = ((block[:, None, :] - self.points[None, :, :]) ** 2).sum(axis=2)
            out[start : start + 4096] = actions[np.argmin(d2, axis=1)]
        return out

    def bayes_risk(self) -> RiskEstimate:
        actions = self.bayes_actions()
        losses = eval_loss(self.loss_spec, actions[:, None], self.label_values)
        per_atom = np.sum(self.label_probs * losses, axis=1)
        return RiskEstimate(
            value=float(np.sum(self.probs * per_atom)),
            std_error=0.0,
            n_samples=self.points.shape[0],
            exact=True,
        )

    def sample(self, n: int, seed: int):
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.points.shape[0], size=n, p=self.probs)
        X = self.points[idx]
        u = rng.random(n)
        cum = np.cumsum(self.label_probs, axis=1)
        label_idx = np.argmax(u[:, None] < cum[idx], axis=1)
        y = self.label_values[idx, label_idx]
        return X, y


# ---------------------------------------------------------------------------
# Assouad-style lower-bound family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssouadParams:
    """Parameters of one hypercube family member, echoing the exponents and
    sample size they were built for."""

    q: int
    r: float
    v: float
    epsilon: float
    gamma: float
    rho: float
    alpha: float
    n: int


class AssouadDist:
    """q + 1 atoms on orthogonal axes in R^(q+1).

    The heavy atom x_0 = e_0 has mass 1 - v and a deterministic +1 label; the
    light atoms x_l = r e_l (l = 1..q) have mass v/q each and labels with
    eta(x_l) = (1 + epsilon sigma_l) / 2.  The reference separator is the unit
    vector (e_0 + q^(-1/2) sum sigma_l e_l) / sqrt(2) with offset 0, putting
    the heavy atom at margin 1/sqrt(2) and the light atoms at r / sqrt(2 q).

    Per-atom quantities (``atom_profile``) are computed arithmetically, and
    ``atoms()`` returns the points as an ``AxisPoints`` set, so both take
    O(q) memory and run at any q.
    """

    def __init__(self, q: int, r: float, v: float, epsilon: float, sigma=None):
        if q < 1:
            raise ValueError("q must be >= 1")
        if not 1.0 <= r <= math.sqrt(q) * (1.0 + _REL_TOL):
            raise ValueError(f"r must lie in [1, sqrt(q)], got {r}")
        if not 0.0 < v <= 1.0:
            raise ValueError("v must lie in (0, 1]")
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        if sigma is None:
            sigma = np.ones(q)
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (q,) or not np.all((sigma == 1.0) | (sigma == -1.0)):
            raise ValueError("sigma must be a length-q vector of +-1")
        self.q = q
        self.r = float(r)
        self.v = float(v)
        self.epsilon = float(epsilon)
        self.sigma = sigma
        self.loss_spec = make_loss("zero_one")

    @property
    def d(self) -> int:
        return self.q + 1

    def _atom_probs(self) -> np.ndarray:
        return np.concatenate([[1.0 - self.v], np.full(self.q, self.v / self.q)])

    def _atom_eta(self) -> np.ndarray:
        return np.concatenate([[1.0], (1.0 + self.epsilon * self.sigma) / 2.0])

    def atom_profile(self):
        """(probs, |2 eta - 1|, |margin|, norm) per atom, no coordinates built."""
        probs = self._atom_probs()
        weights = np.concatenate([[1.0], np.full(self.q, self.epsilon)])
        margins = np.concatenate(
            [[1.0 / math.sqrt(2.0)], np.full(self.q, self.r / math.sqrt(2.0 * self.q))]
        )
        norms = np.concatenate([[1.0], np.full(self.q, self.r)])
        return probs, weights, margins, norms

    def atoms(self):
        """(points, probs, label_values, label_probs); atom l is point l = norm_l e_l."""
        _, _, _, norms = self.atom_profile()
        points = AxisPoints(np.arange(self.q + 1), norms, self.q + 1)
        eta = self._atom_eta()
        label_values = np.tile([-1.0, 1.0], (self.q + 1, 1))
        label_probs = np.stack([1.0 - eta, eta], axis=1)
        return points, self._atom_probs(), label_values, label_probs

    def _atom_index(self, X) -> np.ndarray:
        if isinstance(X, AxisPoints):
            return X.axes
        return np.argmax(np.abs(np.asarray(X, dtype=float)), axis=1)

    def eta(self, X) -> np.ndarray:
        idx = self._atom_index(X)
        eta = self._atom_eta()
        return eta[idx]

    def bayes_predict(self, X) -> np.ndarray:
        idx = self._atom_index(X)
        light = np.where(self.sigma[np.maximum(idx - 1, 0)] >= 0.0, 1.0, -1.0)
        return np.where(idx == 0, 1.0, light)

    def bayes_risk(self) -> RiskEstimate:
        probs = self._atom_probs()
        eta = self._atom_eta()
        value = float(np.sum(probs * np.minimum(eta, 1.0 - eta)))
        return RiskEstimate(value=value, std_error=0.0, n_samples=self.q + 1, exact=True)

    def sample(self, n: int, seed: int):
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.q + 1, size=n, p=self._atom_probs())
        X = np.zeros((n, self.q + 1))
        X[np.arange(n), idx] = np.where(idx == 0, 1.0, self.r)
        eta = self._atom_eta()[idx]
        y = np.where(rng.random(n) < eta, 1.0, -1.0)
        return X, y


def assouad_min_n(gamma: float, rho: float, alpha: float) -> float:
    """Smallest sample size the family construction is valid for."""
    denom = 2.0 * (gamma + rho) + gamma * rho * (2.0 - alpha)
    guard_q = 1.0 + 2.0 ** (6.0 * denom / (rho * gamma * (2.0 - alpha)))
    guard_eps = 2.0 ** (denom / (rho * gamma * (1.0 - alpha)))
    return max(guard_q, guard_eps)


def build_assouad_family(n: int, gamma: float, rho: float, alpha: float) -> AssouadParams:
    """Choose (q, r, v, epsilon) so the family lies on the class boundary.

    With D = 2 (gamma + rho) + gamma rho (2 - alpha):

        q = ceil((2^5 n)^(2 (gamma + rho) / D)),   r = q^(gamma / (2 (gamma + rho))),
        v = q^(-rho gamma alpha / (2 (gamma + rho))),
        epsilon = q^(-gamma rho (1 - alpha) / (2 (gamma + rho))),

    which makes epsilon * v = (r / sqrt(q))^gamma = r^(-rho) hold exactly.
    Below the minimum sample size (see assouad_min_n) the construction would
    break q < n or epsilon < 1/2, and a SmallSampleError is raised instead.
    """
    if gamma <= 0 or rho <= 0:
        raise ValueError("gamma and rho must be positive")
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    n0 = assouad_min_n(gamma, rho, alpha)
    if n < n0:
        raise SmallSampleError(f"need n >= {n0:.6g} for these exponents, got {n}")

    two_gr = 2.0 * (gamma + rho)
    denom = two_gr + gamma * rho * (2.0 - alpha)
    q = int(math.ceil((2.0**5 * n) ** (two_gr / denom)))
    r = q ** (gamma / two_gr)
    v = q ** (-rho * gamma * alpha / two_gr)
    epsilon = q ** (-gamma * rho * (1.0 - alpha) / two_gr)

    if not (q < n and 1.0 <= r <= math.sqrt(q) * (1 + _REL_TOL) and 0 < epsilon < 0.5 and 0 < v <= 1.0):
        raise SmallSampleError(
            f"construction degenerate at n={n}: q={q}, r={r:.4g}, v={v:.4g}, epsilon={epsilon:.4g}"
        )
    return AssouadParams(q=q, r=r, v=v, epsilon=epsilon, gamma=gamma, rho=rho, alpha=alpha, n=n)


def check_membership(params: AssouadParams) -> dict:
    """Evaluate the three class-membership inequalities for a family member,
    at the exponents it was built for.

    geom:     epsilon v <= 2^(gamma/2) (r / sqrt(2 q))^gamma
    moment:   epsilon v <= r^(-rho)
    tsybakov: v <= epsilon^(alpha / (1 - alpha))

    The built families sit exactly on all three boundaries.
    """
    gamma, rho, alpha = params.gamma, params.rho, params.alpha
    ev = params.epsilon * params.v
    geom = _leq(ev, 2.0 ** (gamma / 2.0) * (params.r / math.sqrt(2.0 * params.q)) ** gamma)
    moment = _leq(ev, params.r ** (-rho))
    tsybakov = _leq(params.v, params.epsilon ** (alpha / (1.0 - alpha)))
    return {"geom": geom, "moment": moment, "tsybakov": tsybakov}


def chi_squared_adjacent(dist_a: AssouadDist, dist_b: AssouadDist) -> float:
    """Exact chi-squared divergence between two members whose sign patterns
    differ at exactly one atom.

    Every joint outcome off the flipped atom has identical mass under both
    laws and contributes zero; the sum reduces to the flipped atom's two label
    outcomes, computed here exactly.
    """
    for field in ("q", "r", "v", "epsilon"):
        if getattr(dist_a, field) != getattr(dist_b, field):
            raise ValueError(f"members differ in {field}; chi-squared comparison undefined")
    flips = np.nonzero(dist_a.sigma != dist_b.sigma)[0]
    if flips.size != 1:
        raise ValueError(f"sign patterns must differ at exactly one atom, got {flips.size}")
    l = int(flips[0])
    mass = dist_a.v / dist_a.q
    eta_a = (1.0 + dist_a.epsilon * dist_a.sigma[l]) / 2.0
    eta_b = (1.0 + dist_b.epsilon * dist_b.sigma[l]) / 2.0
    return mass * (eta_a - eta_b) ** 2 * (1.0 / eta_b + 1.0 / (1.0 - eta_b))


# ---------------------------------------------------------------------------
# continuous classification family
# ---------------------------------------------------------------------------


class GaussMarginDist:
    """Continuous classification law with prescribed margin, tail, and noise.

    X = (M + t) w + R Theta, where the signed margin M has density
    gamma |m|^(gamma-1) / 2 on [-1, 1], the radius R is Pareto(rho) truncated
    at ``radius_cap``, and Theta is a uniformly random unit direction
    orthogonal to w.  Labels are +-1 with eta determined by
    |2 eta - 1| = min(1, |M|^c): c = gamma (1 - alpha) / alpha for alpha in
    (0, 1), c = gamma at alpha = 0 (any profile satisfies the trivial
    exponent-0 noise condition; this keeps the low-confidence mass linear),
    and deterministic labels at alpha = 1.
    """

    def __init__(
        self,
        d: int,
        gamma: float,
        rho: float,
        alpha: float,
        w=None,
        t: float = 0.0,
        radius_cap: float = 1e3,
    ):
        if d < 2:
            raise ValueError("need d >= 2 for an off-margin direction")
        if gamma <= 0 or rho <= 0:
            raise ValueError("gamma and rho must be positive")
        if not 0 <= alpha <= 1:
            raise ValueError("alpha must lie in [0, 1]")
        if radius_cap <= 1:
            raise ValueError("radius_cap must exceed 1")
        if w is None:
            w = np.zeros(d)
            w[0] = 1.0
        w = np.asarray(w, dtype=float)
        if w.shape != (d,):
            raise ValueError("w must be a d-vector")
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            raise ValueError("w must be a unit vector")
        self.d = int(d)
        self.gamma = float(gamma)
        self.rho = float(rho)
        self.alpha = float(alpha)
        self.w = w
        self.t = float(t)
        self.radius_cap = float(radius_cap)
        self.loss_spec = make_loss("zero_one")
        if alpha == 1.0:
            self.noise_exponent = None  # hard labels
        elif alpha == 0.0:
            self.noise_exponent = self.gamma
        else:
            self.noise_exponent = self.gamma * (1.0 - alpha) / alpha

    def _confidence(self, margin_abs: np.ndarray) -> np.ndarray:
        """|2 eta - 1| as a function of |M|."""
        if self.noise_exponent is None:
            return np.ones_like(margin_abs)
        return np.minimum(1.0, margin_abs**self.noise_exponent)

    def margin_of(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.w - self.t

    def eta(self, X) -> np.ndarray:
        m = self.margin_of(X)
        sign = np.where(m >= 0.0, 1.0, -1.0)
        return (1.0 + sign * self._confidence(np.abs(m))) / 2.0

    def bayes_predict(self, X) -> np.ndarray:
        return np.where(self.margin_of(X) >= 0.0, 1.0, -1.0)

    def _draw_margin_radius(self, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
        margin_abs = rng.random(n) ** (1.0 / self.gamma)
        sign = 2.0 * rng.integers(0, 2, size=n) - 1.0
        u = rng.random(n)
        cap_term = self.radius_cap ** (-self.rho)
        radius = (1.0 - u * (1.0 - cap_term)) ** (-1.0 / self.rho)
        return sign * margin_abs, radius

    def _orthogonal_fallback(self) -> np.ndarray:
        axis = int(np.argmin(np.abs(self.w)))
        e = np.zeros(self.d)
        e[axis] = 1.0
        e -= (e @ self.w) * self.w
        return e / np.linalg.norm(e)

    def sample(self, n: int, seed: int):
        rng = np.random.default_rng(seed)
        m, radius = self._draw_margin_radius(n, rng)
        g = rng.standard_normal((n, self.d))
        g -= (g @ self.w)[:, None] * self.w[None, :]
        norms = np.linalg.norm(g, axis=1)
        bad = norms < 1e-30
        if np.any(bad):
            g[bad] = self._orthogonal_fallback()
            norms[bad] = 1.0
        theta = g / norms[:, None]
        X = (m + self.t)[:, None] * self.w[None, :] + radius[:, None] * theta
        sign = np.where(m >= 0.0, 1.0, -1.0)
        eta = (1.0 + sign * self._confidence(np.abs(m))) / 2.0
        y = np.where(rng.random(n) < eta, 1.0, -1.0)
        return X, y

    def margin_profile(self, n: int, seed: int):
        """Monte-Carlo draw of (|margin|, |2 eta - 1|, ||x||) triples.

        Drawn structurally (no d-dimensional coordinates), since the norm is
        determined by the margin and radius alone: ||x||^2 = (M+t)^2 + R^2.
        Same law as ``sample``, independent stream.
        """
        rng = np.random.default_rng(seed)
        m, radius = self._draw_margin_radius(n, rng)
        margins = np.abs(m)
        weights = self._confidence(margins)
        norms = np.sqrt((m + self.t) ** 2 + radius**2)
        return margins, weights, norms

    def bayes_risk(self, mc_n: int = 100_000, seed: int = 0) -> RiskEstimate:
        if self.noise_exponent is None:
            return RiskEstimate(value=0.0, std_error=0.0, n_samples=0, exact=True)
        rng = np.random.default_rng(seed)
        margin_abs = rng.random(mc_n) ** (1.0 / self.gamma)
        values = (1.0 - self._confidence(margin_abs)) / 2.0
        se = float(np.std(values, ddof=1) / math.sqrt(mc_n))
        return RiskEstimate(value=float(np.mean(values)), std_error=se, n_samples=mc_n)


# ---------------------------------------------------------------------------
# regression family
# ---------------------------------------------------------------------------


class RegressionDist:
    """Gaussian design with geometric spectral decay and clipped-linear labels.

    X ~ N(0, diag(lambda_1..lambda_d)) with lambda_r = spectral_constant *
    spectral_decay^r (r starting at 1); Y = clip(w.X + t + noise, [-beta,
    beta]).  Noiseless, the Bayes predictor is clip(w.x + t) and the Bayes
    risk is exactly 0.  With bounded uniform noise the conditional mean has no
    tidy closed form post-clip, so it is computed by Gauss-Legendre quadrature
    over the noise law — a numeric oracle, not an asserted formula.
    """

    _QUAD_NODES = 201

    def __init__(
        self,
        d: int,
        spectral_constant: float,
        spectral_decay: float,
        w,
        t: float = 0.0,
        beta: float = 1.0,
        noise=None,
        w_max: float = 10.0,
    ):
        if d < 1:
            raise ValueError("d must be >= 1")
        if spectral_constant < 1.0:
            raise ValueError("spectral_constant must be >= 1")
        if not 0.0 < spectral_decay < 1.0:
            raise ValueError("spectral_decay must lie in (0, 1)")
        if beta <= 0:
            raise ValueError("beta must be positive")
        w = np.asarray(w, dtype=float)
        if w.shape != (d,):
            raise ValueError("w must be a d-vector")
        norm = float(np.linalg.norm(w))
        if norm > w_max:
            raise ValueError(f"||w|| = {norm:.4g} exceeds the class radius {w_max}; not rescaling")
        if noise is not None:
            kind, amplitude = noise
            if kind != "bounded_uniform":
                raise ValueError(f"unknown noise model {kind!r}")
            if amplitude < 0:
                raise ValueError("noise amplitude must be nonnegative")
            noise = (kind, float(amplitude))
        self.d = int(d)
        self.spectral_constant = float(spectral_constant)
        self.spectral_decay = float(spectral_decay)
        self.w = w
        self.t = float(t)
        self.beta = float(beta)
        self.noise = noise
        self.w_max = float(w_max)
        self.loss_spec = make_loss("squared", beta)
        ranks = np.arange(1, d + 1)
        self.eigenvalues = self.spectral_constant * self.spectral_decay**ranks
        self._scales = np.sqrt(self.eigenvalues)

    def _signal(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.w + self.t

    def _noise_quadrature(self):
        nodes, weights = np.polynomial.legendre.leggauss(self._QUAD_NODES)
        amp = self.noise[1]
        return nodes * amp, weights / 2.0  # weights sum to 1 on the scaled law

    def sample(self, n: int, seed: int):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, self.d)) * self._scales[None, :]
        s = self._signal(X)
        if self.noise is not None and self.noise[1] > 0:
            s = s + rng.uniform(-self.noise[1], self.noise[1], size=n)
        y = np.clip(s, -self.beta, self.beta)
        return X, y

    def bayes_predict(self, X) -> np.ndarray:
        s = self._signal(X)
        if self.noise is None or self.noise[1] == 0:
            return np.clip(s, -self.beta, self.beta)
        nodes, weights = self._noise_quadrature()
        clipped = np.clip(s[:, None] + nodes[None, :], -self.beta, self.beta)
        return clipped @ weights

    def bayes_risk(self, mc_n: int = 100_000, seed: int = 0) -> RiskEstimate:
        if self.noise is None or self.noise[1] == 0:
            return RiskEstimate(value=0.0, std_error=0.0, n_samples=0, exact=True)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((mc_n, self.d)) * self._scales[None, :]
        s = self._signal(X)
        nodes, weights = self._noise_quadrature()
        clipped = np.clip(s[:, None] + nodes[None, :], -self.beta, self.beta)
        mean = clipped @ weights
        second = (clipped**2) @ weights
        values = second - mean**2  # conditional variance of Y given X
        se = float(np.std(values, ddof=1) / math.sqrt(mc_n))
        return RiskEstimate(value=float(np.mean(values)), std_error=se, n_samples=mc_n)


# ---------------------------------------------------------------------------
# assumption checkers
# ---------------------------------------------------------------------------


def _diagnostic_profile(dist, mc_n: int, seed: int):
    """(probs, weights, margins, norms) — exact per-atom where available,
    otherwise a uniform-weight Monte-Carlo draw."""
    if hasattr(dist, "atom_profile"):
        probs, weights, margins, norms = dist.atom_profile()
        return probs, weights, margins, norms
    margins, weights, norms = dist.margin_profile(mc_n, seed)
    probs = np.full(margins.shape[0], 1.0 / margins.shape[0])
    return probs, weights, margins, norms


def _power_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares fit of y ~ C x^p on log-log axes; (C, p), or (None, None)
    when fewer than two positive masses remain."""
    keep = y > 0
    if np.count_nonzero(keep) < 2:
        return None, None
    slope, intercept = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)
    return float(np.exp(intercept)), float(slope)


def check_geometric_margin(dist, xi_grid, mc_n: int = 100_000, seed: int = 0,
                           C: float = 1.0, gamma: float | None = None) -> dict:
    """Band-mass diagnostic against the target C * xi^gamma.

    For each xi, measures the mass of the band within xi of the reference
    separator, both noise-weighted by |2 eta - 1| (which is what the
    assumption bounds) and unweighted.  The fitted exponent gamma_hat comes
    from the unweighted masses — the band's geometric growth — because the
    weighted integral grows with the geometric and noise exponents combined.
    Pass flags compare the weighted mass to C * xi^gamma.
    """
    gamma = gamma if gamma is not None else getattr(dist, "gamma", None)
    if gamma is None:
        raise ValueError("gamma must be supplied when the distribution does not carry one")
    xi_grid = np.asarray(xi_grid, dtype=float)
    probs, weights, margins, _ = _diagnostic_profile(dist, mc_n, seed)
    in_band = margins[None, :] <= xi_grid[:, None]
    weighted = in_band @ (probs * weights)
    unweighted = in_band @ probs
    C_hat, gamma_hat = _power_fit(xi_grid, unweighted)
    passes = np.array([_leq(wm, C * xi**gamma) for wm, xi in zip(weighted, xi_grid)])
    return {
        "xi_grid": xi_grid,
        "weighted_mass": weighted,
        "unweighted_mass": unweighted,
        "gamma_hat": gamma_hat,
        "C_hat": C_hat,
        "passes": passes,
        "C": C,
        "gamma": gamma,
    }


def check_moment(dist, s_grid, mc_n: int = 100_000, seed: int = 0,
                 C: float = 1.0, rho: float | None = None) -> dict:
    """Weighted tail-mass diagnostic against the target C * s^(-rho)."""
    rho = rho if rho is not None else getattr(dist, "rho", None)
    if rho is None:
        raise ValueError("rho must be supplied when the distribution does not carry one")
    s_grid = np.asarray(s_grid, dtype=float)
    probs, weights, _, norms = _diagnostic_profile(dist, mc_n, seed)
    in_tail = norms[None, :] > s_grid[:, None]
    weighted = in_tail @ (probs * weights)
    C_hat, slope = _power_fit(s_grid, weighted)
    rho_hat = None if slope is None else -slope
    passes = np.array([_leq(wm, C * s ** (-rho)) for wm, s in zip(weighted, s_grid)])
    return {
        "s_grid": s_grid,
        "weighted_tail": weighted,
        "rho_hat": rho_hat,
        "C_hat": C_hat,
        "passes": passes,
        "C": C,
        "rho": rho,
    }


def check_tsybakov(dist, eps_grid, mc_n: int = 100_000, seed: int = 0,
                   C: float = 1.0, alpha: float | None = None) -> dict:
    """Low-confidence mass P(|2 eta - 1| <= eps) against C * eps^(alpha/(1-alpha)).

    At alpha = 1 the target collapses to zero mass below eps = 1, which is
    what deterministic-label laws deliver.
    """
    alpha = alpha if alpha is not None else getattr(dist, "alpha", None)
    if alpha is None:
        raise ValueError("alpha must be supplied when the distribution does not carry one")
    eps_grid = np.asarray(eps_grid, dtype=float)
    probs, weights, _, _ = _diagnostic_profile(dist, mc_n, seed)
    mass = (weights[None, :] <= eps_grid[:, None]) @ probs
    _, exponent_hat = _power_fit(eps_grid, mass)
    if alpha >= 1.0:
        passes = np.array([m <= 1e-12 if e < 1.0 else True for m, e in zip(mass, eps_grid)])
        target = None
    else:
        target = alpha / (1.0 - alpha)
        passes = np.array([_leq(m, C * e**target) for m, e in zip(mass, eps_grid)])
    return {
        "eps_grid": eps_grid,
        "mass": mass,
        "exponent_hat": exponent_hat,
        "target_exponent": target,
        "passes": passes,
        "C": C,
        "alpha": alpha,
    }


def check_spectral_decay(X, top: int = 20) -> dict:
    """Fit lambda_r ~ C omega^r to the top empirical covariance eigenvalues.

    Rank deficiency (nonpositive eigenvalues inside the fitted range) is
    reported, not fatal; a single usable eigenvalue makes the fit degenerate
    and omega_hat comes back None.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("X must be an n x d sample with n >= 2")
    centered = X - X.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / X.shape[0]
    eigs = np.linalg.eigvalsh(cov)[::-1]
    use = eigs[: min(X.shape[1], top)]
    positive = use > max(1e-15, 1e-12 * float(use[0]))
    rank_deficient = bool(np.any(~positive))
    kept = use[positive]
    if kept.size < 2:
        return {
            "eigenvalues": use,
            "C_hat": float(kept[0]) if kept.size else None,
            "omega_hat": None,
            "rank_deficient": rank_deficient,
        }
    ranks = np.arange(1, kept.size + 1)
    slope, intercept = np.polyfit(ranks, np.log(kept), 1)
    return {
        "eigenvalues": use,
        "C_hat": float(np.exp(intercept)),
        "omega_hat": float(np.exp(slope)),
        "rank_deficient": rank_deficient,
    }


# ---------------------------------------------------------------------------
# declarative (de)serialization
# ---------------------------------------------------------------------------


def dist_to_config(dist) -> dict:
    """Serialize a distribution to a plain JSON-able dict."""
    if isinstance(dist, AssouadDist):
        return {
            "type": "assouad",
            "q": dist.q,
            "r": dist.r,
            "v": dist.v,
            "epsilon": dist.epsilon,
            "sigma": [int(s) for s in dist.sigma],
        }
    if isinstance(dist, GaussMarginDist):
        return {
            "type": "gauss_margin",
            "d": dist.d,
            "gamma": dist.gamma,
            "rho": dist.rho,
            "alpha": dist.alpha,
            "w": [float(x) for x in dist.w],
            "t": dist.t,
            "radius_cap": dist.radius_cap,
        }
    if isinstance(dist, RegressionDist):
        return {
            "type": "regression",
            "d": dist.d,
            "spectral_constant": dist.spectral_constant,
            "spectral_decay": dist.spectral_decay,
            "w": [float(x) for x in dist.w],
            "t": dist.t,
            "beta": dist.beta,
            "noise": None if dist.noise is None else {"kind": dist.noise[0], "amplitude": dist.noise[1]},
            "w_max": dist.w_max,
        }
    if isinstance(dist, FiniteSupportDist):
        return {
            "type": "finite",
            "points": dist.points.tolist(),
            "probs": dist.probs.tolist(),
            "label_values": dist.label_values.tolist(),
            "label_probs": dist.label_probs.tolist(),
            "loss": {"kind": dist.loss_spec.kind, "beta": dist.loss_spec.beta},
        }
    raise TypeError(f"cannot serialize distribution of type {type(dist).__name__}")


class ConfigError(ValueError):
    """Config validation failure; the message starts with the offending field path."""


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _object(value, path: str, known) -> dict:
    """``value``, once it is an object at ``path`` with no key outside ``known``."""
    _require(isinstance(value, dict), path, "must be an object")
    for key in value:
        _require(key in known, f"{path}.{key}" if path else key, "unknown config key")
    return value


# JSON true/false arrive as bool, which subclasses int: both field helpers
# reject it explicitly so that `true` never passes as 1.  Neither converts a
# string or truncates a fraction.  Python's json also parses NaN, Infinity
# and -Infinity, and integers past the float range, which every number
# reader refuses.
def _int_field(value, path: str, minimum: int = 1) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
        path,
        f"must be an integer >= {minimum}",
    )
    return value


def _number_field(value, path: str, message: str = "must be a number", in_range=None) -> float:
    """A finite real number; ``in_range``, when given, is a further test it
    must pass."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), path, message)
    _require(abs(value) <= sys.float_info.max, path, "must be finite")
    _require(in_range is None or in_range(value), path, message)
    return float(value)


def _numbers(value, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    _require(arr is not None and arr.dtype.kind in "iuf", path, "must be an array of numbers")
    arr = arr.astype(float)
    _require(np.all(np.isfinite(arr)), path, "must hold finite numbers only")
    return arr


def _noise(value, path: str) -> tuple:
    _object(value, path, {"kind", "amplitude"})
    return value.get("kind"), _number_field(value.get("amplitude"), f"{path}.amplitude")


def _loss(value, path: str) -> LossSpec:
    _object(value, path, {"kind", "beta"})
    kind = value.get("kind")
    _require(kind in LOSS_KINDS, f"{path}.kind", f"must be one of {LOSS_KINDS}")
    beta = _number_field(
        value.get("beta", 1.0), f"{path}.beta", "must be positive", lambda v: v > 0
    )
    return make_loss(kind, beta)


_REQUIRED = object()

#: Each distribution type's class and the fields of its config, as
#: field -> (reader, default).  A field whose default is None may be null.
_CONFIG_SCHEMA = {
    "assouad": (AssouadDist, {
        "q": (_int_field, _REQUIRED),
        "r": (_number_field, _REQUIRED),
        "v": (_number_field, _REQUIRED),
        "epsilon": (_number_field, _REQUIRED),
        "sigma": (_numbers, None),
    }),
    "gauss_margin": (GaussMarginDist, {
        "d": (_int_field, _REQUIRED),
        "gamma": (_number_field, _REQUIRED),
        "rho": (_number_field, _REQUIRED),
        "alpha": (_number_field, _REQUIRED),
        "w": (_numbers, None),
        "t": (_number_field, 0.0),
        "radius_cap": (_number_field, 1e3),
    }),
    "regression": (RegressionDist, {
        "d": (_int_field, _REQUIRED),
        "spectral_constant": (_number_field, _REQUIRED),
        "spectral_decay": (_number_field, _REQUIRED),
        "w": (_numbers, _REQUIRED),
        "t": (_number_field, 0.0),
        "beta": (_number_field, 1.0),
        "noise": (_noise, None),
        "w_max": (_number_field, 10.0),
    }),
    "finite": (FiniteSupportDist, {
        "points": (_numbers, _REQUIRED),
        "probs": (_numbers, _REQUIRED),
        "label_values": (_numbers, _REQUIRED),
        "label_probs": (_numbers, _REQUIRED),
        "loss": (_loss, {"kind": "zero_one"}),
    }),
}


def dist_from_config(config: dict):
    """Inverse of dist_to_config.

    Raises ConfigError for an unknown type or field, and for a field of the
    wrong kind: an integer field takes only integers, a number field only
    numbers, and neither takes JSON true or false.
    """
    kind = config.get("type") if isinstance(config, dict) else None
    _require(
        isinstance(kind, str) and kind in _CONFIG_SCHEMA,
        "type",
        f"must be one of {tuple(_CONFIG_SCHEMA)}",
    )
    cls, fields = _CONFIG_SCHEMA[kind]
    _object(config, "", {"type", *fields})
    kwargs = {}
    for name, (read, default) in fields.items():
        value = config.get(name, default)
        kwargs[name] = None if value is None and default is None else read(value, name)
    return cls(**kwargs)

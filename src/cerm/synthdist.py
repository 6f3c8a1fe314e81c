"""Synthetic data distributions with analytic Bayes structure.

Four families:

* ``FiniteSupportDist`` — an explicit discrete law over labeled atoms, held
  as a dense array or an ``AxisPoints`` set; every risk computed under it is
  an exact finite sum.
* ``AssouadDist`` — the hypercube-indexed family on q + 1 orthogonal axes that
  drives minimax lower bounds: a finite-support law over q + 1 axis atoms, a
  heavy clean atom at e_0 and q light atoms at radius r whose labels flip
  with the sign pattern sigma.
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
``atoms()``; continuous classification laws add ``eta``.  The two dense laws
add ``draw_blocks(n, seed, visit)``: the points of the draw ``sample`` makes,
handed over one row block at a time with no label drawn, which the
Monte-Carlo risk estimators score without holding the n x d array;
``sample`` writes that draw into one array and draws its labels after it.
``GaussMarginDist`` adds ``draw_scores(V, n, seed, visit)`` and ``eta_at``:
the scores X @ V of n draws for a d x r weight matrix V, and their signed
margins, drawn in the span of V and w without forming X, so that linear
rules are scored in O(r) numbers a draw whatever d is.  The
assumption checkers additionally use ``atom_profile()`` (exact per-atom
masses, noise weights, margins, and norms) or ``margin_profile(n, seed)`` (a
Monte-Carlo draw of the same quantities).  Margins and signals are formed by
``projections._rows_dot``, and every row block is one of ``_row_blocks``.

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

from .losses import LOSS_KINDS, LossDomainError, LossSpec, bayes_action, eval_loss, make_loss
from .projections import AxisPoints, _longest_block, _row_blocks, _rows_dot
from .riskbounds import RiskEstimate, _atom_conditional_risks, _mc_estimate

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
    """A discrete law: atom i is row i of ``points``, with probability
    probs[i] and conditional label distribution (label_values[i],
    label_probs[i]).

    ``points`` is an s x d array or an ``AxisPoints`` set.  All risks under
    such a law are exact finite sums, which is what makes it the reference
    oracle for the estimator and ensemble property tests.  The nearest-atom
    ``bayes_predict`` is for dense atoms; a law on axis atoms supplies its
    own.
    """

    def __init__(self, points, probs, label_values, label_probs, loss: LossSpec):
        if not isinstance(points, AxisPoints):
            points = np.asarray(points, dtype=float)
            if points.ndim != 2:
                raise ValueError("points: must be s x d")
        self.points = points
        self.probs = np.asarray(probs, dtype=float)
        self.label_values = np.asarray(label_values, dtype=float)
        self.label_probs = np.asarray(label_probs, dtype=float)
        self.loss_spec = loss
        s = len(points)
        if self.probs.shape != (s,):
            raise ValueError("probs: must have one entry per atom")
        if np.any(self.probs < 0) or abs(float(np.sum(self.probs)) - 1.0) > 1e-12:
            raise ValueError("probs: must be nonnegative and sum to 1")
        if self.label_values.ndim != 2 or self.label_values.shape[0] != s:
            raise ValueError("label_values: must be an s x L array, one row per atom")
        if self.label_probs.shape != self.label_values.shape:
            raise ValueError("label_probs: must match the shape of label_values")
        row_sums = np.sum(self.label_probs, axis=1)
        if np.any(self.label_probs < 0) or np.any(np.abs(row_sums - 1.0) > 1e-12):
            raise ValueError("label_probs: rows must be distributions")
        # Label domain check: every listed label value must be legal for the
        # loss, padded entries included.
        probe = 1.0 if loss.kind == "zero_one" else 0.0
        try:
            eval_loss(loss, probe, self.label_values)
        except LossDomainError as exc:
            raise LossDomainError(f"label_values: {exc}") from exc

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
        nearest = np.empty(X.shape[0], dtype=np.intp)
        # a block's rows x atoms x d differences take about one row block
        for rows in _row_blocks(X.shape[0], self.points.size):
            nearest[rows] = np.argmin(((X[rows, None, :] - self.points) ** 2).sum(axis=2), axis=1)
        return self.bayes_actions()[nearest]

    def bayes_risk(self) -> RiskEstimate:
        per_atom = _atom_conditional_risks(
            self.loss_spec, self.bayes_actions(), self.label_values, self.label_probs
        )
        return RiskEstimate(
            value=float(np.sum(self.probs * per_atom)),
            std_error=0.0,
            n_samples=len(self.probs),
            exact=True,
        )

    def sample(self, n: int, seed: int):
        """n i.i.d. draws (X, y): atoms by their masses, then each row's label
        by its atom's law.  X has the type of ``points``; a draw costs O(n)
        beyond the O(s) mass table of the atom draw."""
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self.probs), size=n, p=self.probs)
        X = self.points[idx]
        u = rng.random(n)
        cum = np.cumsum(self.label_probs[idx], axis=1)
        label_idx = np.argmax(u[:, None] < cum, axis=1)
        y = self.label_values[idx, label_idx]
        return X, y


# ---------------------------------------------------------------------------
# Assouad-style lower-bound family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssouadParams:
    """Parameters of one hypercube family member, echoing the exponents they
    were built for."""

    q: int
    r: float
    v: float
    epsilon: float
    gamma: float
    rho: float
    alpha: float


class AssouadDist(FiniteSupportDist):
    """q + 1 atoms on orthogonal axes in R^(q+1): a finite-support law.

    The heavy atom x_0 = e_0 has mass 1 - v and a deterministic +1 label; the
    light atoms x_l = r e_l (l = 1..q) have mass v/q each and labels with
    eta(x_l) = (1 + epsilon sigma_l) / 2.  The reference separator is the unit
    vector (e_0 + q^(-1/2) sum sigma_l e_l) / sqrt(2) with offset 0, putting
    the heavy atom at margin 1/sqrt(2) and the light atoms at r / sqrt(2 q).

    The atoms are an ``AxisPoints`` set, atom l on axis l, and the label
    columns are (+1, -1), so ``FiniteSupportDist`` samples, lists and sums
    the law with no coordinates built.  ``eta`` and ``bayes_predict`` read
    the atom of each row of an ``AxisPoints`` set.
    """

    def __init__(self, q: int, r: float, v: float, epsilon: float, sigma=None):
        if q < 1:
            raise ValueError("q: must be >= 1")
        if not 1.0 <= r <= math.sqrt(q) * (1.0 + _REL_TOL):
            raise ValueError(f"r: must lie in [1, sqrt(q)], got {r}")
        if not 0.0 < v <= 1.0:
            raise ValueError("v: must lie in (0, 1]")
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon: must lie in (0, 1/2)")
        if sigma is None:
            sigma = np.ones(q)
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (q,) or not np.all((sigma == 1.0) | (sigma == -1.0)):
            raise ValueError("sigma: must be a length-q vector of +-1")
        self.q = q
        self.r = float(r)
        self.v = float(v)
        self.epsilon = float(epsilon)
        self.sigma = sigma
        eta = np.concatenate([[1.0], (1.0 + self.epsilon * sigma) / 2.0])
        super().__init__(
            AxisPoints(np.arange(q + 1), np.concatenate([[1.0], np.full(q, self.r)]), q + 1),
            np.concatenate([[1.0 - self.v], np.full(q, self.v / q)]),
            np.tile([1.0, -1.0], (q + 1, 1)),
            np.stack([eta, 1.0 - eta], axis=1),
            make_loss("zero_one"),
        )

    def atom_profile(self):
        """(probs, |2 eta - 1|, |margin|, norm) per atom, no coordinates built."""
        weights = np.concatenate([[1.0], np.full(self.q, self.epsilon)])
        margins = np.concatenate(
            [[1.0 / math.sqrt(2.0)], np.full(self.q, self.r / math.sqrt(2.0 * self.q))]
        )
        return self.probs, weights, margins, self.points.scales

    def eta(self, X: AxisPoints) -> np.ndarray:
        return self.label_probs[X.axes, 0]

    def bayes_predict(self, X: AxisPoints) -> np.ndarray:
        return self.bayes_actions()[X.axes]


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
    return AssouadParams(q=q, r=r, v=v, epsilon=epsilon, gamma=gamma, rho=rho, alpha=alpha)


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
    atom = int(flips[0]) + 1
    mass = dist_a.probs[atom]
    eta_a = dist_a.label_probs[atom, 0]
    eta_b = dist_b.label_probs[atom, 0]
    return mass * (eta_a - eta_b) ** 2 * (1.0 / eta_b + 1.0 / (1.0 - eta_b))


# ---------------------------------------------------------------------------
# continuous classification family
# ---------------------------------------------------------------------------


def _normal_blocks(rng, n: int, d: int, out=None):
    """Yield (rows, block) for each of ``_row_blocks(n, d)``, the block filled
    with those rows of ``rng.standard_normal((n, d))`` bit for bit: the
    generator fills an array in C order, so drawing it block by block takes
    the same stream.  A block is ``out[rows]`` when ``out`` is given, else
    the front of one buffer reused for every block."""
    if out is None:
        buffer = np.empty((_longest_block(n, d), d))
    for rows in _row_blocks(n, d):
        block = buffer[: rows.stop - rows.start] if out is None else out[rows]
        rng.standard_normal(out=block)
        yield rows, block


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
            raise ValueError("d: must be >= 2 for an off-margin direction")
        for name, value in (("gamma", gamma), ("rho", rho)):
            if value <= 0:
                raise ValueError(f"{name}: must be positive")
        if not 0 <= alpha <= 1:
            raise ValueError("alpha: must lie in [0, 1]")
        if radius_cap <= 1:
            raise ValueError("radius_cap: must exceed 1")
        if w is None:
            w = np.zeros(d)
            w[0] = 1.0
        w = np.asarray(w, dtype=float)
        if w.shape != (d,):
            raise ValueError("w: must be a d-vector")
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            raise ValueError("w: must be a unit vector")
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

    def eta_at(self, m: np.ndarray) -> np.ndarray:
        """eta at signed margins m; a margin of 0 counts as positive."""
        sign = np.where(m >= 0.0, 1.0, -1.0)
        return (1.0 + sign * self._confidence(np.abs(m))) / 2.0

    def margin_of(self, X) -> np.ndarray:
        return _rows_dot(X, self.w) - self.t

    def eta(self, X) -> np.ndarray:
        return self.eta_at(self.margin_of(X))

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

    def draw_blocks(self, n: int, seed: int, visit=None, out=None) -> np.ndarray | None:
        """The draw of ``sample(n, seed)``, one ``_row_blocks`` block of X at a
        time.

        Each block is built in place in its part of the Gaussian draw: each
        row is projected off w, scaled to unit length and then to its
        radius, and shifted by (M + t) w.  ``visit(rows, block)`` then sees
        it, before the next block overwrites it.  With ``out``, an n x d
        array, the blocks are written into ``out[rows]`` and kept, and the
        n labels y are drawn after them and returned; without, no label is
        drawn and None is returned.
        """
        rng = np.random.default_rng(seed)
        m, radius = self._draw_margin_radius(n, rng)
        shift = m + self.t
        for rows, g in _normal_blocks(rng, n, self.d, out):
            g -= _rows_dot(g, self.w)[:, None] * self.w[None, :]
            norms = np.linalg.norm(g, axis=1)
            bad = norms < 1e-30
            if np.any(bad):
                g[bad] = self._orthogonal_fallback()
                norms[bad] = 1.0
            g /= norms[:, None]
            g *= radius[rows, None]
            g += shift[rows, None] * self.w[None, :]
            if visit is not None:
                visit(rows, g)
        return None if out is None else np.where(rng.random(n) < self.eta_at(m), 1.0, -1.0)

    def sample(self, n: int, seed: int):
        """n labeled draws (X, y), a pure function of (n, seed): the block
        draw written into one n x d array, with no n x d temporary."""
        X = np.empty((n, self.d))
        return X, self.draw_blocks(n, seed, out=X)

    def draw_scores(self, V, n: int, seed: int, visit) -> None:
        """The scores X @ V of n draws of X and their signed margins M,
        handed to ``visit(S, M)`` one row block at a time; no x is formed.

        V is d x r.  With x = (M + t) w + R Theta, x.V = (M + t) w.V +
        R Theta.V', where V' = (I - w w^T) V.  A Householder reflection H
        takes w to a multiple of e_1 and w's complement to the last d - 1
        coordinates, where V' reads P = (H V)[1:].  Write P = Q B with Q
        orthonormal, (d - 1) x s, s = min(r, d - 1): B is P itself when
        s = d - 1 and the R factor of P's QR otherwise.  Theta's coordinates
        along Q are those of a uniform unit vector of R^(d - 1), that is
        h / sqrt(|h|^2 + C) with h ~ N(0, I_s) and C ~ chi^2(d - 1 - s)
        independent (C = 0 when s = d - 1).  So the scores cost O(r s) a
        row whatever d is.  Each block draws its M and R as ``sample`` does,
        then its C, then its h; the draw is a pure function of (V, n, seed).
        """
        V = np.asarray(V, dtype=float)
        d, r = V.shape
        w = self.w
        along = np.einsum("i,ij->j", w, V)
        # H = I - 2 u u^T / u.u with u = w + sign(w_1) e_1
        u = w.copy()
        u[0] += 1.0 if w[0] >= 0.0 else -1.0
        coefficients = np.einsum("i,ij->j", u, V) * (2.0 / np.einsum("i,i->", u, u))
        P = V[1:] - np.outer(u[1:], coefficients)
        s = min(r, d - 1)
        B = P if s == d - 1 else np.linalg.qr(P, mode="r")
        dof = d - 1 - s
        # S = [h R / sqrt(|h|^2 + C), M + t] @ [B; w.V], one product a block,
        # summed over its s + 1 terms in order: a BLAS product's rounding
        # depends on its thread count
        lift = np.ascontiguousarray(np.vstack([B, along]).T)
        rng = np.random.default_rng(seed)
        # a block row holds r scores, s normals and a few per-row values
        for rows in _row_blocks(n, r + s + 8):
            b = rows.stop - rows.start
            m, radius = self._draw_margin_radius(b, rng)
            sq = rng.chisquare(dof, size=b) if dof else np.zeros(b)
            G = np.empty((s + 1, b))
            h = G[:s]
            rng.standard_normal(out=h)
            sq += np.einsum("ij,ij->j", h, h)
            h *= radius / np.sqrt(sq)
            np.add(m, self.t, out=G[s])
            visit(np.einsum("ik,kj->ij", lift, G).T, m)

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
        return _mc_estimate((1.0 - self._confidence(margin_abs)) / 2.0)


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
    over the noise law, one row block at a time, with the rule scaled once
    when the law is built — a numeric oracle, not an asserted formula.
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
            raise ValueError("d: must be >= 1")
        if spectral_constant < 1.0:
            raise ValueError("spectral_constant: must be >= 1")
        if not 0.0 < spectral_decay < 1.0:
            raise ValueError("spectral_decay: must lie in (0, 1)")
        if beta <= 0:
            raise ValueError("beta: must be positive")
        w = np.asarray(w, dtype=float)
        if w.shape != (d,):
            raise ValueError("w: must be a d-vector")
        norm = float(np.linalg.norm(w))
        if norm > w_max:
            raise ValueError(f"w: ||w|| = {norm:.4g} exceeds the class radius {w_max}; not rescaling")
        if noise is not None:
            kind, amplitude = noise
            if kind != "bounded_uniform":
                raise ValueError(f"noise: unknown noise model {kind!r}")
            if amplitude < 0:
                raise ValueError("noise: amplitude must be nonnegative")
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
        if noise is not None and noise[1] > 0:
            # the Gauss-Legendre rule scaled to the noise law, whose weights sum to 1
            nodes, weights = np.polynomial.legendre.leggauss(self._QUAD_NODES)
            self._nodes, self._weights = nodes * noise[1], weights / 2.0

    def _signal(self, X) -> np.ndarray:
        return _rows_dot(X, self.w) + self.t

    def _label_moments(self, s: np.ndarray, second: bool = False) -> np.ndarray:
        """E[Y | s], and E[Y^2 | s] as a second row if ``second``, at signals s = w.x + t."""
        moments = np.empty((1 + second, s.shape[0]))
        for rows in _row_blocks(s.shape[0], self._QUAD_NODES):
            clipped = np.clip(s[rows, None] + self._nodes, -self.beta, self.beta)
            moments[0, rows] = _rows_dot(clipped, self._weights)
            if second:
                moments[1, rows] = _rows_dot(np.square(clipped, out=clipped), self._weights)
        return moments

    def draw_blocks(self, n: int, seed: int, visit=None, out=None) -> np.ndarray | None:
        """The draw of ``sample(n, seed)``, one ``_row_blocks`` block of X at a
        time.

        Each block is its part of the Gaussian draw scaled in place, and
        ``visit(rows, block)`` sees it before the next block overwrites it.
        With ``out``, an n x d array, the blocks are written into
        ``out[rows]`` and kept, and the n labels y are returned: the signals
        of ``out``, whose row blocks are the draw's own, plus the noise
        drawn after the last block.  Without, no label is drawn and None is
        returned.
        """
        rng = np.random.default_rng(seed)
        for rows, block in _normal_blocks(rng, n, self.d, out):
            block *= self._scales[None, :]
            if visit is not None:
                visit(rows, block)
        if out is None:
            return None
        s = self._signal(out)
        if self.noise is not None and self.noise[1] > 0:
            s += rng.uniform(-self.noise[1], self.noise[1], size=n)
        return np.clip(s, -self.beta, self.beta, out=s)

    def sample(self, n: int, seed: int):
        """n labeled draws (X, y), a pure function of (n, seed): the block
        draw written into one n x d array."""
        X = np.empty((n, self.d))
        return X, self.draw_blocks(n, seed, out=X)

    def bayes_predict(self, X) -> np.ndarray:
        s = self._signal(X)
        if self.noise is None or self.noise[1] == 0:
            return np.clip(s, -self.beta, self.beta)
        return self._label_moments(s)[0]

    def bayes_risk(self, mc_n: int = 100_000, seed: int = 0) -> RiskEstimate:
        if self.noise is None or self.noise[1] == 0:
            return RiskEstimate(value=0.0, std_error=0.0, n_samples=0, exact=True)
        s = np.empty(mc_n)

        def keep_signal(rows, block):
            s[rows] = self._signal(block)

        self.draw_blocks(mc_n, seed, keep_signal)
        mean, second = self._label_moments(s, second=True)
        return _mc_estimate(second - mean**2)  # the conditional variance of Y given X


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
# distributions from declarative configs
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Config validation failure; the message starts with the offending field path."""


def _require(cond: bool, path: str, message: str):
    """Refuse unless ``cond``, naming the field at ``path``; an empty path,
    the whole config, gives the message alone."""
    if not cond:
        raise ConfigError(f"{path}: {message}" if path else message)


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


def _number_in(message: str, in_range):
    """A reader of a number that must pass ``in_range``; ``message`` refuses the rest."""
    return lambda value, path: _number_field(value, path, message, in_range)


def _one_of(choices: tuple, message: str | None = None):
    """A reader of a field that must equal one of ``choices``."""
    message = message or f"must be one of {choices}"

    def read(value, path: str):
        _require(value in choices, path, message)
        return value

    return read


_REQUIRED = object()


def _read_fields(obj, path: str, fields: dict, extra=()) -> dict:
    """The parsed ``fields``, field -> (reader, default), of the object at ``path``.

    A key outside ``fields`` and ``extra`` (keys the caller reads) is refused.
    A missing key takes its default; _REQUIRED goes to the reader, which
    refuses it.  A field whose default is None may be null, and reads as None.
    """
    _require(isinstance(obj, dict), path, "must be an object")
    prefix = f"{path}." if path else ""
    for key in obj:
        _require(key in fields or key in extra, prefix + key, "unknown config key")
    values = {}
    for name, (read, default) in fields.items():
        value = obj.get(name, default)
        values[name] = None if value is None and default is None else read(value, prefix + name)
    return values


def _noise(value, path: str) -> tuple:
    fields = {"kind": (_one_of(("bounded_uniform",)), _REQUIRED), "amplitude": (_number_field, _REQUIRED)}
    return tuple(_read_fields(value, path, fields).values())


def _loss(value, path: str) -> LossSpec:
    fields = {
        "kind": (_one_of(LOSS_KINDS), _REQUIRED),
        "beta": (_number_in("must be positive", lambda v: v > 0), 1.0),
    }
    return make_loss(**_read_fields(value, path, fields))


#: Each distribution type's class and the fields of its config, as
#: field -> (reader, default), read by ``_read_fields``.
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
    """Build the distribution a JSON config describes.

    Raises ConfigError for an unknown type or field, and for a field of the
    wrong kind: an integer field takes only integers, a number field only
    numbers, and neither takes JSON true or false.
    """
    kind = config.get("type") if isinstance(config, dict) else None
    cls, fields = _CONFIG_SCHEMA[_one_of(tuple(_CONFIG_SCHEMA))(kind, "type")]
    return cls(**_read_fields(config, "", fields, extra=("type",)))

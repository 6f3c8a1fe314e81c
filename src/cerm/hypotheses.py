"""Low-dimensional linear predictors and their empirical risk minimizers.

Two hypothesis classes over compressed inputs u in R^k:

* sign-linear classifiers  u -> sign(w.u - t), with sign(0) = +1;
* clipped-linear regressors u -> clip(w.u - t, -beta, beta).

A rule fit on compressed inputs u = A x is scored on x itself through
``LinearHypothesis.pull_back(A)``, the same rule with weights A^T w.

Three solvers:

* ``erm_exact_classification`` — empirical zero-one risk minimization by a
  rotational sweep: about every point at k <= 2, in O(n^2 log n), and about
  every line through two points at k = 3, in O(n^3 log n).  The sweep turns
  a hyperplane about each pivot and counts the errors on every arc between
  critical directions; its rule must make exactly the errors it counted, or
  the solve raises SweepUncertifiedError, so the result is a certified
  global minimizer at every k.  Guarded to k <= 3 and n <= 200.
* ``erm_surrogate_classification`` — damped Newton on the logistic
  surrogate over the k + 1 parameters (w, t), reporting the zero-one risk of
  the result, for scales the exact solver does not take.  It converges in
  a handful of steps, and it stops as soon as the training points are
  separated, where the surrogate has no minimizer.  Its logistic weights
  come from ``_expit``, the sigmoid 1 / (1 + exp(-x)) in numpy.
* ``erm_regression`` — subgradient descent with a backtracking step size on
  the clipped-linear empirical risk (squared or kl), initialized at the
  ordinary least squares solution for the squared loss.  The clip's
  subgradient is the identity inside [-beta, beta] and 0 outside.  Like the
  Newton solver, it forms its scores as Z x over the design Z = [U, -1],
  here held column-major, so its result does not depend on U's layout.

``fit`` is the one dispatch from a (loss, solver) pair to these solvers.
Its ``iters`` caps the Newton steps of the surrogate classifier and the
descent steps of the regression solver; the exact solver takes no cap.

Every report's ``empirical_risk`` is recomputed from the returned hypothesis
on the training pairs, never taken from solver internals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, _loss_values, eval_loss
from .projections import AxisPoints

__all__ = [
    "LinearHypothesis",
    "ErmReport",
    "ScaleGuardError",
    "SweepUncertifiedError",
    "erm_exact_classification",
    "erm_surrogate_classification",
    "erm_regression",
    "fit",
    "ols_init",
]

EXACT_MAX_K = 3
EXACT_MAX_N = 200


class ScaleGuardError(ValueError):
    """Raised when the exact solver is asked to exceed its size limits."""


class SweepUncertifiedError(RuntimeError):
    """Raised when the exact solver's sweep finds a best arc but the rule it
    builds from it does not make the counted errors.

    This happens on near-degenerate inputs, where the best rule must separate
    points closer than its floating-point evaluation resolves.
    """


@dataclass(frozen=True, eq=False)
class LinearHypothesis:
    """A linear rule u -> w.u - t, rendered as a sign or clipped to a range.

    Its inputs are the rows of an n x dim(w) array or an ``AxisPoints`` set
    of dimension dim(w), whose row j scores ``scales[j] * w[axes[j]] - t``.
    """

    w: np.ndarray
    t: float
    mode: str  # "sign" or "clip"
    beta: float = 1.0

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 1:
            raise ValueError("w must be a 1-d vector")
        if not (np.all(np.isfinite(w)) and np.isfinite(self.t)):
            raise ValueError("hypothesis parameters must be finite")
        if self.mode not in ("sign", "clip"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "clip" and self.beta <= 0:
            raise ValueError("clip mode needs beta > 0")

    def raw(self, U) -> np.ndarray:
        if isinstance(U, AxisPoints):
            if U.d != self.w.shape[0]:
                raise ValueError(f"expected n x {self.w.shape[0]} input, got shape {U.shape}")
            return U.scales * self.w[U.axes] - self.t
        U = np.asarray(U, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.w.shape[0]:
            raise ValueError(f"expected n x {self.w.shape[0]} input, got shape {U.shape}")
        return U @ self.w - self.t

    def predict(self, U: np.ndarray) -> np.ndarray:
        s = self.raw(U)
        if self.mode == "sign":
            return np.where(s >= 0.0, 1.0, -1.0)
        return np.clip(s, -self.beta, self.beta)

    def pull_back(self, matrix: np.ndarray) -> LinearHypothesis:
        """The same rule ahead of a k x d map A: x -> (A^T w).x - t on R^d.

        Its prediction on x is this rule's prediction on ``A @ x``, up to
        the rounding of the two products, so a compressed predictor can be
        scored on uncompressed inputs without projecting them.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != self.w.shape[0]:
            raise ValueError(f"expected a {self.w.shape[0]} x d map, got shape {matrix.shape}")
        return LinearHypothesis(w=matrix.T @ self.w, t=self.t, mode=self.mode, beta=self.beta)


@dataclass(frozen=True, eq=False)
class ErmReport:
    """Outcome of one ERM solve.

    ``empirical_risk`` is the returned hypothesis's risk on the training
    pairs; for ``solver == "exact"`` it is the sweep's certified global
    minimum.
    ``objective_checkpoints`` traces the solver's objective for monotonicity
    diagnostics: at the start and after every Newton step for the surrogate
    classifier, at the start, every 50 descent steps and the end for
    regression, and None for the exact solver.
    """

    hypothesis: LinearHypothesis
    empirical_risk: float
    solver: str  # "exact" or "surrogate"
    objective_checkpoints: tuple | None = None


def _validate_classification(U, y):
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ValueError("U must be an n x k array")
    y = np.asarray(y, dtype=float)
    if y.shape != (U.shape[0],):
        raise ValueError("y must have one label per row of U")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("labels must be in {-1, +1}")
    return U, y


def _zero_one_risk(h: LinearHypothesis, U, y) -> float:
    return float(np.mean(h.predict(U) != y))


def _best_constant(y_pos: np.ndarray, k: int) -> tuple[int, np.ndarray]:
    """The better constant rule as (errors, v); v = (0, ..., 0, -1) predicts +1."""
    n_pos = int(np.count_nonzero(y_pos))
    v = np.zeros(k + 1)
    v[k] = -1.0
    if n_pos < y_pos.size - n_pos:
        return n_pos, -v
    return y_pos.size - n_pos, v


# ---------------------------------------------------------------------------
# exact zero-one ERM by rotational sweep
# ---------------------------------------------------------------------------
#
# A sign rule u -> sign(w.u - t) splits the points by a hyperplane.  In the
# plane (k <= 2), any labeling a line realizes with points on both sides is
# also realized by a line through one point p (the pivot) whose normal lies
# inside an open arc between critical normals: slide the line until it first
# touches a point; if it then holds several, pivot on an extreme one and turn
# the line slightly so the others fall back on the side they came from.  Only
# p's exact duplicates stay on the line, and a small shift puts them on
# either side.  Another point q changes side only where the normal is
# orthogonal to d = q - p.  Turning the normal through half a circle,
# (-pi/2, pi/2], covers both orientations, because the opposite normal puts
# every point off the line on its other side.  Sorting the n - 1 critical
# normals per pivot and summing the side changes counts the errors on every
# arc: O(n log n) per pivot, O(n^2 log n) in all (Johnson & Preparata, "The
# densest hemisphere problem", TCS 6, 1978).
#
# At k = 3 the pivot is the line through two distinct points p and q, with
# d = q - p.  The planes through that line have the normals N orthogonal to
# d, and a point x lies on the side (x - p).N = nu.c of such a plane, where
# c = d x (x - p) and N = nu x d.  c is orthogonal to d, so it is known by
# its two entries off the axis of d's largest entry, and nu is taken in the
# plane of those two axes: the sweep about the line is the planar sweep of
# the vectors c about 0.  The group that stays on the plane is the points on
# the line, where c = 0, and it takes its cheaper side.  This is complete:
# a realizable labeling with both sides nonempty is an open cone C of
# (w, t).  If the points are not coplanar, a vertex of C's cross-section lies
# on the plane of at least three non-collinear points.  By the separating
# axis theorem, the labeling of that plane's points has a hull edge, of one
# side's hull, whose line separates the two sides; so C has a 2-face whose
# tight points, the points on one line pq, all carry one label, and the
# relative interior of that face is an open arc of the sweep about (p, q).
# Coplanar points run the same argument inside their plane.  Collinear points
# are a 1-d problem, swept on their positions along the line.  All later q of
# one p are swept at once, O(n log n) per line and O(n^3 log n) in all.
#
# Collinear and antipodal vectors give the same critical normal.  It must be
# one boundary, not two an ulp apart with a zero-length "arc" between them,
# so sorted neighbours merge when their cross product is exactly 0.


def _best_arc(dx, dy, y_pos, best, lift):
    """Count the errors on every arc about a batch of pivots.

    Row r of the (r, n) arrays dx, dy holds one planar vector per point,
    whose dot product with a normal nu gives the point's side about the
    row's pivot; the zero vectors are the pivot's group.  ``lift(r, nu)``
    maps row r's planar normal to (w, s, s0): the rule's weights, every
    point's score s = u.w and the pivot's score.  The rule puts the group on
    its cheaper side and its threshold halfway across the gap along s.
    Returns ``best``, an (errors, v) pair, unless an arc beats it; ties go
    to the first row and arc.
    """
    r, n = dx.shape
    dup = (dx == 0.0) & (dy == 0.0)  # the pivot's group
    # A point's critical normal is its vector turned +90 degrees, where the
    # point leaves the + side as the normal turns counterclockwise, or its
    # negation, where it rejoins it: whichever has cx > 0, or cx = 0 and
    # cy > 0.  Adding 0.0 clears signed zeros, so a vertical normal always
    # sorts at +pi/2.
    cx, cy = -dy, dx
    leaves = (cx > 0.0) | ((cx == 0.0) & (cy > 0.0))
    cx = np.where(leaves, cx, -cx) + 0.0
    cy = np.where(leaves, cy, -cy) + 0.0
    angle = np.where(dup, np.inf, np.arctan2(cy, cx))  # the group sorts last
    order = np.argsort(angle, axis=1)
    flat = order + n * np.arange(r)[:, None]
    angle, cx, cy = angle.ravel()[flat], cx.ravel()[flat], cy.ravel()[flat]
    # Leaving costs an error when the label is +1 and saves one otherwise.
    flip = np.where(y_pos, 1, -1)
    step = np.where(leaves, flip, -flip).ravel()[flat]

    # Just counterclockwise of -pi/2 the normal is (0+, -1): a point is + iff
    # dy < 0, or dy = 0 and dx > 0.
    plus0 = (dy < 0.0) | ((dy == 0.0) & (dx > 0.0))
    errors0 = np.count_nonzero((plus0 != y_pos) & ~dup, axis=1)[:, None]
    # The count after crossing sorted normal c holds up to normal c + 1
    # unless the two are the same; after the last one it is errors0 again.
    errors = np.concatenate([errors0, errors0 + np.cumsum(step, axis=1)[:, :-1]], axis=1)
    cross = cx[:, :-1] * cy[:, 1:] - cy[:, :-1] * cx[:, 1:]
    opens = np.isfinite(angle[:, 1:]) & (cross != 0.0)

    group = np.count_nonzero(dup, axis=1)
    group_plus = np.count_nonzero(dup & y_pos, axis=1)
    group_minus = group - group_plus
    valid = np.concatenate([(group < n)[:, None], opens], axis=1)
    turned = (n - group)[:, None] - errors  # the opposite normal's count
    cost = np.minimum(errors, turned) + np.minimum(group_plus, group_minus)[:, None]
    cost = np.where(valid, cost, n + 1)
    i, c = divmod(int(np.argmin(cost)), n)
    if cost[i, c] >= best[0]:
        return best

    # The arc's mid normal, then a threshold halfway across the gap between
    # the two sides along it; the group takes its cheaper side.
    if c == 0:
        last = int(np.count_nonzero(np.isfinite(angle[i]))) - 1
        lo_angle, hi_angle = angle[i, last] - np.pi, angle[i, 0]
    else:
        lo_angle, hi_angle = angle[i, c - 1], angle[i, c]
    mid = 0.5 * (lo_angle + hi_angle)
    normal = np.array([np.cos(mid), np.sin(mid)])
    if turned[i, c] < errors[i, c]:
        normal = -normal
    w, s, s0 = lift(i, normal)
    plus = np.where(dup[i] | (s == s0), group_minus[i] <= group_plus[i], s > s0)
    below, above = s[~plus], s[plus]
    if below.size and above.size:
        lo, hi = below.max(), above.min()
        t = 0.5 * (lo + hi)
        if not lo < t:  # adjacent floats
            t = hi
    else:  # a constant pattern cannot beat the seeds; certification refuses it
        t = s0
    return int(cost[i, c]), np.append(w, t)


def _sweep(U, y) -> tuple[int, np.ndarray]:
    """The best sign rule for k <= 3 by a rotational sweep.

    The pivots are every point at k <= 2, with k = 1 as the plane with a
    zero second coordinate, and every line through two distinct points at
    k = 3.  Returns (errors, v) with v = (w, t); the errors are the sweep's
    count, which the caller certifies against the returned rule.
    """
    n, k = U.shape
    y_pos = y == 1.0
    best = _best_constant(y_pos, k)
    if k <= 2:
        P = np.zeros((n, 2))
        P[:, :k] = U
        D = P[None, :, :] - P[:, None, :]  # D[i, j] = P[j] - P[i]

        def lift(i, normal):
            s = P @ normal
            return normal[:k], s, s[i]

        return _best_arc(D[..., 0], D[..., 1], y_pos, best, lift)

    rel = U - U[0]
    far = np.flatnonzero(np.any(rel != 0.0, axis=1))
    if far.size and not np.any(np.cross(rel[far[0]], rel)):
        # All points on one line: sweep their positions along it.  The 1-d
        # sweep's weight is exactly +-1 or 0, so the rule's scores are the
        # positions' own.
        d = rel[far[0]]
        errors, v = _sweep((U @ d)[:, None], y)
        return errors, np.append(v[0] * d, v[1])
    for p in range(n - 1):
        rel = U - U[p]
        later = p + 1 + np.flatnonzero(np.any(rel[p + 1 :] != 0.0, axis=1))
        if not later.size:
            continue
        d = rel[later]
        # Per row, the axes in cyclic order from d's largest entry, and the
        # entries of c = d x (x - p) on the other two: c_a = d_b e_o - d_o e_b
        # and c_b = d_o e_a - d_a e_o for e = x - p and axes (o, a, b).
        axes = (np.argmax(np.abs(d), axis=1)[:, None] + [0, 1, 2]) % 3
        d_o, d_a, d_b = np.take_along_axis(d, axes, axis=1).T[..., None]
        e_o, e_a, e_b = rel.T[axes.T]

        def lift(r, nu):
            m = np.zeros(3)
            m[axes[r, 1:]] = nu
            N = np.cross(m, d[r])
            s = U @ N
            return N, s, s[p]

        best = _best_arc(d_b * e_o - d_o * e_b, d_o * e_a - d_a * e_o, y_pos, best, lift)
    return best


def erm_exact_classification(U, y) -> ErmReport:
    """Empirical zero-one risk minimization over sign-linear rules.

    A rotational sweep finds a global minimizer: about every point at
    k <= 2, in O(n^2 log n), and about every line through two points at
    k = 3, in O(n^3 log n).  The returned rule's recomputed risk must equal
    the sweep's error count, or SweepUncertifiedError is raised.  That can
    happen only where the best rule must separate points closer than its
    floating-point evaluation resolves, such as nearly collinear or nearly
    coplanar points or near-duplicates.
    Scale-guarded to k <= 3, n <= 200.
    """
    U, y = _validate_classification(U, y)
    n, k = U.shape
    if k > EXACT_MAX_K or n > EXACT_MAX_N:
        raise ScaleGuardError(
            f"the exact solver takes k <= {EXACT_MAX_K} and n <= {EXACT_MAX_N}, "
            f"got k={k}, n={n}"
        )
    if k < 1:
        raise ValueError("need k >= 1")

    errors, v = _sweep(U, y)
    hypothesis = LinearHypothesis(w=v[:k].copy(), t=float(v[k]), mode="sign")
    risk = _zero_one_risk(hypothesis, U, y)
    if risk != errors / n:
        raise SweepUncertifiedError(
            f"the sweep counted {errors} errors, but its rule makes {round(risk * n)}"
        )
    return ErmReport(hypothesis=hypothesis, empirical_risk=risk, solver="exact")


# ---------------------------------------------------------------------------
# the logistic surrogate by damped Newton
# ---------------------------------------------------------------------------
#
# The surrogate is smooth and convex in x = (w, t), which has only k + 1
# entries, so a Newton step costs one (k+1)^2 solve on top of the O(n k)
# gradient and Hessian, and a handful of steps reach the minimizer.  On
# separable points no minimizer exists: the objective only tends to 0 along a
# separating direction, so the solve stops once every margin is positive.

#: Ridge on the Hessian, relative to each diagonal entry (1 where that is 0),
#: so rank-deficient designs (duplicate columns, n < k + 1) stay solvable
#: whatever the scale of the columns.
_NEWTON_RIDGE = 1e-12
#: Stop when the next step could lower the objective by less than this, or
#: the last step lowered it by less.
_NEWTON_TOL = 1e-14
#: Stop when the gradient's largest entry falls below this fraction of its
#: value at the start.  Without it, points that are separable but for a few
#: opposite-labelled duplicates, where no minimizer exists either, took
#: hundreds of steps while the objective crept down by about 1e-14 a step.
_GRAD_RTOL = 1e-9
#: Step halvings tried before the solve stops where it is.
_MAX_HALVINGS = 40


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)).

    Below x = -709.78, exp(-x) overflows to inf and the result is 0, its
    limit; the overflow raises no warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def erm_surrogate_classification(U, y, iters: int = 2000) -> ErmReport:
    """Damped Newton on the logistic surrogate for the sign-linear class.

    Minimizes mean log(1 + exp(-y s)) over the scores s = Z x, with
    Z = [U, -1] and x = (w, t), then reports the zero-one empirical risk of
    the resulting sign rule.  With q = sigmoid(-y s), each step solves
    H dx = g for the gradient g = Z^T (-y q) / n and the Hessian
    H = Z^T diag(q (1 - q)) Z / n plus a tiny ridge, and halves the step
    until the objective does not rise.  The solve stops

    * after ``iters`` accepted steps, or when no halving is accepted;
    * when the Newton decrement g.dx / 2, the decrease a full step promises,
      or the decrease the last step made falls below 1e-14;
    * when the gradient's largest entry falls below 1e-9 of its value at
      the start;
    * when every training margin y s is positive: the points are then
      separated, the surrogate has no minimizer, and the rule's zero-one risk
      is already 0.

    It runs no other solver; how far that risk is from the optimum is for a
    caller to measure with ``erm_exact_classification`` where that is
    feasible.  ``objective_checkpoints`` holds the objective at the start and
    after every accepted step.
    """
    U, y = _validate_classification(U, y)
    n, k = U.shape
    Z = np.empty((n, k + 1))
    Z[:, :k] = U
    Z[:, k] = -1.0
    W = np.empty_like(Z)  # Z scaled by the root curvature, rewritten each step
    diag = np.diag_indices(k + 1)
    # At the start, x = 0, every q is 1/2.
    grad_floor = _GRAD_RTOL * float(np.max(np.abs(Z.T @ y))) / (2 * n)

    x = np.zeros(k + 1)
    margins = np.zeros(n)
    obj = float(np.mean(np.logaddexp(0.0, -margins)))
    checkpoints = [obj]
    for _ in range(iters):
        q = _expit(-margins)
        grad = Z.T @ (-y * q) / n
        if np.max(np.abs(grad)) < grad_floor:
            break
        np.multiply(Z, np.sqrt(q * (1.0 - q))[:, None], out=W)
        H = W.T @ W / n
        curvature = H[diag]
        H[diag] += _NEWTON_RIDGE * np.where(curvature > 0.0, curvature, 1.0)
        dx = np.linalg.solve(H, grad)
        if float(grad @ dx) / 2.0 < _NEWTON_TOL:
            break
        step = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            trial = x - step * dx
            trial_margins = y * (Z @ trial)
            trial_obj = float(np.mean(np.logaddexp(0.0, -trial_margins)))
            if trial_obj <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        decrease = obj - trial_obj
        x, margins, obj = trial, trial_margins, trial_obj
        checkpoints.append(obj)
        if decrease < _NEWTON_TOL or np.all(margins > 0.0):
            break

    hypothesis = LinearHypothesis(w=x[:k], t=float(x[k]), mode="sign")
    risk = _zero_one_risk(hypothesis, U, y)
    return ErmReport(
        hypothesis=hypothesis,
        empirical_risk=risk,
        solver="surrogate",
        objective_checkpoints=tuple(checkpoints),
    )


# ---------------------------------------------------------------------------
# the regression descent
# ---------------------------------------------------------------------------
#
# The regression solver minimizes a mean loss of the scores s = Z x over the
# design Z = [U, -1] and x = (w, t), as the Newton solver does.  It supplies
# value(s), which returns the mean objective and the clipped predictions v,
# and slope(s, v), the objective's pointwise derivative in s.  ``_descend``
# owns the scores: it forms them by one product Z x per trial point, and the
# gradient Z^T slope(s, v) / n by one product per accepted point, reusing the
# v its value computed.  Z is column-major: numpy's product with a C-ordered
# n x (k + 1) matrix runs one short dot product per row, and at n = 8192 and
# k = 10 it takes about 1.6x as long, on one BLAS thread, as the column sweep.

_CHECKPOINT_EVERY = 50
_PLATEAU_FACTOR = 1e-10
# Backtracking step size: the first step, its growth after an accepted step,
# its shrinkage after a rejected one, and the rejections allowed per step.
_LR_INIT = 1.0
_LR_GROW = 1.3
_LR_SHRINK = 0.5
_MAX_BACKTRACKS = 40


def _descend(U: np.ndarray, value, slope, x0: np.ndarray, iters: int, plateau_tol: float):
    """Monotone first-order descent on x = (w, t) with backtracking.

    Copies U once into the column-major design Z = [U, -1], so the result
    does not depend on U's memory layout.  Accepts a step only when the
    objective does not increase; on rejection the step size shrinks (up to
    _MAX_BACKTRACKS times per iteration), on success it grows.  Stops early
    when the decrease over a 50-step window falls below plateau_tol.  Returns
    (x, checkpoints) with the objective recorded every 50 accepted steps plus
    at entry and exit.
    """
    n, k = U.shape
    Z = np.empty((n, k + 1), order="F")
    Z[:, :k] = U
    Z[:, k] = -1.0
    x = x0.astype(float).copy()
    s = Z @ x
    obj, v = value(s)
    checkpoints = [obj]
    lr = _LR_INIT
    window_start = obj
    for it in range(iters):
        g = Z.T @ slope(s, v) / n
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = x - lr * g
            trial_s = Z @ trial
            trial_obj, trial_v = value(trial_s)
            if np.isfinite(trial_obj) and trial_obj <= obj:
                x, s, v, obj = trial, trial_s, trial_v, trial_obj
                lr *= _LR_GROW
                accepted = True
                break
            lr *= _LR_SHRINK
        if not accepted:
            break
        if (it + 1) % _CHECKPOINT_EVERY == 0:
            checkpoints.append(obj)
            if window_start - obj < plateau_tol:
                break
            window_start = obj
    if checkpoints[-1] != obj:
        checkpoints.append(obj)
    return x, tuple(checkpoints)


def ols_init(U, y) -> tuple[np.ndarray, float]:
    """Least-squares fit of w.u - t to y, ignoring the clip.

    Returns (w, t) solving the normal equations of the design [U, 1] via a
    pseudo-inverse least squares, so singular designs are fine.
    """
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.concatenate([U, np.ones((U.shape[0], 1))], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef[:-1], -float(coef[-1])


def erm_regression(U, y, loss: LossSpec, iters: int = 2000) -> ErmReport:
    """Subgradient descent on the clipped-linear empirical risk.

    The predictor is u -> clip(w.u - t, -beta, beta); the optimized objective
    is the actual empirical risk, with the clip contributing subgradient 0
    outside the range and the identity inside.  Squared loss starts from the
    OLS solution; kl starts from zero.  Terminates after ``iters`` steps or
    when the objective decrease over 50 steps drops below 1e-10 * bound.
    The labels are checked against the loss once, up front; the descent then
    evaluates the unchecked loss formula on predictions clipped into range.
    """
    if loss.kind not in ("squared", "kl"):
        raise ValueError("erm_regression handles the squared and kl losses only")
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ValueError("U must be an n x k array")
    y = np.asarray(y, dtype=float)
    if y.shape != (U.shape[0],):
        raise ValueError("y must have one label per row of U")
    # Validate the label domain up front against the loss.
    eval_loss(loss, np.zeros_like(y), y)
    k = U.shape[1]
    beta = loss.beta

    if loss.kind == "squared":

        def pointwise_slope(v):
            return 2.0 * (v - y)

        w0, t0 = ols_init(U, y)
        x0 = np.concatenate([w0, [t0]])
    else:

        def pointwise_slope(v):
            return _expit(v) - y

        x0 = np.zeros(k + 1)

    def value(s):
        v = np.clip(s, -beta, beta)
        return float(np.mean(_loss_values(loss, v, y))), v

    def slope(s, v):
        return np.where(np.abs(s) < beta, pointwise_slope(v), 0.0)

    x, checkpoints = _descend(U, value, slope, x0, iters, _PLATEAU_FACTOR * loss.bound)

    hypothesis = LinearHypothesis(w=x[:k], t=float(x[k]), mode="clip", beta=beta)
    # Scored on the column-major layout the descent used, so that the risk,
    # like w and t, does not depend on U's layout.
    risk = float(np.mean(eval_loss(loss, hypothesis.predict(np.asfortranarray(U)), y)))
    return ErmReport(
        hypothesis=hypothesis,
        empirical_risk=risk,
        solver="surrogate",
        objective_checkpoints=checkpoints,
    )


def fit(U, y, loss: LossSpec, solver: str = "surrogate", iters: int = 2000) -> ErmReport:
    """Fit the compressed class of ``loss`` on (U, y) with the named solver.

    The zero-one loss takes ``"exact"`` (``erm_exact_classification``, the
    certified rotational sweep for k <= 3) or ``"surrogate"`` (Newton on
    the logistic surrogate); the regression losses take ``"surrogate"`` only,
    meaning descent on the clipped empirical risk.  Any other pairing raises
    ValueError.
    """
    if loss.kind == "zero_one":
        if solver == "exact":
            return erm_exact_classification(U, y)
        if solver == "surrogate":
            return erm_surrogate_classification(U, y, iters=iters)
        raise ValueError(f"unknown classification solver {solver!r}")
    if solver != "surrogate":
        raise ValueError(f"the {loss.kind} loss takes solver 'surrogate' only, got {solver!r}")
    return erm_regression(U, y, loss, iters=iters)

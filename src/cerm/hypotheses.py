"""Low-dimensional linear predictors and their empirical risk minimizers.

Two hypothesis classes over compressed inputs u in R^k:

* sign-linear classifiers  u -> sign(w.u - t), with sign(0) = +1;
* clipped-linear regressors u -> clip(w.u - t, -beta, beta).

A rule fit on compressed inputs u = A x is scored on x itself through
``LinearHypothesis.pull_back(A)``, the same rule with weights A^T w.

Three solvers:

* ``erm_exact_classification`` — empirical zero-one risk minimization by a
  rotational sweep over the u distinct points, whose labels enter as
  per-point counts: about every point at k <= 2, in O(n log n + u^2 log u),
  and about every line through two points at k = 3, in
  O(n log n + u^3 log u).  The sweep turns a hyperplane about each pivot
  and counts the errors on every arc between critical directions; its rule
  must make exactly the errors it counted, or the solve raises
  SweepUncertifiedError, so the result is a certified global minimizer at
  every k.  Guarded to k <= 3 and n <= 200 rows, whatever u is.
* ``erm_surrogate_classification`` — damped Newton on the logistic
  surrogate over the k + 1 parameters (w, t), reporting the zero-one risk of
  the result, for scales the exact solver does not take.  It converges in
  a handful of steps, and it stops as soon as the training points are
  separated, where the surrogate has no minimizer.  Its logistic weights
  come from ``_expit``, the sigmoid 1 / (1 + exp(-x)) in numpy.  It also
  takes a stack of member designs that share the labels and runs them in
  lockstep, one numpy call per step for the stack, each member exactly as
  its solo solve runs.
* ``erm_regression`` — subgradient descent with a backtracking step size on
  the clipped-linear empirical risk (squared or kl).  The clip's
  subgradient is the identity inside [-beta, beta] and 0 outside.  Like the
  Newton solver, it forms its scores as Z x over the design Z = [U, -1],
  here held column-major, so its result does not depend on U's layout.  The
  squared loss starts at the least-squares fit of Z x to y, and kl at 0.
  The kl loss scores every row at every trial point, in O(nk) a step.  The
  squared loss is quadratic on every row whose score stays on one side of
  the clip's kink, so it scores its trial points on a Gram model of those
  rows about an anchor point plus the rows near the kink: O(k^2 + |near| k)
  a step between anchors, and one pass over the rows per anchor, at most
  O(nk^2), made only when a step leaves the ball in which the clip set
  cannot change.  It runs a batch of member designs that share the labels
  in lockstep, one numpy call per operation for the batch; a lone design is
  a batch of one.  The squared loss holds one design at a time, written on
  demand into one reused buffer, so a lazy stack that writes each design
  when asked never has all of them formed.

``fit`` is the one front door to these solvers: it alone checks what each
solver takes, reads a design in any of its forms and splits a stack into
the runs its solver holds at once.  Its ``iters`` caps the Newton and the
descent steps; the exact solver takes no cap.  A member's report is the
one its design gives alone, bit for bit.

Every report's ``empirical_risk`` is recomputed from the returned hypothesis
on the training pairs, never taken from solver internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from .losses import LossSpec, eval_loss
from .projections import _BLOCK_BYTES, AxisPoints, _row_blocks, _rows_dot

__all__ = [
    "LinearHypothesis",
    "ErmReport",
    "ScaleGuardError",
    "SweepUncertifiedError",
    "erm_exact_classification",
    "erm_surrogate_classification",
    "erm_regression",
    "fit",
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
        scores = _rows_dot(U, self.w)
        return np.subtract(scores, self.t, out=scores)

    def predict(self, U: np.ndarray) -> np.ndarray:
        return self.render(self.raw(U))

    def render(self, raw: np.ndarray) -> np.ndarray:
        """The outputs at raw scores w.u - t, an array of any shape: their
        signs, with 0 counted as +1, or their values clipped to [-beta, beta]."""
        if self.mode == "sign":
            # 2 [raw >= 0] - 1: np.where's +-1, several times faster on long arrays
            signs = np.greater_equal(raw, 0.0).astype(float)
            signs *= 2.0
            signs -= 1.0
            return signs
        return np.clip(raw, -self.beta, self.beta)

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


def _check_fit(kind: str, solver: str, n: int | None = None, k: int | None = None) -> None:
    """Refuse what ``fit`` refuses, before any work: a solver the loss of
    ``kind`` does not take (ValueError), or n rows or width k beyond the
    exact solver's guards (ScaleGuardError).  A size left None is not
    checked."""
    if solver not in ("surrogate", "exact"):
        raise ValueError(f"unknown solver {solver!r}")
    if solver == "surrogate":
        return
    if kind != "zero_one":
        raise ValueError("the exact solver is only defined for the zero-one loss")
    if n is not None and n > EXACT_MAX_N:
        raise ScaleGuardError(f"the exact solver takes n <= {EXACT_MAX_N}, got {n}")
    if k is not None and k > EXACT_MAX_K:
        raise ScaleGuardError(f"the exact solver takes k <= {EXACT_MAX_K}, got {k}")


def _designs_of(U, y):
    """The designs U as (g, n, k, write, lone), where ``write(j, out)``
    writes design j into an n x k array ``out``.  U is one n x k array
    (``lone``, g = 1), a g x n x k stack of them, or a lazy stack: an object
    with that ``shape`` and its own ``write``.  Refused unless y has one
    entry per row."""
    if hasattr(U, "write"):
        shape, write = U.shape, U.write
    else:
        U = np.asarray(U, dtype=float)
        if U.ndim not in (2, 3):
            raise ValueError("U must be an n x k array or a g x n x k stack")
        shape, stack = U.shape, U if U.ndim == 3 else U[None]

        def write(j, out):
            out[...] = stack[j]

    if np.shape(y) != shape[-2:-1]:
        raise ValueError("y must have one label per row of U")
    lone = len(shape) == 2
    return (1 if lone else shape[0]), *shape[-2:], write, lone


def _signs(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("labels must be in {-1, +1}")
    return y


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
# The sweep runs over the u distinct points (rows equal in every coordinate),
# each with its counts of +1 and -1 labels; a sample from a finite-support
# law repeats its atoms, so u can be far below n.  Finding them costs
# O(n log n), and the rule is scored on the training rows themselves.  The
# guards, k <= 3 and n <= 200, still count rows, not points.
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
# every point off the line on its other side.  Sorting the u - 1 critical
# normals per pivot and summing the side changes counts the errors on every
# arc: O(u log u) per pivot, O(n log n + u^2 log u) in all (Johnson &
# Preparata, "The densest hemisphere problem", TCS 6, 1978).
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
# one p are swept at once, O(u log u) per line and O(n log n + u^3 log u) in
# all.
#
# Collinear and antipodal vectors give the same critical normal.  It must be
# one boundary, not two an ulp apart with a zero-length "arc" between them,
# so sorted neighbours merge when their cross product is exactly 0.


def _best_arc(dx, dy, pos, neg, inverse, best, lift):
    """Count the errors on every arc about a batch of pivots.

    Row r of the (r, u) arrays dx, dy holds one planar vector per point,
    whose dot product with a normal nu gives the point's side about the
    row's pivot; the zero vectors are the pivot's group.  Point j carries
    pos[j] labels +1 and neg[j] labels -1, and training row i is point
    inverse[i].  ``lift(r, nu)`` maps row r's planar normal to (w, s, s0):
    the rule's weights, every training row's score s = u.w and the pivot's
    score.  The rule puts the group on its cheaper side and its threshold
    halfway across the gap along s.  Returns ``best``, an (errors, v) pair,
    unless an arc beats it; ties go to the first row and arc.
    """
    r, u = dx.shape
    n = inverse.size
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
    flat = order + u * np.arange(r)[:, None]
    angle, cx, cy = angle.ravel()[flat], cx.ravel()[flat], cy.ravel()[flat]
    # Leaving costs an error per +1 label and saves one per -1 label.
    flip = pos - neg
    step = np.where(leaves, flip, -flip).ravel()[flat]

    # Just counterclockwise of -pi/2 the normal is (0+, -1): a point is + iff
    # dy < 0, or dy = 0 and dx > 0, and its -1 labels are then errors.
    plus0 = (dy < 0.0) | ((dy == 0.0) & (dx > 0.0))
    errors0 = np.where(dup, 0, np.where(plus0, neg, pos)).sum(axis=1)[:, None]
    # The count after crossing sorted normal c holds up to normal c + 1
    # unless the two are the same; after the last one it is errors0 again.
    errors = np.concatenate([errors0, errors0 + np.cumsum(step, axis=1)[:, :-1]], axis=1)
    cross = cx[:, :-1] * cy[:, 1:] - cy[:, :-1] * cx[:, 1:]
    opens = np.isfinite(angle[:, 1:]) & (cross != 0.0)

    group_plus = dup @ pos
    group_minus = dup @ neg
    group = group_plus + group_minus
    valid = np.concatenate([(group < n)[:, None], opens], axis=1)
    turned = (n - group)[:, None] - errors  # the opposite normal's count
    cost = np.minimum(errors, turned) + np.minimum(group_plus, group_minus)[:, None]
    cost = np.where(valid, cost, n + 1)
    i, c = divmod(int(np.argmin(cost)), u)
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
    plus = np.where(dup[i][inverse] | (s == s0), group_minus[i] <= group_plus[i], s > s0)
    below, above = s[~plus], s[plus]
    if below.size and above.size:
        lo, hi = below.max(), above.min()
        t = 0.5 * (lo + hi)
        if not lo < t:  # adjacent floats
            t = hi
    else:  # a constant pattern cannot beat the seeds; certification refuses it
        t = s0
    return int(cost[i, c]), np.append(w, t)


def _distinct_rows(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an n x k array, numbered in the order they first
    occur: row first[j] is point j's first occurrence, and row i is point
    inverse[i].  Rows equal in every coordinate are one point, and -0.0
    equals 0.0.

    A stable lexsort over the columns puts equal rows next to each other in
    row order, so each run of equal rows starts at its first occurrence.
    """
    n = U.shape[0]
    order = np.lexsort(U.T)
    sorted_rows = U[order]
    starts = np.ones(n, dtype=bool)
    np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1, out=starts[1:])
    runs = order[starts]  # each run's first row, in sorted order
    by_first = np.argsort(runs)
    point = np.empty(runs.size, dtype=np.intp)
    point[by_first] = np.arange(runs.size)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = point[np.cumsum(starts) - 1]
    return runs[by_first], inverse


def _sweep(U, y) -> tuple[int, np.ndarray]:
    """The best sign rule for k <= 3 by a rotational sweep.

    The points are the distinct rows of U in the order they first occur.
    The pivots are every point at k <= 2, with k = 1 as the plane with a
    zero second coordinate, and every line through two points at k = 3.
    Returns (errors, v) with v = (w, t); the errors are the sweep's count,
    which the caller certifies against the returned rule.
    """
    n, k = U.shape
    y_pos = y == 1.0
    best = _best_constant(y_pos, k)
    first, inverse = _distinct_rows(U)
    u = first.size
    pos = np.bincount(inverse[y_pos], minlength=u)
    neg = np.bincount(inverse, minlength=u) - pos
    if k <= 2:
        P = np.zeros((n, 2))
        P[:, :k] = U
        Q = P[first]
        D = Q[None, :, :] - Q[:, None, :]  # D[i, j] = Q[j] - Q[i]

        def lift(i, normal):
            s = P @ normal
            return normal[:k], s, s[first[i]]

        return _best_arc(D[..., 0], D[..., 1], pos, neg, inverse, best, lift)

    V = U[first]
    rel = V - V[0]
    if u > 1 and not np.any(np.cross(rel[1], rel)):
        # All points on one line: sweep their positions along it.  The 1-d
        # sweep's weight is exactly +-1 or 0, so the rule's scores are the
        # positions' own.
        d = rel[1]
        errors, v = _sweep((U @ d)[:, None], y)
        return errors, np.append(v[0] * d, v[1])
    for p in range(u - 1):
        rel = V - V[p]
        d = rel[p + 1 :]
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
            return N, s, s[first[p]]

        c_a, c_b = d_b * e_o - d_o * e_b, d_o * e_a - d_a * e_o
        best = _best_arc(c_a, c_b, pos, neg, inverse, best, lift)
    return best


def erm_exact_classification(U, y) -> ErmReport:
    """Empirical zero-one risk minimization over sign-linear rules.

    A rotational sweep over the u distinct rows of U, with their labels as
    per-point counts, finds a global minimizer: about every point at
    k <= 2, in O(n log n + u^2 log u), and about every line through two
    points at k = 3, in O(n log n + u^3 log u).  The returned rule's
    recomputed risk must equal the sweep's error count, or
    SweepUncertifiedError is raised.  That can happen only where the best
    rule must separate points closer than its floating-point evaluation
    resolves, such as nearly collinear or nearly coplanar points or
    near-duplicates.  Scale-guarded to k <= 3, n <= 200, whatever u is.
    """
    _, n, k, _, lone = _designs_of(U, y)
    if not lone:
        raise ValueError("U must be an n x k array")
    _check_fit("zero_one", "exact", n, k)
    if k < 1:
        raise ValueError("need k >= 1")
    U, y = np.asarray(U, dtype=float), _signs(y)

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


def erm_surrogate_classification(U, y, iters: int = 2000):
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

    U may also be a g x n x k stack of member designs that share the labels
    y, or a lazy one (see ``fit``), written straight into the solver's own
    g x n x (k + 1) design; the result is then a tuple of g reports.  The
    members advance in lockstep, one numpy call per step for the whole
    stack, and each leaves the batch when its own stop rule fires, before
    any later work on it.  Every member does the floating-point operations
    of its solo solve, one BLAS or LAPACK call per member for each product
    and solve, so its report equals the one
    ``erm_surrogate_classification(U[j], y)`` gives bit for bit.

    It runs no other solver; how far that risk is from the optimum is for a
    caller to measure with ``erm_exact_classification`` where that is
    feasible.  ``objective_checkpoints`` holds the objective at the start and
    after every accepted step.
    """
    g, n, k, write, lone = _designs_of(U, y)
    y = _signs(y)
    designs = Z = np.empty((g, n, k + 1))
    for j in range(g):
        write(j, Z[j, :, :k])
    Z[..., k] = -1.0
    # At the start, x = 0, every q is 1/2.
    grad_floor = _GRAD_RTOL * np.max(np.abs(Z.transpose(0, 2, 1) @ y), axis=1) / (2 * n)

    # The running members' state, one row each; ``member`` names their
    # places in the stack.  A member that stops leaves every array at once.
    member = np.arange(g)
    x = np.zeros((g, k + 1))
    margins = np.zeros((g, n))
    obj = np.mean(np.logaddexp(0.0, -margins), axis=1)
    checkpoints = [[value] for value in obj.tolist()]
    final = np.zeros((g, k + 1))

    def leave(stops):
        nonlocal member, x, margins, obj, grad_floor, Z
        if not stops.any():
            return slice(None)
        final[member[stops]] = x[stops]
        keep = ~stops
        member, x, margins, obj, grad_floor, Z = (
            a[keep] for a in (member, x, margins, obj, grad_floor, Z)
        )
        return keep

    def trial_point(Z, x, dx, step):
        trial = x - step * dx
        trial_margins = y * (Z @ trial[..., None])[..., 0]
        return trial, trial_margins, np.logaddexp(0.0, -trial_margins).mean(axis=1)

    W_rows = np.empty_like(Z)  # Z scaled by the root curvature, rewritten each step
    for _ in range(iters):
        if not member.size:
            break
        q = _expit(-margins)
        grad = Z.transpose(0, 2, 1) @ (-y * q)[..., None] / n
        keep = leave(np.abs(grad[..., 0]).max(axis=1) < grad_floor)
        if not member.size:
            break
        grad, q = grad[keep], q[keep]
        W = np.multiply(Z, np.sqrt(q * (1.0 - q))[..., None], out=W_rows[: len(Z)])
        H = W.transpose(0, 2, 1) @ W / n
        curvature = H.reshape(-1, (k + 1) ** 2)[:, :: k + 2]  # a view of each diagonal
        curvature += _NEWTON_RIDGE * np.where(curvature > 0.0, curvature, 1.0)
        dx = np.linalg.solve(H, grad)
        keep = leave((grad.transpose(0, 2, 1) @ dx)[:, 0, 0] / 2.0 < _NEWTON_TOL)
        if not member.size:
            break
        dx = dx[keep, :, 0]

        # Halve each member's step until its objective does not rise; the
        # members still halving run together, with the same step.  A row's
        # next_* hold its last trial, kept once accepted.
        step = 1.0
        next_x, next_margins, next_obj = trial_point(Z, x, dx, step)
        accepted = next_obj <= obj
        halving = np.flatnonzero(~accepted)
        for _ in range(_MAX_HALVINGS - 1):
            if not halving.size:
                break
            step *= 0.5
            trial = trial_point(Z[halving], x[halving], dx[halving], step)
            next_x[halving], next_margins[halving], next_obj[halving] = trial
            ok = trial[2] <= obj[halving]
            accepted[halving[ok]] = True
            halving = halving[~ok]
        keep = leave(~accepted)
        decrease = obj - next_obj[keep]
        x, margins, obj = next_x[keep], next_margins[keep], next_obj[keep]
        for j, value in zip(member.tolist(), obj.tolist()):
            checkpoints[j].append(value)
        leave((decrease < _NEWTON_TOL) | (margins > 0.0).all(axis=1))
    final[member] = x

    reports = []
    for j in range(g):
        hypothesis = LinearHypothesis(w=final[j, :k].copy(), t=float(final[j, k]), mode="sign")
        reports.append(
            ErmReport(
                hypothesis=hypothesis,
                empirical_risk=_zero_one_risk(hypothesis, designs[j, :, :k], y),
                solver="surrogate",
                objective_checkpoints=tuple(checkpoints[j]),
            )
        )
    return reports[0] if lone else tuple(reports)


# ---------------------------------------------------------------------------
# the regression descent
# ---------------------------------------------------------------------------
#
# The regression solver minimizes a mean loss of the scores s = Z x over the
# design Z = [U, -1] and x = (w, t), as the Newton solver does, for each of
# a batch of g member designs that share the labels.  ``_descend`` runs one
# backtracking descent for the whole batch in lockstep: each round, every
# running member scores one trial point, with one numpy call per operation
# for the batch, and a member leaves the batch when its own rule stops it.
# The loss supplies the oracle: ``values(X, here)`` returns the running
# members' objectives at their trial points X (``here`` holds their current
# points), ``gradients(rows)`` returns the gradient at the trial points of
# the rows it flags, which become current, ``leave(keep)`` drops the
# members that stopped, and ``design(j)`` returns member j's design.
#
# * The kl loss (``_KlRows``) holds the g designs whole and scores every row
#   at every trial point, one member at a time: one O(nk) product Z x per
#   trial, written in place, and one product Z^T slope per accepted point,
#   which reuses the clipped scores the value computed.
# * The squared loss (``_AnchoredSquares``) scores only the rows near the
#   clip's kink.  A row whose score stays inside [-beta, beta] adds a
#   quadratic in x, and one whose score stays outside adds a constant, so one
#   pass over the rows at an anchor point sums the rows far from the kink
#   into a Gram model, in O(nk) plus O(k^2) for each row it leaves out of
#   the Gram of every row, taken once per fit: at most O(nk^2).  A trial
#   point within the anchor's radius then costs O(k^2 + |near| k), and the
#   objective and gradient it gives are exact in exact arithmetic.  A member
#   passes over all its rows again only when a trial leaves the ball, where
#   the clip set can change.  Between anchors a member holds only its
#   anchored model, so the batch holds one design, not g: a member's design
#   is written into one reused buffer at its start, at each of its anchors
#   and for its final risk.  The fit starts at the min-norm solution of the
#   normal equations (Z^T Z) x = Z^T y, which exists for a singular design
#   too; both sides are summed block by block, in order.
#
# The batch holds its members' numbers as r x p x 1 stacks of columns, one
# slice per running member.  Each product of one member's numbers is one
# np.matmul over the stacks, which makes for every slice the BLAS call (dot
# or gemv, with the same strides) that member's own vectors or matrix would
# make alone, and the rest is elementwise.  A member's report therefore
# equals the one its design gives alone, bit for bit, whatever the batch.
# Near sets of different lengths are never padded to one length, since a
# BLAS dot over a zero-padded vector rounds apart from the unpadded one:
# the members are stacked by near-set length.
#
# Z is column-major, so the results do not depend on U's memory layout.
# numpy's product with a C-ordered n x (k + 1) matrix runs one short dot
# product per row, and at n = 8192 and k = 10 it takes about 1.6x as long,
# on one BLAS thread, as the column sweep; for the squared loss this
# concerns the anchor passes only.

_CHECKPOINT_EVERY = 50
_PLATEAU_FACTOR = 1e-10
# Backtracking step size: the first step, its growth after an accepted step,
# its shrinkage after a rejected one, and the rejections allowed per step.
_LR_INIT = 1.0
_LR_GROW = 1.3
_LR_SHRINK = 0.5
_MAX_BACKTRACKS = 40
# The least share of the rows an anchor of the squared loss keeps near the
# kink: its radius is at least the distance to the kink of the row of that
# rank, so the ball holds many descent steps.  In a 300-step fit at
# n = 8192 and k = 10 this floor gave 4 anchors; a radius set by the pending
# step alone gave 144, and the fit ran slower than one scoring every row at
# every trial point.
_NEAR_FLOOR = 0.02


def _batch_bytes(loss: LossSpec, n: int, k: int) -> int:
    """About the bytes a lockstep solver holds per member at n rows and
    width k: its n x (k + 1) design, or the squared loss's anchored near
    rows, as that descent holds one design for the whole batch."""
    rows = math.ceil(_NEAR_FLOOR * n) if loss.kind == "squared" else n
    return 8 * rows * (k + 1)


def _designs(g: int, n: int, k: int) -> np.ndarray:
    """g column-major n x (k + 1) designs Z = [U, -1], their U unset."""
    Z = np.empty((g, k + 1, n)).transpose(0, 2, 1)
    Z[..., k] = -1.0
    return Z


class _KlRows:
    """The kl loss of the clipped scores, averaged over every row of each
    member's design in the g x n x (k + 1) stack Z at every trial point."""

    def __init__(self, Z: np.ndarray, y: np.ndarray, beta: float):
        self.Z, self.y, self.beta = Z, y, beta
        g, n, width = Z.shape
        self.start = np.zeros((g, width, 1))
        self.members = np.arange(g)
        self.label_sign = -(2.0 * y - 1.0)
        # Each member's scores and clipped scores at two points: bank[j]
        # picks its current pair, and the other holds its trial.
        self.s, self.v = np.empty((2, 2, g, n))
        self.bank = np.zeros(g, dtype=np.intp)
        self.work = np.empty(n)
        self.clipped = np.empty(n, dtype=bool)

    def values(self, X: np.ndarray, here: np.ndarray) -> np.ndarray:
        out = np.empty((len(X), 1, 1))
        for i, j in enumerate(self.members.tolist()):
            trial = 1 - self.bank[j]
            s, v, work = np.matmul(self.Z[j], X[i, :, 0], out=self.s[trial, j]), self.v[trial, j], self.work
            np.clip(s, -self.beta, self.beta, out=v)
            out[i] = np.mean(np.logaddexp(0.0, np.multiply(self.label_sign, v, out=work), out=work))
        return out

    def gradients(self, rows: np.ndarray) -> np.ndarray:
        grads = np.empty((len(rows), self.Z.shape[2], 1))
        out, clipped = self.work, self.clipped
        for i in np.flatnonzero(rows).tolist():
            j = self.members[i]
            self.bank[j] ^= 1
            s, v = self.s[self.bank[j], j], self.v[self.bank[j], j]
            # np.where(|s| < beta, expit(v) - y, 0), without its temporaries
            np.logical_not(np.less(np.abs(s, out=out), self.beta, out=clipped), out=clipped)
            np.copyto(np.subtract(_expit(v), self.y, out=out), 0.0, where=clipped)
            grads[i, :, 0] = self.Z[j].T @ out / len(out)
        return grads

    def leave(self, keep: np.ndarray) -> None:
        self.members = self.members[keep]

    def design(self, j: int) -> np.ndarray:
        return self.Z[j]


class _Near:
    """The near rows of the running members at ``places`` (all of them when
    it is a slice), whose near sets share one length L: a c x L x (k + 1)
    stack of rows, C-ordered as each member's own near rows are, their
    c x L x 1 labels, and buffers for a round's scores and residuals."""

    def __init__(self, places, rows: np.ndarray, labels: np.ndarray):
        self.places, self.rows, self.labels = places, rows, labels
        self.whole = isinstance(places, slice)
        self.rows_t = rows.transpose(0, 2, 1)
        self.s, self.r = np.empty((2, *labels.shape))
        self.r_t = self.r.transpose(0, 2, 1)
        self.rr = np.empty((len(labels), 1, 1))
        self.outside = np.empty(labels.shape, dtype=bool)


class _AnchoredSquares:
    """The squared loss of the clipped scores, averaged over the rows of each
    member's design Z, as a Gram model about an anchor point x_a.

    Row z, with anchor score s_a = z.x_a, lies at distance
    |beta - |s_a|| / |z| in x from the clip's kink.  Within the ball
    |x - x_a| <= rho, a row farther than rho keeps its side of the kink:
    inside the clip its loss is the quadratic (s_a - y + z.delta)^2 of
    delta = x - x_a, and outside it the constant (clip(s_a) - y)^2.
    ``_anchor`` sums the far rows into const = sum (clip(s_a) - y)^2 and, over
    the far rows inside, h = sum z (s_a - y) and G = sum z z^T (the Gram of
    every row, summed once per fit, less the rows left out), and copies the
    near rows out.  Then, anywhere in the ball,

        n value    = const + 2 h.delta + delta.G delta + sum_near (clip(z.x) - y)^2
        n gradient = 2 (h + G delta + sum_near, |z.x| < beta z (z.x - y)).

    A trial outside the ball re-anchors its member at its current point,
    with a radius that covers the trial and keeps at least ``_NEAR_FLOOR``
    of the rows near.

    ``write(j, out)`` writes member j's n x k design into the n x k view
    ``out`` of one reused buffer.  The running members' models are indexed
    by their place in the batch; ``_stack`` stacks their near rows by
    near-set length whenever a member leaves or its near set changes
    length, and sizes the buffers a round writes.
    """

    def __init__(self, write, g: int, n: int, k: int, y: np.ndarray, beta: float):
        self.write, self.y, self.beta = write, y, beta
        # A round's scalar operands as 0-d arrays: numpy takes one about
        # 0.2 us faster than a Python float.
        self.high, self.low, self.n, self.scale, self.zero = map(np.array, (beta, -beta, float(n), 2.0 / n, 0.0))
        self.Z = _designs(1, n, k)[0]
        self.loaded = self.norms = None
        self.blocks = _row_blocks(n, k + 1)
        self.floor = max(1, math.ceil(_NEAR_FLOOR * n))
        self.members = np.arange(g)
        self.start, self.anchor, self.h = np.empty((3, g, k + 1, 1))
        self.gram_all = np.zeros((g, k + 1, k + 1))
        self.gram = np.empty((g, k + 1, k + 1))
        self.reach, self.const = np.empty((2, g, 1, 1))
        self.near = [None] * g
        self.groups = None
        for i in range(g):
            # The Gram of every row, which an anchor copies less the rows it
            # leaves out; with Z^T y it gives the start's normal equations.
            Z = self.design(i)
            zy = np.zeros(k + 1)
            for rows in self.blocks:
                self.gram_all[i] += Z[rows].T @ Z[rows]
                zy += Z[rows].T @ y[rows]
            self.start[i, :, 0] = np.linalg.lstsq(self.gram_all[i], zy, rcond=None)[0]
            self._anchor(i, self.start[i, :, 0], 0.0)
        self._stack()

    def design(self, j: int) -> np.ndarray:
        if self.loaded != j:
            self.write(j, self.Z[:, :-1])
            self.loaded, self.norms = j, None
        return self.Z

    def _anchor(self, i: int, x: np.ndarray, pending: float) -> None:
        """Pass over every row of the member in place i at the anchor x, one
        ``_row_blocks`` block at a time, with a radius of at least
        ``pending`` and the floor's."""
        Z, y, beta = self.design(self.members[i]), self.y, self.beta
        if self.norms is None:
            self.norms = np.sqrt(np.einsum("ij,ij->i", Z, Z))
        s = np.empty(len(y))
        for rows in self.blocks:
            np.matmul(Z[rows], x, out=s[rows])
        slack = np.abs(beta - np.abs(s)) / self.norms
        radius = max(pending, float(np.partition(slack, self.floor - 1)[self.floor - 1]))
        near = slack <= radius
        left_out = np.abs(s) >= beta
        left_out |= near
        r = np.clip(s, -beta, beta)
        r -= y
        r[near] = 0.0
        gram, h = self.gram[i], self.h[i, :, 0]
        gram[...] = self.gram_all[i]
        h[...] = 0.0
        const = 0.0
        for rows in self.blocks:
            r_far = r[rows]
            const += np.einsum("i,i->", r_far, r_far)  # one fixed order at any BLAS thread count
            r_far[left_out[rows]] = 0.0
            h += Z[rows].T @ r_far
            Z_out = Z[rows][left_out[rows]]
            gram -= Z_out.T @ Z_out
        self.anchor[i, :, 0], self.reach[i], self.const[i] = x, _reach(radius), const
        rows, labels = Z[near], y[near, None]
        if self.groups and len(self.groups) == 1 and self.groups[0].labels.shape[1] == len(labels):
            group = self.groups[0]
            group.rows[i], group.labels[i] = rows, labels
            rows, labels = group.rows[i], group.labels[i]
        else:
            self.groups = None
        self.near[i] = rows, labels

    def _stack(self) -> None:
        lengths = np.array([len(labels) for _, labels in self.near])
        self.groups = []
        for length in sorted(set(lengths.tolist())):  # np.unique would import numpy.ma, 1 MB
            places = np.flatnonzero(lengths == length)
            rows = np.stack([self.near[i][0] for i in places])
            labels = np.stack([self.near[i][1] for i in places])
            for slot, i in enumerate(places.tolist()):
                self.near[i] = rows[slot], labels[slot]  # views, so no copy outlives the stacks
            self.groups.append(_Near(slice(None) if len(places) == len(lengths) else places, rows, labels))
        self.delta, self.hg, self.hg_h = np.empty((3, *self.anchor.shape))
        self.delta_t = self.delta.transpose(0, 2, 1)
        self.dd = np.empty(self.reach.shape)
        self.far = np.empty(self.reach.shape, dtype=bool)

    # A round is a fixed sequence of numpy calls on the batch, most of them
    # writing into the buffers ``_stack`` sized: on a batch of one, each
    # call costs about as much as the work, so their count sets the speed.

    def values(self, X: np.ndarray, here: np.ndarray) -> np.ndarray:
        delta = np.subtract(X, self.anchor, self.delta)
        if np.count_nonzero(np.greater(np.matmul(self.delta_t, delta, self.dd), self.reach, self.far)):
            for i in np.flatnonzero(self.far).tolist():
                step = X[i, :, 0] - here[i, :, 0]
                self._anchor(i, here[i, :, 0], math.sqrt(step @ step))
            if self.groups is None:
                self._stack()
            delta = np.subtract(X, self.anchor, self.delta)
        # h + G delta, then the far rows' part const + delta.(2h + G delta)
        h, hg = self.h, self.hg
        np.add(np.matmul(self.gram, delta, hg), h, hg)
        obj = np.add(np.matmul(self.delta_t, np.add(hg, h, self.hg_h)), self.const)
        for group in self.groups:
            s, r = group.s, group.r
            np.matmul(group.rows, X if group.whole else X[group.places], s)
            # np.clip's Python wrapper costs about 1 us more a call than the
            # two ufuncs, some 7 % of a 300-step fit at n = 128.
            np.subtract(np.minimum(np.maximum(s, self.low, out=r), self.high, out=r), group.labels, r)
            if group.whole:
                np.add(obj, np.matmul(group.r_t, r, group.rr), obj)
            else:
                obj[group.places] += np.matmul(group.r_t, r, group.rr)
        return np.divide(obj, self.n, obj)

    def gradients(self, rows: np.ndarray) -> np.ndarray:
        near = None
        for group in self.groups:
            # np.where(|s| < beta, r, 0), in place.  |s| >= beta differs
            # from not |s| < beta only at a NaN score, which makes the
            # objective NaN, so no step is taken along this gradient.
            np.copyto(group.r, self.zero, where=np.greater_equal(np.abs(group.s, group.s), self.high, group.outside))
            if group.whole:
                near = np.matmul(group.rows_t, group.r)
            else:
                near = np.empty_like(self.hg) if near is None else near
                near[group.places] = np.matmul(group.rows_t, group.r)
        return np.multiply(np.add(near, self.hg, near), self.scale, near)

    def leave(self, keep: np.ndarray) -> None:
        for name in ("members", "anchor", "h", "gram_all", "gram", "reach", "const"):
            setattr(self, name, getattr(self, name)[keep])
        self.near = [near for near, kept in zip(self.near, keep.tolist()) if kept]
        if len(self.near):
            self._stack()


def _reach(radius: float) -> float:
    """The largest double v with sqrt(v) <= radius, so that a squared
    distance d lies outside the ball, sqrt(d) > radius, exactly when d > v:
    the square root rounds monotonically."""
    v = radius * radius
    if not math.isfinite(v):
        return v
    while math.sqrt(v) > radius:
        v = math.nextafter(v, 0.0)
    while math.sqrt(math.nextafter(v, math.inf)) <= radius:
        v = math.nextafter(v, math.inf)
    return v


def _descend(oracle, iters: int, plateau_tol: float):
    """Monotone first-order descent on the x = (w, t) of each of the
    oracle's members, in lockstep, with backtracking.

    Each round, every running member scores one trial point x - lr g.  A
    member accepts it only when its objective does not increase, and its
    step size then grows; on rejection the step size shrinks, up to
    _MAX_BACKTRACKS times per step.  A member stops after ``iters`` steps,
    when no backtrack is accepted, or when its decrease over a 50-step
    window falls below plateau_tol.  Returns (x, checkpoints): each
    member's final point, a g x (k + 1) x 1 stack, and its objective at
    entry, every 50 accepted steps and at exit.

    The running members' numbers are r x p x 1 stacks, one slice each, so
    that every operation broadcasts over the batch; ``members`` names them.
    """
    x = oracle.start.copy()
    g = len(x)
    obj = oracle.values(x, x)
    checkpoints = [[value] for value in obj.ravel().tolist()]
    final = x.copy()
    if iters < 1:
        return final, [tuple(c) for c in checkpoints]
    members = np.arange(g)
    grad = oracle.gradients(np.ones((g, 1, 1), dtype=bool))
    lr = np.full(x.shape, _LR_INIT)  # one copy per entry of x, so lr * grad does not broadcast
    window = obj.copy()
    # A member's next mark, the step count of its next checkpoint or its
    # last step; the accepted steps it still takes to reach it; and its
    # rejections since its last accepted step.  The last two are brought up
    # to date only in a round of mixed acceptance and when some member may
    # reach its mark or run out of backtracks.  A round that every member
    # accepts, or none does, is only counted: ``run`` such rounds all
    # accepted, then ``tail`` none.  ``left`` and ``room`` are the fewest
    # accepted steps and rejections that bring some member to its mark or
    # to the end of its backtracks.
    mark = np.full(g, min(_CHECKPOINT_EVERY, iters))
    togo, fails = mark.copy(), np.zeros(g, dtype=np.intp)
    run, tail, left, room = 0, 0, int(mark[0]), _MAX_BACKTRACKS
    values, gradients = oracle.values, oracle.gradients
    grow, shrink = np.array(_LR_GROW), np.array(_LR_SHRINK)
    while members.size:
        trial = np.subtract(x, np.multiply(lr, grad))
        trial_obj = values(trial, x)
        ok = np.logical_and(np.less_equal(trial_obj, obj), np.isfinite(trial_obj))
        accepted = np.count_nonzero(ok)
        if accepted == len(ok):
            x, obj = trial, trial_obj
            np.multiply(lr, grow, lr)
            run, tail, left, room = run + 1, 0, left - 1, _MAX_BACKTRACKS
            if left:
                grad = gradients(ok)
                continue
        elif not accepted:
            np.multiply(lr, shrink, lr)
            tail, room = tail + 1, room - 1
            if room:
                continue
        if run:
            togo -= run
            fails[:] = 0
        fails += tail
        run = tail = 0
        if 0 < accepted < len(ok):
            np.copyto(x, trial, where=ok)
            np.copyto(obj, trial_obj, where=ok)
            np.multiply(lr, np.where(ok, grow, shrink), lr)
            togo -= ok[:, 0, 0]
            fails += 1
            fails[ok[:, 0, 0]] = 0
            left, room = int(togo.min()), _MAX_BACKTRACKS - int(fails.max())
            if left and room:
                np.copyto(grad, gradients(ok), where=ok)
                continue
        stop = fails == _MAX_BACKTRACKS
        for i in np.flatnonzero(togo == 0).tolist():
            steps = int(mark[i])
            if steps % _CHECKPOINT_EVERY == 0:
                checkpoints[members[i]].append(float(obj[i, 0, 0]))
                stop[i] |= window[i, 0, 0] - obj[i, 0, 0] < plateau_tol
                window[i] = obj[i]
            stop[i] |= steps == iters
            mark[i] = min(steps + _CHECKPOINT_EVERY, iters)
            togo[i] = mark[i] - steps
        going = ok & ~stop[:, None, None]
        if np.count_nonzero(going):
            np.copyto(grad, gradients(going), where=going)
        if np.count_nonzero(stop):
            for i in np.flatnonzero(stop).tolist():
                j = members[i]
                final[j] = x[i]
                if checkpoints[j][-1] != obj[i, 0, 0]:
                    checkpoints[j].append(float(obj[i, 0, 0]))
            keep = ~stop
            members, x, obj, grad, lr, window, mark, togo, fails = (
                a[keep] for a in (members, x, obj, grad, lr, window, mark, togo, fails)
            )
            oracle.leave(keep)
        if members.size:
            left, room = int(togo.min()), _MAX_BACKTRACKS - int(fails.max())
    return final, [tuple(c) for c in checkpoints]


def erm_regression(U, y, loss: LossSpec, iters: int = 2000):
    """Subgradient descent on the clipped-linear empirical risk.

    The predictor is u -> clip(w.u - t, -beta, beta); the optimized objective
    is the actual empirical risk, with the clip contributing subgradient 0
    outside the range and the identity inside.  Squared loss starts from the
    least-squares fit of w.u - t to y, ignoring the clip, solved on the Gram
    its anchored model sums, and scores its trial points on that model, in
    O(k^2 + |near| k) each between anchors and at most O(nk^2) per anchor; kl
    starts from zero and scores every row at every trial point, in O(nk).
    Terminates after ``iters`` steps or when the objective decrease over 50
    steps drops below 1e-10 * bound.  The labels are checked against the
    loss once, up front; the descent then evaluates the unchecked loss
    formula on predictions clipped into range.

    U may also be a g x n x k stack of member designs that share the labels
    y, or a lazy one (see ``fit``).  The result is then a tuple of g
    reports.  The members descend in lockstep, one numpy call per
    operation for the batch, and each leaves it when its own rule stops it;
    every member does the floating-point operations of its solo fit, so its
    report equals the one ``erm_regression(U[j], y)`` gives bit for bit.
    The squared loss holds one design at a time, rewritten from ``write``
    at a member's start, at each of its anchors and for its final risk; kl
    holds all g designs.
    """
    if loss.kind not in ("squared", "kl"):
        raise ValueError("erm_regression handles the squared and kl losses only")
    g, n, k, write, lone = _designs_of(U, y)
    y = np.asarray(y, dtype=float)
    # Validate the label domain up front against the loss.
    eval_loss(loss, 0.0, y)
    beta = loss.beta

    if loss.kind == "squared":
        oracle = _AnchoredSquares(write, g, n, k, y, beta)
    else:
        Z = _designs(g, n, k)
        for j in range(g):
            write(j, Z[j, :, :k])
        oracle = _KlRows(Z, y, beta)
    x, checkpoints = _descend(oracle, iters, _PLATEAU_FACTOR * loss.bound)

    reports = []
    for j in range(g):
        hypothesis = LinearHypothesis(w=x[j, :k, 0].copy(), t=float(x[j, k, 0]), mode="clip", beta=beta)
        # Scored on the column-major design the descent used, so that the
        # risk, like w and t, does not depend on U's layout.
        risk = float(np.mean(eval_loss(loss, hypothesis.predict(oracle.design(j)[:, :k]), y)))
        reports.append(
            ErmReport(
                hypothesis=hypothesis,
                empirical_risk=risk,
                solver="surrogate",
                objective_checkpoints=checkpoints[j],
            )
        )
    return reports[0] if lone else tuple(reports)


def fit(U, y, loss: LossSpec, solver: str = "surrogate", iters: int = 2000):
    """Fit the compressed class of ``loss`` on (U, y) with the named solver.

    The zero-one loss takes ``"exact"`` (``erm_exact_classification``, the
    certified rotational sweep for k <= 3) or ``"surrogate"`` (Newton on
    the logistic surrogate); the regression losses take ``"surrogate"`` only,
    meaning descent on the clipped empirical risk.  Any other pairing raises
    ValueError, and a size the exact solver does not take ScaleGuardError,
    before any design is written.

    A g x n x k stack of designs that share the labels y, or a lazy stack
    (an object with that ``shape`` and a ``write(j, out)`` that writes
    design j into the n x k array ``out``), gives a tuple of g reports, each
    equal bit for bit to the report of its design fit alone.  The exact
    sweep takes one design at a time, written into one buffer.  The other
    solvers take runs of consecutive designs, as many as keep what the
    solver holds per member (``_batch_bytes``) within ``_BLOCK_BYTES``, at
    least one, and run each in lockstep.
    """
    g, n, k, write, lone = _designs_of(U, y)
    _check_fit(loss.kind, solver, n, k)
    reports = []
    if solver == "exact":
        design = np.empty((n, k))
        for j in range(g):
            write(j, design)
            reports.append(erm_exact_classification(design, y))
    else:
        solve = erm_surrogate_classification if loss.kind == "zero_one" else partial(erm_regression, loss=loss)
        run = max(1, _BLOCK_BYTES // max(1, _batch_bytes(loss, n, k)))
        for start in range(0, g, run):
            designs = SimpleNamespace(
                shape=(min(run, g - start), n, k), write=lambda j, out, start=start: write(start + j, out)
            )
            reports.extend(solve(designs, y, iters=iters))
    return reports[0] if lone else tuple(reports)

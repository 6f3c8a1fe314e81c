"""Random linear compression maps and their distance-distortion diagnostics.

Three i.i.d.-entry families are provided, all scaled so that
``E ||A x||^2 = ||x||^2`` for every fixed vector ``x``:

* ``gaussian``           entries N(0, 1/k)
* ``rademacher``         entries uniform on {-1/sqrt(k), +1/sqrt(k)}
* ``achlioptas_sparse``  entries in {-sqrt(3/k), 0, +sqrt(3/k)} with
                         probabilities {1/6, 2/3, 1/6}

Maps are identified by (family, k, d, seed); the matrix is a pure function
of those four values, and a map holds k and d as its matrix's shape.

``apply`` compresses either a dense n x d array or an ``AxisPoints`` set,
whose rows are scaled coordinate vectors and are never stored densely.
Outside the solvers, every product of a dense point set with a weight
vector runs through ``_rows_dot``, so no row depends on BLAS's thread count.

``empirical_jl_check`` compares every pairwise squared distance before and
after fresh maps; it forms them row by row in numpy, and holds the q(q - 1)/2
distances before and after a map at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeds import derive_seed

__all__ = [
    "FAMILIES",
    "JL_CALIBRATION",
    "AxisPoints",
    "ProjectionMap",
    "sample_projection",
    "apply",
    "jl_target_dim",
    "empirical_jl_check",
]

FAMILIES = ("gaussian", "rademacher", "achlioptas_sparse")

#: Empirical calibration constant for the gaussian family: a target dimension
#: k >= JL_CALIBRATION * ln(q/delta) / eps^2 keeps the empirical failure rate
#: of the two-sided distortion bound on q points below delta.  It is an
#: empirical value (see :func:`jl_target_dim`), not a certified constant.
JL_CALIBRATION = 8.0


class InvalidDimensionError(ValueError):
    """Raised when a projection is requested with k == 0 or d == 0."""


@dataclass(frozen=True, eq=False)
class ProjectionMap:
    """An immutable k x d compression matrix with its sampling identity.

    Attributes
    ----------
    matrix : ndarray of shape (k, d)
        Its shape gives the target and ambient dimensions ``k`` and ``d``.
    family : str
        One of :data:`FAMILIES`.
    seed : int
        The 64-bit seed the matrix was drawn from.
    """

    matrix: np.ndarray
    family: str
    seed: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.matrix.ndim != 2 or self.matrix.size == 0:
            raise InvalidDimensionError(f"need a k x d matrix with k, d >= 1, got shape {self.matrix.shape}")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("projection matrix has non-finite entries")

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class AxisPoints:
    """Points on the coordinate axes of R^d: row i is ``scales[i] * e_{axes[i]}``.

    Held as (axis, scale) pairs in O(n) memory, whatever d is.  ``apply``
    compresses the set by gathering the map's columns, so the n x d
    coordinates are never built; ``toarray`` builds them for small checks.
    """

    axes: np.ndarray
    scales: np.ndarray
    d: int

    def __post_init__(self) -> None:
        axes = np.asarray(self.axes, dtype=np.intp)
        scales = np.asarray(self.scales, dtype=float)
        if axes.ndim != 1 or scales.shape != axes.shape:
            raise ValueError("axes and scales must be matching 1-d arrays")
        if axes.size and (axes.min() < 0 or axes.max() >= self.d):
            raise ValueError(f"axes must lie in [0, {self.d})")
        if not np.all(np.isfinite(scales)):
            raise ValueError("scales must be finite")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "scales", scales)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.axes.shape[0], self.d)

    def __len__(self) -> int:
        return self.axes.shape[0]

    def __getitem__(self, rows) -> AxisPoints:
        """The rows an index array picks, as a set of their own."""
        return AxisPoints(self.axes[rows], self.scales[rows], self.d)

    def toarray(self) -> np.ndarray:
        """The dense n x d coordinates."""
        dense = np.zeros(self.shape)
        dense[np.arange(len(self)), self.axes] = self.scales
        return dense


# Dense n x d point sets are built and scored in row blocks of about this
# many bytes, so that a block stays in cache while every step that reads it
# runs.
_BLOCK_BYTES = 1 << 20


def _row_blocks(n: int, d: int) -> list[slice]:
    """Slices that cover the rows of an n x d array in blocks of about
    ``_BLOCK_BYTES``.

    Every block but the last holds a multiple of four rows, and the last
    never holds one row alone.  OpenBLAS's gemv kernels score rows four at a
    time, and numpy sends a one-row product to a dot kernel that rounds
    differently; with these blocks, on one BLAS thread, each row of
    ``X[block] @ w`` equals that row of ``X @ w`` bit for bit.
    """
    rows = 4 * max(1, _BLOCK_BYTES // (32 * max(d, 1)))
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _longest_block(n: int, d: int) -> int:
    """Rows in the longest of ``_row_blocks(n, d)``, 0 when n is 0."""
    return max((b.stop - b.start for b in _row_blocks(n, d)), default=0)


def _rows_dot(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``X @ w`` for a dense n x d array, one product per ``_row_blocks``
    block: the whole-array product bit for bit on one BLAS thread, and the
    same on two, where the whole-array product rounds some rows apart."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    for rows in _row_blocks(*X.shape):
        np.matmul(X[rows], w, out=out[rows])
    return out


def sample_projection(family: str, k: int, d: int, seed: int) -> ProjectionMap:
    """Draw a compression map; a pure function of (family, k, d, seed)."""
    if k < 1 or d < 1:
        raise InvalidDimensionError(f"need k >= 1 and d >= 1, got k={k}, d={d}")
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        matrix = rng.standard_normal((k, d)) / np.sqrt(k)
    elif family == "rademacher":
        matrix = (2.0 * rng.integers(0, 2, size=(k, d)) - 1.0) / np.sqrt(k)
    elif family == "achlioptas_sparse":
        u = rng.random((k, d))
        scale = np.sqrt(3.0 / k)
        matrix = scale * ((u >= 5.0 / 6.0).astype(float) - (u < 1.0 / 6.0).astype(float))
    else:
        raise ValueError(f"unknown family {family!r}")
    return ProjectionMap(matrix=matrix, family=family, seed=seed)


def apply(pmap: ProjectionMap, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Compress the rows of an n x d matrix to n x k.

    Row j of the output is ``pmap.matrix @ X[j]``; inputs are not mutated.
    An ``AxisPoints`` set, such as an Assouad sample in training, is
    compressed by a column gather: its row j maps to
    ``scales[j] * pmap.matrix[:, axes[j]]``, which equals the dense product
    bit for bit up to the sign of a zero.  Given ``out``, an n x k array or
    view of either memory order, the rows are written there and ``out`` is
    returned, with the values a new array would hold.
    """
    if isinstance(X, AxisPoints):
        if X.d != pmap.d:
            raise InvalidDimensionError(f"expected n x {pmap.d} input, got shape {X.shape}")
        return np.multiply(pmap.matrix.T[X.axes], X.scales[:, None], out=out)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != pmap.d:
        raise InvalidDimensionError(f"expected n x {pmap.d} input, got shape {X.shape}")
    return np.matmul(X, pmap.matrix.T, out=out)


def jl_target_dim(q: int, delta: float, epsilon: float) -> int:
    """Smallest target dimension the calibration suggests for q points.

    ceil(JL_CALIBRATION * ln(q/delta) / epsilon^2).
    """
    if q < 1:
        raise ValueError("q must be a positive point count")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return int(np.ceil(JL_CALIBRATION * np.log(q / delta) / epsilon**2))


def _squared_distances(points: np.ndarray) -> np.ndarray:
    """Squared distances ||x_i - x_j||^2 of all pairs i < j, in the
    condensed order (0, 1), (0, 2), ..., (1, 2), ... of the upper triangle.

    Each row's differences are summed directly, never through
    ||a||^2 + ||b||^2 - 2 a.b, which cancels on near-duplicate points, so
    equal points give exactly 0.  Beyond the q(q - 1)/2 distances returned,
    it holds one row's block of differences at a time.
    """
    q = points.shape[0]
    out = np.empty(q * (q - 1) // 2)
    start = 0
    for i in range(q - 1):
        diff = points[i + 1 :] - points[i]
        stop = start + q - 1 - i
        np.einsum("ij,ij->i", diff, diff, out=out[start:stop])
        start = stop
    return out


def empirical_jl_check(
    family: str,
    points: np.ndarray,
    epsilon: float,
    k: int,
    trials: int,
    seed: int,
) -> float:
    """Fraction of fresh maps that distort some pairwise squared distance.

    A trial fails when at least one pair (x, x') with ||x - x'|| > 0 leaves
    the window (1 - eps) ||x - x'||^2 <= ||Ax - Ax'||^2 <= (1 + eps) ||x - x'||^2.
    Zero-distance pairs count as satisfied.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need a q x d array with q >= 2")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    base = _squared_distances(points)
    positive = base > 0.0
    lo = (1.0 - epsilon) * base[positive]
    hi = (1.0 + epsilon) * base[positive]

    failures = 0
    d = points.shape[1]
    for t in range(trials):
        pmap = sample_projection(family, k, d, derive_seed(seed, t))
        proj = _squared_distances(apply(pmap, points))[positive]
        if np.any(proj < lo) or np.any(proj > hi):
            failures += 1
    return failures / trials

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from cerm import projections
from cerm.projections import (
    FAMILIES,
    AxisPoints,
    InvalidDimensionError,
    ProjectionMap,
    _squared_distances,
    apply,
    empirical_jl_check,
    jl_target_dim,
    sample_projection,
)
from cerm.seeds import derive_seed


@pytest.mark.parametrize("family", FAMILIES)
def test_sampling_is_deterministic(family):
    a = sample_projection(family, 5, 40, 123)
    b = sample_projection(family, 5, 40, 123)
    assert np.array_equal(a.matrix, b.matrix)
    c = sample_projection(family, 5, 40, 124)
    assert not np.array_equal(a.matrix, c.matrix)


def test_entry_laws():
    r = sample_projection("rademacher", 6, 300, 5)
    assert set(np.unique(r.matrix)) == {-1 / math.sqrt(6), 1 / math.sqrt(6)}

    a = sample_projection("achlioptas_sparse", 6, 300, 5)
    expected = {0.0, math.sqrt(3.0 / 6), -math.sqrt(3.0 / 6)}
    assert set(np.unique(a.matrix)) == expected
    # two thirds of entries vanish on average
    assert abs(np.mean(a.matrix == 0.0) - 2 / 3) < 0.03

    g = sample_projection("gaussian", 6, 300, 5)
    assert abs(np.var(g.matrix) - 1 / 6) < 0.01


@pytest.mark.parametrize("family", FAMILIES)
def test_expected_isometry(family):
    """E ||Ax||^2 = ||x||^2 over the projection law, checked by averaging."""
    d, k = 30, 5
    rng = np.random.default_rng(0)
    x = rng.standard_normal(d)
    target = float(x @ x)
    sq = [
        float(np.sum(apply(sample_projection(family, k, d, derive_seed(9, t)), x[None, :]) ** 2))
        for t in range(2000)
    ]
    mean = np.mean(sq)
    se = np.std(sq, ddof=1) / math.sqrt(len(sq))
    assert abs(mean - target) < 4 * se + 1e-9


def test_apply_matches_matmul():
    pmap = sample_projection("gaussian", 3, 8, 0)
    X = np.random.default_rng(1).standard_normal((10, 8))
    assert np.array_equal(apply(pmap, X), X @ pmap.matrix.T)


def test_apply_rejects_wrong_width():
    pmap = sample_projection("gaussian", 3, 8, 0)
    with pytest.raises(InvalidDimensionError):
        apply(pmap, np.zeros((4, 9)))
    with pytest.raises(InvalidDimensionError):
        apply(pmap, AxisPoints([0, 1], [1.0, 2.0], 9))


@pytest.mark.parametrize("family", FAMILIES)
def test_apply_gathers_axis_points_exactly_as_the_dense_product(family):
    """Repeated, unordered axes and zero or negative scales: the column gather
    equals the dense matmul bit for bit, signs of zeros aside."""
    axes = np.array([3, 0, 7, 3, 5, 1, 1, 6])
    scales = np.array([2.5, 1.0, -0.75, 0.0, 3.0, 1e-300, -1e300, 1.0])
    points = AxisPoints(axes, scales, 8)
    assert points.shape == (8, 8) and len(points) == 8
    dense = points.toarray()
    assert np.array_equal(dense @ np.ones(8), scales)
    for k in (1, 3, 23):
        pmap = sample_projection(family, k, 8, 11)
        assert np.array_equal(apply(pmap, points), apply(pmap, dense))


def test_apply_writes_into_a_design_buffer_bit_for_bit():
    """``apply(pmap, X, out=Z[:, :k])`` into a column-major n x (k + 1)
    design buffer fills it with the very bits of [apply(pmap, X), -1], for
    dense and axis-point input, at one and two BLAS threads.  The buffer's
    product runs numpy's transposed BLAS call, so the shapes include ones
    whose row count is not a multiple of four and one of many row blocks."""
    script = textwrap.dedent(
        """
        import numpy as np
        from cerm.hypotheses import _designs
        from cerm.projections import AxisPoints, apply, sample_projection
        rng = np.random.default_rng(3)
        for n, d, k in ((8192, 32, 10), (1024, 32, 7), (50_002, 32, 11), (4096, 50, 23), (8193, 32, 9)):
            dense = rng.standard_normal((n, d))
            axis = AxisPoints(rng.integers(0, d, n), rng.standard_normal(n), d)
            for X in (dense, axis, np.asfortranarray(dense)):
                pmap = sample_projection("gaussian", k, d, n)
                Z = _designs(1, n, k)[0]
                out = apply(pmap, X, out=Z[:, :k])
                reference = np.asfortranarray(np.column_stack([apply(pmap, X), -np.ones(n)]))
                assert np.shares_memory(out, Z)
                assert Z.flags.f_contiguous and Z.tobytes("F") == reference.tobytes("F"), (n, d, k)
        print("ok")
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(projections.__file__)))
    for blas_threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"]


def test_axis_points_validation():
    with pytest.raises(ValueError):
        AxisPoints([0, 8], [1.0, 1.0], 8)
    with pytest.raises(ValueError):
        AxisPoints([-1], [1.0], 8)
    with pytest.raises(ValueError):
        AxisPoints([0, 1], [1.0], 8)
    with pytest.raises(ValueError):
        AxisPoints([0], [np.nan], 8)


def test_axis_points_index_array_picks_rows():
    """Indexing by an index array gives the picked rows as a set of their
    own, repeats and any order allowed, through the same validation."""
    points = AxisPoints([3, 0, 5, 5], [2.0, -1.0, 0.0, 4.0], 8)
    idx = np.array([2, 0, 0, 3, 1])
    picked = points[idx]
    assert isinstance(picked, AxisPoints) and picked.shape == (5, 8)
    assert picked.axes.dtype == np.intp
    assert np.array_equal(picked.toarray(), points.toarray()[idx])
    assert len(points[np.array([], dtype=np.intp)]) == 0
    with pytest.raises(ValueError):
        points[1]  # a scalar index would give a 0-d set
    with pytest.raises(IndexError):
        points[np.array([4])]


def test_invalid_construction():
    with pytest.raises(InvalidDimensionError):
        sample_projection("gaussian", 0, 8, 0)
    with pytest.raises(InvalidDimensionError):
        sample_projection("gaussian", 3, 0, 0)
    with pytest.raises(ValueError):
        sample_projection("no_such_family", 3, 8, 0)


def test_projection_map_dimensions_are_its_matrix_shape():
    pmap = sample_projection("rademacher", 3, 8, 0)
    assert (pmap.k, pmap.d) == pmap.matrix.shape == (3, 8)
    for matrix in (np.zeros((0, 8)), np.zeros((3, 0)), np.zeros(8), np.zeros((1, 2, 3))):
        with pytest.raises(InvalidDimensionError):
            ProjectionMap(matrix=matrix, family="gaussian", seed=0)


def test_jl_target_dim_frozen_value():
    # ceil(8 * ln(50 / 0.05) / 0.5^2), computed by hand: 8 * 6.907755... / 0.25
    assert jl_target_dim(50, 0.05, 0.5) == 222


def test_jl_target_dim_monotonicity():
    assert jl_target_dim(50, 0.05, 0.25) > jl_target_dim(50, 0.05, 0.5)
    assert jl_target_dim(500, 0.05, 0.5) > jl_target_dim(50, 0.05, 0.5)
    assert jl_target_dim(50, 0.01, 0.5) > jl_target_dim(50, 0.05, 0.5)


def test_jl_target_dim_rejects_bad_args():
    for bad in ({"q": 0}, {"delta": 0.0}, {"delta": 1.0}, {"epsilon": 0.0}, {"epsilon": 1.0}):
        kwargs = {"q": 50, "delta": 0.05, "epsilon": 0.5, **bad}
        with pytest.raises(ValueError):
            jl_target_dim(**kwargs)


def test_empirical_jl_check_deterministic():
    points = np.random.default_rng(2).standard_normal((12, 40))
    a = empirical_jl_check("gaussian", points, 0.5, 30, trials=50, seed=3)
    b = empirical_jl_check("gaussian", points, 0.5, 30, trials=50, seed=3)
    assert a == b


def test_squared_distances_match_scipy_pdist():
    """Condensed order, rtol 1e-12 (the sums run in another order), and
    exact zeros on duplicates, also far from the origin, where the identity
    ||a||^2 + ||b||^2 - 2 a.b would cancel."""
    rng = np.random.default_rng(5)
    for q, d, offset in ((2, 1, 0.0), (7, 3, 0.0), (50, 256, 0.0), (120, 5, 1e4)):
        points = offset + rng.standard_normal((q, d))
        points[q - 1] = points[0]
        if q > 2:
            points[1] = points[0] + 1e-6 * rng.standard_normal(d)
        ours = _squared_distances(points)
        theirs = pdist(points, metric="sqeuclidean")
        np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0.0)
        assert np.array_equal(ours == 0.0, theirs == 0.0)
        assert ours[q - 2] == 0.0  # the pair (0, q - 1)
        assert np.all(ours[: q - 2] > 0.0)


def test_criterion_04_failure_rates_match_a_pdist_check(monkeypatch):
    """Criterion 4's two JL failure rates, as in tests/test_acceptance.py, come
    out the same when the distances are taken by scipy's pdist instead."""
    q, eps, delta, trials = 50, 0.5, 0.05, 400
    k = jl_target_dim(q, delta, eps)
    points = np.random.default_rng(2026).standard_normal((q, 256))

    def rates():
        return tuple(
            empirical_jl_check("gaussian", points, eps, kk, trials=trials, seed=derive_seed(2026, i))
            for i, kk in ((1, k), (2, k // 4))
        )

    ours = rates()
    monkeypatch.setattr(projections, "_squared_distances", lambda x: pdist(x, metric="sqeuclidean"))
    assert ours == rates()


def test_empirical_jl_check_zero_distance_pairs_pass():
    """Coincident points cannot violate a relative distortion bound."""
    points = np.zeros((5, 10))
    rate = empirical_jl_check("gaussian", points, 0.1, 2, trials=20, seed=0)
    assert rate == 0.0


def test_empirical_jl_check_tiny_k_fails_often():
    points = np.random.default_rng(4).standard_normal((30, 100))
    rate = empirical_jl_check("gaussian", points, 0.2, 1, trials=50, seed=1)
    assert rate > 0.5

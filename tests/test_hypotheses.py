import os
import subprocess
import sys
import textwrap
import warnings
from itertools import combinations, islice

import numpy as np
import pytest
from scipy.special import expit

from cerm import hypotheses
from cerm.hypotheses import (
    EXACT_MAX_K,
    EXACT_MAX_N,
    LinearHypothesis,
    ScaleGuardError,
    SweepUncertifiedError,
    erm_exact_classification,
    erm_regression,
    erm_surrogate_classification,
    fit,
)
from cerm.losses import _loss_values, eval_loss, make_loss
from cerm.projections import apply, sample_projection
from cerm.riskbounds import optimal_k_classification, optimal_k_regression
from cerm.synthdist import AssouadDist, GaussMarginDist, RegressionDist


def brute_force_1d_risk(u, y):
    """Exhaustive threshold scan: the independent oracle for k = 1."""
    us = np.sort(np.asarray(u, dtype=float).ravel())
    cuts = np.concatenate([[us[0] - 1.0], (us[:-1] + us[1:]) / 2.0, [us[-1] + 1.0]])
    best = 1.0
    for t in cuts:
        for orient in (1.0, -1.0):
            pred = np.where(orient * (u.ravel() - t) >= 0.0, 1.0, -1.0)
            best = min(best, float(np.mean(pred != y)))
    return best


def test_sign_convention_on_the_boundary():
    h = LinearHypothesis(w=np.array([1.0]), t=0.0, mode="sign")
    assert h.predict(np.array([[0.0]]))[0] == 1.0


def test_clip_mode_clamps_to_range():
    h = LinearHypothesis(w=np.array([2.0]), t=0.0, mode="clip", beta=0.5)
    out = h.predict(np.array([[-3.0], [0.1], [3.0]]))
    assert np.array_equal(out, [-0.5, 0.2, 0.5])


def test_hypothesis_validation():
    with pytest.raises(ValueError):
        LinearHypothesis(w=np.array([np.inf]), t=0.0, mode="sign")
    with pytest.raises(ValueError):
        LinearHypothesis(w=np.array([1.0]), t=0.0, mode="argmax")
    with pytest.raises(ValueError):
        LinearHypothesis(w=np.array([[1.0]]), t=0.0, mode="sign")


def test_exact_erm_matches_threshold_scan_k1():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        u = rng.standard_normal((n, 1))
        y = rng.choice([-1.0, 1.0], size=n)
        report = erm_exact_classification(u, y)
        assert report.empirical_risk == brute_force_1d_risk(u, y)


def test_exact_erm_separable_instances_reach_zero():
    rng = np.random.default_rng(8)
    for k in (1, 2, 3):
        w_true = rng.standard_normal(k)
        U = rng.standard_normal((40, k))
        margin = U @ w_true - 0.3
        keep = np.abs(margin) > 1e-3
        U, margin = U[keep], margin[keep]
        y = np.where(margin >= 0, 1.0, -1.0)
        report = erm_exact_classification(U, y)
        assert report.empirical_risk == 0.0
        assert report.solver == "exact"


def test_exact_erm_xor_square():
    """The 2-d parity square admits no halfplane with fewer than 1 error."""
    U = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    assert erm_exact_classification(U, y).empirical_risk == 0.25


def test_exact_erm_dominates_random_candidates():
    """No randomly drawn halfplane may beat the reported optimum."""
    rng = np.random.default_rng(9)
    for k in (2, 3):
        U = rng.standard_normal((25, k))
        y = rng.choice([-1.0, 1.0], size=25)
        best = erm_exact_classification(U, y).empirical_risk
        for _ in range(400):
            w = rng.standard_normal(k)
            t = rng.standard_normal()
            risk = float(np.mean(np.where(U @ w - t >= 0, 1.0, -1.0) != y))
            assert risk >= best - 1e-15


def test_exact_erm_report_is_self_consistent():
    rng = np.random.default_rng(10)
    U = rng.standard_normal((30, 2))
    y = rng.choice([-1.0, 1.0], size=30)
    report = erm_exact_classification(U, y)
    recomputed = float(np.mean(report.hypothesis.predict(U) != y))
    assert recomputed == report.empirical_risk


def test_exact_erm_scale_guards():
    rng = np.random.default_rng(11)
    with pytest.raises(ScaleGuardError):
        erm_exact_classification(rng.standard_normal((10, EXACT_MAX_K + 1)), np.ones(10))
    with pytest.raises(ScaleGuardError):
        erm_exact_classification(
            rng.standard_normal((EXACT_MAX_N + 1, 1)), np.ones(EXACT_MAX_N + 1)
        )


def test_exact_erm_rejects_bad_labels():
    with pytest.raises(ValueError):
        erm_exact_classification(np.zeros((3, 1)), np.array([1.0, 0.0, -1.0]))


def test_exact_erm_single_class_is_free():
    u = np.random.default_rng(12).standard_normal((17, 1))
    assert erm_exact_classification(u, np.ones(17)).empirical_risk == 0.0
    assert erm_exact_classification(u, -np.ones(17)).empirical_risk == 0.0


def test_surrogate_reaches_exact_on_easy_instances():
    rng = np.random.default_rng(13)
    gaps = []
    for _ in range(10):
        U = rng.standard_normal((60, 2))
        w_true = rng.standard_normal(2)
        y = np.where(U @ w_true >= 0.2, 1.0, -1.0)
        report = erm_surrogate_classification(U, y)
        assert report.solver == "surrogate"
        gaps.append(report.empirical_risk - erm_exact_classification(U, y).empirical_risk)
    assert np.mean(gaps) <= 0.02
    assert min(gaps) >= 0.0  # never better than the exact optimum


def test_surrogate_never_runs_an_exact_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the surrogate solver ran an exact solver")

    for name in ("_sweep", "_best_arc", "erm_exact_classification"):
        monkeypatch.setattr(hypotheses, name, refuse)
    rng = np.random.default_rng(14)
    U = rng.standard_normal((EXACT_MAX_N, EXACT_MAX_K))
    y = rng.choice([-1.0, 1.0], size=EXACT_MAX_N)
    report = erm_surrogate_classification(U, y)
    assert report.solver == "surrogate"


def test_surrogate_objective_checkpoints_decrease():
    rng = np.random.default_rng(15)
    U = rng.standard_normal((200, 4))
    y = np.where(U @ np.array([1.0, -1.0, 0.5, 0.0]) >= 0, 1.0, -1.0)
    report = erm_surrogate_classification(U, y)
    cps = report.objective_checkpoints
    assert cps is not None and len(cps) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(cps, cps[1:]))


def reference_ols_start(U, y):
    """The least-squares fit (w, t) of w.u - t to y, ignoring the clip, by a
    pseudo-inverse least squares on the design [U, 1]: the squared loss's
    start, solved apart from the solver's normal equations."""
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.concatenate([U, np.ones((U.shape[0], 1))], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef[:-1], -float(coef[-1])


def test_squared_loss_start_recovers_a_linear_map():
    """With no steps the descent returns its start, the least-squares fit."""
    rng = np.random.default_rng(16)
    U = rng.standard_normal((50, 3))
    w_true = np.array([0.5, -1.0, 2.0])
    y = U @ w_true - 0.7
    loss = make_loss("squared", beta=2.0 * np.max(np.abs(y)))  # no label clips
    h = erm_regression(U, y, loss, iters=0).hypothesis
    assert np.allclose(h.w, w_true, atol=1e-10)
    assert h.t == pytest.approx(0.7, abs=1e-10)


def test_squared_loss_start_is_the_design_least_squares_on_singular_designs():
    """The min-norm solution of the normal equations equals the design's own
    least squares on full-rank and rank-deficient designs, with no warning."""
    rng = np.random.default_rng(18)
    U = rng.standard_normal((50, 3))
    designs = {
        "plain": U,
        "duplicate column": np.column_stack([U, U[:, 1]]),
        "constant column": np.column_stack([U, np.full(50, 0.3)]),
        "n < k + 1": U[:3],
        "n = 1": U[:1],
        "U = 0": np.zeros((50, 3)),
    }
    loss = make_loss("squared", beta=1.0)
    for name, D in designs.items():
        y = np.clip(0.4 * D.sum(axis=1) + 0.2 + 0.3 * rng.standard_normal(len(D)), -1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = erm_regression(D, y, loss, iters=0).hypothesis
        w, t = reference_ols_start(D, y)
        assert np.max(np.abs(h.w - w)) <= 1e-12, name
        assert abs(h.t - t) <= 1e-12, name


def test_squared_loss_fit_does_not_depend_on_the_blas_thread_count():
    """Criterion 9's law at n = 50 002, k = 11: (w, t), the empirical risk and
    the objective checkpoints are equal at one and two BLAS threads.  The
    start's normal equations are summed one row block at a time, in block
    order; a least squares on the whole design split its sums among the
    threads and moved w by up to 6e-12.  The anchor's constant is an einsum
    sum: a BLAS dot over a block split it among the threads and moved the
    checkpoints of projections 1 and 2 by up to 3 ulp."""
    script = textwrap.dedent(
        """
        import numpy as np
        from cerm.hypotheses import erm_regression
        from cerm.projections import apply, sample_projection
        from cerm.synthdist import RegressionDist
        dist = RegressionDist(d=32, spectral_constant=1.0, spectral_decay=0.2, w=np.ones(32))
        X, y = dist.sample(50_002, 5)
        for seed in range(3):
            U = apply(sample_projection("gaussian", 11, 32, seed), X)
            report = erm_regression(U, y, dist.loss_spec, iters=300)
            h = report.hypothesis
            checkpoints = [c.hex() for c in report.objective_checkpoints]
            print(h.w.tobytes().hex(), h.t.hex(), report.empirical_risk.hex(), *checkpoints)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypotheses.__file__)))
    runs = []
    for blas_threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout.splitlines())
    assert len(runs[0]) == 3
    assert runs[0] == runs[1]


def test_erm_regression_squared_fits_noiseless_linear_data():
    rng = np.random.default_rng(17)
    loss = make_loss("squared", 2.0)
    U = rng.standard_normal((120, 3))
    w_true = np.array([0.4, -0.2, 0.1])
    y = np.clip(U @ w_true + 0.1, -2.0, 2.0)
    report = erm_regression(U, y, loss)
    assert report.empirical_risk <= 1e-6
    assert report.hypothesis.mode == "clip"
    assert np.all(np.abs(report.hypothesis.predict(U)) <= 2.0)


def test_erm_regression_kl_fits_logistic_data():
    rng = np.random.default_rng(18)
    loss = make_loss("kl", 3.0)
    U = rng.standard_normal((400, 2))
    logits = np.clip(U @ np.array([1.2, -0.8]), -3.0, 3.0)
    y = (rng.random(400) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    report = erm_regression(U, y, loss)
    # the fitted logit direction should correlate strongly with the truth
    fitted = report.hypothesis.raw(U)
    assert np.corrcoef(fitted, logits)[0, 1] > 0.95


def test_erm_regression_validates_label_domain():
    loss = make_loss("squared", 1.0)
    with pytest.raises(ValueError):
        erm_regression(np.zeros((3, 1)), np.array([0.0, 2.0, 0.0]), loss)
    with pytest.raises(ValueError):
        erm_regression(np.zeros((3, 1)), np.array([0.0, 0.5, 1.0]), make_loss("kl", 1.0))


def test_erm_regression_beats_the_zero_predictor():
    """The descent must never end above its own starting point."""
    rng = np.random.default_rng(19)
    loss = make_loss("squared", 1.0)
    U = rng.standard_normal((80, 4))
    y = np.clip(U @ rng.standard_normal(4), -1.0, 1.0)
    report = erm_regression(U, y, loss)
    zero_risk = float(np.mean(y**2))
    assert report.empirical_risk <= zero_risk + 1e-12


def test_erm_is_deterministic():
    rng = np.random.default_rng(20)
    U = rng.standard_normal((64, 3))
    y = rng.choice([-1.0, 1.0], size=64)
    a = erm_surrogate_classification(U, y)
    b = erm_surrogate_classification(U, y)
    assert np.array_equal(a.hypothesis.w, b.hypothesis.w)
    assert a.hypothesis.t == b.hypothesis.t
    assert a.empirical_risk == b.empirical_risk


def test_fit_dispatches_by_loss_and_solver():
    rng = np.random.default_rng(21)
    U = rng.standard_normal((40, 2))
    labels = np.where(U[:, 0] >= 0.0, 1.0, -1.0)
    zero_one = make_loss("zero_one")
    assert fit(U, labels, zero_one, "exact").solver == "exact"
    assert fit(U, labels, zero_one, "surrogate", iters=20).solver == "surrogate"
    squared = make_loss("squared", 1.0)
    report = fit(U, 0.5 * np.tanh(U[:, 0]), squared, iters=20)
    assert report.hypothesis.mode == "clip"
    targets = 0.5 * labels
    for loss, y, solver in (
        (zero_one, labels, "annealing"),
        (squared, targets, "exact"),
        (squared, targets, "annealing"),
    ):
        with pytest.raises(ValueError, match=solver):
            fit(U, y, loss, solver)


def _better_pattern_exists(U, y, achieved_errors):
    """LP check: is any sign pattern with fewer errors linearly realizable?

    A pattern p is realizable iff some v has v.(u_i, -1) >= 0 exactly where
    p_i = +1; by cone scaling the strict side can be pinned at <= -1.
    """
    from scipy.optimize import linprog

    n = U.shape[0]
    Z = np.concatenate([U, -np.ones((n, 1))], axis=1)
    for e in range(achieved_errors):
        for wrong in combinations(range(n), e):
            pattern = y.copy()
            pattern[list(wrong)] *= -1.0
            A_ub = np.where(pattern[:, None] > 0, -Z, Z)
            b_ub = np.where(pattern > 0, 0.0, -1.0)
            res = linprog(
                np.zeros(Z.shape[1]),
                A_ub=A_ub,
                b_ub=b_ub,
                bounds=[(None, None)] * Z.shape[1],
                method="highs",
            )
            if res.status == 0:
                return True
    return False


def test_exact_erm_is_unbeatable_on_degenerate_lattices():
    """No realizable labeling beats the sweep, even off general position.

    Lattice coordinates force duplicate points, collinear triples, and
    points exactly on candidate planes: in {-1, 0, 1}^k at every k, and at
    k = 3 also in {-2, ..., 2}^3, on one lattice line and on one lattice
    plane.  An LP feasibility scan over every sign pattern with fewer errors
    certifies global optimality.  At k = 3 the enumerator's count is no
    oracle on lattices: it can read a point whose exact score is 0 on the
    - side.
    """
    rng = np.random.default_rng(77)
    cases = []
    for k in (1, 2, 3):
        for _ in range(15):
            n = int(rng.integers(4, 9))
            cases.append((rng.integers(-1, 2, size=(n, k)), rng.choice([-1.0, 1.0], size=n)))
    for dims in (3, 1, 2):
        for _ in range(15):
            n = int(rng.integers(5, 9))
            if dims == 3:
                U = rng.integers(-2, 3, size=(n, 3))
            else:
                basis = rng.integers(-2, 3, size=(dims, 3))
                while np.linalg.matrix_rank(basis) < dims:
                    basis = rng.integers(-2, 3, size=(dims, 3))
                U = rng.integers(-2, 3, size=3) + rng.integers(-2, 3, size=(n, dims)) @ basis
            cases.append((U, rng.choice([-1.0, 1.0], size=n)))
    for U, y in cases:
        U = U.astype(float)
        report = erm_exact_classification(U, y)
        errors = round(report.empirical_risk * len(y))
        assert not _better_pattern_exists(U, y, errors), (U.tolist(), y.tolist())


def test_exact_erm_is_unbeatable_on_random_instances():
    rng = np.random.default_rng(78)
    for k in (2, 3):
        for _ in range(10):
            n = int(rng.integers(5, 10))
            U = rng.standard_normal((n, k))
            y = rng.choice([-1.0, 1.0], size=n)
            report = erm_exact_classification(U, y)
            errors = round(report.empirical_risk * n)
            assert not _better_pattern_exists(U, y, errors)


# ---------------------------------------------------------------------------
# the count oracle: enumeration of hyperplanes through up to k points
# ---------------------------------------------------------------------------
#
# A sign rule u -> sign(w.u - t) is the sign of v.z for the lifted point
# z = (u, -1) and v = (w, t), so the search runs over directions v in R^(k+1).
# The labelings realizable on n points are the sign patterns of the cells cut
# out by the hyperplanes {v : v.z_i = 0} (refined by the coordinate planes so
# every cell is a pointed cone).  Each cell has an extreme ray lying on k
# independent constraints, and the cell's own labeling is recovered from that
# ray by tilting it so the touched points fall on their labeled sides.  So it
# suffices to enumerate, for every subset of min(k, n) points completed with
# coordinate directions, the ray v solving the subset's equations, plus the
# tilted variants v + tau*a where a restores the subset's labels and tau is
# small enough to leave every off-subset point on its current side.

ENUMERATION_CHUNK = 8192


def batched_null_vectors(blocks):
    """One null vector per (k, k+1) constraint block, batched over axis 0.

    Degenerate blocks (rank < k) yield the zero vector, which callers drop:
    every labeling reachable through them is reachable through a full-rank
    block in the same enumeration.
    """
    _, k, k1 = blocks.shape
    if k1 == 2:
        row = blocks[:, 0, :]
        return np.stack([-row[:, 1], row[:, 0]], axis=1)
    if k1 == 3:
        return np.cross(blocks[:, 0, :], blocks[:, 1, :])
    # k1 == 4: generalized cross product via signed 3x3 minors.
    out = np.empty((blocks.shape[0], 4))
    cols = np.arange(4)
    sign = 1.0
    for i in range(4):
        out[:, i] = sign * np.linalg.det(blocks[:, :, cols != i])
        sign = -sign
    return out


def index_chunks(n, j, chunk):
    """Yield (c, j) int arrays covering all j-subsets of range(n), c <= chunk."""
    it = combinations(range(n), j)
    while True:
        block = list(islice(it, chunk))
        if not block:
            return
        yield np.array(block, dtype=int).reshape(len(block), j)


def enumerate_hyperplanes(U, y):
    """Best rule over hyperplanes through every subset of up to k points.

    Each subset's hyperplane (completed with coordinate directions when fewer
    points pin it down) is tried in both orientations, both as-is and tilted
    so the spanning points land on their labeled sides; the two constant
    classifiers seed the search.  Returns (errors, v) with v = (w, t), where
    errors is the best candidate's count on the scores it was chosen by.
    O(n^(k+1)).
    """
    n, k = U.shape
    y_pos = y == 1.0
    best_errors, best_v = hypotheses._best_constant(y_pos, k)

    Z = np.concatenate([U, -np.ones((n, 1))], axis=1)
    ZT = Z.T
    eye = np.eye(k + 1)
    rows_of = np.arange

    for j in range(min(k, n), -1, -1):
        if best_errors == 0:
            break
        for pads in combinations(range(k + 1), k - j):
            if best_errors == 0:
                break
            for idx in index_chunks(n, j, ENUMERATION_CHUNK):
                c = idx.shape[0]
                P = Z[idx]  # (c, j, k+1)
                blocks = np.empty((c, k, k + 1))
                blocks[:, :j, :] = P
                blocks[:, j:, :] = eye[list(pads)]
                V = batched_null_vectors(blocks)
                norms = np.linalg.norm(V, axis=1)
                keep = np.isfinite(norms) & (norms > 0.0)
                if not np.any(keep):
                    continue
                V = V[keep] / norms[keep, None]
                idx_k = idx[keep]
                P = P[keep]
                c = V.shape[0]

                if j:
                    # Min-norm tilt a with a.z_i = y_i on the subset; a tiny
                    # ridge keeps duplicate-point Grams solvable (the tilt's
                    # magnitude is not load-bearing, only its signs are).
                    G = P @ P.transpose(0, 2, 1)
                    ridge = 1e-12 * np.einsum("cjj->c", G)
                    G[:, rows_of(j), rows_of(j)] += ridge[:, None]
                    coef = np.linalg.solve(G, y[idx_k][..., None])[..., 0]
                    A = np.einsum("cjd,cj->cd", P, coef)
                else:
                    A = np.zeros_like(V)

                S = V @ ZT
                Sa = A @ ZT
                # Largest tilt that cannot flip any point clearly off the ray.
                prot = np.abs(S) > 1e-12 * np.max(np.abs(S), axis=1, keepdims=True)
                if j:
                    prot[rows_of(c)[:, None], idx_k] = False
                ratio = np.where(prot, np.abs(S) / np.maximum(np.abs(Sa), 1e-300), np.inf)
                tau = 0.5 * np.min(ratio, axis=1)
                tau = np.where(np.isfinite(tau), np.minimum(tau, 1e12), 1.0)
                M = tau[:, None] * Sa

                for sign in (1.0, -1.0):
                    base = S if sign > 0 else -S
                    for tilted in (True, False):
                        scores = base + M if tilted else base
                        errs = np.count_nonzero((scores >= 0.0) != y_pos, axis=1)
                        local = int(np.argmin(errs))
                        if errs[local] < best_errors:
                            best_errors = int(errs[local])
                            best_v = sign * V[local]
                            if tilted:
                                best_v = best_v + tau[local] * A[local]
                if best_errors == 0:
                    break
    return best_errors, best_v


def oracle_risk(U, y):
    """The enumeration oracle's optimum: the error count of its best candidate.

    On lattices its returned rule can make an error more than that count,
    because points lying on a candidate plane read the sign of rounding
    noise, so the count, not the rule's recomputed risk, is the reference.
    At k = 3 the count itself can then be one below any rule's in exact
    arithmetic, so k = 3 lattices are checked by the LP scan instead.
    """
    errors, _ = enumerate_hyperplanes(U, y)
    return errors / len(y)


def test_sweep_matches_the_enumeration_oracle():
    """The sweep's optimum must equal the enumerator's count.

    At k <= 2: gaussian points at n from 1 to 200, lattices in
    {-2, ..., 2}^k (with duplicates and collinear and antipodal triples),
    single-class labels, and fits shaped like the Assouad benchmark
    workload.  At k = 3, where the sweep pivots on lines through two points:
    gaussian points at n from 1 to 60 and projected Assouad samples at
    n = 60, which repeat atoms many times over.
    """
    rng = np.random.default_rng(79)
    cases = []
    for k in (1, 2):
        for n in list(range(1, 13)) + [20, 40, 80, 120, 160, 200]:
            U = rng.standard_normal((n, k))
            cases.append((U, rng.choice([-1.0, 1.0], size=n)))
            noisy = U @ rng.standard_normal(k) - 0.3 + 0.5 * rng.standard_normal(n)
            cases.append((U, np.where(noisy >= 0.0, 1.0, -1.0)))
    for _ in range(300):
        n, k = int(rng.integers(1, 41)), int(rng.integers(1, 3))
        cases.append((rng.integers(-2, 3, size=(n, k)).astype(float), rng.choice([-1.0, 1.0], size=n)))
    for U, _ in cases[::25]:
        cases += [(U, np.ones(len(U))), (U, -np.ones(len(U)))]

    q, gamma, rho, alpha = 3000, 2.0, 2.0, 0.5
    two_gr = 2.0 * (gamma + rho)
    dist = AssouadDist(
        q,
        q ** (gamma / two_gr),
        q ** (-rho * gamma * alpha / two_gr),
        q ** (-gamma * rho * (1.0 - alpha) / two_gr),
        sigma=rng.choice([-1.0, 1.0], size=q),
    )
    X, y = dist.sample(EXACT_MAX_N, 80)
    for member in range(3):
        cases.append((apply(sample_projection("gaussian", 2, q + 1, member), X), y))

    for n in list(range(1, 25)) + [30, 40, 50, 60]:
        U = rng.standard_normal((n, 3))
        cases.append((U, rng.choice([-1.0, 1.0], size=n) if n % 2 else noisy_labels(rng, U)))
    for alpha in (0.25, 0.5, 0.75):
        sigma = rng.choice([-1.0, 1.0], size=q)
        dist = AssouadDist(q, q**0.25, q ** (-alpha / 2.0), q ** (-(1.0 - alpha) / 2.0), sigma=sigma)
        X, y = dist.sample(60, int(alpha * 100))
        assert len(np.unique(X.axes)) < 60  # distinct rows: each axis is one atom
        cases.append((apply(sample_projection("gaussian", 3, q + 1, int(alpha * 4)), X), y))

    for U, y in cases:
        report = erm_exact_classification(U, y)
        assert report.empirical_risk == oracle_risk(U, y), (U.tolist(), y.tolist())


def test_exact_erm_refuses_a_rule_that_misses_the_sweep_count(monkeypatch):
    sweep = hypotheses._sweep

    def off_by_one(U, y):
        errors, v = sweep(U, y)
        return errors - 1, v

    monkeypatch.setattr(hypotheses, "_sweep", off_by_one)
    rng = np.random.default_rng(81)
    for k in (2, 3):
        U = rng.standard_normal((30, k))
        y = rng.choice([-1.0, 1.0], size=30)
        with pytest.raises(RuntimeError, match="sweep counted"):
            erm_exact_classification(U, y)


def test_the_sweep_refuses_a_near_degenerate_lattice_with_its_own_error():
    # Lattices in {-2, ..., 2}^k scaled by 0.1 and shifted by 0.3: the best
    # arc is narrower than floating-point evaluation of its rule resolves.
    for k, seed, n_max in ((2, 54, 60), (3, 12, 40)):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, n_max))
        U = rng.integers(-2, 3, size=(n, k)) * 0.1 + 0.3
        y = rng.choice([-1.0, 1.0], size=n)
        with pytest.raises(SweepUncertifiedError, match="sweep counted"):
            erm_exact_classification(U, y)
    assert issubclass(SweepUncertifiedError, RuntimeError)


# ---------------------------------------------------------------------------
# the per-row reference sweep
# ---------------------------------------------------------------------------
#
# The sweep over training rows rather than distinct points: every row is a
# pivot (k <= 2) or ends a pivot line (k = 3), every row is a column, and
# each column carries its one label.  The production sweep must return the
# same count and the same rule, bit for bit.


def reference_best_arc(dx, dy, y_pos, best, lift):
    """``hypotheses._best_arc`` over one column per training row."""
    r, n = dx.shape
    dup = (dx == 0.0) & (dy == 0.0)
    cx, cy = -dy, dx
    leaves = (cx > 0.0) | ((cx == 0.0) & (cy > 0.0))
    cx = np.where(leaves, cx, -cx) + 0.0
    cy = np.where(leaves, cy, -cy) + 0.0
    angle = np.where(dup, np.inf, np.arctan2(cy, cx))
    order = np.argsort(angle, axis=1)
    flat = order + n * np.arange(r)[:, None]
    angle, cx, cy = angle.ravel()[flat], cx.ravel()[flat], cy.ravel()[flat]
    flip = np.where(y_pos, 1, -1)
    step = np.where(leaves, flip, -flip).ravel()[flat]

    plus0 = (dy < 0.0) | ((dy == 0.0) & (dx > 0.0))
    errors0 = np.count_nonzero((plus0 != y_pos) & ~dup, axis=1)[:, None]
    errors = np.concatenate([errors0, errors0 + np.cumsum(step, axis=1)[:, :-1]], axis=1)
    cross = cx[:, :-1] * cy[:, 1:] - cy[:, :-1] * cx[:, 1:]
    opens = np.isfinite(angle[:, 1:]) & (cross != 0.0)

    group = np.count_nonzero(dup, axis=1)
    group_plus = np.count_nonzero(dup & y_pos, axis=1)
    group_minus = group - group_plus
    valid = np.concatenate([(group < n)[:, None], opens], axis=1)
    turned = (n - group)[:, None] - errors
    cost = np.minimum(errors, turned) + np.minimum(group_plus, group_minus)[:, None]
    cost = np.where(valid, cost, n + 1)
    i, c = divmod(int(np.argmin(cost)), n)
    if cost[i, c] >= best[0]:
        return best

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
        if not lo < t:
            t = hi
    else:
        t = s0
    return int(cost[i, c]), np.append(w, t)


def reference_sweep(U, y):
    """``hypotheses._sweep`` with every row a pivot: O(n^2 log n) at k <= 2
    and O(n^3 log n) at k = 3, whatever the number of distinct rows."""
    n, k = U.shape
    y_pos = y == 1.0
    best = hypotheses._best_constant(y_pos, k)
    if k <= 2:
        P = np.zeros((n, 2))
        P[:, :k] = U
        D = P[None, :, :] - P[:, None, :]

        def lift(i, normal):
            s = P @ normal
            return normal[:k], s, s[i]

        return reference_best_arc(D[..., 0], D[..., 1], y_pos, best, lift)

    rel = U - U[0]
    far = np.flatnonzero(np.any(rel != 0.0, axis=1))
    if far.size and not np.any(np.cross(rel[far[0]], rel)):
        d = rel[far[0]]
        errors, v = reference_sweep((U @ d)[:, None], y)
        return errors, np.append(v[0] * d, v[1])
    for p in range(n - 1):
        rel = U - U[p]
        later = p + 1 + np.flatnonzero(np.any(rel[p + 1 :] != 0.0, axis=1))
        if not later.size:
            continue
        d = rel[later]
        axes = (np.argmax(np.abs(d), axis=1)[:, None] + [0, 1, 2]) % 3
        d_o, d_a, d_b = np.take_along_axis(d, axes, axis=1).T[..., None]
        e_o, e_a, e_b = rel.T[axes.T]

        def lift(r, nu):
            m = np.zeros(3)
            m[axes[r, 1:]] = nu
            N = np.cross(m, d[r])
            s = U @ N
            return N, s, s[p]

        best = reference_best_arc(d_b * e_o - d_o * e_b, d_o * e_a - d_a * e_o, y_pos, best, lift)
    return best


def projected_assouad_sample(k, n, seed):
    """n rows of a q = 3000 Assouad law at the benchmark's exponents, under a
    gaussian k x (q + 1) map: a few dozen distinct rows, each repeated."""
    q = 3000
    rng = np.random.default_rng(seed)
    dist = AssouadDist(q, q**0.25, q**-0.25, q**-0.25, sigma=rng.choice([-1.0, 1.0], size=q))
    X, y = dist.sample(n, seed)
    return apply(sample_projection("gaussian", k, q + 1, seed), X), y


def sweep_families(rng):
    """(U, y) pairs at k = 1, 2, 3 with repeated rows: lattices in
    {-2, ..., 2}^k, the same lattices * 0.5 + 0.25, gaussian points with
    their rows repeated, projected Assouad samples, and lattice rows that
    differ only in the sign of a zero."""
    for k in (1, 2, 3):
        for _ in range(25):
            n = int(rng.integers(1, 60 if k < 3 else 30))
            lattice = rng.integers(-2, 3, size=(n, k)).astype(float)
            for U in (lattice, lattice * 0.5 + 0.25):
                yield U, rng.choice([-1.0, 1.0], size=n)
            gauss = rng.standard_normal((max(n // 3, 1), k))
            U = gauss[rng.integers(0, len(gauss), size=n)]
            yield U, noisy_labels(rng, U)
            signed = np.where(lattice == 0.0, rng.choice([-0.0, 0.0], size=lattice.shape), lattice)
            yield signed, rng.choice([-1.0, 1.0], size=n)
        for seed in range(3):
            yield projected_assouad_sample(k, EXACT_MAX_N if k < 3 else 60, 10 * k + seed)


def test_sweep_matches_the_per_row_reference_bit_for_bit():
    rng = np.random.default_rng(82)
    for U, y in sweep_families(rng):
        errors, v = hypotheses._sweep(U, y)
        ref_errors, ref_v = reference_sweep(U, y)
        assert errors == ref_errors and np.array_equal(v, ref_v), (U.tolist(), y.tolist())


def unique_rows_reference(U):
    """The distinct rows by np.unique, renumbered by first occurrence."""
    _, first, inverse = np.unique(U + 0.0, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


def test_distinct_rows_match_numpy_unique():
    rng = np.random.default_rng(84)
    for k in (1, 2, 3):
        for n in (1, 2, 7, 50, 200):
            signed_zeros = np.where(rng.random((n, k)) < 0.5, -0.0, 0.0)
            for U in (
                rng.standard_normal((n, k)),
                rng.integers(-1, 2, size=(n, k)).astype(float),
                rng.integers(0, 2, size=(n, k)) + signed_zeros,
                signed_zeros,
                projected_assouad_sample(k, n, n + k)[0],
            ):
                first, inverse = hypotheses._distinct_rows(U)
                ref_first, ref_inverse = unique_rows_reference(U)
                assert np.array_equal(first, ref_first) and np.array_equal(inverse, ref_inverse)
                assert np.array_equal(U[first][inverse], U)
    # Rows that differ only in the sign of a zero are one point.
    first, inverse = hypotheses._distinct_rows(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0]]))
    assert first.tolist() == [0, 2] and inverse.tolist() == [0, 0, 1]


def test_the_sweep_works_on_distinct_points_only(monkeypatch):
    """At n = 200 the k = 2 sweep makes one (u, u) pass over the u distinct
    rows, and every k = 3 pass has u columns and at most u - 1 pivot lines."""
    shapes = []
    best_arc = hypotheses._best_arc

    def recorded(dx, *args):
        shapes.append(dx.shape)
        return best_arc(dx, *args)

    monkeypatch.setattr(hypotheses, "_best_arc", recorded)
    for k in (2, 3):
        U, y = projected_assouad_sample(k, EXACT_MAX_N, 40 + k)
        u = len(np.unique(U, axis=0))
        assert u < EXACT_MAX_N // 4
        shapes.clear()
        erm_exact_classification(U, y)
        if k == 2:
            assert shapes == [(u, u)]
        else:
            assert len(shapes) == u - 1
            assert all(cols == u and 1 <= rows <= u - 1 for rows, cols in shapes), shapes


def test_a_sample_stacked_on_itself_doubles_the_count_and_keeps_the_rule():
    rng = np.random.default_rng(83)
    for k in (1, 2, 3):
        for n in (1, 2, 7, 20, 50):
            for U in (rng.standard_normal((n, k)), rng.integers(-2, 3, size=(n, k)).astype(float)):
                y = noisy_labels(rng, U)
                errors, v = hypotheses._sweep(U, y)
                twice, twice_v = hypotheses._sweep(np.concatenate([U, U]), np.concatenate([y, y]))
                assert twice == 2 * errors and np.array_equal(twice_v, v), (U.tolist(), y.tolist())


# ---------------------------------------------------------------------------
# the solvers against reference formulations
# ---------------------------------------------------------------------------


def reference_descend(objective, gradient, x0, iters, plateau_tol):
    """Descent with the objective and the gradient as separate functions of x,
    each forming its scores on its own; fixed backtracking schedule."""
    x = x0.astype(float).copy()
    obj = float(objective(x))
    checkpoints = [obj]
    lr = 1.0
    window_start = obj
    for it in range(iters):
        g = gradient(x)
        accepted = False
        for _ in range(40):
            trial = x - lr * g
            trial_obj = float(objective(trial))
            if np.isfinite(trial_obj) and trial_obj <= obj:
                x, obj = trial, trial_obj
                lr *= 1.3
                accepted = True
                break
            lr *= 0.5
        if not accepted:
            break
        if (it + 1) % 50 == 0:
            checkpoints.append(obj)
            if window_start - obj < plateau_tol:
                break
            window_start = obj
    if checkpoints[-1] != obj:
        checkpoints.append(obj)
    return x, tuple(checkpoints)


def reference_surrogate(U, y, iters):
    """Backtracking gradient descent on the logistic surrogate from x = 0."""
    n, k = U.shape

    def objective(x):
        s = U @ x[:k] - x[k]
        return float(np.mean(np.logaddexp(0.0, -y * s)))

    def gradient(x):
        s = U @ x[:k] - x[k]
        g_s = -y * expit(-y * s)
        return np.concatenate([U.T @ g_s / n, [-np.mean(g_s)]])

    x0 = np.zeros(k + 1)
    return reference_descend(objective, gradient, x0, iters, 1e-10 * (1.0 + objective(x0)))


def reference_regression(U, y, loss, iters):
    """The regression descent with the objective and the gradient as separate
    functions of x, each forming the scores Z x over the column-major design
    Z = [U, -1] on its own."""
    n, k = U.shape
    beta = loss.beta
    Z = np.asfortranarray(np.column_stack([U, -np.ones(n)]))

    def objective(x):
        v = np.clip(Z @ x, -beta, beta)
        return float(np.mean(eval_loss(loss, v, y)))

    def pointwise_grad(v):
        if loss.kind == "squared":
            return 2.0 * (v - y)
        return 1.0 / (1.0 + np.exp(-v)) - y

    def gradient(x):
        s = Z @ x
        g_s = np.where(np.abs(s) < beta, pointwise_grad(np.clip(s, -beta, beta)), 0.0)
        return Z.T @ g_s / n

    if loss.kind == "squared":
        w0, t0 = reference_ols_start(U, y)
        x0 = np.concatenate([w0, [t0]])
    else:
        x0 = np.zeros(k + 1)
    return reference_descend(objective, gradient, x0, iters, 1e-10 * loss.bound)


def assert_same_descent(report, w, t, checkpoints):
    """The squared loss's descent scores its trial points on an anchored Gram
    model, whose sums round apart from a direct mean over the rows: the same
    checkpoints to 1e-12 relative, and (w, t) to 1e-8.  The largest gap on
    these cases is 3.7e-9, in t on the flat n = 64, k = 1 fit, on each
    OpenBLAS kernel from Prescott to Haswell."""
    assert len(report.objective_checkpoints) == len(checkpoints)
    np.testing.assert_allclose(report.objective_checkpoints, checkpoints, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(report.hypothesis.w - w)) <= 1e-8
    assert abs(report.hypothesis.t - t) <= 1e-8


def test_fused_descent_matches_the_separate_formulation_bit_for_bit():
    """Bit for bit on the kl loss, whose descent scores every row at every
    trial point; within ``assert_same_descent`` on the squared loss."""
    rng = np.random.default_rng(90)
    cases = []
    for n, k, iters in ((300, 5, 400), (64, 2, 2000), (500, 10, 150)):
        U = rng.standard_normal((n, k))
        w = rng.standard_normal(k)
        noisy = U @ w - 0.2 + 0.7 * rng.standard_normal(n)
        labels = np.where(noisy >= 0.0, 1.0, -1.0)

        # Scores range past the clip, so both sides of its kink are exercised.
        squared = make_loss("squared", beta=0.8)
        target = np.clip(0.6 * np.tanh(U @ w) + 0.3 * rng.standard_normal(n), -0.8, 0.8)
        report = erm_regression(U, target, squared, iters=iters)
        cases.append((squared, report, reference_regression(U, target, squared, iters)))

        kl = make_loss("kl", beta=1.5)
        binary = (labels + 1.0) / 2.0
        report = erm_regression(U, binary, kl, iters=iters)
        cases.append((kl, report, reference_regression(U, binary, kl, iters)))

    for loss, report, (x, checkpoints) in cases:
        k = report.hypothesis.w.shape[0]
        assert len(checkpoints) > 2
        if loss.kind == "squared":
            assert_same_descent(report, x[:k], x[k], checkpoints)
            continue
        assert np.array_equal(report.hypothesis.w, x[:k])
        assert report.hypothesis.t == x[k]
        assert report.objective_checkpoints == checkpoints


def test_regression_results_do_not_depend_on_the_layout_of_u():
    rng = np.random.default_rng(93)
    wide = rng.standard_normal((400, 12))
    strided = wide[:, ::2]
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    w = rng.standard_normal(6)
    target = np.clip(0.6 * np.tanh(strided @ w) + 0.3 * rng.standard_normal(400), -0.8, 0.8)
    binary = (np.sign(strided @ w + 0.5 * rng.standard_normal(400)) + 1.0) / 2.0
    layouts = (np.ascontiguousarray(strided), np.asfortranarray(strided), strided)
    for loss, y in ((make_loss("squared", beta=0.8), target), (make_loss("kl", beta=1.5), binary)):
        reports = [erm_regression(U, y, loss, iters=300) for U in layouts]
        first = reports[0]
        assert len(first.objective_checkpoints) > 2
        for report in reports[1:]:
            assert np.array_equal(report.hypothesis.w, first.hypothesis.w)
            assert report.hypothesis.t == first.hypothesis.t
            assert report.objective_checkpoints == first.objective_checkpoints
            assert report.empirical_risk == first.empirical_risk


def allocating_descend(U, value, slope, x0, iters, plateau_tol):
    """The regression descent as it was before it kept its length-n buffers:
    every trial allocates fresh scores, clipped predictions and loss rows."""
    n, k = U.shape
    Z = np.empty((n, k + 1), order="F")
    Z[:, :k] = U
    Z[:, k] = -1.0
    x = x0.astype(float).copy()
    s = Z @ x
    obj, v = value(s)
    checkpoints = [obj]
    lr = 1.0
    window_start = obj
    for it in range(iters):
        g = Z.T @ slope(s, v) / n
        accepted = False
        for _ in range(40):
            trial = x - lr * g
            trial_s = Z @ trial
            trial_obj, trial_v = value(trial_s)
            if np.isfinite(trial_obj) and trial_obj <= obj:
                x, s, v, obj = trial, trial_s, trial_v, trial_obj
                lr *= 1.3
                accepted = True
                break
            lr *= 0.5
        if not accepted:
            break
        if (it + 1) % 50 == 0:
            checkpoints.append(obj)
            if window_start - obj < plateau_tol:
                break
            window_start = obj
    if checkpoints[-1] != obj:
        checkpoints.append(obj)
    return x, tuple(checkpoints)


def allocating_regression(U, y, loss, iters):
    """erm_regression's (w, t, checkpoints, empirical risk) from the
    allocating descent and its value and slope closures."""
    k = U.shape[1]
    beta = loss.beta
    if loss.kind == "squared":

        def pointwise_slope(v):
            return 2.0 * (v - y)

        w0, t0 = reference_ols_start(U, y)
        x0 = np.concatenate([w0, [t0]])
    else:

        def pointwise_slope(v):
            return hypotheses._expit(v) - y

        x0 = np.zeros(k + 1)

    def value(s):
        v = np.clip(s, -beta, beta)
        return float(np.mean(_loss_values(loss, v, y))), v

    def slope(s, v):
        return np.where(np.abs(s) < beta, pointwise_slope(v), 0.0)

    x, checkpoints = allocating_descend(U, value, slope, x0, iters, 1e-10 * loss.bound)
    h = LinearHypothesis(w=x[:k], t=float(x[k]), mode="clip", beta=beta)
    risk = float(np.mean(eval_loss(loss, h.predict(np.asfortranarray(U)), y)))
    return x[:k], x[k], checkpoints, risk


def test_in_place_descent_matches_the_allocating_descent_bit_for_bit():
    """Bit for bit on the kl loss, which keeps the in-place full pass;
    within ``assert_same_descent`` on the squared loss."""
    rng = np.random.default_rng(94)
    for n, k, iters in ((2000, 10, 300), (300, 3, 400), (64, 1, 2000)):
        U = rng.standard_normal((n, k))
        w = rng.standard_normal(k)
        # Scores range past the clip, so both sides of its kink are exercised.
        target = np.clip(0.6 * np.tanh(U @ w) + 0.3 * rng.standard_normal(n), -0.8, 0.8)
        binary = (np.sign(U @ w + 0.5 * rng.standard_normal(n)) + 1.0) / 2.0
        for loss, y in ((make_loss("squared", beta=0.8), target), (make_loss("kl", beta=1.5), binary)):
            report = erm_regression(U, y, loss, iters=iters)
            w_ref, t_ref, checkpoints, risk = allocating_regression(U, y, loss, iters)
            assert len(checkpoints) > 2
            if loss.kind == "squared":
                assert_same_descent(report, w_ref, t_ref, checkpoints)
                assert report.empirical_risk == pytest.approx(risk, rel=1e-12, abs=0.0)
                continue
            assert np.array_equal(report.hypothesis.w, w_ref)
            assert report.hypothesis.t == t_ref
            assert report.objective_checkpoints == checkpoints
            assert report.empirical_risk == risk


def test_regression_descent_calls_the_checked_loss_a_fixed_number_of_times(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(None)
        return eval_loss(*args)

    monkeypatch.setattr(hypotheses, "eval_loss", counted)
    rng = np.random.default_rng(91)
    U = rng.standard_normal((200, 3))
    y = np.clip(0.5 * U[:, 0] + 0.3 * rng.standard_normal(200), -1.0, 1.0)
    for loss, labels in ((make_loss("squared"), y), (make_loss("kl"), (y >= 0.0).astype(float))):
        counts = []
        for iters in (5, 60, 300):
            calls.clear()
            report = erm_regression(U, labels, loss, iters=iters)
            assert report.objective_checkpoints[-1] < report.objective_checkpoints[0]
            counts.append(len(calls))
        assert counts == [counts[0]] * 3, counts


def counted_anchors(monkeypatch):
    """Record the near-row count of every anchor pass the squared loss's
    descent makes, its only passes over all the rows."""
    near_rows = []
    original = hypotheses._AnchoredSquares._anchor

    def counted(self, x, pending):
        original(self, x, pending)
        near_rows.append(len(self.near_y))

    monkeypatch.setattr(hypotheses._AnchoredSquares, "_anchor", counted)
    return near_rows


def test_the_anchored_model_is_the_direct_objective_inside_its_ball(monkeypatch):
    """At 50 points inside an anchor's ball, the Gram model's objective and
    gradient equal the direct clipped mean and Z^T slope / n, with near,
    far-inside and far-outside rows all present."""
    near_rows = counted_anchors(monkeypatch)
    rng = np.random.default_rng(95)
    n, k, beta = 600, 4, 0.8
    U = rng.standard_normal((n, k))
    y = np.clip(0.5 * U[:, 0] + 0.3 * rng.standard_normal(n), -beta, beta)
    Z = hypotheses._design(U)
    model = hypotheses._AnchoredSquares(Z, y, beta)
    x_a = np.array([0.6, -0.3, 0.2, 0.1, 0.05])
    model.value(x_a)
    model.accept()
    # A trial 0.3 away leaves the first ball and re-anchors at x_a.
    model.value(x_a + 0.3 * np.eye(k + 1)[0])
    assert len(near_rows) == 2 and np.array_equal(model.anchor, x_a) and model.radius >= 0.299

    s_a = Z @ x_a
    near = np.abs(beta - np.abs(s_a)) / np.linalg.norm(Z, axis=1) <= model.radius
    inside = np.abs(s_a) < beta
    assert near.any() and (inside & ~near).any() and (~inside & ~near).any()
    assert near.sum() == near_rows[-1]

    for _ in range(50):
        direction = rng.standard_normal(k + 1)
        x = x_a + model.radius * rng.random() * direction / np.linalg.norm(direction)
        obj = model.value(x)
        model.accept()
        g = model.gradient()
        s = Z @ x
        v = np.clip(s, -beta, beta)
        assert obj == pytest.approx(np.mean(np.square(v - y)), rel=1e-12, abs=0.0)
        direct = Z.T @ np.where(np.abs(s) < beta, 2.0 * (v - y), 0.0) / n
        assert np.linalg.norm(g - direct) <= 1e-12 * np.linalg.norm(direct)
    assert len(near_rows) == 2


def test_a_squared_loss_fit_passes_over_the_rows_far_fewer_times_than_it_steps(monkeypatch):
    """One 300-step fit at the reg_spectral shape, n = 8192 and k = 10:
    the descent passes over all the rows only at its anchors, a handful of
    times, and scores a small share of the rows at each trial point."""
    near_rows = counted_anchors(monkeypatch)
    dist = RegressionDist(d=32, spectral_constant=1.0, spectral_decay=0.2, w=np.ones(32))
    n = 8192
    X, y = dist.sample(n, 3)
    U = apply(sample_projection("gaussian", 10, 32, 0), X)
    report = erm_regression(U, y, dist.loss_spec, iters=300)
    assert len(report.objective_checkpoints) == 7  # every one of the 300 steps taken
    assert 1 <= len(near_rows) <= 20, near_rows
    assert max(near_rows) <= n // 4, near_rows


def noisy_labels(rng, U, noise=0.7):
    w = rng.standard_normal(U.shape[1])
    return np.where(U @ w - 0.2 + noise * rng.standard_normal(U.shape[0]) >= 0.0, 1.0, -1.0)


def newton_steps(report):
    return len(report.objective_checkpoints) - 1


def test_newton_reaches_the_reference_descent_objective_on_noisy_points():
    """Where the surrogate has a minimizer, Newton ends no higher than the
    reference descent, and its per-step trace never rises."""
    rng = np.random.default_rng(92)
    for n, k, iters in ((300, 5, 400), (64, 2, 2000), (500, 10, 150), (1000, 1, 300), (200, 8, 2000)):
        U = rng.standard_normal((n, k))
        y = noisy_labels(rng, U)
        report = erm_surrogate_classification(U, y, iters=iters)
        _, reference = reference_surrogate(U, y, iters)
        assert report.objective_checkpoints[-1] <= reference[-1] + 1e-12
        trace = report.objective_checkpoints
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert 2 <= newton_steps(report) <= 10


def degenerate_cases():
    """Inputs where the surrogate has no minimizer or the design is singular."""
    rng = np.random.default_rng(93)
    cases = []
    for n, k in ((40, 3), (200, 5), (7, 6)):
        U = rng.standard_normal((n, k))
        cases.append(("separable", U, np.where(U @ rng.standard_normal(k) >= 0.3, 1.0, -1.0)))
        cases.append(("single class", U, np.full(n, rng.choice([-1.0, 1.0]))))
        duplicate = np.concatenate([U, U[:, :1], -2.0 * U[:, -1:]], axis=1)
        cases.append(("duplicate columns", duplicate, noisy_labels(rng, U)))
        cases.append(("k = 1", U[:, :1], noisy_labels(rng, U[:, :1])))
        cases.append(("n = 1", U[:1], rng.choice([-1.0, 1.0], size=1)))
    two = rng.standard_normal((1, 3)).repeat(2, axis=0)
    cases.append(("opposite duplicates", two, np.array([1.0, -1.0])))
    return cases


def test_newton_is_finite_and_short_where_no_minimizer_exists():
    for name, U, y in degenerate_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                report = erm_surrogate_classification(U, y, iters=500)
        h = report.hypothesis
        assert np.all(np.isfinite(h.w)) and np.isfinite(h.t), name
        assert newton_steps(report) <= 12, (name, newton_steps(report))
        x, _ = reference_surrogate(U, y, 500)
        k = U.shape[1]
        reference = LinearHypothesis(w=x[:k], t=float(x[k]), mode="sign")
        assert report.empirical_risk <= float(np.mean(reference.predict(U) != y)), name


def test_newton_weights_agree_with_scipy_expit_within_two_ulps():
    """Same formula; numpy's vectorized exp may differ from the C library's
    by one ulp, and 1 + exp and the division can carry that to two ulps of
    the weight (on about 0.4 % of this grid, on an AVX-512 x86_64 CPU)."""
    margins = np.linspace(-800.0, 800.0, 400_001)
    ours = hypotheses._expit(-margins)
    theirs = expit(-margins)
    # Both are nonnegative, so their bit patterns order as their values.
    assert np.max(np.abs(ours.view(np.int64) - theirs.view(np.int64))) <= 2
    assert np.array_equal(ours == 0.0, theirs == 0.0)


def test_newton_margins_past_the_overflow_of_exp_raise_no_warning(monkeypatch):
    """Separable points plus one opposite-labelled copy: the far points'
    margins pass 710, where exp(margin) overflows and their weight is 0."""
    rng = np.random.default_rng(2)
    U = rng.standard_normal((60, 3))
    y = np.where(U @ np.array([1.0, -1.0, 0.5]) >= 0.3, 1.0, -1.0)
    U, y = np.concatenate([U, U[:1]]), np.concatenate([y, -y[:1]])
    largest = []
    original = hypotheses._expit

    def recorded(x):
        largest.append(float(np.max(-x)))
        return original(x)

    monkeypatch.setattr(hypotheses, "_expit", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = erm_surrogate_classification(U, y, iters=2000)
    assert max(largest) > 710.0
    assert np.all(np.isfinite(report.hypothesis.w)) and np.isfinite(report.hypothesis.t)
    assert all(np.isfinite(report.objective_checkpoints))


def test_newton_stops_once_the_points_are_separated():
    rng = np.random.default_rng(94)
    U = rng.standard_normal((300, 4))
    y = np.where(U @ np.array([1.0, -1.0, 0.5, 0.0]) >= 0.1, 1.0, -1.0)
    report = erm_surrogate_classification(U, y, iters=2000)
    assert report.empirical_risk == 0.0
    assert newton_steps(report) <= 12
    # One Newton step fewer leaves a point on the wrong side, or the solve
    # would have stopped there.
    shorter = erm_surrogate_classification(U, y, iters=newton_steps(report) - 1)
    assert shorter.empirical_risk > 0.0


def test_newton_stops_where_opposite_duplicates_pin_the_objective():
    """Separable points plus opposite-labelled copies of a few of them: no
    minimizer exists, and the objective creeps down forever."""
    rng = np.random.default_rng(95)
    for case in range(100):
        n, k = int(rng.integers(10, 120)), int(rng.integers(2, 10))
        U = rng.standard_normal((n, k))
        y = np.where(U @ rng.standard_normal(k) >= 0.3, 1.0, -1.0)
        copies = int(rng.integers(1, 4))
        U, y = np.concatenate([U, U[:copies]]), np.concatenate([y, -y[:copies]])
        report = erm_surrogate_classification(U, y, iters=2000)
        assert newton_steps(report) <= 40, (case, newton_steps(report))
        if case < 10:
            x, _ = reference_surrogate(U, y, 2000)
            reference = LinearHypothesis(w=x[:k], t=float(x[k]), mode="sign")
            assert report.empirical_risk <= float(np.mean(reference.predict(U) != y))


def test_newton_on_a_gauss_margin_member_takes_at_most_ten_steps():
    """The criterion-10 law at n = 4096, where k = 23."""
    X, y = GaussMarginDist(50, gamma=2.0, rho=2.0, alpha=0.0).sample(4096, 96)
    k = optimal_k_classification(4096, 2.0, 2.0, 0.0)
    assert k == 23
    for member in range(3):
        U = apply(sample_projection("gaussian", k, 50, member), X)
        report = erm_surrogate_classification(U, y, iters=500)
        assert newton_steps(report) <= 10


# ---------------------------------------------------------------------------
# Newton on a stack of member designs against solo solves
# ---------------------------------------------------------------------------


def solo_newton(U, y, iters):
    """The damped Newton solve of one design as a loop of its own: the
    reference each member of a lockstep batch must equal bit for bit.

    Returns (x, checkpoints, stop, work), where ``stop`` names the rule
    that ended the solve and ``work`` counts its Hessian solves and its
    trial points.
    """
    n, k = U.shape
    Z = np.empty((n, k + 1))
    Z[:, :k] = U
    Z[:, k] = -1.0
    grad_floor = hypotheses._GRAD_RTOL * float(np.max(np.abs(Z.T @ y))) / (2 * n)
    x, margins = np.zeros(k + 1), np.zeros(n)
    obj = float(np.mean(np.logaddexp(0.0, -margins)))
    checkpoints, stop, solves, trials = [obj], "cap", 0, 0
    for _ in range(iters):
        q = hypotheses._expit(-margins)
        grad = Z.T @ (-y * q) / n
        if np.max(np.abs(grad)) < grad_floor:
            stop = "grad floor"
            break
        W = Z * np.sqrt(q * (1.0 - q))[:, None]
        H = W.T @ W / n
        curvature = np.diag(H).copy()
        H[np.diag_indices(k + 1)] += hypotheses._NEWTON_RIDGE * np.where(curvature > 0.0, curvature, 1.0)
        dx = np.linalg.solve(H, grad)
        solves += 1
        if float(grad @ dx) / 2.0 < hypotheses._NEWTON_TOL:
            stop = "decrement"
            break
        step = 1.0
        for _ in range(hypotheses._MAX_HALVINGS):
            trial = x - step * dx
            trial_margins = y * (Z @ trial)
            trial_obj = float(np.mean(np.logaddexp(0.0, -trial_margins)))
            trials += 1
            if trial_obj <= obj:
                break
            step *= 0.5
        else:
            stop = "no halving"
            break
        decrease = obj - trial_obj
        x, margins, obj = trial, trial_margins, trial_obj
        checkpoints.append(obj)
        if decrease < hypotheses._NEWTON_TOL:
            stop = "decrease"
            break
        if np.all(margins > 0.0):
            stop = "separated"
            break
    return x, tuple(checkpoints), stop, (solves, trials)


def mixed_member_designs(rng, n, k, m):
    """m designs of n rows that share one label vector, cycling through
    members that Newton separates at once, noisy ones, ones with
    opposite-labelled duplicate rows, duplicate columns and large scale."""
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    designs = []
    for j in range(m):
        U = rng.standard_normal((n, k))
        kind = j % 5
        if kind == 0:  # every coordinate carries the label's sign
            U = y[:, None] * (1.0 + np.abs(U))
        elif kind == 1:
            U += 0.7 * y[:, None]
        elif kind == 2:  # rows 0 and 1 are one point with opposite labels
            U = y[:, None] * (1.0 + np.abs(U))
            U[1] = U[0]
        elif kind == 3 and k > 1:
            U[:, 1] = U[:, 0]
        elif kind == 4:
            U *= 1e3
        designs.append(U)
    return np.stack(designs), y


def newton_batch_cases():
    """(name, stack, y) cases: handmade stacks, and members projected from
    dense and axis-point training sets."""
    rng = np.random.default_rng(97)
    cases = [(f"mixed n={n} k={k}", *mixed_member_designs(rng, n, k, 25))
             for n, k in ((40, 3), (200, 2), (3, 5), (2, 4))]
    q = 3000
    dist = AssouadDist(q, q**0.25, q**-0.25, q**-0.25, sigma=rng.choice([-1.0, 1.0], size=q))
    X, y = dist.sample(200, 98)
    maps = [sample_projection("gaussian", 2, q + 1, seed) for seed in range(25)]
    for name, points in (("axis points", X), ("dense assouad", X.toarray())):
        cases.append((name, np.stack([apply(pmap, points) for pmap in maps]), y))
    X, y = GaussMarginDist(8, gamma=2.0, rho=2.0, alpha=0.0).sample(150, 99)
    X, y = np.concatenate([X, X[:3]]), np.concatenate([y, -y[:3]])
    maps = [sample_projection("rademacher", 4, 8, seed) for seed in range(25)]
    cases.append(("dense, opposite duplicates", np.stack([apply(pmap, X) for pmap in maps]), y))
    return cases


def test_newton_batch_equals_solo_solves_bit_for_bit():
    stops = set()
    for name, stack, y in newton_batch_cases():
        m, _, k = stack.shape
        for iters in (1, 2, 500):
            solo = [solo_newton(U, y, iters) for U in stack]
            stops.update((stop, len(cps) - 1 if stop == "separated" else None) for _, cps, stop, _ in solo)
            for size in (1, 2, 5, m):
                for start in range(0, m, size):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        batch = erm_surrogate_classification(stack[start : start + size], y, iters=iters)
                    assert len(batch) == min(size, m - start)
                    for j, report in enumerate(batch, start):
                        x, checkpoints, _, _ = solo[j]
                        h = report.hypothesis
                        where = (name, iters, size, j)
                        assert np.array_equal(h.w, x[:k]) and h.t == x[k], where
                        assert report.objective_checkpoints == checkpoints, where
                        risk = float(np.mean(np.where(stack[j] @ x[:k] - x[k] >= 0.0, 1.0, -1.0) != y))
                        assert report.empirical_risk == risk, where
    reasons = {stop for stop, _ in stops}
    assert {"grad floor", "decrement", "separated", "cap"} <= reasons, reasons
    assert ("separated", 1) in stops


def test_a_stopped_member_is_never_solved_or_stepped_again(monkeypatch):
    """The batch solves the Hessians and scores the trial points of the
    running members only: its work equals the solo solves' work."""
    solve, logaddexp = np.linalg.solve, np.logaddexp
    for name, stack, y in newton_batch_cases():
        solo = [solo_newton(U, y, 500)[3] for U in stack]
        solved, scored = [], []

        def solve_recorded(H, g):
            solved.append(len(H))
            return solve(H, g)

        def logaddexp_recorded(a, b):
            scored.append(np.size(b) // len(y))
            return logaddexp(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(hypotheses.np.linalg, "solve", solve_recorded)
            patch.setattr(hypotheses.np, "logaddexp", logaddexp_recorded)
            erm_surrogate_classification(stack, y, iters=500)
        assert sum(solved) == sum(solves for solves, _ in solo), name
        assert solved == sorted(solved, reverse=True), name
        # The first call scores the starting point of every member.
        assert sum(scored[1:]) == sum(trials for _, trials in solo), name


def test_a_stack_validates_its_labels_against_its_rows():
    stack = np.zeros((3, 10, 2))
    with pytest.raises(ValueError, match="one label per row"):
        erm_surrogate_classification(stack, np.ones(3))
    with pytest.raises(ValueError, match="g x n x k stack"):
        erm_surrogate_classification(np.zeros((2, 3, 10, 2)), np.ones(10))
    with pytest.raises(ValueError, match="n x k array"):
        erm_exact_classification(stack, np.ones(10))


def test_fit_takes_a_stack_through_every_solver():
    rng = np.random.default_rng(96)
    stack, y = mixed_member_designs(rng, 60, 2, 4)
    labels = np.clip(0.4 * stack[:, :, 0].mean(axis=0) + 0.1 * rng.standard_normal(60), -1.0, 1.0)
    for loss, solver, targets in (
        (make_loss("zero_one"), "exact", y),
        (make_loss("zero_one"), "surrogate", y),
        (make_loss("squared"), "surrogate", labels),
    ):
        reports = fit(stack, targets, loss, solver, iters=40)
        assert isinstance(reports, tuple) and len(reports) == 4
        for U, report in zip(stack, reports):
            alone = fit(U, targets, loss, solver, iters=40)
            assert np.array_equal(report.hypothesis.w, alone.hypothesis.w), solver
            assert report.hypothesis.t == alone.hypothesis.t, solver
            assert report.empirical_risk == alone.empirical_risk, solver
            assert report.objective_checkpoints == alone.objective_checkpoints, solver


# ---------------------------------------------------------------------------
# the regression descent against a converged reference
# ---------------------------------------------------------------------------


def reference_gauss_newton(U, y, beta, iters=200):
    """Semismooth Gauss-Newton on the clipped squared loss, from OLS.

    The active set is the points with |s| < beta, where the clip is the
    identity; each step solves the least-squares system Z_A dx = s_A - y_A
    and is halved until the clipped objective does not rise.  Returns the
    final objective.
    """
    n = U.shape[0]
    Z = np.concatenate([U, -np.ones((n, 1))], axis=1)
    w0, t0 = reference_ols_start(U, y)
    x = np.concatenate([w0, [t0]])

    def objective(x):
        return float(np.mean((np.clip(Z @ x, -beta, beta) - y) ** 2))

    obj = objective(x)
    for _ in range(iters):
        s = Z @ x
        active = np.abs(s) < beta
        dx, *_ = np.linalg.lstsq(Z[active], s[active] - y[active], rcond=None)
        step = 1.0
        for _ in range(60):
            trial_obj = objective(x - step * dx)
            if trial_obj <= obj:
                break
            step *= 0.5
        else:
            break
        x = x - step * dx
        converged = obj - trial_obj <= 1e-15 * obj
        obj = trial_obj
        if converged:
            break
    return obj


def test_regression_descent_never_beats_the_gauss_newton_reference():
    """On the criterion-9 law, noiseless and noisy, at k = ceil(ln n).

    The clipped loss is not convex, so neither solver is certified global.
    On laws where many labels sit at the clip, mostly at k <= 2, the descent
    can end in a lower local minimum than this reference; on this law it
    does not.
    """
    for noise in (None, ("bounded_uniform", 0.3)):
        dist = RegressionDist(d=32, spectral_constant=1.0, spectral_decay=0.2, w=np.ones(32), noise=noise)
        for n in (128, 512, 2048):
            k = optimal_k_regression(n)
            X, y = dist.sample(n, n)
            for member in range(2):
                U = apply(sample_projection("gaussian", k, 32, member), X)
                report = erm_regression(U, y, dist.loss_spec, iters=300)
                reference = reference_gauss_newton(U, y, dist.loss_spec.beta)
                assert report.empirical_risk >= reference - 1e-12, (n, member)

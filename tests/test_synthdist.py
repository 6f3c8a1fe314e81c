import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from cerm import synthdist
from cerm.losses import make_loss
from cerm.projections import AxisPoints, _row_blocks, _rows_dot
from cerm.synthdist import (
    AssouadDist,
    FiniteSupportDist,
    GaussMarginDist,
    RegressionDist,
    SmallSampleError,
    assouad_min_n,
    build_assouad_family,
    check_geometric_margin,
    check_membership,
    check_moment,
    check_spectral_decay,
    check_tsybakov,
    chi_squared_adjacent,
    dist_from_config,
)


def two_atom_dist():
    return FiniteSupportDist(
        points=[[0.0], [1.0]],
        probs=[0.5, 0.5],
        label_values=[[-1.0, 1.0], [-1.0, 1.0]],
        label_probs=[[0.3, 0.7], [0.9, 0.1]],
        loss=make_loss("zero_one"),
    )


def test_finite_support_bayes_risk_by_hand():
    """Atom 0 has eta = 0.7 (predict +1, err 0.3), atom 1 has eta = 0.1
    (predict -1, err 0.1); equal masses give 0.5 * 0.3 + 0.5 * 0.1 = 0.2."""
    dist = two_atom_dist()
    est = dist.bayes_risk()
    assert est.exact
    assert est.std_error == 0.0
    assert est.value == pytest.approx(0.2, abs=1e-15)
    assert np.array_equal(dist.bayes_actions(), [1.0, -1.0])
    assert np.array_equal(dist.bayes_predict(dist.points), [1.0, -1.0])


def test_finite_support_sampling():
    dist = two_atom_dist()
    X1, y1 = dist.sample(500, seed=3)
    X2, y2 = dist.sample(500, seed=3)
    assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
    X3, _ = dist.sample(500, seed=4)
    assert not np.array_equal(X1, X3)
    assert set(np.unique(X1)) <= {0.0, 1.0}
    assert set(np.unique(y1)) <= {-1.0, 1.0}
    # label frequency at atom 0 tracks eta = 0.7
    at0 = y1[X1[:, 0] == 0.0]
    phat = np.mean(at0 == 1.0)
    assert abs(phat - 0.7) < 4.0 * math.sqrt(0.7 * 0.3 / at0.size)


def test_finite_support_validation():
    loss = make_loss("zero_one")
    with pytest.raises(ValueError):
        FiniteSupportDist([[0.0]], [0.9], [[1.0]], [[1.0]], loss)  # probs don't sum
    with pytest.raises(ValueError):
        FiniteSupportDist([[0.0]], [1.0], [[1.0]], [[0.5]], loss)  # label row not a law
    with pytest.raises(ValueError):
        FiniteSupportDist([[0.0]], [1.0], [[0.5]], [[1.0]], loss)  # label off-domain


def test_assouad_family_frozen_values():
    """q = ceil((2^5 n)^(1/2)) at gamma = rho = 2, alpha = 0, recomputed by
    hand for n = 10^6: sqrt(3.2e7) = 5656.85...; the rest follow from q."""
    params = build_assouad_family(1_000_000, gamma=2.0, rho=2.0, alpha=0.0)
    assert params.q == 5657
    assert params.v == 1.0
    assert params.r == pytest.approx(8.672544654592162, rel=1e-12)
    assert params.epsilon == pytest.approx(0.013295568461356738, rel=1e-12)


def test_assouad_family_sits_on_the_boundary():
    """The construction makes epsilon v = (r / sqrt(q))^gamma = r^(-rho)."""
    for gamma, rho, alpha in ((1.0, 2.0, 0.0), (2.0, 2.0, 0.5), (4.0, 1.0, 0.5)):
        n = int(math.ceil(assouad_min_n(gamma, rho, alpha))) * 2
        p = build_assouad_family(n, gamma, rho, alpha)
        ev = p.epsilon * p.v
        assert ev == pytest.approx((p.r / math.sqrt(p.q)) ** gamma, rel=1e-9)
        assert ev == pytest.approx(p.r ** (-rho), rel=1e-9)


def test_assouad_min_n_guard():
    # D = 5.5 at (1, 1, 0.5): the q-guard 1 + 2^22 dominates the eps-guard 2^11.
    n0 = assouad_min_n(1.0, 1.0, 0.5)
    assert n0 == 4194305.0
    with pytest.raises(SmallSampleError):
        build_assouad_family(4194304, 1.0, 1.0, 0.5)
    params = build_assouad_family(4194305, 1.0, 1.0, 0.5)
    assert all(check_membership(params).values())


def test_assouad_membership_across_exponents():
    for gamma in (1.0, 2.0, 4.0):
        for rho in (1.0, 2.0, 4.0):
            for alpha in (0.0, 0.5):
                n = int(math.ceil(assouad_min_n(gamma, rho, alpha)))
                params = build_assouad_family(n, gamma, rho, alpha)
                flags = check_membership(params)
                assert all(flags.values()), (gamma, rho, alpha, flags)


def test_chi_squared_adjacent_closed_form():
    """Exactly one flipped atom contributes; with eta = (1 +- eps)/2 the sum
    collapses to 4 eps^2 v / (q (1 - eps^2)), and eps < 1/2 keeps that under
    the working bound 2^4 eps^2 v / q."""
    q, r, v, eps = 4, 1.5, 0.5, 0.3
    sigma_a = np.ones(q)
    sigma_b = sigma_a.copy()
    sigma_b[2] = -1.0
    a = AssouadDist(q, r, v, eps, sigma_a)
    b = AssouadDist(q, r, v, eps, sigma_b)
    chi = chi_squared_adjacent(a, b)
    assert chi == pytest.approx(4 * eps**2 * v / (q * (1 - eps**2)), rel=1e-14)
    assert chi == pytest.approx(0.04945054945054945, rel=1e-12)
    assert chi <= 16 * eps**2 * v / q

    with pytest.raises(ValueError):
        chi_squared_adjacent(a, AssouadDist(q, 1.6, v, eps, sigma_b))
    sigma_c = sigma_a.copy()
    sigma_c[[0, 1]] = -1.0
    with pytest.raises(ValueError):
        chi_squared_adjacent(a, AssouadDist(q, r, v, eps, sigma_c))


def test_assouad_atoms_match_profile():
    """Materialized coordinates must reproduce the arithmetic profile: margins
    against the reference separator (e_0 + q^(-1/2) sum sigma_l e_l)/sqrt(2),
    norms, masses, and |2 eta - 1|."""
    q, r, v, eps = 6, 2.0, 0.4, 0.25
    sigma = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    dist = AssouadDist(q, r, v, eps, sigma)
    points, probs, label_values, label_probs = dist.atoms()
    points = points.toarray()
    w_ref = np.concatenate([[1.0], sigma / math.sqrt(q)]) / math.sqrt(2.0)
    margins = np.abs(points @ w_ref)
    p_probs, p_weights, p_margins, p_norms = dist.atom_profile()
    assert np.allclose(margins, p_margins, atol=1e-14)
    assert np.allclose(np.linalg.norm(points, axis=1), p_norms, atol=1e-14)
    assert np.array_equal(probs, p_probs)
    eta = label_probs[:, label_values[0] == 1.0].ravel()
    assert np.allclose(np.abs(2 * eta - 1), p_weights, atol=1e-14)


def test_assouad_atoms_at_large_q_take_no_coordinates():
    """At q = 7000, where dense coordinates would take 392 MB, the atoms are
    an O(q) axis set: atom l sits on axis l at its profile norm."""
    sigma = np.where(np.random.default_rng(3).random(7000) < 0.5, -1.0, 1.0)
    dist = AssouadDist(q=7000, r=2.0, v=0.5, epsilon=0.1, sigma=sigma)
    points, probs, label_values, label_probs = dist.atoms()
    assert isinstance(points, AxisPoints)
    assert points.shape == (7001, 7001) and len(points) == 7001
    assert np.array_equal(points.axes, np.arange(7001))
    p_probs, p_weights, p_margins, p_norms = dist.atom_profile()
    assert np.array_equal(points.scales, p_norms)
    assert np.array_equal(probs, p_probs)
    assert label_values.shape == label_probs.shape == (7001, 2)
    assert p_margins[0] == pytest.approx(1 / math.sqrt(2))
    # The law's own Bayes predictor and eta read the atom of each point.
    assert np.array_equal(dist.bayes_predict(points), np.concatenate([[1.0], sigma]))
    assert np.array_equal(dist.eta(points), label_probs[:, label_values[0] == 1.0].ravel())


class _AssouadFormulas:
    """The Assouad law written out from its definition, with no table: the
    reference its finite-support form must equal bit for bit."""

    def __init__(self, dist):
        self.q, self.r, self.v, self.eps, self.sigma = dist.q, dist.r, dist.v, dist.epsilon, dist.sigma
        self.probs = np.concatenate([[1.0 - self.v], np.full(self.q, self.v / self.q)])
        self.eta = np.concatenate([[1.0], (1.0 + self.eps * self.sigma) / 2.0])

    def sample(self, n, seed):
        """The atom draw, then y = +1 iff u < eta."""
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.q + 1, size=n, p=self.probs)
        y = np.where(rng.random(n) < self.eta[idx], 1.0, -1.0)
        return idx, np.where(idx == 0, 1.0, self.r), y

    def bayes_predict(self, axes):
        light = np.where(self.sigma[np.maximum(axes - 1, 0)] >= 0.0, 1.0, -1.0)
        return np.where(axes == 0, 1.0, light)

    def bayes_risk(self):
        return float(np.sum(self.probs * np.minimum(self.eta, 1.0 - self.eta)))

    def chi_squared_flip(self, l):
        """chi^2 to the member whose sign l is flipped."""
        eta_a = (1.0 + self.eps * self.sigma[l]) / 2.0
        eta_b = (1.0 - self.eps * self.sigma[l]) / 2.0
        return self.v / self.q * (eta_a - eta_b) ** 2 * (1.0 / eta_b + 1.0 / (1.0 - eta_b))


@pytest.mark.parametrize("q", [4, 3000, 7000])
def test_assouad_law_equals_its_formulas(q):
    """Sampling, atoms, eta, the Bayes rule, the Bayes risk and chi^2 of the
    finite-support form equal the law's own formulas bit for bit."""
    for seed in range(4):
        rng = np.random.default_rng([q, seed])
        sigma = np.where(rng.random(q) < 0.5, -1.0, 1.0)
        r = 1.0 + (math.sqrt(q) - 1.0) * rng.random()
        dist = AssouadDist(q, r, v=0.2 + 0.8 * rng.random(), epsilon=0.49 * rng.random(), sigma=sigma)
        ref = _AssouadFormulas(dist)
        for n in (200, 5000):
            X, y = dist.sample(n, seed=seed + 10)
            axes, scales, y_ref = ref.sample(n, seed=seed + 10)
            assert isinstance(X, AxisPoints) and X.d == q + 1
            assert np.array_equal(X.axes, axes) and np.array_equal(X.scales, scales)
            assert np.array_equal(y, y_ref)
            assert np.array_equal(dist.eta(X), ref.eta[axes])
            assert np.array_equal(dist.bayes_predict(X), ref.bayes_predict(axes))
        points, probs, label_values, label_probs = dist.atoms()
        assert np.array_equal(points.axes, np.arange(q + 1))
        assert np.array_equal(points.scales, np.concatenate([[1.0], np.full(q, r)]))
        assert np.array_equal(probs, ref.probs)
        assert np.array_equal(label_values, np.tile([1.0, -1.0], (q + 1, 1)))
        assert np.array_equal(label_probs, np.stack([ref.eta, 1.0 - ref.eta], axis=1))
        assert np.array_equal(dist.eta(points), ref.eta)
        assert np.array_equal(dist.bayes_predict(points), ref.bayes_predict(np.arange(q + 1)))
        risk = dist.bayes_risk()
        assert risk.value == ref.bayes_risk() and risk.exact and risk.n_samples == q + 1
        l = int(rng.integers(q))
        flipped = sigma.copy()
        flipped[l] = -flipped[l]
        other = AssouadDist(q, dist.r, dist.v, dist.epsilon, flipped)
        assert chi_squared_adjacent(dist, other) == ref.chi_squared_flip(l)


def test_assouad_law_is_a_finite_support_law():
    """One class samples, lists and sums every finite law."""
    assert issubclass(AssouadDist, FiniteSupportDist)
    for name in ("sample", "atoms", "bayes_risk", "d"):
        assert name not in vars(AssouadDist), name


def test_assouad_sampling_and_bayes():
    q, r, v, eps = 4, 1.5, 0.5, 0.3
    dist = AssouadDist(q, r, v, eps)
    X, y = dist.sample(400, seed=11)
    assert X.shape == (400, 5)
    assert np.array_equal(dist.bayes_predict(X), np.ones(400))  # sigma all +1
    # heavy atom is clean; each light atom errs with min(eta, 1-eta) = 0.35
    assert dist.bayes_risk().value == pytest.approx(0.5 * 0.0 + 0.5 * 0.35, abs=1e-15)


def test_assouad_sample_is_a_set_of_axis_points():
    """Each draw is an atom norm_l e_l, held as its (axis, scale) pair."""
    dist = AssouadDist(q=7000, r=3.0, v=0.5, epsilon=0.25)
    X, y = dist.sample(300, seed=4)
    assert isinstance(X, AxisPoints) and X.shape == (300, 7001)
    assert np.array_equal(X.scales, np.where(X.axes == 0, 1.0, 3.0))
    assert np.all(y[X.axes == 0] == 1.0)  # the heavy atom's label is clean
    again, _ = dist.sample(300, seed=4)
    assert np.array_equal(again.axes, X.axes)


def test_gauss_margin_noise_exponent_rules():
    assert GaussMarginDist(3, gamma=2.0, rho=3.0, alpha=0.0).noise_exponent == 2.0
    assert GaussMarginDist(3, gamma=3.0, rho=3.0, alpha=0.6).noise_exponent == pytest.approx(2.0)
    hard = GaussMarginDist(3, gamma=2.0, rho=3.0, alpha=1.0)
    assert hard.noise_exponent is None
    X, _ = hard.sample(200, seed=5)
    assert set(np.unique(hard.eta(X))) <= {0.0, 1.0}
    est = hard.bayes_risk()
    assert est.exact and est.value == 0.0


def test_gauss_margin_bayes_risk_closed_form():
    """E[(1 - |M|^c)/2] with |M| ~ gamma m^(gamma-1) is c / (2 (gamma + c));
    at gamma = 2, alpha = 0.5 the noise exponent c = 2 gives exactly 1/4."""
    dist = GaussMarginDist(4, gamma=2.0, rho=3.0, alpha=0.5)
    est = dist.bayes_risk(mc_n=200_000, seed=7)
    assert abs(est.value - 0.25) < 4.0 * est.std_error


def test_gauss_margin_margin_law():
    dist = GaussMarginDist(5, gamma=2.0, rho=3.0, alpha=0.5)
    margins, _, _ = dist.margin_profile(100_000, seed=8)
    for x in (0.3, 0.6, 0.9):
        target = x**2.0
        phat = float(np.mean(margins <= x))
        assert abs(phat - target) < 4.0 * math.sqrt(target * (1 - target) / margins.size)


def test_gauss_margin_profile_is_dimension_free():
    """The diagnostic triples depend only on (gamma, rho, alpha, t, cap), so
    the same seed must give identical draws in R^5 and R^80."""
    kw = dict(gamma=2.0, rho=3.0, alpha=0.5, t=0.3)
    a = GaussMarginDist(5, **kw).margin_profile(1000, seed=9)
    b = GaussMarginDist(80, **kw).margin_profile(1000, seed=9)
    for x, z in zip(a, b):
        assert np.array_equal(x, z)


def test_gauss_margin_validation():
    with pytest.raises(ValueError):
        GaussMarginDist(1, gamma=2.0, rho=3.0, alpha=0.5)
    with pytest.raises(ValueError):
        GaussMarginDist(3, gamma=2.0, rho=3.0, alpha=0.5, w=np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        GaussMarginDist(3, gamma=2.0, rho=3.0, alpha=1.5)
    with pytest.raises(ValueError):
        GaussMarginDist(3, gamma=2.0, rho=3.0, alpha=0.5, radius_cap=0.5)


def whole_array_gauss_margin_sample(dist, n, seed):
    """GaussMarginDist.sample as whole-array steps, each with its own n x d
    temporaries: the reference the in-place, blocked draw must equal."""
    rng = np.random.default_rng(seed)
    m, radius = dist._draw_margin_radius(n, rng)
    g = rng.standard_normal((n, dist.d))
    g -= (g @ dist.w)[:, None] * dist.w[None, :]
    norms = np.linalg.norm(g, axis=1)
    bad = norms < 1e-30
    if np.any(bad):
        g[bad] = dist._orthogonal_fallback()
        norms[bad] = 1.0
    theta = g / norms[:, None]
    X = (m + dist.t)[:, None] * dist.w[None, :] + radius[:, None] * theta
    sign = np.where(m >= 0.0, 1.0, -1.0)
    eta = (1.0 + sign * dist._confidence(np.abs(m))) / 2.0
    y = np.where(rng.random(n) < eta, 1.0, -1.0)
    return X, y


def oblique_gauss_margin(d):
    w = np.linspace(1.0, 2.0, d)
    return GaussMarginDist(d, gamma=2.0, rho=2.0, alpha=0.4, w=w / np.linalg.norm(w), t=0.3)


@pytest.mark.parametrize("d", [2, 50])
def test_gauss_margin_blocked_draw_equals_the_whole_array_draw(d):
    """Bit for bit, at sizes around one row block and past several blocks
    with a ragged last one.  (With BLAS on several threads, the whole-array
    product X @ w itself can round differently at some sizes; the benchmark
    and these sizes run it as one thread would.)"""
    dist = oblique_gauss_margin(d)
    block = _row_blocks(1 << 18, d)[0].stop
    for n in (1, block - 1, block, block + 1, 3 * block + 17):
        X, y = dist.sample(n, seed=n)
        X_ref, y_ref = whole_array_gauss_margin_sample(dist, n, seed=n)
        assert np.array_equal(X, X_ref) and np.array_equal(y, y_ref), n
        assert X.flags.c_contiguous


def test_gauss_margin_draw_builds_no_full_size_temporary():
    """The whole-array steps peak near 4x the returned bytes; in place, the
    draw stays under 1.3x them."""
    dist = oblique_gauss_margin(50)
    tracemalloc.start()
    try:
        X, y = dist.sample(50_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = X.nbytes + y.nbytes
    assert peak < 1.3 * returned, f"peak {peak / returned:.2f}x the returned bytes"


def test_row_blocks_cover_the_rows_in_multiples_of_four():
    for d in (1, 5, 50, 3001, 10**7):
        rows = _row_blocks(1 << 18, d)[0].stop
        assert rows % 4 == 0 and rows * d * 8 <= max(2**20, 32 * d)
        for n in (0, 1, 2, rows - 1, rows, rows + 1, rows + 2, 3 * rows + 1, 3 * rows + 17):
            blocks = _row_blocks(n, d)
            covered = np.concatenate([np.arange(n)[b] for b in blocks]) if blocks else []
            assert np.array_equal(covered, np.arange(n))
            assert all(b.start % 4 == 0 for b in blocks)
            assert n < 2 or blocks[-1].stop - blocks[-1].start > 1


@pytest.mark.parametrize("d", [1, 5, 50, 201])
def test_rows_dot_equals_the_whole_array_product(d):
    """Bit for bit at ragged sizes around one row block and past several.
    (At these sizes the whole-array product rounds as on one BLAS thread.)"""
    rng = np.random.default_rng(d)
    w = rng.standard_normal(d)
    block = _row_blocks(1 << 18, d)[0].stop
    for n in (1, block - 1, block, block + 1, 3 * block + 17):
        X = rng.standard_normal((n, d))
        assert np.array_equal(_rows_dot(X, w), X @ w), n


def test_regression_draw_scales_the_gaussian_draw_in_place():
    dist = RegressionDist(d=7, spectral_constant=1.0, spectral_decay=0.5, w=np.full(7, 0.3),
                          noise=("bounded_uniform", 0.2))
    X, y = dist.sample(1000, seed=8)
    rng = np.random.default_rng(8)
    X_ref = rng.standard_normal((1000, 7)) * dist._scales[None, :]
    assert np.array_equal(X, X_ref)
    s = dist._signal(X_ref) + rng.uniform(-0.2, 0.2, size=1000)
    assert np.array_equal(y, np.clip(s, -dist.beta, dist.beta))


@pytest.mark.parametrize("law", ["gauss_margin", "regression", "noisy_regression"])
def test_sample_is_the_block_draw_in_one_array(law):
    """The blocks the draw hands over are ``_row_blocks``' and, joined, are
    ``sample``'s X, with its y, bit for bit: below one block, with a ragged
    last block, and at j blocks + 1 row, where the lone row joins the last
    block.  Both equal the whole-array Gaussian draw."""
    dist = {
        "gauss_margin": oblique_gauss_margin(50),
        "regression": RegressionDist(d=3, spectral_constant=1.0, spectral_decay=0.5,
                                     w=np.full(3, 0.4)),
        "noisy_regression": noisy_regression(),
    }[law]
    rows = _row_blocks(1 << 18, dist.d)[0].stop
    for n in (5, 2 * rows + 17, 3 * rows + 1):
        seen, blocks = [], []
        y = dist.draw_blocks(n, n, lambda r, block: (seen.append(r), blocks.append(block.copy())))
        X_ref, y_ref = dist.sample(n, n)
        assert seen == _row_blocks(n, dist.d), n
        assert np.array_equal(np.concatenate(blocks), X_ref) and np.array_equal(y, y_ref), n
        if law == "gauss_margin":
            X_whole, y_whole = whole_array_gauss_margin_sample(dist, n, seed=n)
        else:
            rng = np.random.default_rng(n)
            X_whole = rng.standard_normal((n, dist.d)) * dist._scales[None, :]
            s = dist._signal(X_whole)
            if dist.noise is not None:
                s = s + rng.uniform(-dist.noise[1], dist.noise[1], size=n)
            y_whole = np.clip(s, -dist.beta, dist.beta)
        assert np.array_equal(X_ref, X_whole) and np.array_equal(y_ref, y_whole), n


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _span_case(case):
    """(dist, V) for each edge case of the span draw."""
    rng = np.random.default_rng(31)
    if case == "r = d - 1":
        return GaussMarginDist(4, gamma=2.0, rho=6.0, alpha=0.5), rng.standard_normal((4, 3))
    if case == "r > d - 1":
        return GaussMarginDist(3, gamma=1.5, rho=6.0, alpha=0.5), rng.standard_normal((3, 4))
    if case == "parallel and zero weights":
        dist = GaussMarginDist(6, gamma=2.0, rho=6.0, alpha=0.5, w=_unit(np.arange(1.0, 7.0)))
        w = dist.w
        return dist, np.column_stack([w, -2.0 * w, np.zeros(6), rng.standard_normal(6), w + rng.standard_normal(6)])
    if case == "duplicate weights":
        a, b = rng.standard_normal((2, 8))
        return GaussMarginDist(8, gamma=2.0, rho=6.0, alpha=0.5), np.column_stack([a, b, a, a, 0.5 * b])
    if case == "offset, oblique w":
        w = _unit(np.linspace(1.0, -2.0, 10))
        return GaussMarginDist(10, gamma=3.0, rho=6.0, alpha=0.4, w=w, t=0.3), rng.standard_normal((10, 4))
    assert case == "hard labels"
    return GaussMarginDist(5, gamma=2.0, rho=6.0, alpha=1.0, t=-0.2), rng.standard_normal((5, 3))


def _exact_score_moments(dist, V):
    """E[X @ V] and Cov(X @ V) in closed form.  E[M] = 0, E[M^2] =
    gamma / (gamma + 2), Theta is uniform on w's unit complement, and the
    truncated Pareto radius, R = (1 - u (1 - c))^(-1/rho) with
    c = cap^(-rho), has E[R^2] = (1 - c^(1 - 2/rho)) / ((1 - c)(1 - 2/rho))."""
    w, d = dist.w, dist.d
    c = dist.radius_cap ** -dist.rho
    second = (1.0 - c ** (1.0 - 2.0 / dist.rho)) / ((1.0 - c) * (1.0 - 2.0 / dist.rho))
    along = np.outer(w, w)
    cov_x = dist.gamma / (dist.gamma + 2.0) * along + second / (d - 1) * (np.eye(d) - along)
    return dist.t * (w @ V), V.T @ cov_x @ V


def _assert_moments(S, mean, cov, what):
    """Each mean and covariance entry within 5 standard errors of its value."""
    n = S.shape[0]
    dev = S - mean
    assert np.all(np.abs(dev.mean(axis=0)) <= 5.0 * S.std(axis=0) / math.sqrt(n) + 1e-12), what
    prods = dev[:, :, None] * dev[:, None, :]
    se = prods.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(prods.mean(axis=0) - cov) <= 5.0 * se + 1e-12), what


def _collect_scores(dist, V, n, seed):
    blocks, margins = [], []
    dist.draw_scores(V, n, seed, lambda S, M: (blocks.append(S.copy()), margins.append(M.copy())))
    return np.concatenate(blocks), np.concatenate(margins), [len(M) for M in margins]


SPAN_CASES = ["r = d - 1", "r > d - 1", "parallel and zero weights", "duplicate weights",
              "offset, oblique w", "hard labels"]


@pytest.mark.parametrize("case", SPAN_CASES)
def test_span_draw_matches_the_dense_draw_in_law(case):
    """The scores and margins ``draw_scores`` hands over have the law of
    X @ V and w.X - t under ``sample``: the mean and covariance of the
    scores match the closed form from V, as the dense draw's do, each score
    passes a two-sample Kolmogorov-Smirnov test against the dense draw, and
    the margin has its planted law."""
    dist, V = _span_case(case)
    n = 100_000
    S, M, sizes = _collect_scores(dist, V, n, seed=7)
    r, s = V.shape[1], min(V.shape[1], dist.d - 1)
    assert S.shape == (n, r) and sizes == [len(b) for b in (range(n)[k] for k in _row_blocks(n, r + s + 8))]
    again, again_m, _ = _collect_scores(dist, V, n, seed=7)
    assert np.array_equal(S, again) and np.array_equal(M, again_m)

    X, _ = dist.sample(n, seed=8)
    dense = X @ V
    mean, cov = _exact_score_moments(dist, V)
    _assert_moments(S, mean, cov, "span")
    _assert_moments(dense, mean, cov, "dense")
    for j in range(r):
        if np.ptp(dense[:, j]) == 0.0:
            assert np.all(S[:, j] == dense[0, j])
            continue
        grid = np.sort(np.concatenate([S[:, j], dense[:, j]]))
        gap = np.abs(np.searchsorted(np.sort(S[:, j]), grid, side="right")
                     - np.searchsorted(np.sort(dense[:, j]), grid, side="right")) / n
        assert gap.max() <= 1.95 * math.sqrt(2.0 / n), (j, gap.max())

    for xi in (0.25, 0.5, 0.75):
        p = xi**dist.gamma
        assert abs(np.mean(np.abs(M) <= xi) - p) <= 5.0 * math.sqrt(p * (1 - p) / n), xi
    assert abs(np.mean(M >= 0.0) - 0.5) <= 5.0 * math.sqrt(0.25 / n)
    if case == "hard labels":
        assert np.array_equal(dist.eta_at(M), np.where(M >= 0.0, 1.0, 0.0))


def test_span_draw_edge_cases_hold_exactly():
    """A weight parallel to w scores c (M + t) up to the rounding of its
    part off w, a zero weight scores exactly 0, and equal weights score
    equal columns up to the rounding of the QR."""
    dist, V = _span_case("parallel and zero weights")
    S, M, _ = _collect_scores(dist, V, 20_000, seed=3)
    assert np.max(np.abs(S[:, 0] - (M + dist.t))) <= 1e-10
    assert np.max(np.abs(S[:, 1] + 2.0 * (M + dist.t))) <= 1e-10
    assert np.all(S[:, 2] == 0.0)
    dist, V = _span_case("duplicate weights")
    S, _, _ = _collect_scores(dist, V, 20_000, seed=3)
    for j in (2, 3):
        assert np.max(np.abs(S[:, j] - S[:, 0])) <= 1e-12 * np.max(np.abs(S[:, 0]))


def test_span_draw_recovers_the_points_when_the_weights_span_r_d():
    """With r > d - 1 weights spanning R^d the scores determine x, so the
    whole law shows: x's margin is the M handed over, and its distance from
    the line through w has the truncated Pareto tail P(R > s) =
    (s^-rho - c) / (1 - c), c = cap^-rho."""
    dist, V = _span_case("r > d - 1")
    n = 100_000
    S, M, _ = _collect_scores(dist, V, n, seed=9)
    X = np.linalg.lstsq(V.T, S.T, rcond=None)[0].T
    assert np.max(np.abs(X @ dist.w - dist.t - M)) <= 1e-9
    radius = np.linalg.norm(X - np.outer(M + dist.t, dist.w), axis=1)
    assert radius.min() >= 1.0 - 1e-9
    c = dist.radius_cap ** -dist.rho
    for level in (1.05, 1.2, 1.5):
        p = (level ** -dist.rho - c) / (1.0 - c)
        assert abs(np.mean(radius > level) - p) <= 5.0 * math.sqrt(p * (1 - p) / n), level


def test_span_draw_does_not_depend_on_the_blas_thread_count():
    """Every block of scores and margins is equal at one and two BLAS
    threads, over 50 003 draws at d = 50 with 25 and 60 weights.  A BLAS
    product of a block's normals and factor rounds some entries
    differently on two threads at 60 weights; the fixed-order sum does not."""
    script = textwrap.dedent(
        """
        import hashlib
        import numpy as np
        from cerm.synthdist import GaussMarginDist
        for r in (25, 60):
            dist = GaussMarginDist(50, gamma=2.0, rho=2.0, alpha=0.5, t=0.1)
            V = np.random.default_rng(r).standard_normal((50, r))
            digest = hashlib.sha256()
            dist.draw_scores(V, 50_003, 7, lambda S, M: digest.update(S.tobytes("F") + M.tobytes()))
            print(r, digest.hexdigest())
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(synthdist.__file__)))
    runs = []
    for blas_threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout.splitlines())
    assert len(runs[0]) == 2
    assert runs[0] == runs[1]


def test_checker_geometric_margin_recovers_exponent():
    dist = GaussMarginDist(6, gamma=2.0, rho=3.0, alpha=0.5)
    out = check_geometric_margin(dist, np.geomspace(0.05, 0.8, 6), mc_n=200_000, seed=101)
    assert 1.8 <= out["gamma_hat"] <= 2.2
    assert out["passes"].all()


def test_checker_moment_recovers_exponent():
    dist = GaussMarginDist(6, gamma=2.0, rho=3.0, alpha=0.5)
    out = check_moment(dist, np.geomspace(3.0, 12.0, 6), mc_n=200_000, seed=102)
    assert 2.7 <= out["rho_hat"] <= 3.3
    assert out["passes"].all()


def test_checker_tsybakov_recovers_exponent():
    """On this family the low-confidence mass is exactly eps^1, so the flags
    sit on the boundary; a 5% slack on C keeps the Monte-Carlo draw clear."""
    dist = GaussMarginDist(6, gamma=2.0, rho=3.0, alpha=0.5)
    out = check_tsybakov(dist, np.geomspace(0.05, 0.8, 6), mc_n=200_000, seed=103, C=1.05)
    assert 0.85 <= out["exponent_hat"] <= 1.15
    assert out["target_exponent"] == pytest.approx(1.0)
    assert out["passes"].all()


def test_checker_tsybakov_hard_labels():
    hard = GaussMarginDist(4, gamma=2.0, rho=3.0, alpha=1.0)
    out = check_tsybakov(hard, np.array([0.3, 0.9, 1.0]), mc_n=50_000, seed=105)
    assert out["target_exponent"] is None
    assert np.allclose(out["mass"], [0.0, 0.0, 1.0], atol=1e-12)
    assert out["passes"].all()


def test_checker_tsybakov_on_exact_atoms():
    dist = AssouadDist(q=4, r=1.5, v=0.5, epsilon=0.3)
    out = check_tsybakov(dist, np.array([0.2, 0.3, 0.5]), alpha=0.5, C=2.0)
    assert np.array_equal(out["mass"], [0.0, 0.5, 0.5])
    assert out["passes"].all()


def test_checker_spectral_decay_recovers_omega():
    dist = RegressionDist(d=12, spectral_constant=1.0, spectral_decay=0.5, w=np.full(12, 0.1))
    X, _ = dist.sample(100_000, seed=104)
    out = check_spectral_decay(X, top=12)
    assert 0.45 <= out["omega_hat"] <= 0.55
    assert not out["rank_deficient"]


def test_checker_spectral_decay_degenerate_inputs():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((500, 3))
    X[:, 2] = X[:, 0] + X[:, 1]  # exactly rank 2
    out = check_spectral_decay(X)
    assert out["rank_deficient"]
    single = check_spectral_decay(rng.standard_normal((500, 1)))
    assert single["omega_hat"] is None
    with pytest.raises(ValueError):
        check_spectral_decay(np.zeros((1, 3)))


def test_regression_dist_noiseless_bayes():
    w = np.array([0.8, 0.3])
    dist = RegressionDist(d=2, spectral_constant=1.0, spectral_decay=0.5, w=w, t=0.1)
    est = dist.bayes_risk()
    assert est.exact and est.value == 0.0
    X = np.array([[0.5, 0.2], [5.0, 5.0]])
    assert np.allclose(dist.bayes_predict(X), np.clip(X @ w + 0.1, -1, 1))
    ranks = np.arange(1, 3)
    assert np.allclose(dist.eigenvalues, 0.5**ranks)


def test_regression_quadrature_matches_direct_integration():
    """The conditional mean of clip(s + noise) is exact where the clip is
    inactive or saturated, and matches a dense trapezoid integral at the kink
    (quadrature on a kinked integrand is only polynomially accurate)."""
    dist = RegressionDist(
        d=2,
        spectral_constant=1.0,
        spectral_decay=0.5,
        w=np.array([0.8, 0.3]),
        t=0.1,
        noise=("bounded_uniform", 0.7),
    )
    X = np.array([[0.5, 0.2], [2.0, 1.0], [0.0, 0.0]])
    s = X @ dist.w + dist.t
    got = dist.bayes_predict(X)
    assert got[1] == pytest.approx(1.0, abs=1e-14)  # saturated: s - 0.7 > 1
    assert got[2] == pytest.approx(s[2], abs=1e-14)  # linear: |s| + 0.7 < 1
    grid = np.linspace(-0.7, 0.7, 200_001)
    kink = np.trapezoid(np.clip(s[0] + grid, -1, 1), grid) / 1.4
    assert got[0] == pytest.approx(kink, abs=2e-5)


def noisy_regression():
    w = np.linspace(0.2, 1.0, 6)
    return RegressionDist(d=6, spectral_constant=1.0, spectral_decay=0.5, w=w, t=0.1,
                          noise=("bounded_uniform", 0.3))


def test_regression_quadrature_equals_the_whole_table_quadrature():
    """Blocked over several quadrature blocks with a ragged last one, the
    oracle equals the whole points x nodes table's sums bit for bit, and
    the Bayes risk's design is ``sample``'s."""
    dist = noisy_regression()
    n = 3 * _row_blocks(1 << 18, dist._QUAD_NODES)[0].stop + 17
    X, _ = dist.sample(n, seed=4)
    nodes, weights = np.polynomial.legendre.leggauss(dist._QUAD_NODES)
    clipped = np.clip((X @ dist.w + dist.t)[:, None] + 0.3 * nodes, -1.0, 1.0)
    mean, second = clipped @ (weights / 2.0), (clipped**2) @ (weights / 2.0)
    assert np.array_equal(dist.bayes_predict(X), mean)
    values = second - mean**2
    est = dist.bayes_risk(mc_n=n, seed=4)
    assert est.value == float(np.mean(values))
    assert est.std_error == float(np.std(values, ddof=1) / math.sqrt(n))


def test_regression_quadrature_builds_no_full_size_table():
    """The whole 50 003 x 201 table of clipped labels would take 80 MB."""
    dist = noisy_regression()
    X, _ = dist.sample(50_003, seed=2)
    tracemalloc.start()
    try:
        dist.bayes_predict(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_regression_noise_variance_exact_in_linear_region():
    """With ||w|| ~ 1e-3 the clip never binds, so every conditional variance
    is amp^2 / 3 and the Monte-Carlo average is exact up to roundoff."""
    dist = RegressionDist(
        d=1,
        spectral_constant=1.0,
        spectral_decay=0.5,
        w=np.array([1e-3]),
        noise=("bounded_uniform", 0.3),
    )
    est = dist.bayes_risk(mc_n=2000, seed=13)
    assert est.value == pytest.approx(0.3**2 / 3.0, abs=1e-12)


def test_regression_w_max_rejection():
    with pytest.raises(ValueError):
        RegressionDist(d=4, spectral_constant=1.0, spectral_decay=0.5, w=np.full(4, 6.0))
    RegressionDist(d=1, spectral_constant=1.0, spectral_decay=0.5, w=np.array([10.0]))
    with pytest.raises(ValueError):
        RegressionDist(d=1, spectral_constant=0.5, spectral_decay=0.5, w=np.array([1.0]))
    with pytest.raises(ValueError):
        RegressionDist(d=1, spectral_constant=1.0, spectral_decay=1.0, w=np.array([1.0]))
    with pytest.raises(ValueError):
        RegressionDist(d=1, spectral_constant=1.0, spectral_decay=0.5, w=np.array([1.0]),
                       noise=("gaussian", 0.1))


def test_dist_from_config_refuses_an_unknown_type():
    with pytest.raises(ValueError):
        dist_from_config({"type": "nope"})

import math

import numpy as np
import pytest

from cerm.losses import make_loss
from cerm.projections import AxisPoints
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
    dist_to_config,
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
    assert np.array_equal(dist.eta(points), label_probs[:, 1])


def test_assouad_sampling_and_bayes():
    q, r, v, eps = 4, 1.5, 0.5, 0.3
    dist = AssouadDist(q, r, v, eps)
    X, y = dist.sample(400, seed=11)
    assert X.shape == (400, 5)
    assert np.array_equal(dist.bayes_predict(X), np.ones(400))  # sigma all +1
    # heavy atom is clean; each light atom errs with min(eta, 1-eta) = 0.35
    assert dist.bayes_risk().value == pytest.approx(0.5 * 0.0 + 0.5 * 0.35, abs=1e-15)


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


def test_dist_config_round_trips():
    dists = [
        two_atom_dist(),
        AssouadDist(q=4, r=1.5, v=0.5, epsilon=0.3, sigma=[1, -1, 1, -1]),
        GaussMarginDist(5, gamma=2.0, rho=3.0, alpha=0.5, t=0.2),
        RegressionDist(d=3, spectral_constant=2.0, spectral_decay=0.5,
                       w=np.array([1.0, 0.5, 0.25]), t=0.1, beta=2.0,
                       noise=("bounded_uniform", 0.4)),
    ]
    for dist in dists:
        config = dist_to_config(dist)
        clone = dist_from_config(config)
        assert dist_to_config(clone) == config
    with pytest.raises(ValueError):
        dist_from_config({"type": "nope"})

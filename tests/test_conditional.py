"""Conditioning on {S = K}: targets, elliptical closed forms, constructions."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import alloc_lab as al
from alloc_lab.conditional import (
    ShiftedSimplex,
    conditional_support,
    elliptical_condition,
    pin_row_sums,
)
from alloc_lab.diagnostics import (
    CompleteMixTarget,
    comonotone_allocation,
    complete_mix_dirichlet,
    countermonotone_pair_sampler,
)
from alloc_lab.errors import ConditioningError, ParameterError, RangeError

from conftest import REF_CORR, _fd_grad, normal_joint

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# Row-sum pinning and supports
# ---------------------------------------------------------------------------

def test_pin_row_sums_exact():
    x = np.array([[0.1, 0.2, 0.7], [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])
    out = pin_row_sums(x, 1.0)
    assert np.all(out.sum(axis=1) == 1.0)


def test_pin_row_sums_large_coordinates():
    # corrections below rounding resolution must not loop or raise
    x = np.array([[1e16, -1e16 + 3.0, 2.0]])
    out = pin_row_sums(x, 5.0)
    assert abs(out.sum() - 5.0) <= 8 * np.finfo(float).eps * (1e16 + 5.0)


def test_pin_row_sums_steps_below_the_ulp_of_K():
    # the row misses K by one ulp of K, which is 8 ulps of the last
    # coordinate; a residual step jumps over K, one ulp up lands on it
    K = 10.121238
    x = np.array([[1.9516204434785365, 7.160954680581389, 1.0086628759400744]])
    assert x.sum() == K - np.spacing(K)
    out = pin_row_sums(x, K)
    assert out.sum() == K
    assert np.array_equal(out[:, :2], x[:, :2])
    assert out[0, 2] == np.nextafter(x[0, 2], np.inf)


def test_pin_row_sums_reaches_K_wherever_a_last_coordinate_does():
    # against a scan of the 300 floats either side of the last coordinate,
    # whose magnitude keeps every float that could sum to K in the scan
    rng = np.random.default_rng(31)
    n = 400
    K = rng.uniform(0.05, 50.0, n)
    x = np.empty((n, 3))
    x[:, 0] = K * rng.uniform(-1.0, 1.5, n) * rng.choice([1e-3, 1.0, 10.0, 100.0], n)
    x[:, 1] = K * rng.uniform(-1.0, 1.5, n)
    x[:, 2] = K - x[:, 0] - x[:, 1]
    keep = np.abs(x[:, 2]) >= K / 8.0
    K, x = K[keep], x[keep]
    missed = 0
    for k, row in zip(K, x):
        scan = np.repeat(row[None, :], 601, axis=0)
        scan[:, 2] = _floats_around(row[2], 300)
        reachable = bool(np.any(scan.sum(axis=1) == k))
        out = pin_row_sums(row[None, :], k)
        assert np.array_equal(out[0, :2], row[:2])
        assert (out.sum() == k) == reachable
        missed += row.sum() != k
    assert missed > 50      # rows that the residual step alone leaves


def _floats_around(v, count):
    """The 2 count + 1 floats nearest v, in order, one nextafter at a time."""
    up, down = [v], [v]
    for _ in range(count):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    return np.array(down[:0:-1] + up)


def test_pin_row_sums_unreachable():
    with pytest.raises(ParameterError):
        pin_row_sums(np.array([[np.inf, 1.0]]), 3.0)


def test_support_selection(t5_joint, m1_model):
    free = conditional_support(t5_joint, 8.0)
    assert isinstance(free, ShiftedSimplex) and not free.bounded
    assert free.contains(np.array([[-1e300, 1e300], [0.0, 0.0]])).all()
    sup = conditional_support(m1_model, 40.0)
    assert isinstance(sup, ShiftedSimplex)
    assert sup.bounded
    inside = sup.contains(np.array([[1.0, 1.0], [39.0, 0.5], [-0.1, 1.0]]))
    np.testing.assert_array_equal(inside, [True, True, False])
    # sum above K - lower_d is out
    assert not sup.contains(np.array([[30.0, 11.0]]))[0]


def test_shifted_simplex_unbounded_face():
    sup = ShiftedSimplex((0.0, -math.inf, 0.0), 10.0)
    assert not sup.bounded
    assert sup.contains(np.array([[1.0, -50.0]]))[0]


# ---------------------------------------------------------------------------
# Conditional targets
# ---------------------------------------------------------------------------

def test_target_lift_and_density(m1_model):
    t = al.ConditionalTarget(m1_model, 40.0)
    xp = np.array([12.0, 9.0])
    full = t.lift(xp)
    assert full.sum() == 40.0
    assert abs(t.log_density(xp) - m1_model.logpdf(full)) < 1e-12
    assert t.log_density(np.array([-1.0, 2.0])) == -np.inf


def test_target_gradient_is_reduced(t5_joint):
    t = al.ConditionalTarget(t5_joint, 8.0)
    xp = np.array([2.5, 2.0])
    fd = _fd_grad(lambda v: t.log_density(v), xp)
    np.testing.assert_allclose(t.grad_log_density(xp), fd, rtol=1e-5)


def _written_out_grad(model, x):
    """Gradient of log f at one point x by its formulas: dlog_g(t) Sigma^{-1}(x - mu)
    for an elliptical law; for a margin copula with a t copula, dlog f_j(x_j)
    + f_j(x_j) / t_nu(z_j) * (-(nu + d) / (nu + q) (C^{-1} z)_j
    + (nu + 1) z_j / (nu + z_j^2)) at z_j = t_nu^{-1}(F_j(x_j)), q = z'C^{-1}z."""
    if isinstance(model, al.EllipticalJoint):
        z = x - model.mu
        sz = np.linalg.solve(model.dispersion.matrix, z)
        return model.generator.dlog_g(0.5 * float(z @ sz), model.d) * sz
    cop = model.copula
    nu, d = cop.nu, cop.d
    u = np.array([float(m.cdf(v)) for m, v in zip(model.margins, x)])
    z = stats.t(nu).ppf(u)
    cz = np.linalg.solve(cop.corr.matrix, z)
    dlog_c = (-(nu + d) / (nu + z @ cz) * cz + (nu + 1.0) * z / (nu + z * z)) \
        / stats.t(nu).pdf(z)
    return np.array([float(m.dlogpdf(v) + np.exp(m.logpdf(v)) * dc)
                     for m, v, dc in zip(model.margins, x, dlog_c)])


def _batch_route(target, pts):
    """(log densities, gradients) at rows pts: one batch `log_density` call,
    and each gradient written out at the full point, then projected."""
    grads = [g[:-1] - g[-1] for g in (_written_out_grad(target.model, full)
                                      for full in target.lift(pts))]
    return target.log_density(pts), np.array(grads)


def test_fused_evaluation_matches_the_batch_route_and_differences(m1_model):
    with open(CONFIG_DIR / "core_t5.cfg", encoding="utf-8") as fh:
        core_t5 = al.model_from_config(json.load(fh)["model"])
    rng = np.random.default_rng(20)
    cases = [
        (al.ConditionalTarget(core_t5, 8.046), 2.6 + 1.5 * rng.standard_normal((200, 2))),
        (al.ConditionalTarget(m1_model, 40.0), 40.0 * rng.dirichlet(np.ones(3), size=50)[:, :2]),
    ]
    for target, pts in cases:
        lp_ref, g_ref = _batch_route(target, pts)
        for xp, lp_b, g_b in zip(pts, lp_ref, g_ref):
            lp, g = target.log_density_and_grad(xp)
            assert math.isclose(lp, lp_b, rel_tol=1e-12)
            np.testing.assert_allclose(g, g_b, rtol=1e-12)
            np.testing.assert_allclose(g, _fd_grad(target.log_density, xp), rtol=1e-5)


def test_float_evaluation_of_a_margin_copula_is_that_of_its_arrays(m1_model):
    # the lift and the density are the array route's, bit for bit, and the
    # projected gradient is the written-out one
    target = al.ConditionalTarget(m1_model, 40.0)
    for xp in 40.0 * np.random.default_rng(21).dirichlet(np.ones(3), size=50)[:, :2]:
        full = np.append(xp, 40.0 - sum(xp.tolist()))
        g = _written_out_grad(m1_model, full)
        lp, grad = target.log_density_and_grad(xp.tolist())
        assert lp == m1_model.logpdf(full)
        np.testing.assert_allclose(grad, g[:-1] - g[-1], rtol=1e-12)


def test_fused_evaluation_outside_support_skips_gradient(m1_model, monkeypatch):
    target = al.ConditionalTarget(m1_model, 40.0)

    def no_gradient(x):
        raise AssertionError("gradient evaluated outside the support")

    monkeypatch.setattr(m1_model, "logpdf_and_grad", no_gradient)
    assert isinstance(target.support, ShiftedSimplex)
    for xp in ([-1.0, 2.0], [30.0, 11.0]):
        assert target.log_density_and_grad(np.array(xp)) == (-np.inf, None)


# ---------------------------------------------------------------------------
# Elliptical closed forms
# ---------------------------------------------------------------------------

def test_elliptical_condition_reference_quantities(t5_joint):
    K = 8.046
    cond = elliptical_condition(t5_joint, K)
    sig_s2 = float(np.ones(3) @ REF_CORR @ np.ones(3))
    assert abs(sig_s2 - 17.0 / 3.0) < 1e-12
    np.testing.assert_allclose(cond.mu, K / sig_s2 * np.array([2.0, 5.0 / 3.0]),
                               rtol=1e-12)
    delta_k = 0.5 * K ** 2 / sig_s2
    expected_sigma = REF_CORR[:2, :2] - np.outer([2.0, 5.0 / 3.0],
                                                 [2.0, 5.0 / 3.0]) / sig_s2
    # the t dispersion is Sigma_K inflated by (nu + 2 Delta_K) / (nu + 1)
    np.testing.assert_allclose(cond.dispersion.matrix,
                               (5.0 + 2.0 * delta_k) / 6.0 * expected_sigma, atol=1e-12)
    assert cond.generator.nu == 6.0


def test_elliptical_condition_t_closure(t5_joint):
    # the conditional of a t law is again t with df = nu + 1 and a
    # dispersion inflated by (nu + 2 Delta_K) / (nu + 1)
    K = 8.046
    cond = elliptical_condition(t5_joint, K)
    ref = stats.multivariate_t(cond.mu, np.asarray(cond.dispersion.matrix), df=6.0)
    pts = cond.mu + np.array([[0.0, 0.0], [0.5, -0.3], [-1.2, 0.8], [2.0, 2.0]])
    got = cond.logpdf(pts)
    diff = got - ref.logpdf(pts)
    # proportional: the unnormalized form differs by a constant only
    np.testing.assert_allclose(diff, diff[0] * np.ones(4), atol=1e-10)


def test_elliptical_condition_matches_slice(t5_joint):
    # closed form equals the joint density restricted to the hyperplane,
    # up to the constant f_S(K)
    K = 8.046
    cond = elliptical_condition(t5_joint, K)
    target = al.ConditionalTarget(t5_joint, K)
    pts = np.array([[2.8, 2.3], [1.0, 0.5], [4.0, 3.0]])
    diff = cond.logpdf(pts) - target.log_density(pts)
    np.testing.assert_allclose(diff, diff[0] * np.ones(3), atol=1e-10)


def test_elliptical_condition_draws_exactly(t5_joint):
    # i.i.d. draws of the conditional t: their mean and covariance are mu_K and
    # nu'/(nu' - 2) times the dispersion, and their mean is a slab sample's
    K = 8.046
    cond = elliptical_condition(t5_joint, K)
    x = cond.sample(100_000, 21)
    nu = cond.generator.nu
    cov = nu / (nu - 2.0) * cond.dispersion.matrix
    se = np.sqrt(np.diag(cov) / x.shape[0])
    assert np.all(np.abs(x.mean(axis=0) - cond.mu) < 4.0 * se)
    np.testing.assert_allclose(np.cov(x, rowvar=False), cov, rtol=0.03)
    slab, _ = al.slab_sample(t5_joint, K, al.SlabConfig(n=4000, delta=0.05), seed=22)
    slab_se = slab[:, :2].std(axis=0, ddof=1) / math.sqrt(slab.shape[0])
    gap = np.abs(slab[:, :2].mean(axis=0) - x.mean(axis=0))
    assert np.all(gap < 4.0 * np.hypot(se, slab_se))


def test_normal_condition_matches_gaussian_formula():
    mu = np.array([1.0, -0.5, 0.2])
    sigma = REF_CORR * 2.0
    ell = al.EllipticalJoint(mu, al.DispersionMatrix(sigma), al.NormalGen())
    K = 3.5
    cond = elliptical_condition(ell, K)
    # classical conditional: N(mu' + (K - mu_S)/sig_S^2 Sigma'1, Schur complement)
    ones = np.ones(3)
    sig1 = sigma @ ones
    mu_ref = mu[:2] + (K - mu @ ones) / (ones @ sig1) * sig1[:2]
    np.testing.assert_allclose(cond.mu, mu_ref, rtol=1e-12)
    ref = stats.multivariate_normal(mu_ref, cond.dispersion.matrix)
    pts = mu_ref + np.array([[0.0, 0.0], [0.7, -0.4], [-1.0, 1.0]])
    diff = cond.logpdf(pts) - ref.logpdf(pts)
    np.testing.assert_allclose(diff, diff[0] * np.ones(3), atol=1e-10)


# ---------------------------------------------------------------------------
# Comonotone and countermonotone constructions
# ---------------------------------------------------------------------------

def test_comonotone_allocation_normal_closed_form():
    # equal normals: comonotone split is K/d each plus stdev-weighted tilt
    margins = [al.Normal(0.0, 1.0), al.Normal(0.0, 2.0)]
    K = 3.0
    a = comonotone_allocation(margins, K)
    # common quantile z solves z + 2z = K
    np.testing.assert_allclose(a, [1.0, 2.0], rtol=1e-10)
    assert abs(a.sum() - K) < 1e-9


def test_comonotone_allocation_out_of_range():
    with pytest.raises(RangeError):
        comonotone_allocation([al.ParetoI(2.0, 1.0), al.ParetoI(2.0, 1.0)], 1.5)


def test_countermonotone_pair_sampler():
    margin = al.Normal(0.0, 1.0)
    x = countermonotone_pair_sampler(margin, 1.0, 20_000, seed=11)
    assert np.max(np.abs(x.sum(axis=1) - 1.0)) <= 16 * np.finfo(float).eps
    # first coordinate is N(0,1) truncated above at F^{-1}(F(1)) = 1
    assert x[:, 0].max() <= 1.0
    u_back = stats.norm.cdf(x[:, 0]) / stats.norm.cdf(1.0)
    assert stats.kstest(u_back, "uniform").pvalue > 0.001


def test_countermonotone_null_event():
    with pytest.raises(ConditioningError):
        countermonotone_pair_sampler(al.ParetoI(2.0, 1.0), 0.5, 10, seed=0)


# ---------------------------------------------------------------------------
# Complete mixes
# ---------------------------------------------------------------------------

def test_complete_mix_rows_and_symmetry():
    x = complete_mix_dirichlet(2.0, 10.0, 1.0, 30_000, seed=3)
    assert np.all(x.sum(axis=1) == 1.0)
    assert np.all(x > 0.0)
    # the mixture is exchangeable: equal coordinate means K/3
    np.testing.assert_allclose(x.mean(axis=0), np.full(3, 1.0 / 3.0), atol=0.01)
    with pytest.raises(ParameterError):
        complete_mix_dirichlet(3.0, 2.0, 1.0, 10, seed=0)


def test_complete_mix_target_matches_dirichlet_mixture():
    t = CompleteMixTarget(2.0, 10.0, 3.0)
    xp = np.array([[0.3, 0.4], [1.0, 1.0], [2.4, 0.3]])
    w = np.column_stack([xp / 3.0, 1.0 - xp.sum(axis=1) / 3.0])
    parts = np.stack([
        stats.dirichlet([2.0, 2.0, 10.0]).pdf(w.T),
        stats.dirichlet([2.0, 10.0, 2.0]).pdf(w.T),
        stats.dirichlet([10.0, 2.0, 2.0]).pdf(w.T),
    ])
    expected = np.log(parts.mean(axis=0) / 9.0)
    np.testing.assert_allclose(t.log_density(xp), expected, rtol=1e-10)
    assert t.log_density(np.array([2.0, 2.0])) == -np.inf


def test_complete_mix_target_integrates_to_one():
    t = CompleteMixTarget(2.0, 10.0, 1.0)
    m = 400
    g = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(g, g, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = np.exp(t.log_density(pts))
    assert abs(vals.mean() - 1.0) < 5e-3    # cell area = 1/m^2 over the unit square


# ---------------------------------------------------------------------------
# Homothetic (crossed boxes) model
# ---------------------------------------------------------------------------

def test_homothetic_gauge_and_density(crossed_box):
    m = crossed_box
    np.testing.assert_allclose(m.gauge([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]]),
                               [1.0, 1.0, 1.0])
    # on the unit contour the density is r_inverse(a) = 0... gauge=a means t s.t. r(t)=a*1
    assert abs(m.density(np.array([2.0 * m.a, 0.0])) - m.r_inverse(m.a)) < 1e-12
    assert m.density(np.array([3.0, 3.0])) == 0.0
    assert m.density(np.zeros(2)) == np.inf


def test_homothetic_normalization(crossed_box):
    assert abs(crossed_box.leb_D() - 12.0) < 1e-12
    assert abs(crossed_box.normalization_integral() - 1.0) < 1e-10


def test_homothetic_conditional_slice(crossed_box):
    K = 1.0 / 3.0
    f = crossed_box.conditional_slice(K)
    x = 0.1
    full = np.array([x, K - x])
    assert abs(f(np.array([x]))[0] - crossed_box.density(full)) < 1e-12


def test_homothetic_validation():
    from alloc_lab.diagnostics import HomotheticModel
    with pytest.raises(ParameterError):
        HomotheticModel([((0.0, -1.0), (2.0, 1.0))], a=0.5)   # 0 not interior
    with pytest.raises(ParameterError):
        HomotheticModel([], a=0.5)


@pytest.fixture(scope="module")
def crossed_box():
    from conftest import crossed_box_model
    return crossed_box_model()

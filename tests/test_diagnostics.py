"""Level sets, generalized concavity, total positivity, tail variation."""
import math

import numpy as np
import pytest
from scipy import stats

import alloc_lab as al
from alloc_lab.conditional import GridSpec, superlevel_mask
from alloc_lab.diagnostics import (
    generalized_mean,
    mask_convexity_check,
    mrv_exponent,
    mtp2_check,
    mtp2_conditional_inheritance,
    s_concavity_check,
    superlevel_components,
)
from alloc_lab.errors import ParameterError

from conftest import REF_CORR, crossed_box_model, normal_joint


# ---------------------------------------------------------------------------
# Grids and connected components
# ---------------------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(ParameterError):
        GridSpec([(1.0, 0.0)])
    with pytest.raises(ParameterError):
        GridSpec([(0.0, 1.0)], resolution=4)
    g = GridSpec([(0.0, 1.0), (-1.0, 1.0)], resolution=30)
    assert g.points().shape == (900, 2)
    np.testing.assert_allclose(g.cell_sizes(), [1.0 / 29.0, 2.0 / 29.0])


def test_components_1d_bimodal():
    f = lambda x: np.exp(-(x.ravel() - 2.0) ** 2) + np.exp(-(x.ravel() + 2.0) ** 2)
    grid = GridSpec([(-5.0, 5.0)], resolution=500)
    count, boxes = superlevel_components(f, 0.5, grid)
    assert count == 2
    lo1, hi1 = boxes[0]
    assert lo1[0] < -2.0 < hi1[0]
    count, _ = superlevel_components(f, 0.01, grid)
    assert count == 1


def test_components_2d_discs():
    def f(x):
        return (np.exp(-np.sum((x - [2.0, 0.0]) ** 2, axis=1))
                + np.exp(-np.sum((x + [2.0, 0.0]) ** 2, axis=1)))

    grid = GridSpec([(-5.0, 5.0), (-3.0, 3.0)], resolution=120)
    count, boxes = superlevel_components(f, 0.5, grid)
    assert count == 2
    mask = superlevel_mask(f, 0.5, grid)
    assert mask.sum() > 0
    assert not mask_convexity_check(mask, grid)   # two separated discs
    # the saddle value at the origin is 2 exp(-4) ~ 0.037
    count1, _ = superlevel_components(f, 0.03, grid)
    assert count1 == 1


def test_mask_convexity_accepts_disc():
    grid = GridSpec([(-2.0, 2.0), (-2.0, 2.0)], resolution=80)
    mask = superlevel_mask(lambda x: -np.sum(x ** 2, axis=1), -1.0, grid)
    assert mask_convexity_check(mask, grid)


def test_crossed_box_slice_connectivity():
    # conditional density on {x1 + x2 = K}, K = 1/3: the superlevel set at
    # the density value 1/6 contour (level log 3) is still one interval; it
    # splits into two just above
    m = crossed_box_model()
    f = m.conditional_slice(1.0 / 3.0)
    grid = GridSpec([(-0.4, 0.7)], resolution=4000)
    count_at, _ = superlevel_components(f, math.log(3.0), grid)
    assert count_at == 1
    count_above, boxes = superlevel_components(f, 1.15, grid)
    assert count_above == 2
    np.testing.assert_allclose(boxes[0][0][0], 0.009, atol=0.01)
    np.testing.assert_allclose(boxes[0][1][0], 0.162, atol=0.01)
    np.testing.assert_allclose(boxes[1][0][0], 0.171, atol=0.01)
    np.testing.assert_allclose(boxes[1][1][0], 0.325, atol=0.01)


# ---------------------------------------------------------------------------
# Generalized means and s-concavity
# ---------------------------------------------------------------------------

def test_generalized_mean_special_cases():
    a, b = np.array([4.0]), np.array([1.0])
    assert generalized_mean(a, b, 0.5, 1.0)[0] == 2.5
    assert generalized_mean(a, b, 0.5, 0.0)[0] == 2.0          # geometric
    assert generalized_mean(a, b, 0.5, math.inf)[0] == 4.0
    assert generalized_mean(a, b, 0.5, -math.inf)[0] == 1.0
    assert generalized_mean(a, b, 0.5, -1.0)[0] == pytest.approx(1.6)
    # zero values kill negative-order means
    assert generalized_mean(np.array([0.0]), b, 0.5, -1.0)[0] == 0.0


def test_generalized_mean_monotone_in_s():
    a, b = np.array([3.0]), np.array([0.5])
    vals = [generalized_mean(a, b, 0.3, s)[0]
            for s in (-math.inf, -2.0, 0.0, 1.0, 3.0, math.inf)]
    assert np.all(np.diff(vals) >= -1e-12)


def test_gaussian_is_log_concave():
    ref = stats.multivariate_normal(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
    grid = GridSpec([(-3.0, 3.0), (-3.0, 3.0)], resolution=40)
    rep = s_concavity_check(lambda x: ref.pdf(x), 0.0, grid, seed=1)
    assert rep.passed
    assert rep.worst_violation <= 1e-9


def test_bimodal_mixture_fails_log_concavity():
    def f(x):
        return (np.exp(-np.sum((x - 2.0) ** 2, axis=1))
                + np.exp(-np.sum((x + 2.0) ** 2, axis=1)))

    grid = GridSpec([(-4.0, 4.0), (-4.0, 4.0)], resolution=40)
    rep = s_concavity_check(f, 0.0, grid, seed=2)
    assert not rep.passed
    assert rep.worst_violation > 1e-6


def test_t_density_is_negative_order_concave():
    # a t density is s-concave with s = -1/(nu + d) but not log-concave
    ref = stats.multivariate_t(np.zeros(2), np.eye(2), df=5.0)
    grid = GridSpec([(-6.0, 6.0), (-6.0, 6.0)], resolution=40)
    assert s_concavity_check(lambda x: ref.pdf(x), -1.0 / 7.0, grid, seed=3).passed
    assert not s_concavity_check(lambda x: ref.pdf(x), 0.0, grid, seed=3).passed


# ---------------------------------------------------------------------------
# Total positivity
# ---------------------------------------------------------------------------

def test_mtp2_bivariate_gaussian_signs():
    grid = GridSpec([(-2.5, 2.5), (-2.5, 2.5)], resolution=24)

    def gauss(rho):
        ref = stats.multivariate_normal(np.zeros(2),
                                        np.array([[1.0, rho], [rho, 1.0]]))
        return lambda x: ref.pdf(x)

    assert mtp2_check(gauss(0.6), grid).verdict == "MTP2"
    assert mtp2_check(gauss(-0.6), grid).verdict == "MRR2"
    assert mtp2_check(gauss(0.0), grid).verdict == "MTP2"   # ties count as MTP2


def test_mtp2_neither():
    # equal mixture of strongly positively and negatively coupled Gaussians
    up = stats.multivariate_normal(np.zeros(2), [[1.0, 0.9], [0.9, 1.0]])
    dn = stats.multivariate_normal(np.zeros(2), [[1.0, -0.9], [-0.9, 1.0]])

    def f(x):
        return 0.5 * up.pdf(x) + 0.5 * dn.pdf(x)

    grid = GridSpec([(-2.0, 2.0), (-2.0, 2.0)], resolution=24)
    rep = mtp2_check(f, grid)
    assert rep.verdict == "neither"
    assert rep.worst_mtp2_violation > 0 and rep.worst_mrr2_violation > 0


def test_conditional_inheritance_mtp2():
    # the first two names are positively coupled and independent of the
    # third; the transformed (x', s) law is MTP2 and the slice inherits it
    sigma = np.array([[1.0, 0.8, 0.0], [0.8, 1.0, 0.0], [0.0, 0.0, 4.0]])
    joint = normal_joint(sigma)
    grid = GridSpec([(-1.5, 1.5), (-1.5, 1.5)], resolution=24)
    assert mtp2_conditional_inheritance(lambda x: np.exp(joint.logpdf(x)), 1.0, grid) == "MTP2"


def test_conditional_inheritance_mrr2():
    # equicorrelated names compete for a fixed sum: the slice is MRR2
    sigma = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    joint = normal_joint(sigma)
    grid = GridSpec([(-1.5, 1.5), (-1.5, 1.5)], resolution=24)
    assert mtp2_conditional_inheritance(lambda x: np.exp(joint.logpdf(x)), 1.0, grid) == "MRR2"


# ---------------------------------------------------------------------------
# Tail variation
# ---------------------------------------------------------------------------

def test_mrv_t_conditional_exponent(t5_joint):
    target = al.ConditionalTarget(t5_joint, 8.046)
    x = np.array([0.4, 0.3])
    rep = mrv_exponent(target, x, 2.0 * x)
    assert not rep.rapid
    # t tails: log f(t y) - log f(t x) -> -(nu + d) log(|y|/|x|)
    assert rep.predicted == pytest.approx(-8.0 * math.log(2.0), rel=1e-6)
    assert rep.fitted == pytest.approx(rep.predicted, rel=1e-3)


def test_mrv_normal_is_rapid():
    target = al.ConditionalTarget(normal_joint(REF_CORR), 2.0)
    rep = mrv_exponent(target, np.array([0.4, 0.3]), np.array([0.8, 0.6]))
    assert rep.rapid
    assert rep.fitted is None


def test_mrv_validation(t5_joint):
    target = al.ConditionalTarget(t5_joint, 8.0)
    with pytest.raises(ParameterError):
        mrv_exponent(target, np.array([-0.1, 0.3]), np.array([0.2, 0.3]))
    with pytest.raises(ParameterError):
        mrv_exponent(target, np.array([0.1, 0.3]), np.array([0.2, 0.3]),
                     t_ladder=[4.0, 2.0])

"""Euler, maximum-likelihood, and multimodality-adjusted allocations."""
import numpy as np
import pytest

import alloc_lab as al
from alloc_lab.allocation import (
    Allocation,
    ScenarioSet,
    core_polytope,
    euler_allocation,
    multimodality_adjust,
)
from alloc_lab.conditional import elliptical_condition
from alloc_lab.diagnostics import mla_with_constants
from alloc_lab.errors import (
    ParameterError,
    RangeError,
    SampleSizeError,
    ShapeError,
)
from alloc_lab.models import rng_from_seed
from alloc_lab.samplers import SlabConfig, slab_sample

from conftest import REF_CORR, normal_joint


# ---------------------------------------------------------------------------
# Euler
# ---------------------------------------------------------------------------

def test_euler_allocation_projects_to_K():
    rng = rng_from_seed(0)
    x = rng.normal(size=(500, 3)) + np.array([1.0, 2.0, 3.0])
    a = euler_allocation(x, 6.0)
    assert abs(a.a.sum() - 6.0) < 1e-9
    mean = x.mean(axis=0)
    np.testing.assert_allclose(a.a, mean - (mean.sum() - 6.0) / 3, atol=1e-12)
    np.testing.assert_allclose(a.se, x.std(axis=0, ddof=1) / np.sqrt(500),
                               rtol=1e-12)
    assert a.method == "Euler"


def test_euler_se_uses_ess():
    x = rng_from_seed(1).normal(size=(400, 2)) + 1.0
    a = euler_allocation(x, 2.0, ess=np.array([100.0, 400.0]))
    np.testing.assert_allclose(a.se, x.std(axis=0, ddof=1) / np.sqrt([100.0, 400.0]))


def test_euler_sample_size_guard():
    with pytest.raises(SampleSizeError):
        euler_allocation(np.zeros((20, 2)), 0.0)


def test_allocation_sum_validation():
    with pytest.raises(ParameterError):
        Allocation(np.array([1.0, 1.0]), 3.0, "Euler")


def test_allocation_sum_tolerance_is_relative_to_K():
    # at K = 1e7 one ulp of a coordinate is 1.9e-9, so an absolute 1e-9
    # rejected correctly projected Euler allocations
    K = 1e7
    rng = rng_from_seed(3)
    for _ in range(20):
        x = rng.dirichlet(np.ones(3), size=200) * K * rng.uniform(0.5, 2.0)
        a = euler_allocation(x, K)
        assert abs(a.a.sum() - K) <= 1e-9 * K
    with pytest.raises(ParameterError):
        Allocation(np.array([K / 2, K / 2 + 1.0]), K, "Euler")


def test_euler_matches_conditional_mean(t5_joint):
    # for elliptical laws the Euler allocation is the conditional mean
    K = 8.046
    exact = elliptical_condition(t5_joint, K).mu
    x, _ = slab_sample(t5_joint, K, SlabConfig(n=6000, delta=0.05), seed=2)
    a = euler_allocation(x, K)
    np.testing.assert_allclose(a.a[:2], exact, atol=0.1)


# ---------------------------------------------------------------------------
# MLA
# ---------------------------------------------------------------------------

def test_mla_with_constants_paths():
    # all constants
    a = mla_with_constants(None, [(0, 2.0), (1, 3.0)], 5.0)
    np.testing.assert_array_equal(a.a, [2.0, 3.0])
    # one free coordinate takes the remainder when a 1-d model remains
    class OneD:
        d = 1

    a = mla_with_constants(OneD(), [(0, 2.0)], 5.0)
    np.testing.assert_array_equal(a.a, [2.0, 3.0])

    # two free coordinates run through the reduced pipeline at K - c
    seen = {}

    def pipeline(model, k_red):
        seen["k"] = k_red
        return Allocation(np.array([k_red / 2, k_red / 2]), k_red, "MLA")

    model = normal_joint(np.eye(2))
    a = mla_with_constants(model, [(1, 4.0)], 10.0, pipeline=pipeline)
    assert seen["k"] == 6.0
    np.testing.assert_array_equal(a.a, [3.0, 4.0, 3.0])


def test_mla_with_constants_tolerance_scales_with_k():
    # constants that split K = 1e7 sum to it only up to rounding, a few ulps
    # of 1e7 (1.9e-9 each); they are refused only when Allocation would
    # refuse them, off by more than 1e-9 * max(1, |K|)
    K = 1e7
    rng = np.random.default_rng(0)
    for _ in range(200):
        parts = rng.uniform(0.0, 1.0, size=rng.integers(2, 6))
        parts = parts / parts.sum() * K
        a = mla_with_constants(None, list(enumerate(parts.tolist())), K)
        np.testing.assert_array_equal(a.a, parts)
    with pytest.raises(RangeError):
        mla_with_constants(None, [(0, 0.5 * K), (1, 0.5 * K + 0.1)], K)


def test_mla_with_constants_errors():
    with pytest.raises(ShapeError):
        mla_with_constants(None, [(0, 1.0), (0, 2.0)], 3.0)
    with pytest.raises(RangeError):
        mla_with_constants(None, [(0, 1.0), (1, 1.0)], 3.0)
    with pytest.raises(ParameterError):
        mla_with_constants(normal_joint(np.eye(2)), [(0, 1.0)], 3.0)


def test_mla_not_additive_across_pooled_blocks():
    # iid standard normals: the conditional mode splits K equally, so pooling
    # two blocks with different per-name capital densities moves every name
    d1, d2 = 2, 3
    K1, K2 = 2.0, 6.0
    block1 = np.full(d1, K1 / d1)             # 1.0 each
    block2 = np.full(d2, K2 / d2)             # 2.0 each
    pooled_model = normal_joint(np.eye(d1 + d2))
    pooled = elliptical_condition(pooled_model, K1 + K2).mu
    pooled_full = np.append(pooled, (K1 + K2) - pooled.sum())
    np.testing.assert_allclose(pooled_full, np.full(5, 8.0 / 5.0), atol=1e-12)
    gap = np.abs(pooled_full - np.concatenate([block1, block2]))
    assert np.min(gap) > 0.3


def test_mla_not_additive_under_convolution():
    # X ~ N(0, S), Y ~ N(0, T) independent: the mode of X+Y given the sum
    # differs from the sum of the separate modes at split capitals
    S = np.array([[1.0, 0.0], [0.0, 9.0]])
    T = np.array([[1.0, 0.9], [0.9, 1.0]])
    K = 3.0
    ones = np.ones(2)

    def normal_mla(sigma, k):
        return k * (sigma @ ones) / (ones @ sigma @ ones)

    combined = normal_mla(S + T, K)
    split = normal_mla(S, 1.5) + normal_mla(T, 1.5)
    assert np.max(np.abs(combined - split)) > 0.1
    # each piece still adds to its capital
    assert abs(combined.sum() - K) < 1e-12
    assert abs(split.sum() - K) < 1e-12


# ---------------------------------------------------------------------------
# Scenario sets and the multimodality adjustment
# ---------------------------------------------------------------------------

def test_scenario_set_validation():
    sc = np.array([[1.0, 2.0], [2.0, 1.0]])
    ScenarioSet(sc, [0.5, 0.5])
    with pytest.raises(ShapeError):
        ScenarioSet(sc, [1.0])
    with pytest.raises(ParameterError):
        ScenarioSet(sc, [0.7, 0.4])
    with pytest.raises(ParameterError):
        ScenarioSet(sc, [1.2, -0.2])
    with pytest.raises(ParameterError):
        ScenarioSet(np.array([[1.0, 2.0], [2.0, 1.5]]), [0.5, 0.5])
    with pytest.raises(ParameterError):
        ScenarioSet(np.array([[1.0, 2.0], [1.0, 2.0]]), [0.5, 0.5])


def test_multimodality_adjust_hand_computed():
    sc = ScenarioSet(np.array([[8.0, 2.0], [3.0, 7.0]]), [0.6, 0.4])
    base, adj, total = multimodality_adjust(sc, 1.0)
    np.testing.assert_allclose(base.a, [6.0, 4.0])
    # excess over the baseline: scenario 1 gives (2, 0), scenario 2 gives (0, 3)
    np.testing.assert_allclose(adj, [0.6 * 2.0, 0.4 * 3.0])
    np.testing.assert_allclose(total, base.a + adj)
    assert np.all(adj >= 0.0)


def test_multimodality_adjust_matrix_loadings_and_baseline():
    sc = ScenarioSet(np.array([[8.0, 2.0], [3.0, 7.0]]), [0.6, 0.4])
    lam = np.array([[0.5, 2.0], [1.0, 0.0]])
    explicit = Allocation(np.array([5.0, 5.0]), 10.0, "Euler")
    base, adj, _ = multimodality_adjust(sc, lam, baseline=explicit)
    assert base is explicit
    np.testing.assert_allclose(adj, [0.6 * 0.5 * 3.0, 0.4 * 0.0 * 2.0])
    with pytest.raises(ShapeError):
        multimodality_adjust(sc, np.ones((3, 2)))
    with pytest.raises(ParameterError):
        multimodality_adjust(sc, -1.0)
    with pytest.raises(ParameterError):
        multimodality_adjust(sc, 1.0,
                             baseline=Allocation(np.array([4.0, 5.0]), 9.0, "Euler"))


# ---------------------------------------------------------------------------
# Core polytope
# ---------------------------------------------------------------------------

def test_core_polytope_normal():
    model = normal_joint(REF_CORR)
    poly, K = core_polytope(model, 0.95, 50_000, seed=4)
    # K is the 95% quantile of S ~ N(0, 17/3)
    from scipy import stats
    import math
    assert abs(K - stats.norm(0, math.sqrt(17.0 / 3.0)).ppf(0.95)) < 0.1
    assert len(poly.constraints) == 2 ** 3 - 2
    # the lifted Chebyshev center satisfies every coalition bound at level p
    c = poly.interior_point()
    assert poly.contains(c)[0]
    full = np.append(c, K - c.sum())
    x = model.sample(50_000, 6)
    for lam, r in poly.constraints:
        assert full @ np.asarray(lam, dtype=float) <= r + 1e-9
        assert abs(al.empirical_var(x @ np.asarray(lam, dtype=float), 0.95) - r) < 0.1


def test_core_polytope_errors():
    model = normal_joint(np.eye(2))
    with pytest.raises(ParameterError):
        core_polytope(model, 1.0, 1000, seed=0)
    with pytest.raises(SampleSizeError):
        core_polytope(model, 0.999, 1000, seed=0)


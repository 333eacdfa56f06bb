"""Kernel mean-shift mode estimation and scenario weights."""
import numpy as np
import pytest
from scipy import stats

import alloc_lab as al
from alloc_lab.conditional import (
    CompleteMixTarget,
    complete_mix_dirichlet,
    elliptical_condition,
)
from alloc_lab.errors import DegenerateWeightError, SampleSizeError
from alloc_lab.modes import (
    MeanShiftConfig,
    kde_logvalues,
    mean_shift_fixed_points,
    mean_shift_modes,
    plugin_bandwidth,
    scenario_weights,
)
from alloc_lab.models import rng_from_seed
from alloc_lab.samplers import SlabConfig, slab_sample

from conftest import normal_joint


# ---------------------------------------------------------------------------
# Bandwidth and KDE
# ---------------------------------------------------------------------------

def test_plugin_bandwidth_normal_reference():
    x = rng_from_seed(0).standard_normal((500, 2)) * np.array([1.0, 3.0])
    H = plugin_bandwidth(x)
    n, d = x.shape
    factor = ((4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))) ** 2
    np.testing.assert_allclose(H, factor * np.cov(x, rowvar=False), rtol=1e-12)


def test_kde_matches_scipy():
    x = rng_from_seed(1).standard_normal((300, 2))
    kde = stats.gaussian_kde(x.T, bw_method="silverman")
    H = np.cov(x, rowvar=False) * kde.factor ** 2
    pts = np.array([[0.0, 0.0], [1.0, -0.5], [2.0, 2.0]])
    np.testing.assert_allclose(kde_logvalues(pts, x, H), kde.logpdf(pts.T),
                               rtol=1e-10)


def test_mean_shift_ascent_property():
    # each mean-shift step, hence the fixed point, cannot decrease the KDE
    x = rng_from_seed(2).standard_normal((400, 2))
    cfg = MeanShiftConfig()
    starts = x[:50]
    fixed, converged, H = mean_shift_fixed_points(x, cfg, starts=starts)
    assert converged.all()
    up = kde_logvalues(fixed, x, H) - kde_logvalues(starts, x, H)
    assert np.all(up > -1e-8)


# ---------------------------------------------------------------------------
# Mode sets
# ---------------------------------------------------------------------------

def test_unimodal_gaussian_conditional(t5_joint):
    K = 8.046
    target = al.conditional_target(t5_joint, K)
    samples, _ = slab_sample(t5_joint, K, SlabConfig(n=1500, delta=0.1), seed=3)
    modes = mean_shift_modes(samples[:, :2], target)
    assert len(modes) == 1
    assert modes.unique_global
    exact = elliptical_condition(t5_joint.elliptical, K).mu_K
    np.testing.assert_allclose(modes.locations_reduced[0], exact, atol=0.12)
    assert abs(modes.locations[0].sum() - K) < 1e-9
    assert modes.converged_fraction > 0.9


def test_trimodal_complete_mix():
    K = 1.0
    target = CompleteMixTarget(2.0, 10.0, K)
    x = complete_mix_dirichlet(2.0, 10.0, K, 3000, seed=3)
    modes = mean_shift_modes(x[:, :2], target)
    assert len(modes) == 3
    # modes are the coordinate permutations of one profile
    lifted = modes.locations
    np.testing.assert_allclose(lifted.sum(axis=1), np.ones(3), atol=1e-12)
    profiles = np.sort(lifted, axis=1)
    np.testing.assert_allclose(profiles, np.tile(profiles[0], (3, 1)), atol=0.04)
    # exchangeable mixture: the three mode densities are nearly equal
    assert np.ptp(modes.log_densities) < 0.05
    assert np.all(np.diff(modes.log_densities) <= 1e-12)


def test_mode_ordering_and_basins():
    K = 1.0
    target = CompleteMixTarget(2.0, 10.0, K)
    x = complete_mix_dirichlet(2.0, 10.0, K, 3000, seed=5)
    modes = mean_shift_modes(x[:, :2], target)
    assert np.all(np.diff(modes.densities) <= 1e-12)
    assert modes.basin_counts.sum() > 0.9 * min(3000, 2000)


def test_basin_floor_drops_isolated_fixed_point():
    joint = normal_joint(np.eye(3))
    target = al.conditional_target(joint, 0.0)
    rng = rng_from_seed(6)
    x = np.vstack([0.5 * rng.standard_normal((300, 2)), [[50.0, 50.0]]])
    cfg = MeanShiftConfig(bandwidth=0.04 * np.eye(2))
    modes = mean_shift_modes(x, target, cfg)
    assert np.all(np.linalg.norm(modes.locations_reduced, axis=1) < 2.0)
    loose = MeanShiftConfig(bandwidth=0.04 * np.eye(2), min_basin_fraction=0.0)
    assert len(mean_shift_modes(x, target, loose)) > len(modes)


def test_permutation_equivariance():
    # swapping the two reduced coordinates permutes the mode locations
    K = 1.0
    target = CompleteMixTarget(2.0, 10.0, K)
    x = complete_mix_dirichlet(2.0, 10.0, K, 2000, seed=7)[:, :2]
    a = mean_shift_modes(x, target)
    b = mean_shift_modes(x[:, ::-1], target)
    sa = set(map(tuple, np.round(a.locations_reduced, 3)))
    sb = set(map(tuple, np.round(b.locations_reduced[:, ::-1], 3)))
    assert len(sa ^ sb) == 0


def test_mode_sample_size_guard(t5_joint):
    target = al.conditional_target(t5_joint, 8.0)
    with pytest.raises(SampleSizeError):
        mean_shift_modes(np.zeros((15, 2)), target)


# ---------------------------------------------------------------------------
# Scenario weights
# ---------------------------------------------------------------------------

def test_scenario_weights_exchangeable():
    K = 1.0
    target = CompleteMixTarget(2.0, 10.0, K)
    x = complete_mix_dirichlet(2.0, 10.0, K, 3000, seed=3)
    modes = mean_shift_modes(x[:, :2], target)
    w = scenario_weights([target.log_density(loc) for loc in modes.locations_reduced])
    assert w.sum() == 1.0
    assert np.all(w > 0.0)
    np.testing.assert_allclose(w, np.full(len(modes), 1.0 / len(modes)), atol=0.1)


def test_scenario_weights_degenerate():
    with pytest.raises(DegenerateWeightError):
        scenario_weights([-np.inf])
    with pytest.raises(DegenerateWeightError):
        scenario_weights([])

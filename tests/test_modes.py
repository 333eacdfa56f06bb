"""Kernel mean-shift mode estimation and scenario weights."""
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import alloc_lab as al
from alloc_lab import modes
from alloc_lab.conditional import elliptical_condition
from alloc_lab.diagnostics import CompleteMixTarget, complete_mix_dirichlet
from alloc_lab.errors import DegenerateWeightError, SampleSizeError
from alloc_lab.modes import (
    MeanShiftConfig,
    kde_logvalues,
    mean_shift_fixed_points,
    mean_shift_modes,
    plugin_bandwidth,
    scenario_weights,
)
from alloc_lab.models import DispersionMatrix, rng_from_seed
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
# Point-by-point references: the blocked KDE must match its reference bit
# for bit; the fixed points must match the plain mean-shift map's to 1e-8
# bandwidths
# ---------------------------------------------------------------------------

def loop_kde_logvalues(points, samples, bandwidth):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    disp = DispersionMatrix(bandwidth)
    n, d = samples.shape
    out = np.empty(points.shape[0])
    for i, x in enumerate(points):
        q = disp.maha_sq(x - samples)
        m = -0.5 * q
        mmax = m.max()
        out[i] = mmax + math.log(np.mean(np.exp(m - mmax)))
    return out - 0.5 * disp.log_det - d / 2.0 * math.log(2.0 * math.pi)


def loop_fixed_points(samples, cfg, starts=None, rng=None):
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, d = samples.shape
    H = cfg.bandwidth if cfg.bandwidth is not None else plugin_bandwidth(samples)
    disp = DispersionMatrix(H)
    if starts is None:
        starts = samples
        if n > cfg.start_cap:
            rng = rng or np.random.default_rng(0)
            starts = samples[rng.choice(n, size=cfg.start_cap, replace=False)]
    pts = np.array(starts, dtype=float, copy=True)
    active = np.ones(pts.shape[0], dtype=bool)
    li = np.linalg.inv(disp.chol)
    white = samples @ li.T
    for _ in range(cfg.max_iter):
        if not active.any():
            break
        cur = pts[active]
        wcur = cur @ li.T
        d2 = (
            np.sum(wcur ** 2, axis=1)[:, None]
            - 2.0 * wcur @ white.T
            + np.sum(white ** 2, axis=1)[None, :]
        )
        d2 -= d2.min(axis=1, keepdims=True)
        w = np.exp(-0.5 * d2)
        new = (w @ samples) / w.sum(axis=1)[:, None]
        step = np.linalg.norm(new - cur, axis=1) / (1.0 + np.linalg.norm(cur, axis=1))
        pts[active] = new
        done = step < cfg.tol
        idx = np.flatnonzero(active)
        active[idx[done]] = False
    return pts, ~active, H


def _two_clusters(rng):
    return np.vstack([rng.standard_normal((250, 2)),
                      0.7 * rng.standard_normal((150, 2)) + [4.0, 1.0]])


@pytest.mark.parametrize("data,cfg", [
    (_two_clusters, MeanShiftConfig()),
    (lambda rng: rng.standard_normal((500, 3)) @ [[1.0, 0.4, 0.0],
                                                 [0.0, 1.0, 0.3],
                                                 [0.0, 0.0, 2.0]],
     MeanShiftConfig()),
    (_two_clusters, MeanShiftConfig(start_cap=120)),
    (_two_clusters, MeanShiftConfig(max_iter=40)),
    (lambda rng: np.repeat(_two_clusters(rng)[::3], 3, axis=0), MeanShiftConfig()),
], ids=["2d-two-clusters", "3d", "subsampled-starts", "unconverged", "duplicates"])
def test_fixed_points_match_the_tight_loop_reference(data, cfg):
    # the plain map run to tol 1e-13 locates every fixed point; the Newton
    # steps must land each start on its own, and converge wherever the
    # plain map at cfg does
    x = data(rng_from_seed(11))
    fixed, converged, H = mean_shift_fixed_points(x, cfg)
    ref_fixed, ref_converged, ref_H = loop_fixed_points(
        x, replace(cfg, tol=1e-13, max_iter=10 ** 5))
    _, plain_converged, _ = loop_fixed_points(x, cfg)
    assert ref_converged.all()
    assert np.array_equal(H, ref_H)
    assert np.all(converged[plain_converged])
    bw = math.sqrt(np.linalg.eigvalsh(H).min())
    err = np.linalg.norm(fixed - ref_fixed, axis=1)
    assert np.all(err[converged] <= 1e-8 * bw)
    # a start still on its way lies nearer its own fixed point than any other
    dist = np.linalg.norm(fixed[:, None, :] - ref_fixed[None, :, :], axis=2)
    nearest = ref_fixed[dist.argmin(axis=1)]
    assert np.all(np.linalg.norm(nearest - ref_fixed, axis=1) <= 1e-8 * bw)


def test_closed_form_2x2_solve_matches_lapack():
    # the d = 2 closed form against LAPACK, on symmetric matrices with
    # eigenvalues in [0.03, 1]
    rng = rng_from_seed(14)
    angle = rng.uniform(0.0, math.pi, 500)
    rot = np.stack([np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)],
                   axis=1).reshape(-1, 2, 2)
    lam = rng.uniform(0.03, 1.0, (500, 2))
    a = rot @ (lam[:, :, None] * np.eye(2)) @ rot.transpose(0, 2, 1)
    g = rng.standard_normal((500, 2))
    least, x = modes._least_eig_and_solve(a, g)
    np.testing.assert_allclose(least, lam.min(axis=1), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(x, np.linalg.solve(a, g[:, :, None])[:, :, 0], rtol=1e-10)


def test_newton_steps_converge_in_fewer_iterations():
    x = _two_clusters(rng_from_seed(11))
    cfg = MeanShiftConfig(max_iter=40)
    assert loop_fixed_points(x, cfg)[1].sum() == 76
    assert mean_shift_fixed_points(x, cfg)[1].sum() >= 390


def test_start_between_clusters_keeps_its_plain_basin(monkeypatch):
    # unguarded Newton steps carry this start to the other cluster's mode
    x = _two_clusters(rng_from_seed(11))
    cfg = MeanShiftConfig()
    start = np.array([[2.0, 1.5]])
    plain, _, H = loop_fixed_points(x, cfg, starts=start)
    bw = math.sqrt(np.linalg.eigvalsh(H).min())
    fixed, converged, _ = mean_shift_fixed_points(x, cfg, starts=start)
    assert converged.all()
    assert np.linalg.norm(fixed - plain) < 0.01 * bw
    monkeypatch.setattr(modes, "NEWTON_MIN_EIG", 1e-12)
    monkeypatch.setattr(modes, "NEWTON_MAX_STEP", math.inf)
    unguarded, _, _ = mean_shift_fixed_points(x, cfg, starts=start)
    assert np.linalg.norm(unguarded - plain) > 10.0 * bw


@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_kde_blocks_are_bitwise_the_loop_reference(scale):
    # 65 points a block, 47 blocks.  The wide bandwidth puts kernel means
    # near 1, where np.log can differ from math.log in the last bit; with
    # this seed one such difference survives into the returned values
    rng = rng_from_seed(12)
    x = rng.standard_normal((1000, 2))
    H = scale * plugin_bandwidth(x)
    pts = 1.5 * rng.standard_normal((3000, 2))
    assert np.array_equal(kde_logvalues(pts, x, H), loop_kde_logvalues(pts, x, H))


def test_fixed_points_hold_one_kernel_buffer():
    # building the kernel from temporaries peaks at about four
    # starts x samples arrays; one reused buffer keeps the peak near one
    x = rng_from_seed(13).standard_normal((3000, 2))
    starts = x[:400].copy()
    cfg = MeanShiftConfig(bandwidth=0.1 * np.eye(2), max_iter=3)
    tracemalloc.start()
    try:
        mean_shift_fixed_points(x, cfg, starts=starts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 400 * 3000 * 8


# ---------------------------------------------------------------------------
# Mode sets
# ---------------------------------------------------------------------------

def test_unimodal_gaussian_conditional(t5_joint):
    K = 8.046
    target = al.ConditionalTarget(t5_joint, K)
    samples, _ = slab_sample(t5_joint, K, SlabConfig(n=1500, delta=0.1), seed=3)
    modes = mean_shift_modes(samples[:, :2], target)
    assert len(modes) == 1
    exact = elliptical_condition(t5_joint, K).mu
    np.testing.assert_allclose(modes.locations[:, :-1][0], exact, atol=0.12)
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
    assert np.all(np.diff(modes.log_densities) <= 1e-12)
    assert modes.basin_counts.sum() > 0.9 * min(3000, 2000)


def test_basin_floor_drops_isolated_fixed_point(monkeypatch):
    joint = normal_joint(np.eye(3))
    target = al.ConditionalTarget(joint, 0.0)
    rng = rng_from_seed(6)
    x = np.vstack([0.5 * rng.standard_normal((300, 2)), [[50.0, 50.0]]])
    cfg = MeanShiftConfig(bandwidth=0.04 * np.eye(2))
    kept = mean_shift_modes(x, target, cfg)
    assert np.all(np.linalg.norm(kept.locations[:, :-1], axis=1) < 2.0)
    monkeypatch.setattr(modes, "MIN_BASIN_FRACTION", 0.0)
    assert len(mean_shift_modes(x, target, cfg)) > len(kept)


def test_permutation_equivariance():
    # swapping the two reduced coordinates permutes the mode locations
    K = 1.0
    target = CompleteMixTarget(2.0, 10.0, K)
    x = complete_mix_dirichlet(2.0, 10.0, K, 2000, seed=7)[:, :2]
    a = mean_shift_modes(x, target)
    b = mean_shift_modes(x[:, ::-1], target)
    sa = set(map(tuple, np.round(a.locations[:, :-1], 3)))
    sb = set(map(tuple, np.round(b.locations[:, :-1][:, ::-1], 3)))
    assert len(sa ^ sb) == 0


def test_mode_sample_size_guard(t5_joint):
    target = al.ConditionalTarget(t5_joint, 8.0)
    with pytest.raises(SampleSizeError):
        mean_shift_modes(np.zeros((15, 2)), target)


# ---------------------------------------------------------------------------
# Grid starts against the dense path
# ---------------------------------------------------------------------------

def kde_ranked_target():
    """A target without a density: its fixed points are ranked by the KDE."""
    return SimpleNamespace(model=SimpleNamespace(has_density=False), K=0.0,
                           support=SimpleNamespace(contains=lambda x: np.ones(len(x), bool)))


def dense_modes(monkeypatch, samples, target, cfg=MeanShiftConfig()):
    """mean_shift_modes with every draw a start, as without the grid."""
    with monkeypatch.context() as m:
        m.setattr(modes, "GRID_MAX_CELL", 0.0)
        return mean_shift_modes(samples, target, replace(cfg, start_cap=len(samples)))


def _complete_mix():
    return (complete_mix_dirichlet(2.0, 10.0, 1.0, 3000, seed=3)[:, :2],
            CompleteMixTarget(2.0, 10.0, 1.0))


def _t5_slab(t5_joint):
    samples, _ = slab_sample(t5_joint, 8.046, SlabConfig(n=1500, delta=0.1), seed=3)
    return samples[:, :2], al.ConditionalTarget(t5_joint, 8.046)


@pytest.mark.parametrize("case,count", [
    (lambda joint: (_two_clusters(rng_from_seed(11)), kde_ranked_target()), 2),
    (lambda joint: _complete_mix(), 3),
    (_t5_slab, 1),
], ids=["two-clusters", "complete-mix", "t5-slab"])
def test_grid_starts_give_the_dense_mode_set(monkeypatch, t5_joint, case, count):
    x, target = case(t5_joint)
    assert modes.grid_starts(x, plugin_bandwidth(x)) is not None
    grid = mean_shift_modes(x, target)
    dense = dense_modes(monkeypatch, x, target)
    assert len(grid) == len(dense) == count
    bw = math.sqrt(np.linalg.eigvalsh(plugin_bandwidth(x)).min())
    assert np.abs(grid.locations - dense.locations).max() <= 1e-6 * bw
    assert np.abs(grid.basin_counts - dense.basin_counts).max() <= 0.05 * len(x)
    assert grid.converged_fraction == dense.converged_fraction == 1.0


def _assert_same_mode_set(a, b):
    assert np.array_equal(a.locations, b.locations)
    assert np.array_equal(a.log_densities, b.log_densities)
    assert np.array_equal(a.basin_counts, b.basin_counts)
    assert a.converged_fraction == b.converged_fraction


def test_three_free_coordinates_take_the_dense_path(monkeypatch):
    x = np.vstack([_two_clusters(rng_from_seed(15)), _two_clusters(rng_from_seed(16))])
    x = np.column_stack([x, rng_from_seed(17).standard_normal(len(x))])
    target = kde_ranked_target()
    dense = dense_modes(monkeypatch, x, target)
    monkeypatch.setattr(modes, "gaussian_filter", None)    # the grid is never built
    _assert_same_mode_set(mean_shift_modes(x, target), dense)
    assert len(dense) == 2


def test_draws_too_spread_for_the_grid_take_the_dense_path(monkeypatch):
    # 30 units apart at a bandwidth of 0.2: a 256-node axis has cells of
    # about 0.6 bandwidths
    rng = rng_from_seed(18)
    x = np.vstack([0.5 * rng.standard_normal((200, 2)),
                   0.5 * rng.standard_normal((200, 2)) + [30.0, 0.0]])
    cfg = MeanShiftConfig(bandwidth=0.04 * np.eye(2))
    target = kde_ranked_target()
    assert modes.grid_starts(x, cfg.bandwidth) is None
    dense = dense_modes(monkeypatch, x, target, cfg)
    monkeypatch.setattr(modes, "gaussian_filter", None)
    _assert_same_mode_set(mean_shift_modes(x, target, cfg), dense)
    assert len(dense) >= 2


def test_converged_fraction_counts_the_draws_of_each_basin(monkeypatch):
    x = _two_clusters(rng_from_seed(11))
    _, basin = modes.grid_starts(x, plugin_bandwidth(x))
    big = np.bincount(basin).argmax()
    refine = mean_shift_fixed_points

    def stalls_at_the_largest_basin(samples, cfg, starts=None):
        fixed, converged, H = refine(samples, cfg, starts=starts)
        converged[big] = False
        return fixed, converged, H

    monkeypatch.setattr(modes, "mean_shift_fixed_points", stalls_at_the_largest_basin)
    ms = mean_shift_modes(x, kde_ranked_target())
    assert ms.converged_fraction == np.mean(basin != big)
    assert ms.convergence_warning
    assert len(ms) == 2       # the stalled start keeps its basin's mode


def test_one_iteration_raises_the_convergence_warning():
    x = _two_clusters(rng_from_seed(11))
    ms = mean_shift_modes(x, kde_ranked_target(), MeanShiftConfig(max_iter=1))
    assert ms.converged_fraction == 0.0
    assert ms.convergence_warning


# ---------------------------------------------------------------------------
# Scenario weights
# ---------------------------------------------------------------------------

def test_scenario_weights_exchangeable():
    K = 1.0
    target = CompleteMixTarget(2.0, 10.0, K)
    x = complete_mix_dirichlet(2.0, 10.0, K, 3000, seed=3)
    modes = mean_shift_modes(x[:, :2], target)
    w = scenario_weights([target.log_density(loc) for loc in modes.locations[:, :-1]])
    assert w.sum() == 1.0
    assert np.all(w > 0.0)
    np.testing.assert_allclose(w, np.full(len(modes), 1.0 / len(modes)), atol=0.1)


def test_scenario_weights_never_negative():
    # a zero-density scenario last: the rounding remainder of the others
    # must not land on its weight
    rng = np.random.default_rng(0)
    for _ in range(2000):
        logf = rng.normal(0.0, 3.0, size=rng.integers(3, 6))
        logf[-1] = -np.inf
        w = scenario_weights(logf)
        assert np.all(w >= 0.0) and w[-1] == 0.0
        assert abs(w.sum() - 1.0) <= 1e-15


def test_scenario_weights_degenerate():
    with pytest.raises(DegenerateWeightError):
        scenario_weights([-np.inf])
    with pytest.raises(DegenerateWeightError):
        scenario_weights([])

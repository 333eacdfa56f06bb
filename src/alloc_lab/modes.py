"""Kernel mean-shift mode estimation and scenario plausibility weights."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditional import pin_row_sums
from .errors import DegenerateWeightError, ParameterError, SampleSizeError
from .models import DispersionMatrix


@dataclass
class MeanShiftConfig:
    bandwidth: np.ndarray = None   # PD matrix; plug-in rule if None
    tol: float = 1e-6
    max_iter: int = 500
    merge_radius: float = None     # default 0.25 * sqrt(lambda_min(H))
    start_cap: int = 2000          # subsample starts beyond this count
    min_basin_fraction: float = 0.01   # drop modes whose basin is tinier


def plugin_bandwidth(samples):
    """Normal-reference bandwidth matrix on the sample covariance."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, d = samples.shape
    cov = np.cov(samples, rowvar=False).reshape(d, d)
    c = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0))
    factor = c * n ** (-1.0 / (d + 4.0))
    return factor ** 2 * cov


@dataclass
class ModeSet:
    locations: np.ndarray          # (M, d) lifted, rows sum to K
    densities: np.ndarray          # unnormalized, descending
    log_densities: np.ndarray
    basin_counts: np.ndarray
    K: float
    merge_radius: float
    unique_global: bool
    converged_fraction: float
    convergence_warning: bool

    def __len__(self):
        return self.locations.shape[0]

    @property
    def locations_reduced(self):
        return self.locations[:, :-1]


def kde_logvalues(points, samples, bandwidth):
    """Log Gaussian-KDE values, used to assert the ascent property."""
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


def mean_shift_fixed_points(samples, cfg, starts=None, rng=None):
    """Iterate the Gaussian mean-shift map from each start to a fixed point.

    Returns (fixed_points, converged_mask, bandwidth).
    """
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
        # pairwise squared Mahalanobis distances through the whitened samples
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
    converged = ~active
    return pts, converged, H


def radius_merge(points, logf, radius):
    """Greedy clusters of `points`, visited in descending `logf`.

    Each point joins the first cluster whose seed (its first, highest-logf
    member) lies within `radius`, or else seeds a new cluster; points with
    non-finite logf join none.  Returns one list of point indices per
    cluster, seed first, clusters in descending seed logf.
    """
    clusters = []
    for i in np.argsort(-logf, kind="stable"):
        if not np.isfinite(logf[i]):
            continue
        for members in clusters:
            if np.linalg.norm(points[i] - points[members[0]]) <= radius:
                members.append(i)
                break
        else:
            clusters.append([i])
    return clusters


def mean_shift_modes(samples, target, cfg=None):
    """Mode set of the conditional law from samples of its first d-1 coords."""
    cfg = cfg or MeanShiftConfig()
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, d = samples.shape
    if n < 10 * d:
        raise SampleSizeError("need at least 10 samples per dimension")
    pts, converged, H = mean_shift_fixed_points(samples, cfg)
    converged_fraction = float(np.mean(converged))
    warning = converged_fraction < 0.8
    fixed = pts[converged] if converged.any() else pts

    radius = cfg.merge_radius
    if radius is None:
        radius = 0.25 * math.sqrt(float(np.linalg.eigvalsh(H).min()))

    if getattr(getattr(target, "model", None), "has_density", True):
        logf = np.asarray(target.log_density(fixed), dtype=float)
    else:
        # density-free models: rank by the KDE, masked to the support
        logf = kde_logvalues(fixed, samples, H)
        logf[~target.support.contains(fixed)] = -np.inf
    clusters = radius_merge(fixed, logf, radius)
    if not clusters:
        raise ParameterError("no mean-shift fixed point had positive target density")
    seeds = [members[0] for members in clusters]
    centers = fixed[seeds]
    center_logf = logf[seeds]
    counts = np.array([len(members) for members in clusters])

    # isolated tail samples are their own KDE fixed points; a basin floor
    # keeps only fixed points that actually attract part of the sample
    floor = max(int(round(cfg.min_basin_fraction * fixed.shape[0])), 1)
    big = counts >= floor
    if not big.any():
        big = np.zeros_like(big)
        big[0] = True
    centers, center_logf, counts = centers[big], center_logf[big], counts[big]

    K = float(target.K)
    lifted = np.concatenate([centers, (K - centers.sum(axis=1))[:, None]], axis=1)
    lifted = pin_row_sums(lifted, K)
    unique = True
    if len(centers) > 1:
        unique = (center_logf[0] - center_logf[1]) > math.log1p(1e-6)
    return ModeSet(
        locations=lifted,
        densities=np.exp(center_logf),
        log_densities=center_logf,
        basin_counts=counts,
        K=K,
        merge_radius=radius,
        unique_global=unique,
        converged_fraction=converged_fraction,
        convergence_warning=warning,
    )


def scenario_weights(log_densities):
    """Plausibility weights w_m proportional to exp(log f_m); they sum to 1.

    `log_densities` holds log f at each scenario, up to a shared constant;
    scenarios of zero density get weight 0.
    """
    logf = np.asarray(log_densities, dtype=float)
    if logf.size == 0:
        raise DegenerateWeightError("empty mode set")
    if not np.any(np.isfinite(logf)):
        raise DegenerateWeightError("all scenario densities are zero")
    w = np.exp(logf - np.max(logf[np.isfinite(logf)]))
    w[~np.isfinite(logf)] = 0.0
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return w

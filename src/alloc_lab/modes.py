"""Kernel mean-shift mode estimation and scenario plausibility weights."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .conditional import lift
from .errors import (
    DegenerateWeightError,
    ParameterError,
    SampleSizeError,
)
from .models import POSITIVE, DispersionMatrix, checked, integer

KDE_BLOCK_ENTRIES = 2 ** 16    # kernel entries per block of kde_logvalues

# Safeguards of the Newton step of mean_shift_fixed_points, in whitened
# coordinates (H = L L^T): the least eigenvalue of L^-1 (H - C) L^-T must
# exceed NEWTON_MIN_EIG (the KDE is log-concave there, with room to spare),
# and the step must be shorter than NEWTON_MAX_STEP bandwidths.  Chosen by
# checking each start against plain mean-shift run to tol 1e-13, on 93,100
# starts (16 rounds of the three benchmark workloads, 55 replications of
# m1-m3 and empirical.cfg): with a step cap of 0.45 or 0.5 one start, at a
# saddle on a ridge, ended in another basin, with 0.35 or 0.4 none; 0.35
# also kept all of 46,440 further starts.  Without the cap 9 % of the starts
# changed basin, without either safeguard 14 %.  A least eigenvalue of 0.01
# leaves fewer starts at max_iter, but with the cap at 0.4 it moved two.
NEWTON_MIN_EIG = 0.02
NEWTON_MAX_STEP = 0.35

# Starts of mean_shift_modes for draws of at most GRID_MAX_DIM coordinates:
# the local maxima of the KDE binned onto GRID_SIZE nodes per axis, in
# whitened coordinates, over the draws' range padded by GRID_PAD kernel s.d.
# (also where the kernel is truncated).  Draws whose cells would be wider
# than GRID_MAX_CELL kernel s.d. start at every draw instead.
GRID_MAX_DIM = 2
GRID_SIZE = 256
GRID_PAD = 4.0
GRID_MAX_CELL = 0.25

# mean_shift_modes drops a mode whose basin holds less than this share of
# the draws: isolated tail draws are their own KDE fixed points
MIN_BASIN_FRACTION = 0.01


@dataclass
class MeanShiftConfig:
    bandwidth: np.ndarray = None   # PD matrix; plug-in rule if None
    tol: float = 1e-6
    max_iter: int = 500
    start_cap: int = 2000          # dense path: subsample starts beyond this

    def __post_init__(self):
        checked(self.tol, "modes.tol", *POSITIVE)
        checked(self.max_iter, "modes.max_iter", *integer(1))


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
    log_densities: np.ndarray      # unnormalized, descending
    basin_counts: np.ndarray
    converged_fraction: float
    convergence_warning: bool

    def __len__(self):
        return self.locations.shape[0]


def kde_logvalues(points, samples, bandwidth):
    """Log Gaussian-KDE values at `points`.

    Ranks the mean-shift fixed points of models without a density.  Points
    go through in blocks of about 2**16 kernel entries, one triangular solve
    per block; each point's value is bitwise the one of a point-by-point
    evaluation.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    disp = DispersionMatrix(bandwidth)
    n, d = samples.shape
    out = np.empty(points.shape[0])
    block = max(1, KDE_BLOCK_ENTRIES // n)
    for lo in range(0, points.shape[0], block):
        x = points[lo:lo + block]
        z = (x[:, None, :] - samples[None, :, :]).reshape(-1, d)
        m = -0.5 * disp.maha_sq(z).reshape(x.shape[0], n)
        mmax = m.max(axis=1)
        means = np.mean(np.exp(m - mmax[:, None]), axis=1)
        # math.log, not np.log: the array log differs in the last bit
        out[lo:lo + x.shape[0]] = mmax + [math.log(v) for v in means]
    return out - 0.5 * disp.log_det - d / 2.0 * math.log(2.0 * math.pi)


def _least_eig_and_solve(a, g):
    """(least eigenvalue of each symmetric a[k], a[k]^-1 g[k]); the solve
    lifts eigenvalues below NEWTON_MIN_EIG to it, so it stays finite."""
    if a.shape[1] == 2:
        # closed form; numpy's eigh costs about ten times as much per matrix
        p, q, r = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
        mid = 0.5 * (p + r)
        rad = np.hypot(0.5 * (p - r), q)
        lam = mid - rad
        det = np.maximum(lam, NEWTON_MIN_EIG) * np.maximum(mid + rad, NEWTON_MIN_EIG)
        x = np.column_stack([r * g[:, 0] - q * g[:, 1], p * g[:, 1] - q * g[:, 0]])
        return lam, x / det[:, None]
    lam, vec = np.linalg.eigh(a)
    y = np.einsum("kji,kj->ki", vec, g) / np.maximum(lam, NEWTON_MIN_EIG)
    return lam[:, 0], np.einsum("kij,kj->ki", vec, y)


def mean_shift_fixed_points(samples, cfg, starts=None):
    """Move each start to a fixed point m(x) = x of the Gaussian mean-shift
    map, by safeguarded Newton steps on the log-KDE.

    With the kernel-weighted mean m and covariance C of the samples at x,
    the mean-shift step is x <- m and the Newton step x <- x + H(H - C)^-1
    (m - x); both stop where m(x) = x.  The Newton step is taken where it is
    safe (NEWTON_MIN_EIG, NEWTON_MAX_STEP), the mean-shift step elsewhere.
    Returns (fixed_points, converged_mask, bandwidth).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, d = samples.shape
    H = cfg.bandwidth if cfg.bandwidth is not None else plugin_bandwidth(samples)
    disp = DispersionMatrix(H)
    if starts is None:
        starts = samples
        if n > cfg.start_cap:    # a subsample of them, drawn at seed 0
            pick = np.random.default_rng(0).choice(n, size=cfg.start_cap, replace=False)
            starts = samples[pick]
    pts = np.array(starts, dtype=float, copy=True)
    active = np.ones(pts.shape[0], dtype=bool)
    li = disp.inv_chol
    white = samples @ li.T
    white_sq = np.sum(white ** 2, axis=1)
    # one product of the kernel rows with these columns gives each row's
    # kernel sum, weighted mean and the weighted second moments of the
    # whitened samples, taken about their mean to keep the digits of C
    centre = white.mean(axis=0)
    u = white - centre
    iu, ju = np.triu_indices(d)
    moments = np.column_stack([np.ones(n), samples, u[:, iu] * u[:, ju]])
    eye = np.eye(d)
    kernel = np.empty((pts.shape[0], n))
    for _ in range(cfg.max_iter):
        if not active.any():
            break
        cur = pts[active]
        wcur = cur @ li.T
        # pairwise squared Mahalanobis distances through the whitened
        # samples, then the Gaussian kernel, in the leading rows of one buffer
        w = kernel[:cur.shape[0]]
        np.matmul(wcur, white.T, out=w)
        w *= 2.0
        np.subtract(np.sum(wcur ** 2, axis=1)[:, None], w, out=w)
        w += white_sq
        w -= w.min(axis=1, keepdims=True)
        w *= -0.5
        np.exp(w, out=w)
        sums = w @ moments
        sums /= sums[:, :1]
        new = sums[:, 1:d + 1]
        # in whitened coordinates the log-KDE has gradient g = L^-1 (m - x)
        # and Hessian -(I - C_w), C_w = L^-1 C L^-T: the Newton step is
        # (I - C_w)^-1 g
        mu = new @ li.T - centre
        a = np.empty((cur.shape[0], d, d))
        a[:, iu, ju] = a[:, ju, iu] = -sums[:, d + 1:]
        a += mu[:, :, None] * mu[:, None, :]
        a += eye
        lam, newton = _least_eig_and_solve(a, (new - cur) @ li.T)
        safe = (lam > NEWTON_MIN_EIG) & (
            np.sum(newton ** 2, axis=1) < NEWTON_MAX_STEP ** 2)
        new[safe] = cur[safe] + newton[safe] @ disp.chol.T
        step = np.linalg.norm(new - cur, axis=1) / (1.0 + np.linalg.norm(cur, axis=1))
        pts[active] = new
        done = step < cfg.tol
        idx = np.flatnonzero(active)
        active[idx[done]] = False
    converged = ~active
    return pts, converged, H


def grid_starts(samples, H):
    """(starts, basin) from the local maxima of a binned Gaussian KDE
    (Silverman 1982; Wand 1994), or None where the grid is too coarse.

    The samples, whitened by H, are binned linearly onto the grid and
    smoothed with the N(0, I) kernel.  Each node points at the highest node
    of its 3**d - 1 neighbours and itself (ties to the lowest index), so the
    pointers climb to a local maximum.  starts holds the maxima; basin[i] is
    the index in starts of the maximum that sample i's nearest node climbs
    to.

    All of this runs on the block of nodes that hold binned mass plus one
    ring around it; the result is bitwise that of the whole grid.
    """
    d = samples.shape[1]
    chol = DispersionMatrix(H).chol
    white = np.linalg.solve(chol, samples.T).T
    lo = white.min(axis=0) - GRID_PAD
    cell = (white.max(axis=0) + GRID_PAD - lo) / (GRID_SIZE - 1)
    if cell.max() > GRID_MAX_CELL:
        return None
    pos = (white - lo) / cell
    base = np.clip(pos.astype(int), 0, GRID_SIZE - 2)
    frac = pos - base
    # The block: the nodes that hold mass (base.min() .. base.max() + 1 on
    # each axis) and one ring around them; the pad of GRID_PAD kernel s.d.,
    # at least 16 cells, keeps it inside the grid.  Its bits are the whole
    # grid's.  The filter runs line by line, and mode "constant" pads each
    # line with exactly the zeros that the grid holds outside the block, so
    # every block value is the grid's.  Beyond the mass the smoothed field
    # falls strictly away from it along each axis, so no node out there is a
    # local maximum and no positive node's pointer leaves the block; the ring
    # gives the mass's edge nodes their neighbours.  Zero nodes may point
    # elsewhere, but no draw's nearest node is zero, and no chain from a
    # positive node reaches one.
    first = base.min(axis=0) - 1
    shape = tuple(base.max(axis=0) + 3 - first)
    base -= first
    binned = np.zeros(math.prod(shape))
    for corner in itertools.product((0, 1), repeat=d):
        share = np.prod(np.where(corner, frac, 1.0 - frac), axis=1)
        node = np.ravel_multi_index((base + corner).T, shape)
        binned += np.bincount(node, share, minlength=binned.size)
    dens = gaussian_filter(binned.reshape(shape), 1.0 / cell, truncate=GRID_PAD,
                           mode="constant")
    # neighbours in ascending flat offset; a strictly higher one takes over,
    # so ties go to the lowest index
    padded = np.pad(dens, 1, constant_values=-1.0)
    top = np.full(shape, -np.inf)
    step = np.zeros(shape, dtype=int)
    strides = np.array(dens.strides) // dens.itemsize
    for off in itertools.product((-1, 0, 1), repeat=d):
        height = padded[tuple(slice(1 + o, 1 + o + n) for o, n in zip(off, shape))]
        step[height > top] = np.dot(off, strides)
        np.maximum(top, height, out=top)
    ptr = np.arange(dens.size) + step.ravel()
    while True:    # pointer jumping: each pass doubles how far a pointer reaches
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        ptr = nxt
    peaks = np.flatnonzero((ptr == np.arange(dens.size)) & (dens.ravel() > 0.0))
    nearest = np.ravel_multi_index((np.rint(pos).astype(int) - first).T, shape)
    basin = np.searchsorted(peaks, ptr[nearest])
    node = np.column_stack(np.unravel_index(peaks, shape)) + first
    starts = (lo + node * cell) @ chol.T
    return starts, basin


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
    """Mode set of the conditional law from samples of its first d-1 coords.

    Mean-shift starts at the maxima of grid_starts, each weighing the draws
    of its basin, or, where there is no grid, at every draw (up to
    cfg.start_cap), each weighing one.
    """
    cfg = cfg or MeanShiftConfig()
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, d = samples.shape
    if n < 10 * d:
        raise SampleSizeError("need at least 10 samples per dimension")
    H = cfg.bandwidth if cfg.bandwidth is not None else plugin_bandwidth(samples)
    grid = grid_starts(samples, H) if d <= GRID_MAX_DIM else None
    starts, basin = (None, None) if grid is None else grid
    fixed, converged, _ = mean_shift_fixed_points(samples, replace(cfg, bandwidth=H),
                                                  starts=starts)
    if grid is None:
        # every draw (up to start_cap) starts; a basin holds many starts,
        # and its converged ones stand for it
        converged_fraction = float(np.mean(converged))
        weight = np.ones(len(fixed), dtype=int)
        if converged.any():
            fixed, weight = fixed[converged], weight[converged]
    else:
        # one start per basin, weighing its draws: a start that stops at
        # max_iter stays where it stopped, and its draws count as unconverged
        weight = np.bincount(basin, minlength=len(fixed))
        converged_fraction = float(weight[converged].sum() / n)
    warning = converged_fraction < 0.8
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
    counts = np.array([weight[members].sum() for members in clusters])

    # a basin floor keeps only fixed points that attract part of the sample
    floor = max(int(round(MIN_BASIN_FRACTION * weight.sum())), 1)
    big = counts >= floor
    if not big.any():
        big = np.zeros_like(big)
        big[0] = True
    centers, center_logf, counts = centers[big], center_logf[big], counts[big]

    return ModeSet(
        locations=lift(centers, float(target.K)),
        log_densities=center_logf,
        basin_counts=counts,
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
    # the rounding remainder goes to the last scenario of positive weight;
    # rounding may take that weight to 0, never below
    last = np.flatnonzero(w)[-1]
    w[last] = max(1.0 - w[:last].sum(), 0.0)
    return w

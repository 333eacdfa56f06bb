"""Grid-based structural checks: level-set connectivity, s-concavity,
total positivity, and tail variation of conditional densities."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, spatial

from .conditional import elliptical_condition
from .errors import InconsistencyError, ParameterError
from .models import EllipticalJoint, StudentTGen, rng_from_seed


@dataclass
class GridSpec:
    ranges: list                     # [(lo, hi)] per axis
    resolution: int = 400

    def __post_init__(self):
        for lo, hi in self.ranges:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ParameterError("grid ranges must be finite and increasing")
        if self.resolution < 16:
            raise ParameterError("grid resolution must be >= 16")

    @property
    def dim(self):
        return len(self.ranges)

    def axes(self):
        return [np.linspace(lo, hi, self.resolution) for lo, hi in self.ranges]

    def points(self):
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def cell_sizes(self):
        return np.array([(hi - lo) / (self.resolution - 1) for lo, hi in self.ranges])


def _evaluate(density, grid):
    vals = np.asarray(density(grid.points()), dtype=float).ravel()
    shape = (grid.resolution,) * grid.dim
    return vals.reshape(shape)


def superlevel_components(density, level, grid):
    """Count 4-connected components of {f >= level} on the grid.

    Returns (count, bounding boxes) with boxes as (lower, upper) vectors.
    """
    if grid.dim not in (1, 2):
        raise ParameterError("connectivity check supports 1 or 2 dimensions")
    mask = _evaluate(density, grid) >= level
    axes = grid.axes()
    labels, count = ndimage.label(mask, structure=ndimage.generate_binary_structure(grid.dim, 1))
    boxes = [(np.array([ax[sl.start] for ax, sl in zip(axes, box)]),
              np.array([ax[sl.stop - 1] for ax, sl in zip(axes, box)]))
             for box in ndimage.find_objects(labels)]
    return count, boxes


def superlevel_mask(density, level, grid):
    """Boolean level-set mask, exported for plotting."""
    return _evaluate(density, grid) >= level


def mask_convexity_check(mask, grid, tolerance_cells=1.5):
    """True when no inactive grid point lies strictly inside the hull of the
    active points (up to a cell-diagonal tolerance)."""
    mask = np.asarray(mask, dtype=bool)
    pts = grid.points()
    active = pts[mask.ravel()]
    inactive = pts[~mask.ravel()]
    if active.shape[0] < grid.dim + 2 or inactive.shape[0] == 0:
        return True
    try:
        hull = spatial.Delaunay(active)
    except spatial.QhullError:
        return True  # degenerate (collinear) active set is trivially convex
    inside = hull.find_simplex(inactive) >= 0
    if not inside.any():
        return True
    # allow boundary-cell misses of up to a cell diagonal
    diag = float(np.linalg.norm(grid.cell_sizes())) * tolerance_cells
    offenders = inactive[inside]
    d2, _ = spatial.cKDTree(inactive[~inside]).query(offenders) if (~inside).any() \
        else (np.full(offenders.shape[0], np.inf), None)
    return bool(np.all(d2 <= diag))


def generalized_mean(a, b, theta, s):
    """M_s(a, b; theta) with the power/geometric/min/max conventions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if s == math.inf:
        return np.maximum(a, b)
    if s == -math.inf:
        return np.minimum(a, b)
    if s == 0.0:
        with np.errstate(divide="ignore"):
            return np.exp(theta * np.log(a) + (1.0 - theta) * np.log(b))
    if s < 0.0:
        out = np.zeros(np.broadcast(a, b).shape)
        ok = (a > 0.0) & (b > 0.0)
        out[ok] = (theta * a[ok] ** s + (1.0 - theta) * b[ok] ** s) ** (1.0 / s)
        return out
    return (theta * a ** s + (1.0 - theta) * b ** s) ** (1.0 / s)


@dataclass
class ConcavityReport:
    passed: bool
    worst_violation: float
    s: float


def s_concavity_check(density, s, grid, pair_budget=4000, seed=0, slack=1e-9):
    """Sampled check of f(theta x + (1-theta) y) >= M_s(f(x), f(y); theta)."""
    pts = grid.points()
    rng = rng_from_seed(seed)
    i = rng.integers(0, pts.shape[0], size=pair_budget)
    j = rng.integers(0, pts.shape[0], size=pair_budget)
    fx = np.asarray(density(pts[i]), dtype=float).ravel()
    fy = np.asarray(density(pts[j]), dtype=float).ravel()
    worst = -math.inf
    for theta in (0.25, 0.5, 0.75):
        mid = theta * pts[i] + (1.0 - theta) * pts[j]
        fmid = np.asarray(density(mid), dtype=float).ravel()
        ms = generalized_mean(fx, fy, theta, s)
        viol = float(np.max(ms - fmid))
        worst = max(worst, viol)
    return ConcavityReport(worst <= slack, worst, s)


@dataclass
class TP2Report:
    verdict: str                   # "MTP2", "MRR2", or "neither"
    worst_mtp2_violation: float
    worst_mrr2_violation: float


def _tp2_scan(F):
    """Worst violations of F(x)F(y) <= F(min)F(max) over all lattice pairs."""
    r1, r2 = F.shape
    jj = np.arange(r2)
    jmin = np.minimum.outer(jj, jj)
    jmax = np.maximum.outer(jj, jj)
    worst_up = 0.0                 # violations of the TP2 inequality
    worst_down = 0.0               # violations of the reversed inequality
    for i in range(r1):
        for k in range(r1):
            lhs = np.outer(F[i], F[k])
            rhs = F[min(i, k)][jmin] * F[max(i, k)][jmax]
            diff = lhs - rhs
            worst_up = max(worst_up, float(diff.max()))
            worst_down = max(worst_down, float((-diff).max()))
    return worst_up, worst_down


def _tp2_verdict(up, down, slack):
    """MTP2, MRR2 or neither, from the worst violations of the TP2 inequality
    (up) and of the reversed one (down); ties count as MTP2."""
    if up <= slack:
        return "MTP2"
    if down <= slack:
        return "MRR2"
    return "neither"


def mtp2_check(density, grid, slack=1e-9):
    """Exhaustive lattice check of total positivity / reverse rule of order 2."""
    if grid.dim != 2:
        raise ParameterError("total-positivity check is bivariate")
    up, down = _tp2_scan(_evaluate(density, grid))
    return TP2Report(_tp2_verdict(up, down, slack), up, down)


def _sampled_tp2_verdict(f, pts_axes, budget, seed, slack):
    """Sampled pair check of a d-variate density on a lattice."""
    rng = rng_from_seed(seed)
    grids = np.meshgrid(*pts_axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    n = pts.shape[0]
    i = rng.integers(0, n, size=budget)
    j = rng.integers(0, n, size=budget)
    x, y = pts[i], pts[j]
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    fx = np.asarray(f(x), dtype=float).ravel()
    fy = np.asarray(f(y), dtype=float).ravel()
    flo = np.asarray(f(lo), dtype=float).ravel()
    fhi = np.asarray(f(hi), dtype=float).ravel()
    diff = fx * fy - flo * fhi
    return _tp2_verdict(float(np.max(diff)), float(np.max(-diff)), slack)


def mtp2_conditional_inheritance(joint, K, grid, budget=20000, seed=0, slack=1e-9):
    """Verdict for the conditional slice f(x', K - 1'x'); checked for
    consistency against a sampled verdict for the (x', s) density."""
    if grid.dim != 2:
        raise ParameterError("the conditional slice is bivariate")

    def xs_density(pts3):
        # density of (x', s): the last coordinate of x is s - 1'x'
        pts3 = np.atleast_2d(np.asarray(pts3, dtype=float))
        full = np.column_stack([pts3[:, :-1],
                                pts3[:, -1] - pts3[:, :-1].sum(axis=1)])
        return joint(full)

    def slice_density(xy):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        pts3 = np.column_stack([xy, np.full(xy.shape[0], float(K))])
        return xs_density(pts3)

    cond = mtp2_check(slice_density, grid, slack=slack)
    axes = [np.linspace(lo, hi, 12) for lo, hi in grid.ranges]
    s_half = 0.25 * (grid.ranges[0][1] - grid.ranges[0][0])
    axes.append(np.linspace(K - s_half, K + s_half, 8))
    tri = _sampled_tp2_verdict(xs_density, axes, budget, seed, slack)
    if tri in ("MTP2", "MRR2") and cond.verdict != tri:
        raise InconsistencyError(
            f"joint verdict {tri} but conditional verdict {cond.verdict}"
        )
    return cond.verdict


@dataclass
class MRVReport:
    x: np.ndarray
    y: np.ndarray
    ladder: np.ndarray
    log_ratios: np.ndarray
    fitted: float                  # None when rapidly varying
    residual: float
    rapid: bool
    truncated_at: int              # ladder index where underflow started, or -1
    predicted: float = None


def _elliptical_t_prediction(target, x, y):
    """-(nu' + d') log(|y| / |x|) in the metric of the conditional t law's
    dispersion, where it has nu' degrees of freedom in d' dimensions."""
    model = getattr(target, "model", None)
    if not (isinstance(model, EllipticalJoint) and isinstance(model.generator, StudentTGen)):
        return None
    cond = elliptical_condition(model, target.K)
    li = cond.dispersion.inv_chol
    ny = np.linalg.norm(li @ y)
    nx = np.linalg.norm(li @ x)
    return -(cond.generator.nu + cond.d) * math.log(ny / nx)


def mrv_exponent(target, x, y, t_ladder=None):
    """Tail log-ratio log f(t y) - log f(t x) along a geometric ladder."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ParameterError("evaluation directions must be strictly positive")
    if t_ladder is None:
        t_ladder = 2.0 ** np.arange(4, 15)
    t_ladder = np.asarray(t_ladder, dtype=float)
    if np.any(np.diff(t_ladder) <= 0.0):
        raise ParameterError("t-ladder must be strictly increasing")
    logf = target.log_density if hasattr(target, "log_density") else target
    ratios = []
    truncated_at = -1
    for idx, t in enumerate(t_ladder):
        ly = float(logf(t * y))
        lx = float(logf(t * x))
        if not (np.isfinite(ly) and np.isfinite(lx)):
            truncated_at = idx
            break
        ratios.append(ly - lx)
    ratios = np.array(ratios)
    used = t_ladder[: ratios.size]
    if ratios.size < 2:
        return MRVReport(x, y, used, ratios, None, math.inf, True, truncated_at,
                         _elliptical_t_prediction(target, x, y))
    residual = float(abs(ratios[-1] - ratios[-2]))
    stabilized = residual < 0.01 * (1.0 + abs(ratios[-1]))
    rapid = (truncated_at >= 0) or not stabilized
    fitted = None if rapid else float(ratios[-1])
    return MRVReport(x, y, used, ratios, fitted, residual, rapid, truncated_at,
                     _elliptical_t_prediction(target, x, y))

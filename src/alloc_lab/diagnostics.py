"""The paper's structural results, checked: grid-based level-set
connectivity, s-concavity, total positivity and tail variation of
conditional densities, the closed-form constructions they are checked on,
and the MLA with riskless coordinates.

`alloc-lab run` reads none of this; `import alloc_lab` does not load it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, optimize, spatial, special

from .allocation import Allocation
from .conditional import (
    ShiftedSimplex,
    _evaluate,
    _on_support,
    elliptical_condition,
    pin_row_sums,
    superlevel_mask,
)
from .errors import (
    ConditioningError,
    InconsistencyError,
    ParameterError,
    RangeError,
    ShapeError,
)
from .models import EllipticalJoint, StudentTGen, rng_from_seed


def superlevel_components(density, level, grid):
    """Count 4-connected components of {f >= level} on the grid.

    Returns (count, bounding boxes) with boxes as (lower, upper) vectors.
    """
    if grid.dim not in (1, 2):
        raise ParameterError("connectivity check supports 1 or 2 dimensions")
    mask = superlevel_mask(density, level, grid)
    axes = grid.axes()
    labels, count = ndimage.label(mask, structure=ndimage.generate_binary_structure(grid.dim, 1))
    boxes = [(np.array([ax[sl.start] for ax, sl in zip(axes, box)]),
              np.array([ax[sl.stop - 1] for ax, sl in zip(axes, box)]))
             for box in ndimage.find_objects(labels)]
    return count, boxes


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


# ---------------------------------------------------------------------------
# Special constructions
# ---------------------------------------------------------------------------

def comonotone_allocation(margins, K):
    """Common-quantile split: (F_1^{-1}(u*), ..., F_d^{-1}(u*)) summing to K."""
    K = float(K)
    if len(margins) == 1:
        return np.array([margins[0].quantile(margins[0].cdf(K))], dtype=float)

    def total(u):
        return float(sum(m.quantile(u) for m in margins)) - K

    lo, hi = 1e-12, 1.0 - 1e-12
    flo, fhi = total(lo), total(hi)
    if flo > 0.0 or fhi < 0.0:
        raise RangeError(f"K={K} outside the attainable range [{flo + K}, {fhi + K}]")
    u_star = optimize.brentq(total, lo, hi, xtol=1e-16, rtol=8.9e-16, maxiter=200)
    alloc = np.array([m.quantile(u_star) for m in margins], dtype=float)
    if abs(alloc.sum() - K) >= 1e-9:
        raise RangeError("bisection did not reach the requested row-sum tolerance")
    return alloc


def countermonotone_pair_sampler(margin, K, n, seed):
    """(F^{-1}(U), K - F^{-1}(U)) given U <= F(K); rows sum to K exactly."""
    fk = float(margin.cdf(K))
    if fk <= 0.0:
        raise ConditioningError("F(K) = 0: conditioning event is null")
    rng = rng_from_seed(seed)
    u = rng.uniform(0.0, fk, size=n)
    x1 = np.asarray(margin.quantile(u), dtype=float)
    out = np.column_stack([x1, K - x1])
    return pin_row_sums(out, float(K))


def _mix_params(alpha, beta):
    """The complete mix's Dirichlet parameters, a row per component."""
    if not 0.0 < alpha < beta:
        raise ParameterError("need 0 < alpha < beta")
    return np.array([
        [alpha, alpha, beta],
        [alpha, beta, alpha],
        [beta, alpha, alpha],
    ], dtype=float)


def complete_mix_dirichlet(alpha, beta, K, n, seed):
    """Equal mixture of the three axis permutations of Dir(a, a, b), scaled by K."""
    params = _mix_params(alpha, beta)
    rng = rng_from_seed(seed)
    comp = rng.integers(0, 3, size=n)
    out = np.empty((n, 3))
    for m in range(3):
        idx = np.flatnonzero(comp == m)
        if idx.size:
            out[idx] = rng.dirichlet(params[m], size=idx.size)
    out *= float(K)
    return pin_row_sums(out, float(K))


class CompleteMixTarget:
    """Conditional density of the first two coordinates of the complete mix.

    The sum is constant K, so the conditional density on the simplex is the
    mixture Dirichlet density of (x1/K, x2/K) up to the 1/K^2 Jacobian.
    """

    def __init__(self, alpha, beta, K):
        self.params = _mix_params(alpha, beta)
        self.K = float(K)
        self.d_prime = 2
        self.support = ShiftedSimplex((0.0, 0.0, 0.0), self.K)

    def _dirichlet_logpdf(self, w, a):
        logc = special.gammaln(a.sum()) - special.gammaln(a).sum()
        return logc + np.sum((a - 1.0) * np.log(w), axis=1)

    def log_density(self, xp):
        return _on_support(self.support, xp, self._log_density_inside)

    def _log_density_inside(self, xp):
        w = np.column_stack([xp / self.K, 1.0 - xp.sum(axis=1) / self.K])
        parts = np.stack([self._dirichlet_logpdf(w, a) for a in self.params])
        return special.logsumexp(parts, axis=0) - math.log(3.0) - 2.0 * math.log(self.K)


# ---------------------------------------------------------------------------
# Homothetic densities
# ---------------------------------------------------------------------------

class HomotheticModel:
    """Density with superlevel sets r(t) * D, D a union of boxes around 0.

    r(t) = a * exp(-t/2), so f(x) = -2 log(gauge(x - mu) / a) on its support.
    """

    def __init__(self, boxes, a, mu=None):
        self.boxes = []
        for lo, hi in boxes:
            lo = np.asarray(lo, dtype=float)
            hi = np.asarray(hi, dtype=float)
            if lo.shape != hi.shape or lo.ndim != 1:
                raise ShapeError("box bounds must be matching vectors")
            if np.any(lo >= 0.0) or np.any(hi <= 0.0):
                raise ParameterError("every box must contain 0 in its interior")
            self.boxes.append((lo, hi))
        if not self.boxes:
            raise ParameterError("need at least one box")
        self.d = self.boxes[0][0].size
        if a <= 0:
            raise ParameterError("need a > 0")
        self.a = float(a)
        self.mu = np.zeros(self.d) if mu is None else np.asarray(mu, dtype=float)

    def r_inverse(self, s):
        return -2.0 * np.log(np.asarray(s, dtype=float) / self.a)

    def gauge(self, x):
        """min over boxes of the per-box scaling needed to cover x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        best = np.full(x.shape[0], np.inf)
        for lo, hi in self.boxes:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(x > 0.0, x / hi, np.where(x < 0.0, x / lo, 0.0))
            best = np.minimum(best, ratio.max(axis=1))
        return best

    def density(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        rho = self.gauge(np.atleast_2d(x) - self.mu)
        out = np.zeros(rho.shape)
        inside = rho < self.a
        positive = inside & (rho > 0.0)
        out[positive] = self.r_inverse(rho[positive])
        out[rho == 0.0] = np.inf
        return float(out[0]) if single else out

    def leb_D(self):
        """Lebesgue volume of the box union by inclusion-exclusion."""
        total = 0.0
        for k in range(1, len(self.boxes) + 1):
            for combo in itertools.combinations(self.boxes, k):
                lo = np.max([b[0] for b in combo], axis=0)
                hi = np.min([b[1] for b in combo], axis=0)
                if np.all(hi > lo):
                    total += (-1.0) ** (k + 1) * float(np.prod(hi - lo))
        return total

    def normalization_integral(self):
        """int_0^inf Leb(r(t) D) dt = Leb(D) a^d 2/d; equals 1 for a valid density."""
        return self.leb_D() * self.a ** self.d * 2.0 / self.d

    def conditional_slice(self, K):
        """Callable on x' in R^{d-1}: density at (x', K - 1'x')."""
        K = float(K)

        def f(xp):
            xp = np.atleast_2d(np.asarray(xp, dtype=float))
            full = np.concatenate([xp, (K - xp.sum(axis=1))[:, None]], axis=1)
            return self.density(full)

        return f


# ---------------------------------------------------------------------------
# MLA with riskless coordinates
# ---------------------------------------------------------------------------

def mla_with_constants(model, constants, K, pipeline=None):
    """Riskless coordinates get their constants; the rest get the reduced MLA.

    `model` is the joint model of the free coordinates; `pipeline` is a
    callable (model, K_reduced) -> Allocation used when more than one
    coordinate remains free.
    """
    constants = list(constants)
    const_idx = [i for i, _ in constants]
    if len(set(const_idx)) != len(const_idx):
        raise ShapeError("duplicate constant indices")
    c_total = float(sum(v for _, v in constants))
    d = len(const_idx) + (model.d if model is not None else 0)
    free_idx = [i for i in range(d) if i not in const_idx]
    out = np.empty(d)
    for i, v in constants:
        if not 0 <= i < d:
            raise ShapeError("constant index out of range")
        out[i] = v
    k_red = float(K) - c_total
    if not free_idx:
        if abs(c_total - K) > 1e-9 * max(1.0, abs(K)):
            raise RangeError("constants do not sum to K within 1e-9 * max(1, |K|)")
        return Allocation(out, float(K), "MLA")
    if len(free_idx) == 1:
        out[free_idx[0]] = k_red
        return Allocation(out, float(K), "MLA")
    if pipeline is None:
        raise ParameterError("a reduced-model pipeline is required for d_free >= 2")
    red = pipeline(model, k_red)
    out[free_idx] = red.a
    return Allocation(out, float(K), "MLA")

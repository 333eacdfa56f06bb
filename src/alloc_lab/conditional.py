"""Conditional law of X' given a constant aggregate {S = K}.

The last coordinate is eliminated: a point x' in R^{d-1} stands for the
full loss vector (x', K - 1'x').
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import gt

import numpy as np

from .errors import ParameterError, ShapeError
from .models import EllipticalJoint, NormalGen, StudentTGen, total


_MAGNITUDE_BITS = np.int64(2 ** 63 - 1)


def _ordered(bits):
    """int64 keys in the order of the floats whose bits they are, and the
    bits back from the keys: the map is its own inverse."""
    return bits ^ ((bits >> 63) & _MAGNITUDE_BITS)


def _pin_last_coordinate(x, K):
    """Move the last coordinate of each row that misses K to the float
    nearest its value at which the row sums to K, where the floats up to two
    residuals K - s away hold one; other rows stay as they are.

    The row sum does not fall as the last coordinate rises, so a bisection
    over the keys of those floats finds the first whose sum is no longer on
    the old side of K: it sums to K or no float there does.  The keys span
    less than 2**62, so it takes at most 62 steps.
    """
    s = x.sum(axis=1)
    rows = np.flatnonzero(s != K)
    old = x[rows, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        far = old + 2.0 * (K - s[rows])
    start, end = _ordered(old.view(np.int64)), _ordered(far.view(np.int64))
    ok = np.isfinite(far) & (np.abs(end.astype(float) - start.astype(float)) < 2.0 ** 62)
    rows, start, end, below = rows[ok], start[ok], end[ok], s[rows[ok]] < K
    trial = x[rows]
    direction = np.where(below, 1, -1)
    same, cross = np.zeros(rows.size, dtype=np.int64), np.abs(end - start)

    def sums_at(steps):
        trial[:, -1] = _ordered(start + direction * steps).view(float)
        return trial.sum(axis=1)

    while np.any(cross - same > 1):
        mid = same + (cross - same) // 2
        t = sums_at(mid)
        crossed = np.where(below, t >= K, t <= K)
        same, cross = np.where(crossed, same, mid), np.where(crossed, mid, cross)
    hit = sums_at(cross) == K
    x[rows[hit], -1] = trial[hit, -1]


def pin_row_sums(x, K):
    """Adjust the last column so every row sums to K bit-tightly.

    A residual step K - s moves most rows onto K; rows that it jumps over K
    go to the nearest float of the last coordinate that sums to K
    (`_pin_last_coordinate`).  Rows whose coordinates are so large that no
    such float exists are left at the closest representable sum.
    """
    x = np.array(x, dtype=float)
    if not np.isfinite(x).all():
        raise ParameterError("could not pin row sums to K in floating point")
    for _ in range(4):
        s = x.sum(axis=1)
        bad = s != K
        if not bad.any():
            return x
        adjusted = x[bad, -1] + (K - s[bad])
        stuck = adjusted == x[bad, -1]
        if stuck.all():
            break
        x[bad, -1] = adjusted
    _pin_last_coordinate(x, K)
    resid = np.abs(x.sum(axis=1) - K)
    scale = np.max(np.abs(x), axis=1) + abs(K)
    if np.any(resid > 8.0 * np.finfo(float).eps * scale):
        raise ParameterError("could not pin row sums to K in floating point")
    return x


def lift(xp, K):
    """Points x' on R^{d-1} as full loss vectors (x', K - 1'x'), pinned to
    sum to K; rows for rows, one vector for one point."""
    xp = np.asarray(xp, dtype=float)
    xp2 = np.atleast_2d(xp)
    full = pin_row_sums(np.concatenate([xp2, (K - xp2.sum(axis=1))[:, None]], axis=1), K)
    return full[0] if xp.ndim == 1 else full


# ---------------------------------------------------------------------------
# Support
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftedSimplex:
    """{x'_j > l_j for j <= d-1, sum x' < K - l_d}; -inf bounds drop a face."""

    lower: tuple
    K: float

    def contains(self, xp):
        xp = np.atleast_2d(np.asarray(xp, dtype=float))
        lows = np.asarray(self.lower, dtype=float)
        ok = np.ones(xp.shape[0], dtype=bool)
        for j in range(len(lows) - 1):
            if np.isfinite(lows[j]):
                ok &= xp[:, j] > lows[j]
        if np.isfinite(lows[-1]):
            ok &= xp.sum(axis=1) < self.K - lows[-1]
        return ok

    @property
    def bounded(self):
        return bool(np.all(np.isfinite(np.asarray(self.lower))))


def conditional_support(model, K):
    return ShiftedSimplex(tuple(float(v) for v in model.margin_lowers()), float(K))


def _on_support(support, xp, logf):
    """logf(rows) at the points xp inside support, -inf at the others; a
    float for one point."""
    xp = np.asarray(xp, dtype=float)
    xp2 = np.atleast_2d(xp)
    out = np.full(xp2.shape[0], -np.inf)
    ok = support.contains(xp2)
    if np.any(ok):
        out[ok] = logf(xp2[ok])
    return float(out[0]) if xp.ndim == 1 else out


class ConditionalTarget:
    """Unnormalized conditional density on R^{d-1} with gradient."""

    def __init__(self, model, K):
        if model.d < 2:
            raise ShapeError("conditioning needs d >= 2")
        self.model = model
        self.K = float(K)
        self.d_prime = model.d - 1
        self.support = conditional_support(model, K)
        # all of R^{d-1}: log_density_and_grad skips the support test
        self._everywhere = bool(np.all(np.isneginf(self.support.lower)))

    def lift(self, xp):
        """`lift(xp, K)` at this target's K."""
        return lift(xp, self.K)

    def log_density(self, xp):
        return _on_support(self.support, xp, lambda rows: self.model.logpdf(self.lift(rows)))

    def grad_log_density(self, xp):
        """Gradient at one point; None outside the support (the benchmark traces it)."""
        return self.log_density_and_grad(xp)[1]

    def log_density_and_grad(self, xp):
        """(log density, gradient as a list) at one point x', a sequence of
        d - 1 floats, on Python floats: one lift to (x', K - 1'x'), whose row
        sum is not pinned, and the gradient projected to R^{d-1}; (-inf, None)
        where a lifted coordinate is not above its margin's lower end or the
        density is 0."""
        row = [*xp, self.K - total(xp)]
        if not (self._everywhere or all(map(gt, row, self.support.lower))):
            return -math.inf, None
        lp, g = self.model.logpdf_and_grad(row)
        if not lp > -math.inf:
            return lp, None
        last = g.pop()
        return lp, [gj - last for gj in g]


# ---------------------------------------------------------------------------
# Elliptical conditioning
# ---------------------------------------------------------------------------

def elliptical_condition(ell, K):
    """The law of X' given {S = K} under a normal or t law, as an EllipticalJoint.

    Both are centred at mu_K.  The normal law has the Schur complement
    Sigma_K as its dispersion; the t_nu law becomes a t with nu + 1 degrees
    of freedom and dispersion (nu + 2 Delta_K) / (nu + 1) * Sigma_K, with
    Delta_K = (K - mu_S)^2 / (2 sigma_S^2) (Fang, Kotz & Ng 1990; Ding 2016).
    """
    K = float(K)
    mu = ell.mu
    sigma = ell.dispersion.matrix
    d = ell.d
    ones = np.ones(d)
    mu_s = float(ones @ mu)
    sig1 = sigma @ ones
    sig_s2 = float(ones @ sig1)
    s1p = sig1[: d - 1]
    mu_k = mu[: d - 1] + (K - mu_s) / sig_s2 * s1p
    sigma_k = sigma[: d - 1, : d - 1] - np.outer(s1p, s1p) / sig_s2
    gen = ell.generator
    if isinstance(gen, NormalGen):
        return EllipticalJoint(mu_k, sigma_k, gen)
    if isinstance(gen, StudentTGen):
        delta_k = 0.5 * (K - mu_s) ** 2 / sig_s2
        return EllipticalJoint(mu_k, (gen.nu + 2.0 * delta_k) / (gen.nu + 1.0) * sigma_k,
                               StudentTGen(gen.nu + 1.0))
    raise ParameterError("closed-form conditioning needs a normal or t generator")


# ---------------------------------------------------------------------------
# Level-set grid
# ---------------------------------------------------------------------------

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


def superlevel_mask(density, level, grid):
    """Boolean level-set mask, exported for plotting."""
    return _evaluate(density, grid) >= level

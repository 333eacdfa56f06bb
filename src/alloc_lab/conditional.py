"""Conditional law of X' given a constant aggregate {S = K}.

The last coordinate is eliminated: a point x' in R^{d-1} stands for the
full loss vector (x', K - 1'x').
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import gt

import numpy as np
from scipy import optimize, special

from .errors import ConditioningError, ParameterError, RangeError, ShapeError
from .models import EllipticalJoint, NormalGen, StudentTGen, rng_from_seed


def pin_row_sums(x, K):
    """Adjust the last column so every row sums to K bit-tightly.

    Rows whose coordinates are so large that the correction is absorbed by
    rounding are left at the closest representable sum.
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
        """Gradient at one point; None outside the support."""
        return self.log_density_and_grad(xp)[1]

    def log_density_and_grad(self, xp):
        """(log density, gradient as a list) at one point x', a sequence of
        d - 1 floats, on Python floats: one lift to (x', K - 1'x'), whose row
        sum is not pinned, and the gradient projected to R^{d-1}; (-inf, None)
        where a lifted coordinate is not above its margin's lower end or the
        density is 0."""
        row = [*xp, self.K - sum(xp)]
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

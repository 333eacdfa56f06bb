"""Conditional sampling: slab Monte Carlo, Metropolis-Hastings, reflective HMC."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .conditional import ShiftedSimplex, pin_row_sums
from .errors import (
    ConfigurationError,
    EfficiencyError,
    FeasibilityError,
    ParameterError,
    SampleSizeError,
    StabilityError,
)
from .models import rng_from_seed


# ---------------------------------------------------------------------------
# Slab Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class SlabConfig:
    n: int
    delta: float = None          # default 0.01 * |K| resolved at call time
    standardize: bool = True
    max_attempts: int = 200_000_000

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise ConfigurationError(f"sampler.n must be an integer >= 1, got {self.n!r}")
        if self.delta is not None and not (
                isinstance(self.delta, numbers.Real) and self.delta > 0
                and math.isfinite(self.delta)):
            raise ConfigurationError(
                f"sampler.delta must be a finite number > 0, got {self.delta!r}")

    def resolved_delta(self, K):
        if self.delta is not None:
            return float(self.delta)
        return 0.01 * abs(K) if K != 0 else 0.01


def slab_sample(model, K, cfg, seed):
    """Unconditional draws with |1'x - K| < delta, optionally standardized.

    Returns (samples, acceptance_fraction).  A model with `screen_tables`
    draws latent rows and maps to losses only the rows whose bounded row sum
    can reach the slab; the generator is used as by `model.sample` and the
    kept rows are the same.
    """
    K = float(K)
    delta = cfg.resolved_delta(K)
    rng = rng_from_seed(seed)
    screened = getattr(model, "screen_tables", None) is not None
    kept = []
    drawn = 0
    hits = 0
    batch = max(4 * cfg.n, 20_000)
    while hits < cfg.n:
        if drawn >= cfg.max_attempts:
            rate = hits / drawn if drawn else 0.0
            raise EfficiencyError(
                f"slab sampler exhausted {drawn} draws with hit rate {rate:.3e}",
                hit_rate=rate,
            )
        m = min(batch, cfg.max_attempts - drawn)
        if screened:
            t = model.copula.latent(m, rng)
            lo, hi = model.row_sum_bounds(t)
            lo -= K
            hi -= K
            # |s - K| < delta fails for s >= lo when lo - K >= delta, and
            # for s <= hi when hi - K <= -delta
            x = model.transform(t[(lo < delta) & (hi > -delta)])
        else:
            x = model.sample(m, rng)
        s = x.sum(axis=1)
        sel = np.abs(s - K) < delta
        drawn += m
        nsel = int(sel.sum())
        if nsel:
            kept.append(x[sel])
            hits += nsel
        # grow batches when the slab is thin to amortize sampling overhead
        if hits == 0:
            batch = min(batch * 4, 2_000_000)
        else:
            need = cfg.n - hits
            rate = hits / drawn
            batch = int(min(max(1.2 * need / max(rate, 1e-12), 20_000), 4_000_000))
    out = np.concatenate(kept, axis=0)[: cfg.n]
    if cfg.standardize:
        out = out * (K / out.sum(axis=1))[:, None]
        out = pin_row_sums(out, K)
    return out, hits / drawn


# ---------------------------------------------------------------------------
# Chain diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ChainDiagnostics:
    acceptance_rate: float
    autocorr: np.ndarray          # (lags+1, d) with row 0 all ones
    ess: np.ndarray               # per coordinate
    n: int

    @property
    def lag1(self):
        return self.autocorr[1] if self.autocorr.shape[0] > 1 else np.zeros(self.autocorr.shape[1])


def chain_diagnostics(chain, max_lag=50, acceptance_rate=None):
    """Autocorrelations and ESS of a chain whose rows are states."""
    chain = np.asarray(chain, dtype=float)
    if chain.ndim == 1:
        chain = chain[:, None]
    n, d = chain.shape
    if n < 100:
        raise SampleSizeError("need a chain of length >= 100")
    if acceptance_rate is None:
        moved = np.any(np.abs(np.diff(chain, axis=0)) > 1e-14, axis=1)
        acceptance_rate = float(np.mean(moved))
    centered = chain - chain.mean(axis=0)
    denom = np.sum(centered * centered, axis=0)
    max_lag = min(max_lag, n - 1)
    rho = np.ones((max_lag + 1, d))
    for k in range(1, max_lag + 1):
        num = np.sum(centered[:-k] * centered[k:], axis=0)
        rho[k] = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)
    ess = np.empty(d)
    for j in range(d):
        acc = 0.0
        for k in range(1, max_lag + 1):
            if rho[k, j] < 0.0:
                break
            acc += rho[k, j]
        ess[j] = min(n / (1.0 + 2.0 * acc), float(n))
    return ChainDiagnostics(acceptance_rate, rho, ess, n)


# ---------------------------------------------------------------------------
# Metropolis-Hastings
# ---------------------------------------------------------------------------

def _burn_in(cfg):
    """The configured burn-in, by default 10% of the chain length."""
    b = cfg.burn_in if cfg.burn_in is not None else cfg.chain_length // 10
    if not 0 <= b < cfg.chain_length:
        raise ConfigurationError("need chain length > burn-in >= 0")
    return b


@dataclass
class MHConfig:
    chain_length: int
    proposal: str = "random_walk"     # or "independent_uniform_simplex"
    burn_in: int = None               # default 10% of chain length
    thinning: int = 1
    seed: int = 0
    initial: np.ndarray = None


def _pilot_sample(target, seed, n=200):
    cfg = SlabConfig(n=n, standardize=False, max_attempts=50_000_000)
    x, _ = slab_sample(target.model, target.K, cfg, seed)
    return x[:, : target.d_prime]


def _uniform_simplex_draw(support, rng, n=None):
    lows = np.asarray(support.lower, dtype=float)
    span = support.K - lows.sum()
    w = rng.dirichlet(np.ones(lows.size), size=n)
    full = lows + span * w
    return full[..., :-1]


def mh_chain(target, cfg):
    """Metropolis-Hastings on the conditional target; returns (chain, diagnostics)."""
    rng = rng_from_seed(cfg.seed)
    d = target.d_prime
    simplex = isinstance(target.support, ShiftedSimplex) and target.support.bounded
    if cfg.proposal == "independent_uniform_simplex" and not simplex:
        raise ConfigurationError(
            "independent uniform-simplex proposal needs a bounded simplex support"
        )
    if cfg.proposal not in ("random_walk", "independent_uniform_simplex"):
        raise ConfigurationError(f"unknown proposal: {cfg.proposal!r}")

    x = cfg.initial
    random_walk = cfg.proposal == "random_walk"
    if x is None or random_walk:
        pilot = _pilot_sample(target, rng)
        if x is None:
            x = pilot[0]
        if random_walk:
            scale = 2.4 / math.sqrt(d) * pilot.std(axis=0, ddof=1)
            if np.any(scale <= 0):
                raise ConfigurationError("pilot sample gives a zero random-walk step scale")
    x = np.asarray(x, dtype=float).ravel()
    lx = target.log_density(x)
    if not np.isfinite(lx):
        raise FeasibilityError("initial point has zero target density")

    burn = _burn_in(cfg)
    states = np.empty((cfg.chain_length, d))
    accepted = 0
    for i in range(cfg.chain_length):
        if random_walk:
            y = x + scale * rng.standard_normal(d)
        else:
            y = _uniform_simplex_draw(target.support, rng)
        ly = target.log_density(y)
        # symmetric (random walk) and constant (uniform) proposals cancel in
        # the acceptance ratio
        if np.log(rng.uniform()) < ly - lx:
            x, lx = y, ly
            accepted += 1
        states[i] = x
    chain = states[burn::cfg.thinning]
    diag = chain_diagnostics(chain, acceptance_rate=accepted / cfg.chain_length)
    return chain, diag


# ---------------------------------------------------------------------------
# Polytopes on the hyperplane
# ---------------------------------------------------------------------------

class Polytope:
    """Coalition bounds lambda'(x', K - 1'x') <= r(lambda), projected to R^{d-1}."""

    def __init__(self, constraints, K, d):
        self.K = float(K)
        self.d = int(d)
        self.constraints = []
        normals = []
        bounds = []
        for lam, r in constraints:
            lam = np.asarray(lam, dtype=float).ravel()
            if lam.size != d:
                raise ParameterError("constraint profile has wrong dimension")
            a = lam[: d - 1] - lam[d - 1]
            b = float(r) - lam[d - 1] * self.K
            if np.all(a == 0.0):
                if b < 0.0:
                    raise FeasibilityError(
                        "constraint with zero projected normal is violated",
                        violations=[(tuple(lam), float(r))],
                    )
                continue
            self.constraints.append((tuple(int(v) for v in lam), float(r)))
            normals.append(a)
            bounds.append(b)
        self.A = np.array(normals, dtype=float).reshape(len(normals), d - 1)
        self.b = np.array(bounds, dtype=float)
        if len(self.constraints):
            self.interior_point()

    def contains(self, xp, slack=1e-10):
        xp = np.atleast_2d(np.asarray(xp, dtype=float))
        return np.all(xp @ self.A.T <= self.b + slack, axis=1)

    def interior_point(self):
        """Chebyshev center of the projected polytope."""
        if self.A.shape[0] == 0:
            return np.zeros(self.d - 1)
        m, dp = self.A.shape
        norms = np.linalg.norm(self.A, axis=1)
        c = np.zeros(dp + 1)
        c[-1] = -1.0
        a_ub = np.column_stack([self.A, norms])
        # cap the radius so unbounded feasible regions keep the LP bounded
        r_cap = 1e6 * (1.0 + abs(self.K))
        res = optimize.linprog(c, A_ub=a_ub, b_ub=self.b,
                               bounds=[(None, None)] * dp + [(0.0, r_cap)],
                               method="highs")
        if not res.success or res.x[-1] <= 0.0:
            viol = [self.constraints[i] for i in range(m)]
            raise FeasibilityError("polytope has empty interior", violations=viol)
        return res.x[:-1]


# ---------------------------------------------------------------------------
# Reflective HMC
# ---------------------------------------------------------------------------

@dataclass
class HMCConfig:
    chain_length: int
    epsilon: float = None         # pilot-tuned if None
    steps: int = None             # pilot-tuned if None
    burn_in: int = None
    seed: int = 0
    initial: np.ndarray = None
    # diagonal mass: None (identity), entries > 0, or "pilot" (inverse pilot variances)
    mass: object = None

    def __post_init__(self):
        m = self.mass.tolist() if isinstance(self.mass, np.ndarray) else self.mass
        if not (m is None or m == "pilot" or isinstance(m, (list, tuple)) and m
                and all(isinstance(v, numbers.Real) and 0 < v < math.inf for v in m)):
            raise ConfigurationError(
                f"sampler.mass must be null, 'pilot' or a list of finite numbers > 0, got {self.mass!r}")


# wall hits allowed in one leapfrog drift before the step counts as divergent
MAX_REFLECTIONS = 32


def _advance_with_reflection(x, p, dt, A, b, max_reflections=MAX_REFLECTIONS):
    """Straight-line drift with specular reflection at the first crossing."""
    for _ in range(max_reflections + 1):
        ap = A @ p
        moving_out = ap > 0.0
        if not np.any(moving_out):
            return x + dt * p, p, True
        resid = b - A @ x
        with np.errstate(divide="ignore"):
            tau = np.where(moving_out, np.maximum(resid, 0.0) / np.where(moving_out, ap, 1.0), np.inf)
        i = int(np.argmin(tau))
        if tau[i] >= dt:
            return x + dt * p, p, True
        x = x + tau[i] * p
        a = A[i]
        p = p - 2.0 * (a @ p) / (a @ a) * a
        dt = dt - tau[i]
    return x, p, False


def _tune_hmc(polytope, pilot, rng):
    """(epsilon, steps, start) from the pilot points inside the polytope, or
    from 32 points jittered around its interior point when none is inside."""
    inside = polytope.contains(pilot)
    if np.any(inside):
        pts = pilot[inside]
        start = pts[0]
    else:
        center = polytope.interior_point()
        pts = center[None, :] + 1e-3 * rng.standard_normal((32, pilot.shape[1]))
        inside = polytope.contains(pts)
        start = pts[inside][0] if np.any(inside) else center
    if pts.shape[0] >= 2:
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        nn = float(np.mean(dist.min(axis=1)))
        sd = float(pts.std(axis=0, ddof=1).max())
    else:
        nn, sd = 0.1, 1.0
    eps = max(0.4 * nn, 1e-4)
    steps = max(int(round(1.5 * sd / eps)), 1)
    return eps, steps, start


def hmc_reflect_chain(target, polytope, cfg):
    """Leapfrog HMC with billiards reflection on the polytope boundary (None: no
    walls); settings left None and mass "pilot" come from one pilot slab sample."""
    rng = rng_from_seed(cfg.seed)
    d = target.d_prime
    if polytope is None:
        polytope = Polytope([], target.K, d + 1)

    eps, steps, x0, mass = cfg.epsilon, cfg.steps, cfg.initial, cfg.mass
    if eps is None or steps is None or x0 is None or isinstance(mass, str):
        pilot = _pilot_sample(target, rng)
        if isinstance(mass, str):
            mass = 1.0 / pilot.var(axis=0, ddof=1)
        t_eps, t_steps, start = _tune_hmc(polytope, pilot, rng)
        eps = eps if eps is not None else t_eps
        steps = steps if steps is not None else t_steps
        x0 = x0 if x0 is not None else start
    if steps < 1:
        raise ConfigurationError("HMC needs at least one leapfrog step")
    mass = np.ones(d) if mass is None else np.asarray(mass, dtype=float)
    if mass.shape != (d,):
        raise ConfigurationError(f"sampler.mass needs {d} entries, got {mass.size}")
    x = np.asarray(x0, dtype=float).ravel()
    if not polytope.contains(x)[0]:
        raise FeasibilityError("no feasible interior starting point")
    lx = target.log_density(x)
    if not np.isfinite(lx):
        raise FeasibilityError("starting point has zero target density")

    burn = _burn_in(cfg)
    states = np.empty((cfg.chain_length, d))
    accepted = 0
    divergent = 0
    for i in range(cfg.chain_length):
        p = rng.standard_normal(d) * np.sqrt(mass)
        h0 = -lx + 0.5 * float(p @ (p / mass))
        q = x.copy()
        pq = p - 0.5 * eps * (-target.grad_log_density(q))
        ok = True
        for step in range(steps):
            q, pq, ok = _advance_with_reflection(q, pq / mass, eps, polytope.A, polytope.b)
            pq = pq * mass
            if not ok or not np.all(np.isfinite(q)):
                ok = False
                break
            lq = target.log_density(q)
            grad = -target.grad_log_density(q) if lq > -np.inf else None
            if grad is None or not np.all(np.isfinite(grad)):
                ok = False
                break
            # the energy at the full-step momentum; stopping at the first
            # step past the bound keeps a diverging trajectory from overflowing
            p_full = pq - 0.5 * eps * grad
            h1 = -lq + 0.5 * float(p_full @ (p_full / mass))
            ok = np.isfinite(h1) and (h1 - h0) < 1000.0
            if not ok:
                break
            pq = pq - eps * grad if step < steps - 1 else p_full
        if not ok:
            divergent += 1
        elif np.log(rng.uniform()) < h0 - h1:
            x, lx = q, lq
            accepted += 1
        states[i] = x
        if i == 99 and divergent > 50:
            raise StabilityError(
                f"{divergent}% of early trajectories diverged; try epsilon = {eps / 2:.4g}"
            )
    if divergent > 0.5 * cfg.chain_length:
        raise StabilityError(
            f"{divergent}/{cfg.chain_length} trajectories diverged; try epsilon = {eps / 2:.4g}"
        )
    chain = states[burn:]
    diag = chain_diagnostics(chain, acceptance_rate=accepted / cfg.chain_length)
    return chain, diag

"""Conditional sampling: slab Monte Carlo, Metropolis-Hastings, reflective HMC."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .conditional import pin_row_sums
from .errors import (
    ConfigurationError,
    EfficiencyError,
    FeasibilityError,
    ParameterError,
    SampleSizeError,
    StabilityError,
)
from .models import (FLAG, POSITIVE, _finite_positive, _int_at_least, checked, integer,
                     or_null, rng_from_seed)


# ---------------------------------------------------------------------------
# Slab Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class SlabConfig:
    n: int = 500
    delta: float = None          # default 0.01 * |K| resolved at call time
    standardize: bool = True
    max_attempts: int = 200_000_000

    def __post_init__(self):
        checked(self.n, "sampler.n", *integer(1))
        checked(self.delta, "sampler.delta", *or_null(POSITIVE))
        checked(self.standardize, "sampler.standardize", *FLAG)

    def resolved_delta(self, K):
        if self.delta is not None:
            return float(self.delta)
        return 0.01 * abs(K) if K != 0 else 0.01


def slab_sample(model, K, cfg, seed):
    """Unconditional draws with |1'x - K| < delta, optionally standardized.

    Returns (samples, acceptance_fraction).  `model.sample` may pre-screen
    its draws against the slab; the exact test below decides.
    """
    K = float(K)
    delta = cfg.resolved_delta(K)
    rng = rng_from_seed(seed)
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
        x = model.sample(m, rng, slab=(K, delta))
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
    lag1: np.ndarray              # lag-1 autocorrelation per coordinate
    ess: np.ndarray               # per coordinate


def chain_diagnostics(chain, acceptance_rate=None):
    """Lag-1 autocorrelations and ESS of a chain whose rows are states.

    ESS = n / max(1 + 2 (rho_1 + ... + rho_{2m-1}), 1), summed from lag 1 up,
    by Geyer's (1992) initial positive sequence: m is the first k >= 1 with
    rho_2k + rho_2k+1 <= 0, or the last whole pair of lags below n.
    """
    chain = np.asarray(chain, dtype=float)
    if chain.ndim == 1:
        chain = chain[:, None]
    n = chain.shape[0]
    if n < 100:
        raise SampleSizeError("need a chain of length >= 100")
    if acceptance_rate is None:
        moved = np.any(np.abs(np.diff(chain, axis=0)) > 1e-14, axis=1)
        acceptance_rate = float(np.mean(moved))
    centered = chain - chain.mean(axis=0)
    denom = np.sum(centered * centered, axis=0)
    # the lag sums sum_t c_t c_t+k at every lag k from one zero-padded FFT
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, n=nfft, axis=0)
    lagged = np.fft.irfft(f.real ** 2 + f.imag ** 2, n=nfft, axis=0)[:n]
    rho = np.where(denom > 0, lagged / np.where(denom > 0, denom, 1.0), 0.0)
    lag1 = rho[1]
    # the pairs rho_2k + rho_2k+1 for k >= 1, summed while all so far are positive
    pairs = rho[2:n - 1:2] + rho[3:n:2]
    going = np.logical_and.accumulate(pairs > 0.0, axis=0)
    acc = lag1 + np.sum(pairs, axis=0, where=going)
    ess = n / np.maximum(1.0 + 2.0 * acc, 1.0)
    return ChainDiagnostics(acceptance_rate, lag1, ess)


# ---------------------------------------------------------------------------
# Metropolis-Hastings
# ---------------------------------------------------------------------------

def _burn_in(cfg):
    """The configured burn-in, by default 10% of the chain length; refuses a
    bad chain length or burn-in, naming the key."""
    n = checked(cfg.chain_length, "sampler.chain_length", *integer(1))
    b = checked(cfg.burn_in, "sampler.burn_in",
                lambda v: v is None or _int_at_least(v, 0) and v < n,
                "null or an integer in [0, chain_length)")
    return n // 10 if b is None else b


@dataclass
class MHConfig:
    chain_length: int = 10000
    proposal: str = "random_walk"     # or "independent_uniform_simplex"
    burn_in: int = None               # default 10% of chain length
    thinning: int = 1
    seed: int = 0
    initial: np.ndarray = None

    def __post_init__(self):
        _burn_in(self)
        checked(self.proposal, "sampler.proposal",
                lambda v: v in ("random_walk", "independent_uniform_simplex"),
                "'random_walk' or 'independent_uniform_simplex'")
        checked(self.thinning, "sampler.thinning", *integer(1))


def _pilot_sample(target, seed, n=200):
    cfg = SlabConfig(n=n, standardize=False, max_attempts=50_000_000)
    x, _ = slab_sample(target.model, target.K, cfg, seed)
    return x[:, : target.d_prime]


def _uniform_simplex_draw(support, rng):
    lows = np.asarray(support.lower, dtype=float)
    span = support.K - lows.sum()
    full = lows + span * rng.dirichlet(np.ones(lows.size))
    return full[:-1]


def mh_chain(target, cfg):
    """Metropolis-Hastings on the conditional target; returns (chain, diagnostics)."""
    rng = rng_from_seed(cfg.seed)
    d = target.d_prime
    checked(cfg.proposal, "sampler.proposal",
            lambda p: target.support.bounded or p == "random_walk",
            "'random_walk' on a target without a bounded simplex support")

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
    chain_length: int = 10000
    epsilon: float = None         # pilot-tuned if None
    steps: int = None             # pilot-tuned if None
    burn_in: int = None
    seed: int = 0
    initial: np.ndarray = None
    # diagonal mass: None (identity), entries > 0, or "pilot" (inverse pilot variances)
    mass: object = None

    def __post_init__(self):
        _burn_in(self)
        checked(self.steps, "sampler.steps", *or_null(integer(1)))
        checked(self.epsilon, "sampler.epsilon", *or_null(POSITIVE))
        mass = self.mass.tolist() if isinstance(self.mass, np.ndarray) else self.mass
        positive = isinstance(mass, (list, tuple)) and mass and all(map(_finite_positive, mass))
        checked(mass, "sampler.mass", lambda m: m in (None, "pilot") or positive,
                "null, 'pilot' or a list of finite numbers > 0")


# wall hits allowed in one leapfrog drift before the step counts as divergent
MAX_REFLECTIONS = 32


def _advance_with_reflection(x, p, dt, A, b, inv_mass, max_reflections=MAX_REFLECTIONS):
    """Drift of x at velocity M^{-1}p with a reflection of the momentum p at
    the first crossing: in the mass metric, p - 2 (a'M^{-1}p) / (a'M^{-1}a) a,
    which keeps the kinetic energy p'M^{-1}p / 2 (Pakman & Paninski 2014);
    inv_mass is the diagonal of M^{-1}.

    The wall hit is the first of the smallest times max(b - a'x, 0) / a'v over
    the walls the velocity v moves towards (a'v > 0), a NaN time first of all,
    as np.argmin picks it; the step reflects when that time is below dt.
    """
    bs = b.tolist()
    for _ in range(max_reflections + 1):
        v = inv_mass * p
        av = (A @ v).tolist()
        out = [j for j, u in enumerate(av) if u > 0.0]
        if not out:
            return x + dt * v, p, True
        ax = (A @ x).tolist()
        i, tau = 0, math.inf
        for j in out:
            gap = bs[j] - ax[j]
            # np.maximum(gap, 0.0): NaN stays, a zero of either sign gives +0
            t = (gap if gap > 0.0 or gap != gap else 0.0) / av[j]
            if t != t:
                i, tau = j, t
                break
            if t < tau:
                i, tau = j, t
        if tau >= dt:
            return x + dt * v, p, True
        x = x + tau * v
        a = A[i]
        p = p - 2.0 * (a @ v) / (a @ (inv_mass * a)) * a
        dt = dt - tau
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
    mass = np.ones(d) if mass is None else np.asarray(mass, dtype=float)
    checked(mass, "sampler.mass", lambda m: m.shape == (d,), f"a list of {d} entries")
    x = np.asarray(x0, dtype=float).ravel()
    if not polytope.contains(x)[0]:
        raise FeasibilityError("no feasible interior starting point")
    # one evaluation per leapfrog step: an accepted state's gradient is reused
    lx, gx = target.log_density_and_grad(x)
    if not np.isfinite(lx):
        raise FeasibilityError("starting point has zero target density")

    burn = _burn_in(cfg)
    A, b, sqrt_mass, inv_mass = polytope.A, polytope.b, np.sqrt(mass), 1.0 / mass
    half = 0.5 * eps
    states = np.empty((cfg.chain_length, d))
    accepted = 0
    divergent = 0
    # The wall times run on Python floats as the same IEEE operations as the
    # array form (np.maximum, division, the first-minimum rule of np.argmin),
    # which tests compare bit for bit; A @ v, A @ x and the dot products stay
    # BLAS calls.  Row sums are pinned only on output, by target.lift.
    for i in range(cfg.chain_length):
        p = rng.standard_normal(d) * sqrt_mass
        h0 = -lx + 0.5 * float(p @ (inv_mass * p))
        q, pq = x, p + half * gx
        ok = True
        for step in range(steps):
            q, pq, ok = _advance_with_reflection(q, pq, eps, A, b, inv_mass)
            if not ok or not all(map(math.isfinite, q.tolist())):
                ok = False
                break
            lq, gq = target.log_density_and_grad(q)
            if gq is None or not all(map(math.isfinite, gq.tolist())):
                ok = False
                break
            # the energy at the full-step momentum; stopping at the first
            # step past the bound keeps a diverging trajectory from overflowing
            p_full = pq + half * gq
            h1 = -lq + 0.5 * float(p_full @ (inv_mass * p_full))
            ok = math.isfinite(h1) and (h1 - h0) < 1000.0
            if not ok:
                break
            pq = pq + eps * gq if step < steps - 1 else p_full
        if not ok:
            divergent += 1
        elif np.log(rng.uniform()) < h0 - h1:
            x, lx, gx = q, lq, gq
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

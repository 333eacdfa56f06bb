"""Conditional sampling: slab Monte Carlo, Metropolis-Hastings, reflective HMC."""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

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
        # only a core run builds a polytope: the other runs never load the LP solver
        from scipy import optimize
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


def _billiard(A, b, inv_mass):
    """The walls a'x <= b, a a row of A, and the diagonal inv_mass of M^{-1},
    as `_advance_with_reflection` takes them: (A as an array, and as lists of
    floats its rows, b, inv_mass and a'M^{-1}a of each wall, and the slabs).

    The slabs (a, lo, hi), lo < a'x < hi, are the walls' interiors with one
    normal a per pair of opposite walls, such as the bounds of a coalition
    and of its complement: a'x < b and -a'x < c is -c < a'x < b, and
    the float product with -a is that with a, negated.
    """
    A = np.asarray(A, dtype=float)
    inv_mass = np.asarray(inv_mass, dtype=float)
    rows, bounds = A.tolist(), np.asarray(b, dtype=float).tolist()
    slabs = {}
    for a, bj in zip(rows, bounds):
        flipped = tuple(-v for v in a)
        if flipped in slabs:
            slabs[flipped][0] = max(slabs[flipped][0], -bj)
        else:
            slab = slabs.setdefault(tuple(a), [-math.inf, math.inf])
            slab[1] = min(slab[1], bj)
    return (A, rows, bounds, inv_mass.tolist(), [float(a.dot(inv_mass * a)) for a in A],
            [(list(a), lo, hi) for a, (lo, hi) in slabs.items()])


def _advance_with_reflection(x, p, dt, billiard, max_reflections=MAX_REFLECTIONS):
    """Drift of x at velocity v = M^{-1}p with a reflection of the momentum p
    at the first crossing: in the mass metric, p - 2 (a'v) / (a'M^{-1}a) a,
    which keeps the kinetic energy p'M^{-1}p / 2 (Pakman & Paninski 2014).
    x and p are lists of floats and are returned as lists; billiard, the
    walls and the mass, comes from `_billiard`.

    An end point x + dt v strictly inside every wall (a'x < b) ends the
    drift: the polytope is convex, so the segment to it crosses no wall.
    Any other end point (one on a wall may have been rounded there from
    beyond it), and always a NaN or infinite one, has the walls timed as by
    the array form: the wall hit is the first of the smallest times
    max(b - a'x, 0) / a'v over the walls the velocity moves towards
    (a'v > 0), a NaN time first of all, as np.argmin picks it; the drift
    reflects there when that time is below dt, and goes on from the wall.
    The products with A and its rows stay BLAS calls, whose rounding (a
    multiply and an add may be fused) Python floats would not repeat; the
    rest is the same IEEE operations on floats.
    """
    A, rows, b, inv_mass, wall_mass, slabs = billiard
    for _ in range(max_reflections + 1):
        end = [xi + dt * (mi * pi) for xi, mi, pi in zip(x, inv_mass, p)]
        if all(map(math.isfinite, end)):
            for a, lo, hi in slabs:
                if not lo < sum(map(mul, a, end)) < hi:
                    break
            else:
                return end, p, True
        v = np.array(list(map(mul, inv_mass, p)))
        av = A.dot(v).tolist()
        out = [j for j, u in enumerate(av) if u > 0.0]
        if not out:
            return end, p, True
        ax = A.dot(np.array(x)).tolist()
        i, tau = 0, math.inf
        for j in out:
            gap = b[j] - ax[j]
            # np.maximum(gap, 0.0): NaN stays, a zero of either sign gives +0
            t = (gap if gap > 0.0 or gap != gap else 0.0) / av[j]
            if t != t:
                i, tau = j, t
                break
            if t < tau:
                i, tau = j, t
        if tau >= dt:
            return end, p, True
        x = [xi + tau * vi for xi, vi in zip(x, v.tolist())]
        c = 2.0 * float(A[i].dot(v)) / wall_mass[i]
        p = [pk - c * ak for pk, ak in zip(p, rows[i])]
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
    # The leapfrog runs on Python floats: q, p and the gradient are lists, and
    # a step whose drift meets no wall makes no numpy call.  One evaluation
    # per leapfrog step: an accepted state's gradient is reused.  Row sums are
    # pinned only on output, by target.lift.
    x = x.tolist()
    lx, gx = target.log_density_and_grad(x)
    if not math.isfinite(lx):
        raise FeasibilityError("starting point has zero target density")

    burn = _burn_in(cfg)
    billiard = _billiard(polytope.A, polytope.b, 1.0 / mass)
    sqrt_mass, inv_mass = np.sqrt(mass), billiard[3]
    half = 0.5 * eps
    states = []
    accepted = 0
    divergent = 0
    for i in range(cfg.chain_length):
        p = (rng.standard_normal(d) * sqrt_mass).tolist()
        h0 = -lx + 0.5 * sum(map(mul, p, map(mul, inv_mass, p)))
        q, pq = x, [pi + half * gi for pi, gi in zip(p, gx)]
        ok = True
        for step in range(steps):
            q, pq, ok = _advance_with_reflection(q, pq, eps, billiard)
            if not ok or not all(map(math.isfinite, q)):
                ok = False
                break
            lq, gq = target.log_density_and_grad(q)
            if gq is None:
                ok = False
                break
            # the energy at the full-step momentum, not finite where the
            # gradient is not; stopping at the first step past the bound keeps
            # a diverging trajectory from overflowing
            p_full = [pi + half * gi for pi, gi in zip(pq, gq)]
            h1 = -lq + 0.5 * sum(map(mul, p_full, map(mul, inv_mass, p_full)))
            ok = math.isfinite(h1) and (h1 - h0) < 1000.0
            if not ok:
                break
            pq = [pi + eps * gi for pi, gi in zip(pq, gq)] if step < steps - 1 else p_full
        if not ok:
            divergent += 1
        elif np.log(rng.uniform()) < h0 - h1:
            x, lx, gx = q, lq, gq
            accepted += 1
        states.append(x)
        if i == 99 and divergent > 50:
            raise StabilityError(
                f"{divergent}% of early trajectories diverged; try epsilon = {eps / 2:.4g}"
            )
    if divergent > 0.5 * cfg.chain_length:
        raise StabilityError(
            f"{divergent}/{cfg.chain_length} trajectories diverged; try epsilon = {eps / 2:.4g}"
        )
    chain = np.array(states[burn:])
    diag = chain_diagnostics(chain, acceptance_rate=accepted / cfg.chain_length)
    return chain, diag

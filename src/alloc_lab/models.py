"""Loss models: margins, copulas, elliptical joints, sampling, risk measures.

Density convention for elliptical laws:

    f(x) = c_d / sqrt(|Sigma|) * g((x - mu)' Sigma^{-1} (x - mu) / 2)

so the generator is evaluated at half the squared Mahalanobis distance.
The Student-t generator below carries a factor 2 in its argument so that
the resulting f is the textbook t_nu(mu, Sigma) density.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import integrate, special

from .errors import (
    BoundaryError,
    ConfigurationError,
    DataError,
    ParameterError,
    SampleSizeError,
    ShapeError,
)

_LOG_2PI = math.log(2.0 * math.pi)

# cells of the grid on which MarginCopula tabulates its latent-to-loss map
SCREEN_CELLS = 4096


def _require_positive(owner, **params):
    """Raise ParameterError naming the first parameter that is not finite and > 0."""
    for name, value in params.items():
        if not (value > 0) or not math.isfinite(value):
            raise ParameterError(f"{owner} requires a finite {name} > 0, got {value!r}")


def _require_finite(owner, **params):
    for name, value in params.items():
        if not math.isfinite(value):
            raise ParameterError(f"{owner} requires a finite {name}, got {value!r}")


def rng_from_seed(seed):
    """Return a Generator from an int seed, SeedSequence, or Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def split_seeds(seed, n):
    """Derive n independent child seeds from one master seed."""
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(n)
    return np.random.SeedSequence(seed).spawn(n)


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------

class Margin:
    """One-dimensional marginal distribution."""

    lower = -math.inf
    upper = math.inf
    has_density = True

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def logpdf(self, x):
        raise NotImplementedError

    def dlogpdf(self, x):
        """Derivative of logpdf, used for analytic joint gradients."""
        raise NotImplementedError

    def quantile(self, p):
        raise NotImplementedError

    def sample(self, n, rng):
        return self.quantile(rng.uniform(size=n))


@dataclass(frozen=True)
class Lomax(Margin):
    """Shifted Pareto with survival (1 + x/scale)^(-shape) on [0, inf)."""

    shape: float
    scale: float
    lower: float = field(default=0.0, init=False)

    def __post_init__(self):
        _require_positive("Lomax", shape=self.shape, scale=self.scale)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, -np.expm1(-self.shape * np.log1p(np.maximum(x, 0.0) / self.scale)))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(
            x < 0.0,
            -np.inf,
            math.log(self.shape / self.scale)
            - (self.shape + 1.0) * np.log1p(np.maximum(x, 0.0) / self.scale),
        )
        return out

    def dlogpdf(self, x):
        x = np.asarray(x, dtype=float)
        return -(self.shape + 1.0) / (self.scale + x)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ParameterError("probability outside [0, 1]")
        if np.any(p == 1.0):
            raise ParameterError("upper endpoint is infinite")
        return self.scale * np.expm1(-np.log1p(-p) / self.shape)


@dataclass(frozen=True)
class ParetoI(Margin):
    """Classical Pareto with survival (minimum/x)^shape on [minimum, inf)."""

    shape: float
    minimum: float

    def __post_init__(self):
        _require_positive("ParetoI", shape=self.shape, minimum=self.minimum)

    @property
    def lower(self):
        return self.minimum

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.minimum, 0.0, 1.0 - (self.minimum / np.maximum(x, self.minimum)) ** self.shape)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(
            x < self.minimum,
            -np.inf,
            math.log(self.shape) + self.shape * math.log(self.minimum)
            - (self.shape + 1.0) * np.log(np.maximum(x, self.minimum)),
        )

    def dlogpdf(self, x):
        x = np.asarray(x, dtype=float)
        return -(self.shape + 1.0) / x

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ParameterError("probability outside [0, 1]")
        if np.any(p == 1.0):
            raise ParameterError("upper endpoint is infinite")
        return self.minimum * np.exp(-np.log1p(-p) / self.shape)


@dataclass(frozen=True)
class StudentT(Margin):
    """Location-scale Student t."""

    df: float
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        _require_positive("StudentT", df=self.df, scale=self.scale)
        _require_finite("StudentT", loc=self.loc)

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return special.stdtr(self.df, z)

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        nu = self.df
        c = special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0) \
            - 0.5 * math.log(nu * math.pi) - math.log(self.scale)
        return c - (nu + 1.0) / 2.0 * np.log1p(z * z / nu)

    def dlogpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return -(self.df + 1.0) * z / (self.df + z * z) / self.scale

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ParameterError("support is unbounded; need 0 < p < 1")
        return self.loc + self.scale * special.stdtrit(self.df, p)


@dataclass(frozen=True)
class Normal(Margin):
    mean: float = 0.0
    stdev: float = 1.0

    def __post_init__(self):
        _require_positive("Normal", stdev=self.stdev)
        _require_finite("Normal", mean=self.mean)

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.stdev
        return special.ndtr(z)

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.stdev
        return -0.5 * z * z - 0.5 * _LOG_2PI - math.log(self.stdev)

    def dlogpdf(self, x):
        return -(np.asarray(x, dtype=float) - self.mean) / (self.stdev ** 2)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ParameterError("support is unbounded; need 0 < p < 1")
        return self.mean + self.stdev * special.ndtri(p)


class Empirical(Margin):
    """Empirical distribution of a stored sample."""

    has_density = False

    def __init__(self, sample):
        sample = np.asarray(sample, dtype=float).ravel()
        if sample.size == 0:
            raise DataError("empirical margin needs a nonempty sample")
        if not np.all(np.isfinite(sample)):
            raise DataError("empirical margin sample contains non-finite values")
        self.sample = np.sort(sample)

    @property
    def lower(self):
        return float(self.sample[0])

    @property
    def upper(self):
        return float(self.sample[-1])

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.sample, x, side="right") / self.sample.size

    def logpdf(self, x):
        raise DataError("empirical margin has no density")

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ParameterError("probability outside [0, 1]")
        n = self.sample.size
        k = np.maximum(np.ceil(p * n).astype(int), 1)
        return self.sample[np.minimum(k, n) - 1]


# ---------------------------------------------------------------------------
# Dispersion matrices and density generators
# ---------------------------------------------------------------------------

class DispersionMatrix:
    """Symmetric positive-definite matrix with a cached Cholesky factor."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError("dispersion matrix must be square")
        if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
            raise ParameterError("dispersion matrix must be symmetric to 1e-12")
        m = 0.5 * (m + m.T)
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            # borderline user-entered matrices: tiny eigenvalue deficits get
            # jitter, anything larger is a hard error
            min_eig = float(np.linalg.eigvalsh(m).min())
            if min_eig > -1e-10:
                m = m + np.eye(m.shape[0]) * 1e-10
                chol = np.linalg.cholesky(m)
            else:
                raise ParameterError(
                    f"matrix not positive definite (min eigenvalue {min_eig:.3e})"
                )
        self.matrix = m
        self.chol = chol
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))

    @property
    def d(self):
        return self.matrix.shape[0]

    def solve(self, x):
        """Sigma^{-1} x for x of shape (d,) or (n, d) (rows)."""
        x = np.asarray(x, dtype=float)
        y = np.linalg.solve(self.chol, x.T if x.ndim == 2 else x)
        z = np.linalg.solve(self.chol.T, y)
        return z.T if x.ndim == 2 else z

    def maha_sq(self, z):
        """z' Sigma^{-1} z for rows z, via the Cholesky factor."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        w = np.linalg.solve(self.chol, z.T)
        return np.sum(w * w, axis=0)


class DensityGenerator:
    """Radial density generator g evaluated at half squared Mahalanobis."""

    def log_g(self, t, d):
        raise NotImplementedError

    def dlog_g(self, t, d):
        raise NotImplementedError


@dataclass(frozen=True)
class NormalGen(DensityGenerator):
    def log_g(self, t, d):
        return -np.asarray(t, dtype=float)

    def dlog_g(self, t, d):
        return -np.ones_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class StudentTGen(DensityGenerator):
    nu: float

    def __post_init__(self):
        _require_positive("StudentTGen", nu=self.nu)

    def log_g(self, t, d):
        # the factor 2 restores the full squared Mahalanobis distance,
        # making c_d * g(q/2) the standard t_nu density
        return -(d + self.nu) / 2.0 * np.log1p(2.0 * np.asarray(t, dtype=float) / self.nu)

    def dlog_g(self, t, d):
        return -(d + self.nu) / (self.nu + 2.0 * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ShiftedGen(DensityGenerator):
    """g_K(t) = g(t + delta), keeping the base model's dimension.

    Conditioning reduces the dimension the generator is integrated over but
    not the exponent of the parent generator, so `base_dim` (when set)
    overrides the evaluation dimension.
    """

    base: DensityGenerator
    delta: float
    base_dim: int = None

    def __post_init__(self):
        if self.delta < 0:
            raise ParameterError("shift must be nonnegative")

    def log_g(self, t, d):
        dd = self.base_dim if self.base_dim is not None else d
        return self.base.log_g(np.asarray(t, dtype=float) + self.delta, dd)

    def dlog_g(self, t, d):
        dd = self.base_dim if self.base_dim is not None else d
        return self.base.dlog_g(np.asarray(t, dtype=float) + self.delta, dd)


def log_norm_const(gen, d):
    """log c_d with c_d^{-1} = (2 pi)^{d/2} / Gamma(d/2) * int t^{d/2-1} g(t) dt.

    The integral is the radial integral after substituting t = r^2 / 2.
    """
    a = d / 2.0

    def integrand(t):
        return np.exp((a - 1.0) * np.log(t) + gen.log_g(t, d))

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=200)
    if not np.isfinite(val) or val <= 0.0:
        raise ParameterError("radial integral of the generator diverges")
    return special.gammaln(a) - a * _LOG_2PI - math.log(val)


# ---------------------------------------------------------------------------
# Elliptical models
# ---------------------------------------------------------------------------

class EllipticalModel:
    """Location / dispersion / generator triple with normalized density."""

    def __init__(self, mu, dispersion, generator):
        self.mu = np.asarray(mu, dtype=float).ravel()
        if not isinstance(dispersion, DispersionMatrix):
            dispersion = DispersionMatrix(dispersion)
        if dispersion.d != self.mu.size:
            raise ShapeError("location and dispersion dimensions differ")
        self.dispersion = dispersion
        self.generator = generator
        self.d = self.mu.size
        self.log_c = log_norm_const(generator, self.d)

    def half_maha(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return 0.5 * self.dispersion.maha_sq(x - self.mu)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        t = self.half_maha(x)
        out = self.log_c - 0.5 * self.dispersion.log_det + self.generator.log_g(t, self.d)
        return float(out[0]) if single else out

    def grad_logpdf(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ShapeError("gradient is evaluated at a single point")
        z = x - self.mu
        t = 0.5 * float(self.dispersion.maha_sq(z)[0])
        return float(self.generator.dlog_g(t, self.d)) * self.dispersion.solve(z)

    def sample(self, n, rng):
        z = rng.standard_normal((n, self.d)) @ self.dispersion.chol.T
        gen = self.generator
        if isinstance(gen, NormalGen):
            return self.mu + z
        if isinstance(gen, StudentTGen):
            w = rng.chisquare(gen.nu, size=n) / gen.nu
            return self.mu + z / np.sqrt(w)[:, None]
        raise ParameterError("sampling implemented for normal and t generators only")


# ---------------------------------------------------------------------------
# Copulas
# ---------------------------------------------------------------------------

class CopulaModel:
    """A copula sampled as a latent draw mapped to the unit cube coordinatewise.

    `to_uniform` is nondecreasing in each coordinate.  A copula whose latent
    law has a fixed range also defines `grid_nodes(cells)`, the latent values
    of cells + 1 nodes from the bottom to the top of that range, and
    `grid_position(latent, cells, out)`, which writes the position of each
    latent value on that grid in units of cells (NaN where it has none);
    MarginCopula tabulates its latent-to-loss map on those nodes.
    """

    has_density = True

    def latent(self, n, rng):
        raise NotImplementedError

    def to_uniform(self, latent):
        return latent

    def sample(self, n, rng):
        return self.to_uniform(self.latent(n, rng))

    def logdensity(self, u):
        raise NotImplementedError


class IndependenceCopula(CopulaModel):
    def __init__(self, d):
        self.d = d

    def latent(self, n, rng):
        return rng.uniform(size=(n, self.d))

    @staticmethod
    def grid_nodes(cells):
        return np.linspace(0.0, 1.0, cells + 1)

    @staticmethod
    def grid_position(u, cells, out):
        return np.multiply(u, cells, out=out)

    def logdensity(self, u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return np.zeros(u.shape[0])

    def dlogdensity_du(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))


class StudentTCopula(CopulaModel):
    def __init__(self, nu, corr):
        _require_positive("StudentTCopula", nu=nu)
        corr = np.asarray(corr, dtype=float)
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise ParameterError("correlation matrix must have unit diagonal")
        self.nu = float(nu)
        self.corr = DispersionMatrix(corr)
        self.d = self.corr.d

    def latent(self, n, rng):
        z = rng.standard_normal((n, self.d)) @ self.corr.chol.T
        w = rng.chisquare(self.nu, size=n) / self.nu
        return z / np.sqrt(w)[:, None]

    def to_uniform(self, t):
        return special.stdtr(self.nu, t)

    # the grid is uniform in v = t / (1 + |t|), which maps [-inf, inf] onto [-1, 1]

    @staticmethod
    def grid_nodes(cells):
        v = np.linspace(-1.0, 1.0, cells + 1)
        with np.errstate(divide="ignore"):
            return v / (1.0 - np.abs(v))

    @staticmethod
    def grid_position(t, cells, out):
        np.abs(t, out=out)
        out += 1.0
        with np.errstate(invalid="ignore"):      # t = +-inf gives NaN
            np.divide(t, out, out=out)
        out += 1.0
        out *= 0.5 * cells
        return out

    def _z(self, u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise BoundaryError("copula density needs u in the open unit cube")
        return special.stdtrit(self.nu, u), u

    def logdensity(self, u):
        z, u = self._z(u)
        nu, d = self.nu, self.d
        q = self.corr.maha_sq(z)
        log_joint = (
            special.gammaln((nu + d) / 2.0) - special.gammaln(nu / 2.0)
            - d / 2.0 * math.log(nu * math.pi) - 0.5 * self.corr.log_det
            - (nu + d) / 2.0 * np.log1p(q / nu)
        )
        c1 = special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0) \
            - 0.5 * math.log(nu * math.pi)
        log_margins = c1 - (nu + 1.0) / 2.0 * np.log1p(z * z / nu)
        return log_joint - np.sum(log_margins, axis=1)

    def dlogdensity_du(self, u):
        """Gradient of log c wrt u, row-wise."""
        z, u = self._z(u)
        nu, d = self.nu, self.d
        q = self.corr.maha_sq(z)
        pz = self.corr.solve(z)
        djoint_dz = -(nu + d) / (nu + q)[:, None] * pz
        dmarg_dz = -(nu + 1.0) * z / (nu + z * z)
        c1 = special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0) \
            - 0.5 * math.log(nu * math.pi)
        log_fz = c1 - (nu + 1.0) / 2.0 * np.log1p(z * z / nu)
        dz_du = np.exp(-log_fz)
        return (djoint_dz - dmarg_dz) * dz_du


class EmpiricalResampleCopula(CopulaModel):
    """Resamples rows of a stored pseudo-observation matrix."""

    has_density = False

    def __init__(self, pseudo_obs):
        pseudo_obs = np.asarray(pseudo_obs, dtype=float)
        if pseudo_obs.size == 0:
            raise DataError("empty pseudo-observation store")
        if np.any(pseudo_obs < 0.0) or np.any(pseudo_obs > 1.0):
            raise DataError("pseudo-observations must lie in [0, 1]")
        self.pseudo_obs = pseudo_obs
        self.d = pseudo_obs.shape[1]

    def latent(self, n, rng):
        idx = rng.integers(0, self.pseudo_obs.shape[0], size=n)
        return self.pseudo_obs[idx]

    def logdensity(self, u):
        raise DataError("empirical resample copula has no density")


# ---------------------------------------------------------------------------
# Joint models
# ---------------------------------------------------------------------------

class JointModel:
    d = None
    has_density = True

    def logpdf(self, x):
        raise NotImplementedError

    def grad_logpdf(self, x):
        raise NotImplementedError

    def sample(self, n, seed):
        raise NotImplementedError

    def margin_lowers(self):
        raise NotImplementedError


class EllipticalJoint(JointModel):
    def __init__(self, elliptical):
        self.elliptical = elliptical
        self.d = elliptical.d

    def logpdf(self, x):
        return self.elliptical.logpdf(x)

    def grad_logpdf(self, x):
        return self.elliptical.grad_logpdf(x)

    def sample(self, n, seed):
        if n < 1:
            raise SampleSizeError("need n >= 1")
        return self.elliptical.sample(n, rng_from_seed(seed))

    def margin_lowers(self):
        return np.full(self.d, -np.inf)


class MarginCopula(JointModel):
    def __init__(self, margins, copula):
        self.margins = list(margins)
        self.copula = copula
        self.d = len(self.margins)
        if getattr(copula, "d", self.d) != self.d:
            raise ShapeError("copula dimension does not match the margin count")
        self.has_density = (copula.has_density
                            and all(m.has_density for m in self.margins))

    def margin_lowers(self):
        return np.array([m.lower for m in self.margins], dtype=float)

    def _inside(self, x):
        lows = self.margin_lowers()
        return np.all(x >= lows, axis=-1)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x2 = np.atleast_2d(x)
        out = np.full(x2.shape[0], -np.inf)
        ok = self._inside(x2)
        if np.any(ok):
            xs = x2[ok]
            lm = np.zeros(xs.shape[0])
            u = np.empty_like(xs)
            for j, m in enumerate(self.margins):
                lm += m.logpdf(xs[:, j])
                u[:, j] = m.cdf(xs[:, j])
            finite = np.isfinite(lm)
            lc = np.full(xs.shape[0], -np.inf)
            if np.any(finite):
                uf = np.clip(u[finite], 1e-15, 1.0 - 1e-15)
                lc[finite] = self.copula.logdensity(uf)
            out[ok] = lm + lc
        return float(out[0]) if single else out

    def grad_logpdf(self, x):
        x = np.asarray(x, dtype=float).ravel()
        lows = self.margin_lowers()
        if np.any(x <= lows):
            raise BoundaryError("gradient requested on or outside the support boundary")
        if not self.has_density:
            raise DataError("model has no density")
        u = np.array([m.cdf(x[j]) for j, m in enumerate(self.margins)], dtype=float)
        pdf = np.array([m.pdf(x[j]) for j, m in enumerate(self.margins)], dtype=float)
        dlm = np.array([m.dlogpdf(x[j]) for j, m in enumerate(self.margins)], dtype=float)
        dc = self.copula.dlogdensity_du(u[None, :])[0]
        return dc * pdf + dlm

    def sample(self, n, seed):
        if n < 1:
            raise SampleSizeError("need n >= 1")
        return self.transform(self.copula.latent(n, rng_from_seed(seed)))

    def transform(self, latent):
        """Losses of latent draws: to the unit cube, clipped, through the margins.

        Elementwise and nondecreasing in each coordinate, so a row's losses
        do not depend on the rows drawn with it.
        """
        u = np.clip(self.copula.to_uniform(latent), 1e-15, 1.0 - 1e-15)
        x = np.empty_like(u)
        for j, m in enumerate(self.margins):
            x[:, j] = m.quantile(u[:, j])
        return x

    @cached_property
    def screen_tables(self):
        """Per-coordinate (lower, upper) tables of `transform` on the copula's
        grid, each (d, SCREEN_CELLS + 1), or None when the copula has no grid
        or a tabulated loss is not finite.

        Entry i bounds the losses of every latent value whose computed grid
        position p has floor(p) = i: the nodes i - 1 and i + 2 enclose it
        despite rounding in p.  The relative pad of 1e-9 covers rounding in
        the quantile functions and a row sum taken in another order.
        """
        grid_nodes = getattr(self.copula, "grid_nodes", None)
        if grid_nodes is None:
            return None
        nodes = grid_nodes(SCREEN_CELLS)
        table = self.transform(np.repeat(nodes[:, None], self.d, axis=1)).T
        if not np.all(np.isfinite(table)):
            return None
        pad = 1e-9 * np.abs(table)
        i = np.arange(SCREEN_CELLS + 1)
        lower = (table - pad)[:, np.maximum(i - 1, 0)]
        upper = (table + pad)[:, np.minimum(i + 2, SCREEN_CELLS)]
        return np.ascontiguousarray(lower), np.ascontiguousarray(upper)

    def row_sum_bounds(self, latent):
        """(lo, hi) with lo <= s <= hi for the floating-point row sums
        s = transform(latent).sum(axis=1); needs `screen_tables`.

        Works one coordinate at a time in reused buffers, so a batch costs
        a few vectors of its length beyond the latent draws.
        """
        lower, upper = self.screen_tables
        n = latent.shape[0]
        lo, hi = np.zeros(n), np.zeros(n)
        pos, vals = np.empty(n), np.empty(n)
        idx = np.empty(n, dtype=np.intp)
        for j in range(self.d):
            self.copula.grid_position(latent[:, j], SCREEN_CELLS, pos)
            # fmin/fmax send a NaN position to the top node for hi and the
            # bottom node for lo; the cast truncates, i.e. floors
            np.fmin(pos, SCREEN_CELLS, out=idx, casting="unsafe")
            hi += np.take(upper[j], idx, out=vals)
            np.fmax(pos, 0.0, out=idx, casting="unsafe")
            lo += np.take(lower[j], idx, out=vals)
        return lo, hi


def _fd_grad(f, x, rel=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        h = rel * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        g[j] = (f(xp) - f(xm)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def empirical_var(samples, p):
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if not 0.0 < p < 1.0:
        raise ParameterError("need 0 < p < 1")
    if n < 1.0 / (1.0 - p):
        raise SampleSizeError(f"need at least {math.ceil(1.0 / (1.0 - p))} samples")
    s = np.sort(samples)
    k = max(int(math.ceil(n * p)), 1)
    return float(s[k - 1])


def empirical_es(samples, p):
    samples = np.asarray(samples, dtype=float).ravel()
    var = empirical_var(samples, p)
    tail = samples[samples >= var]
    return float(tail.mean())


# ---------------------------------------------------------------------------
# Config-document construction
# ---------------------------------------------------------------------------

_MARGIN_BUILDERS = {
    "lomax": lambda doc: Lomax(float(doc["shape"]), float(doc["scale"])),
    "pareto1": lambda doc: ParetoI(float(doc["shape"]), float(doc["minimum"])),
    "student_t": lambda doc: StudentT(float(doc["df"]), float(doc.get("loc", 0.0)),
                                      float(doc.get("scale", 1.0))),
    "normal": lambda doc: Normal(float(doc.get("mean", 0.0)), float(doc.get("stdev", 1.0))),
    "empirical": lambda doc: Empirical(np.asarray(doc["sample"], dtype=float)),
}


def margin_from_config(doc):
    kind = doc.get("type")
    if kind not in _MARGIN_BUILDERS:
        raise ParameterError(f"unknown margin type: {kind!r}")
    return _MARGIN_BUILDERS[kind](doc)


def model_from_config(doc):
    """Build a JointModel from a config mapping.

    Documented keys: kind, margins[], copula, nu, corr, mu, sigma.
    """
    def key(name):
        if name not in doc:
            raise ConfigurationError(f"missing key: model.{name}")
        return doc[name]

    kind = doc.get("kind")
    if kind == "elliptical":
        gen_name = doc.get("generator", "normal")
        if gen_name == "normal":
            gen = NormalGen()
        elif gen_name == "student_t":
            gen = StudentTGen(float(key("nu")))
        else:
            raise ParameterError(f"unknown generator: {gen_name!r}")
        return EllipticalJoint(EllipticalModel(np.asarray(key("mu"), dtype=float),
                                               DispersionMatrix(key("sigma")), gen))
    if kind == "margin_copula":
        margins = []
        for i, m in enumerate(key("margins")):
            try:
                margins.append(margin_from_config(m))
            except KeyError as exc:
                raise ConfigurationError(f"missing key: model.margins[{i}].{exc.args[0]}") from None
        cop_name = doc.get("copula", "independence")
        if cop_name == "student_t":
            copula = StudentTCopula(float(key("nu")), np.asarray(key("corr"), dtype=float))
        elif cop_name == "independence":
            copula = IndependenceCopula(len(margins))
        elif cop_name == "empirical":
            copula = EmpiricalResampleCopula(np.asarray(key("pseudo_obs"), dtype=float))
        else:
            raise ParameterError(f"unknown copula: {cop_name!r}")
        return MarginCopula(margins, copula)
    raise ParameterError(f"unknown model kind: {kind!r}")


def empirical_model_from_matrix(data):
    """Empirical margins plus rank-resampling copula from a loss matrix."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DataError("need an n x d loss matrix with n >= 2")
    n = data.shape[0]
    ranks = np.empty_like(data)
    for j in range(data.shape[1]):
        order = np.argsort(data[:, j], kind="stable")
        r = np.empty(n)
        r[order] = np.arange(1, n + 1)
        ranks[:, j] = r / (n + 1.0)
    margins = [Empirical(data[:, j]) for j in range(data.shape[1])]
    return MarginCopula(margins, EmpiricalResampleCopula(ranks))

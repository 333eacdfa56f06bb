"""Loss models: margins, copulas, elliptical joints, sampling, risk measures.

Density convention for elliptical laws:

    f(x) = c_d / sqrt(|Sigma|) * g((x - mu)' Sigma^{-1} (x - mu) / 2)

so the generator is evaluated at half the squared Mahalanobis distance.
The Student-t generator below carries a factor 2 in its argument so that
the resulting f is the textbook t_nu(mu, Sigma) density.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from operator import sub

import numpy as np
from scipy import special

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
# the bounds to which unit-cube rows are clipped before a quantile or a copula density
UNIT_CLIP = (1e-15, 1.0 - 1e-15)


def _written_out(term, params):
    """A dict whose entry n, made on first use, is the lambda term(0) + ... + term(n - 1)."""
    class Lines(dict):
        def __missing__(self, n):
            self[n] = f = eval(f"lambda {params}: {' + '.join(map(term, range(n))) or 0.0}")
            return f
    return Lines()


# dot(a, b) = a[0]*b[0] + a[1]*b[1] + ... and total(a) = a[0] + a[1] + ..., on floats
# and arrays alike, added left to right on any Python (sum() compensates from 3.12 on)
_DOTS, _TOTALS = _written_out("a[{0}]*b[{0}]".format, "a, b"), _written_out("a[{0}]".format, "a")


def dot(a, b):
    return _DOTS[len(a)](a, b)


def total(a):
    return _TOTALS[len(a)](a)


def _int_at_least(v, low):
    """True for an integer (not a bool) >= low."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low


def _finite_number(v):
    """True for a finite real number (not a bool)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and -math.inf < v < math.inf


def _finite_positive(v):
    """True for a finite real number (not a bool) > 0."""
    return _finite_number(v) and v > 0


def checked(value, path, ok, rule):
    """value, refused with a ConfigurationError that names its key path
    unless ok(value); the one place a config value is refused."""
    if not ok(value):
        raise ConfigurationError(f"{path} must be {rule}, got {value!r}")
    return value


# (ok, rule) pairs for `checked`
POSITIVE = _finite_positive, "a finite number > 0"
FLAG = (lambda v: isinstance(v, bool)), "true or false"


def integer(low):
    return (lambda v: _int_at_least(v, low)), f"an integer >= {low}"


def or_null(ok_rule):
    return (lambda v: v is None or ok_rule[0](v)), f"null or {ok_rule[1]}"


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
    """Derive n independent child seeds from one int master seed."""
    return np.random.SeedSequence(seed).spawn(n)


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------

class Margin:
    """One-dimensional marginal distribution: `cdf`, `logpdf`, its derivative
    `dlogpdf` for analytic joint gradients, and `_ppf`, its quantile formula."""

    lower = -math.inf
    upper = math.inf
    has_density = True

    def quantile(self, p):
        """The p-quantile; refuses a NaN, a p outside [0, 1], and p = 0 or 1
        at an infinite end of the support."""
        p = np.asarray(p, dtype=float)
        low, high = self.lower > -math.inf, self.upper < math.inf
        if not np.all((p >= 0.0 if low else p > 0.0) & (p <= 1.0 if high else p < 1.0)):
            raise ParameterError("quantile needs p in "
                                 f"{'[' if low else '('}0, 1{']' if high else ')'}")
        return self._ppf(p)


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
        return np.where(
            x < 0.0,
            -np.inf,
            math.log(self.shape / self.scale)
            - (self.shape + 1.0) * np.log1p(np.maximum(x, 0.0) / self.scale),
        )

    def dlogpdf(self, x):
        return -(self.shape + 1.0) / (self.scale + np.asarray(x, dtype=float))

    def _ppf(self, p):
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
        return -(self.shape + 1.0) / np.asarray(x, dtype=float)

    def _ppf(self, p):
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

    def _ppf(self, p):
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

    def _ppf(self, p):
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
        self.lower, self.upper = float(self.sample[0]), float(self.sample[-1])

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.sample, x, side="right") / self.sample.size

    def logpdf(self, x):
        raise DataError("empirical margin has no density")

    def _ppf(self, p):
        n = self.sample.size
        k = np.maximum(np.ceil(p * n).astype(int), 1)
        return self.sample[np.minimum(k, n) - 1]


# ---------------------------------------------------------------------------
# Dispersion matrices and density generators
# ---------------------------------------------------------------------------

class DispersionMatrix:
    """Symmetric positive-definite matrix with its Cholesky factor L and the
    inverse factor L^{-1}, both computed once; L^{-1} is also kept as lists of
    its rows and of its columns, for `dot`."""

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
        self.inv_chol = np.linalg.inv(chol)
        self.inv_chol_rows = self.inv_chol.tolist()
        self.inv_chol_cols = self.inv_chol.T.tolist()
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))

    @property
    def d(self):
        return self.matrix.shape[0]

    def whiten(self, z):
        """L^{-1} z for the coordinates z of a point (floats) or of rows (arrays)."""
        return [dot(row, z) for row in self.inv_chol_rows]

    def maha_sq(self, z):
        """z' Sigma^{-1} z = |L^{-1} z|^2 for rows z, each row's as if alone."""
        w = self.whiten(np.atleast_2d(np.asarray(z, dtype=float)).T.copy())
        return dot(w, w)


# A density generator g, evaluated at t, half the squared Mahalanobis
# distance, gives log g as log_g(t, d) (t a float, on which it makes no numpy
# call, or an array of them, each with its bits as a float), its derivative at
# a float t as dlog_g(t, d), and log c_d, which normalizes it, as log_c(d).

@dataclass(frozen=True)
class NormalGen:
    def log_g(self, t, d):
        return -t

    def dlog_g(self, t, d):
        return -1.0

    def log_c(self, d):
        return -d / 2.0 * _LOG_2PI


@dataclass(frozen=True)
class StudentTGen:
    nu: float

    def __post_init__(self):
        _require_positive("StudentTGen", nu=self.nu)

    def log_g(self, t, d):
        # the factor 2 restores the full squared Mahalanobis distance, making
        # c_d * g(q/2) the standard t_nu density; an array takes math.log1p too
        s = 2.0 * t / self.nu
        s = math.log1p(s) if isinstance(s, float) else np.array(list(map(math.log1p, s.tolist())))
        return -(d + self.nu) / 2.0 * s

    def dlog_g(self, t, d):
        return -(d + self.nu) / (self.nu + 2.0 * t)

    def log_c(self, d):
        nu = self.nu
        return special.gammaln((nu + d) / 2.0) - special.gammaln(nu / 2.0) \
            - d / 2.0 * math.log(nu * math.pi)


# ---------------------------------------------------------------------------
# Elliptical joints
# ---------------------------------------------------------------------------

def _centred_rows(rng, n, chol, nu=None):
    """n rows of N(0, LL'), L = chol, or with nu of t_nu(0, LL'): standard
    normal rows times L', each divided by sqrt(chi2_nu / nu)."""
    z = rng.standard_normal((n, chol.shape[0])) @ chol.T
    return z if nu is None else z / np.sqrt(rng.chisquare(nu, size=n) / nu)[:, None]


class EllipticalJoint:
    """A normal or t law: location, dispersion and generator.

    It, MarginCopula and EmpiricalJoint are the three joint models, with
    `d`, `has_density`, `logpdf`, `logpdf_and_grad` (at one point),
    `sample(n, seed, slab=None)`, `margin_lowers()` and `largest_sum()`, the
    least upper bound of the row sum over the support.  With slab =
    (K, delta), `sample` may leave out draws whose row sum s has
    |s - K| >= delta, and keeps every other draw in order.
    """

    has_density = True

    def __init__(self, mu, dispersion, generator):
        self.mu = np.asarray(mu, dtype=float).ravel()
        self._mu = self.mu.tolist()
        if not isinstance(dispersion, DispersionMatrix):
            dispersion = DispersionMatrix(dispersion)
        if dispersion.d != self.mu.size:
            raise ShapeError("location and dispersion dimensions differ")
        self.dispersion = dispersion
        self.generator = generator
        self.d = self.mu.size
        # log_c - 0.5 log_det + log_g adds left to right, so folding the
        # first two terms into one constant keeps every bit
        self._log_norm = float(generator.log_c(self.d) - 0.5 * self.dispersion.log_det)

    def _evaluate(self, z):
        """(log f, w = L^{-1} z, t = |w|^2 / 2) at the coordinates z of x - mu,
        floats for one point or arrays for rows, by one rule for both."""
        w = self.dispersion.whiten(z)
        t = 0.5 * dot(w, w)
        return self._log_norm + self.generator.log_g(t, self.d), w, t

    def logpdf(self, x):
        """log f at one point x of shape (d,), as a float, or at rows of
        shape (n, d), each row's bitwise its `logpdf_and_grad` value."""
        x = np.asarray(x, dtype=float)
        out = self._evaluate((np.atleast_2d(x) - self.mu).T.copy())[0]
        return float(out[0]) if x.ndim == 1 else out

    def logpdf_and_grad(self, x):
        """(logpdf, gradient dlog_g(t) L^{-T} w) at one point x, a sequence of d
        floats, as a float and a list, on Python floats."""
        if len(x) != self.d:
            raise ShapeError("gradient is evaluated at a single point")
        lp, w, t = self._evaluate(list(map(sub, x, self._mu)))
        if not isinstance(t, float):    # x had rows, not coordinates
            raise ShapeError("gradient is evaluated at a single point")
        scale = self.generator.dlog_g(t, self.d)
        return lp, [scale * dot(col, w) for col in self.dispersion.inv_chol_cols]

    def margin_lowers(self):
        return np.full(self.d, -np.inf)

    def largest_sum(self):
        return math.inf

    def sample(self, n, seed, slab=None):
        if n < 1:
            raise SampleSizeError("need n >= 1")
        gen = self.generator
        if not isinstance(gen, (NormalGen, StudentTGen)):
            raise ParameterError("sampling implemented for normal and t generators only")
        return self.mu + _centred_rows(rng_from_seed(seed), n, self.dispersion.chol,
                                       getattr(gen, "nu", None))


# ---------------------------------------------------------------------------
# Copulas
# ---------------------------------------------------------------------------

class CopulaModel:
    """A copula sampled as n latent rows, `latent(n, rng)`, mapped to the unit
    cube by `to_uniform`, coordinatewise and nondecreasing in each coordinate.

    A copula whose latent law has a fixed range also defines `grid_nodes(cells)`,
    the latent values of cells + 1 nodes from the bottom to the top of that
    range, and `grid_position(latent, cells, out)`, which writes the position of
    each latent value on that grid in units of cells (NaN where it has none);
    MarginCopula tabulates its latent-to-loss map on those nodes.
    `logdensity(u)` is log c at rows u, and `logdensity_and_grad(u)` log c
    and its gradient in u at one point u of the open unit cube.
    """

    def to_uniform(self, latent):
        return latent


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
        return np.zeros(np.atleast_2d(u).shape[0])

    def logdensity_and_grad(self, u):
        return 0.0, np.zeros(self.d)


class StudentTCopula(CopulaModel):
    """Copula of t_nu(0, corr): c(u) = t_{nu,corr}(z) / prod_j t_nu(z_j) at
    z_j = t_nu^{-1}(u_j), with t_nu the StudentT(nu) margin of every coordinate."""

    def __init__(self, nu, corr):
        _require_positive("StudentTCopula", nu=nu)
        corr = np.asarray(corr, dtype=float)
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise ParameterError("correlation matrix must have unit diagonal")
        self.nu = float(nu)
        self.margin = StudentT(self.nu)
        self.corr = DispersionMatrix(corr)
        self.d = self.corr.d
        self.joint = EllipticalJoint(np.zeros(self.d), self.corr, StudentTGen(self.nu))

    def latent(self, n, rng):
        # not self.joint.sample, whose rows perfbench/tracing.py would count twice
        return _centred_rows(rng, n, self.corr.chol, self.nu)

    def to_uniform(self, t):
        return self.margin.cdf(t)

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
        return special.stdtrit(self.nu, u)

    def logdensity(self, u):
        z = self._z(u)
        return self.joint.logpdf(z) - np.sum(self.margin.logpdf(z), axis=1)

    def logdensity_and_grad(self, u):
        """From one inversion z of u and one joint `logpdf_and_grad`: log c as `logdensity`
        gives it, and dlog c/du_j = (dlog t_{nu,corr}/dz_j - dlog t_nu/dz_j) / t_nu(z_j)."""
        z = self._z(u)
        log_t1 = self.margin.logpdf(z)
        lj, dz = self.joint.logpdf_and_grad(z[0].tolist())
        return (lj - float(np.sum(log_t1, axis=1)[0]),
                (np.array(dz) - self.margin.dlogpdf(z[0])) * np.exp(-log_t1[0]))


# ---------------------------------------------------------------------------
# Joint models
# ---------------------------------------------------------------------------

class MarginCopula:
    def __init__(self, margins, copula):
        self.margins = list(margins)
        self.copula = copula
        self.d = len(self.margins)
        if getattr(copula, "d", self.d) != self.d:
            raise ShapeError("copula dimension does not match the margin count")
        self.has_density = all(m.has_density for m in self.margins)

    def margin_lowers(self):
        return np.array([m.lower for m in self.margins], dtype=float)

    def largest_sum(self):
        """The sum of the margins' upper ends: the copulas here put mass near
        every corner of the unit cube."""
        return float(total([m.upper for m in self.margins]))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        x2 = np.atleast_2d(x)
        out = np.full(x2.shape[0], -np.inf)
        ok = np.all(x2 >= self.margin_lowers(), axis=-1)
        if np.any(ok):
            cols = list(zip(self.margins, x2[ok].T))
            lm = total([m.logpdf(c) for m, c in cols])
            u = np.column_stack([m.cdf(c) for m, c in cols])
            finite = np.isfinite(lm)
            lc = np.full(u.shape[0], -np.inf)
            lc[finite] = self.copula.logdensity(np.clip(u[finite], *UNIT_CLIP))
            out[ok] = lm + lc
        return float(out[0]) if x.ndim == 1 else out

    def logpdf_and_grad(self, x):
        """(logpdf, gradient as a list) at one point x, a sequence of d floats,
        from one evaluation of each margin and of the copula; the value is
        `logpdf(x)`'s, bit for bit.  (-inf, None) outside the support or where
        the density is 0; a DataError for a margin without a density, then a
        BoundaryError on a margin's lower end."""
        xs = np.array([x], dtype=float)     # laid out as a row of a logpdf batch
        lows = self.margin_lowers()
        if not np.all(xs >= lows):
            return -math.inf, None
        cols = list(zip(self.margins, xs.T))
        log_f = np.concatenate([m.logpdf(c) for m, c in cols])
        if np.any(xs == lows):
            raise BoundaryError("gradient requested on the support boundary")
        u = np.concatenate([m.cdf(c) for m, c in cols])
        lc, dc = self.copula.logdensity_and_grad(np.clip(u, *UNIT_CLIP))
        lp = total(log_f.tolist()) + lc       # added as logpdf adds them
        if not lp > -math.inf:
            return lp, None
        dlm = np.concatenate([m.dlogpdf(c) for m, c in cols])
        return lp, (dc * np.exp(log_f) + dlm).tolist()

    def sample(self, n, seed, slab=None):
        """n draws; with slab = (K, delta), the latent rows whose bounded row
        sum misses the slab are dropped before the map to losses.  The
        generator is used as without a slab, and the kept rows are the same."""
        if n < 1:
            raise SampleSizeError("need n >= 1")
        latent = self.copula.latent(n, rng_from_seed(seed))
        if slab is not None and self.screen_tables is not None:
            K, delta = slab
            lo, hi = self.row_sum_bounds(latent)
            lo -= K
            hi -= K
            # |s - K| < delta fails for s >= lo when lo - K >= delta, and
            # for s <= hi when hi - K <= -delta
            latent = latent[(lo < delta) & (hi > -delta)]
        return self.transform(latent)

    def transform(self, latent):
        """Losses of latent draws: to the unit cube, clipped, through the margins.

        Works row by row, elementwise and nondecreasing in each coordinate,
        so a row's losses do not depend on the rows drawn with it.
        """
        return _quantiles(self.margins, self.copula.to_uniform(latent))

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
        with np.errstate(over="ignore"):        # an infinite loss gives no table
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

        The bounds come from `screen_tables`, one coordinate at a time in
        reused buffers, so a batch costs a few vectors of its length beyond
        the latent draws.
        """
        lower, upper = self.screen_tables
        n = latent.shape[0]
        lo, hi = np.zeros(n), np.zeros(n)
        pos, vals = np.empty(n), np.empty(n)
        idx = np.empty(n, dtype=np.intp)
        for j in range(self.d):
            self.copula.grid_position(latent[:, j], SCREEN_CELLS, pos)
            # fmin/fmax send a NaN position to the top node for hi and the
            # bottom node for lo; the cast truncates, i.e. floors.  A position
            # is NaN or in [0, SCREEN_CELLS], so every index is in range here
            # and mode="clip" moves none; it spares the buffer that numpy
            # makes for `out` under the default mode="raise"
            np.fmin(pos, SCREEN_CELLS, out=idx, casting="unsafe")
            hi += np.take(upper[j], idx, out=vals, mode="clip")
            np.fmax(pos, 0.0, out=idx, casting="unsafe")
            lo += np.take(lower[j], idx, out=vals, mode="clip")
        return lo, hi


def _quantiles(margins, u):
    """Losses of unit-cube rows u: clipped, then through each margin's quantile."""
    u = np.clip(u, *UNIT_CLIP)
    x = np.empty_like(u)
    for j, m in enumerate(margins):
        x[:, j] = m.quantile(u[:, j])
    return x


class EmpiricalJoint:
    """Stored loss rows, each drawn with probability 1/n; it has no density.

    `lowers` are the lower ends of the margins' supports.
    """

    has_density = False

    def __init__(self, rows, lowers):
        self.rows = np.ascontiguousarray(rows, dtype=float)
        self.sums = self.rows.sum(axis=1)
        self.lowers = np.asarray(lowers, dtype=float)
        self.d = self.rows.shape[1]

    def margin_lowers(self):
        return self.lowers.copy()

    def largest_sum(self):
        return float(self.sums.max())

    def logpdf(self, x):
        raise DataError("empirical model has no density")

    logpdf_and_grad = logpdf

    def sample(self, n, seed, slab=None):
        """n stored rows drawn with replacement; with slab = (K, delta), the
        rows whose stored sum s has |s - K| >= delta are dropped."""
        if n < 1:
            raise SampleSizeError("need n >= 1")
        i = rng_from_seed(seed).integers(0, self.rows.shape[0], size=n)
        if slab is not None:
            K, delta = slab
            i = i[np.abs(self.sums[i] - K) < delta]
        return self.rows[i]


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
    k = max(int(math.ceil(n * p)), 1)
    # the k-th smallest by selection; np.partition copies, as np.sort did
    return float(np.partition(samples, k - 1)[k - 1])


def empirical_es(samples, p):
    samples = np.asarray(samples, dtype=float).ravel()
    var = empirical_var(samples, p)
    tail = samples[samples >= var]
    return float(tail.mean())


# ---------------------------------------------------------------------------
# Config-document construction
# ---------------------------------------------------------------------------

class _Keys:
    """One config mapping at a key path; each value read through it is
    refused by `checked`, naming its path, unless it fits its rule."""

    def __init__(self, doc, path):
        self.doc = checked(doc, path, lambda v: isinstance(v, dict), "a JSON object")
        self.prefix = f"{path}." if path else ""

    def get(self, name, default, ok, rule):
        """doc[name], or default when absent; refused unless ok(value)."""
        return checked(self.doc.get(name, default), self.prefix + name, ok, rule)

    def known(self, names):
        """self; a key of the mapping outside names is refused, naming its path."""
        for name in self.doc:
            checked(name, self.prefix + name, names.__contains__,
                    f"a known key ({', '.join(names)})")
        return self

    def section(self, name):
        """The mapping doc[name], empty when absent or null."""
        value = self.doc.get(name)
        return _Keys({} if value is None else value, self.prefix + name)

    def number(self, name, default=None):
        return float(self.get(name, default, _finite_number, "a finite number"))

    def array(self, name):
        return np.asarray(self.get(name, None, _is_array,
                                   "a rectangular array of finite numbers"), dtype=float)


def _is_array(v):
    """True for a list of finite numbers, or a list of such arrays of one shape."""
    return isinstance(v, list) and (all(map(_finite_number, v)) or all(map(_is_array, v))
                                    and len({np.shape(row) for row in v}) == 1)


def _built(path, build, *args, **kwargs):
    """build(*args, **kwargs); a ParameterError, ShapeError or DataError it
    raises is raised again with the key path of its config value in front."""
    try:
        return build(*args, **kwargs)
    except (ParameterError, ShapeError, DataError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# margin type -> (the keys of its config mapping besides "type", its builder)
_MARGIN_BUILDERS = {
    "lomax": (("shape", "scale"), lambda m: Lomax(m.number("shape"), m.number("scale"))),
    "pareto1": (("shape", "minimum"),
                lambda m: ParetoI(m.number("shape"), m.number("minimum"))),
    "student_t": (("df", "loc", "scale"), lambda m: StudentT(
        m.number("df"), m.number("loc", 0.0), m.number("scale", 1.0))),
    "normal": (("mean", "stdev"),
               lambda m: Normal(m.number("mean", 0.0), m.number("stdev", 1.0))),
    "empirical": (("sample",), lambda m: Empirical(m.array("sample"))),
}

# model kind -> the keys of `model` that its branch of model_from_config may read
MODEL_KEYS = {
    "elliptical": ("kind", "generator", "nu", "mu", "sigma"),
    "margin_copula": ("kind", "margins", "copula", "nu", "corr", "pseudo_obs"),
}


def margin_from_config(doc, path="margin"):
    m = _Keys(doc, path)
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in _MARGIN_BUILDERS:
        raise ParameterError(f"{path}.type: unknown margin type: {kind!r}")
    keys, build = _MARGIN_BUILDERS[kind]
    return _built(path, build, m.known(("type", *keys)))


def _pseudo_obs(u):
    """u, refused unless a nonempty n x d matrix with entries in [0, 1]."""
    if u.ndim != 2 or u.size == 0:
        raise DataError("pseudo-observation store is not a nonempty n x d matrix")
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise DataError("pseudo-observations must lie in [0, 1]")
    return u


def _mapped_rows(margins, u):
    """EmpiricalJoint of the pseudo-observation rows u mapped once through margins."""
    if u.shape[1] != len(margins):
        raise ShapeError("copula dimension does not match the margin count")
    return EmpiricalJoint(_quantiles(margins, u), [m.lower for m in margins])


def model_from_config(doc):
    """Build an EllipticalJoint, a MarginCopula or (copula "empirical") an
    EmpiricalJoint from a config mapping.

    A key outside MODEL_KEYS of its kind, or a missing or mistyped value,
    raises a ConfigurationError naming its key path, and an error of a model
    constructor carries the key path of its value.
    """
    spec = _Keys(doc, "model")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KEYS:
        raise ParameterError(f"model.kind: unknown model kind: {kind!r}")
    spec.known(MODEL_KEYS[kind])
    if kind == "elliptical":
        gen_name = doc.get("generator", "normal")
        if gen_name == "normal":
            gen = NormalGen()
        elif gen_name == "student_t":
            gen = _built("model.nu", StudentTGen, spec.number("nu"))
        else:
            raise ParameterError(f"model.generator: unknown generator: {gen_name!r}")
        sigma = _built("model.sigma", DispersionMatrix, spec.array("sigma"))
        return _built("model.mu", EllipticalJoint, spec.array("mu"), sigma, gen)
    margins = spec.get("margins", None, lambda v: isinstance(v, list), "a list")
    margins = [margin_from_config(m, f"model.margins[{i}]") for i, m in enumerate(margins)]
    cop_name = doc.get("copula", "independence")
    if cop_name == "student_t":
        nu, corr = spec.number("nu"), spec.array("corr")
        _built("model.nu", _require_positive, "StudentTCopula", nu=nu)
        copula = _built("model.corr", StudentTCopula, nu, corr)
    elif cop_name == "independence":
        copula = IndependenceCopula(len(margins))
    elif cop_name == "empirical":
        u = _built("model.pseudo_obs", _pseudo_obs, spec.array("pseudo_obs"))
        return _built("model.margins", _mapped_rows, margins, u)
    else:
        raise ParameterError(f"model.copula: unknown copula: {cop_name!r}")
    return _built("model.margins", MarginCopula, margins, copula)


def empirical_model_from_matrix(data):
    """The joint model of a loss matrix: its rows, each drawn with probability 1/n."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DataError("need an n x d loss matrix with n >= 2")
    if not np.all(np.isfinite(data)):
        raise DataError("loss matrix contains non-finite values")
    return EmpiricalJoint(data, data.min(axis=0))

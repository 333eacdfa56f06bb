"""Margins, dispersion matrices, elliptical densities, copulas, risk measures."""
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import alloc_lab as al
from alloc_lab.errors import (
    BoundaryError,
    DataError,
    ParameterError,
    SampleSizeError,
    ShapeError,
)
from alloc_lab.models import (
    _MARGIN_BUILDERS,
    margin_from_config,
    rng_from_seed,
    split_seeds,
)

from conftest import LOMAX_CORRS, REF_CORR, _fd_grad, lomax_t_model


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------

MARGINS = [
    (al.Lomax(2.5, 5.0), stats.lomax(2.5, scale=5.0)),
    (al.ParetoI(3.0, 2.0), stats.pareto(3.0, scale=2.0)),
    (al.StudentT(4.0, 1.0, 2.0), stats.t(4.0, loc=1.0, scale=2.0)),
    (al.Normal(0.5, 1.5), stats.norm(0.5, 1.5)),
]


@pytest.mark.parametrize("margin,ref", MARGINS, ids=lambda m: type(m).__name__)
def test_margin_matches_scipy(margin, ref):
    x = np.array([0.1, 0.7, 2.3, 5.9, 11.0]) + margin.lower \
        if np.isfinite(margin.lower) else np.array([-3.0, -0.5, 0.0, 1.2, 4.0])
    np.testing.assert_allclose(margin.cdf(x), ref.cdf(x), atol=1e-12)
    np.testing.assert_allclose(margin.logpdf(x), ref.logpdf(x), atol=1e-10)
    p = np.array([0.01, 0.2, 0.5, 0.9, 0.999])
    np.testing.assert_allclose(margin.quantile(p), ref.ppf(p), rtol=1e-10)


@pytest.mark.parametrize("margin,_", MARGINS, ids=lambda m: type(m).__name__)
def test_quantile_round_trip(margin, _):
    p = np.linspace(0.001, 0.999, 97)
    np.testing.assert_allclose(margin.cdf(margin.quantile(p)), p, atol=1e-10)


@pytest.mark.parametrize("margin,_", MARGINS, ids=lambda m: type(m).__name__)
def test_margin_dlogpdf(margin, _):
    for x in (margin.quantile(0.3), margin.quantile(0.8)):
        h = 1e-6 * (1.0 + abs(x))
        fd = (margin.logpdf(x + h) - margin.logpdf(x - h)) / (2.0 * h)
        assert abs(margin.dlogpdf(x) - fd) < 1e-5 * (1.0 + abs(fd))


def test_margin_parameter_validation():
    with pytest.raises(ParameterError):
        al.Lomax(-1.0, 5.0)
    with pytest.raises(ParameterError):
        al.ParetoI(2.0, 0.0)
    with pytest.raises(ParameterError):
        al.StudentT(4.0, 0.0, -1.0)
    with pytest.raises(ParameterError):
        al.Normal(0.0, 0.0)
    with pytest.raises(ParameterError):
        al.Lomax(2.0, 1.0).quantile(1.0)


# one margin of each type of models._MARGIN_BUILDERS
ONE_OF_EACH = {
    "lomax": al.Lomax(2.5, 5.0),
    "pareto1": al.ParetoI(3.0, 2.0),
    "student_t": al.StudentT(4.0, 1.0, 2.0),
    "normal": al.Normal(0.5, 1.5),
    "empirical": al.Empirical([3.0, 1.0, 2.0, 4.0]),
}


@pytest.mark.parametrize("kind", sorted(_MARGIN_BUILDERS))
def test_quantile_domain(kind):
    margin = ONE_OF_EACH[kind]
    for p in (-0.1, 1.1, math.nan, [0.5, math.nan]):
        with pytest.raises(ParameterError):
            margin.quantile(p)
    if math.isinf(margin.lower):
        with pytest.raises(ParameterError):
            margin.quantile(0.0)
    else:
        assert margin.quantile(0.0) == margin.lower
    if math.isinf(margin.upper):
        with pytest.raises(ParameterError):
            margin.quantile([0.5, 1.0])
    else:
        assert margin.quantile(1.0) == margin.sample.max()    # an empirical margin


NON_FINITE = [
    (al.Lomax, (math.nan, 5.0), "shape"),
    (al.Lomax, (2.0, math.inf), "scale"),
    (al.ParetoI, (math.nan, 1.0), "shape"),
    (al.ParetoI, (2.0, math.inf), "minimum"),
    (al.StudentT, (math.nan,), "df"),
    (al.StudentT, (4.0, math.inf), "loc"),
    (al.StudentT, (4.0, 0.0, math.nan), "scale"),
    (al.Normal, (0.0, math.nan), "stdev"),
    (al.Normal, (-math.inf, 1.0), "mean"),
    (al.StudentTGen, (math.inf,), "nu"),
    (al.StudentTCopula, (math.nan, np.eye(2)), "nu"),
    (al.StudentTCopula, (math.inf, np.eye(2)), "nu"),
]


@pytest.mark.parametrize("cls,args,name", NON_FINITE,
                         ids=[f"{c.__name__}.{n}-{a[0]}" for c, a, n in NON_FINITE])
def test_non_finite_parameters_rejected(cls, args, name):
    with pytest.raises(ParameterError, match=rf"\b{name}\b"):
        cls(*args)


def test_empirical_margin():
    emp = al.Empirical([3.0, 1.0, 2.0, 4.0])
    assert emp.lower == 1.0 and emp.upper == 4.0
    # lower empirical quantile: k = ceil(n p)
    assert emp.quantile(0.5) == 2.0
    assert emp.quantile(0.51) == 3.0
    np.testing.assert_allclose(emp.cdf([0.5, 1.0, 2.5, 4.0]), [0, 0.25, 0.5, 1.0])
    with pytest.raises(DataError):
        emp.logpdf(2.0)
    with pytest.raises(DataError):
        al.Empirical([])
    with pytest.raises(DataError):
        al.Empirical([1.0, np.nan])


# ---------------------------------------------------------------------------
# Dispersion matrices and generators
# ---------------------------------------------------------------------------

def test_dispersion_validation():
    with pytest.raises(ParameterError):
        al.DispersionMatrix([[1.0, 0.5], [0.4, 1.0]])        # asymmetric
    with pytest.raises(ParameterError):
        al.DispersionMatrix([[1.0, 2.0], [2.0, 1.0]])        # indefinite
    with pytest.raises(ParameterError):
        al.DispersionMatrix(np.ones((2, 3)))


def test_dispersion_solve_and_maha(monkeypatch):
    m = al.DispersionMatrix(REF_CORR)
    x = np.array([0.3, -1.2, 0.7])
    expected = x @ np.linalg.solve(REF_CORR, x)
    rows = np.random.default_rng(8).standard_normal((50, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    # rows are whitened by the rows of the inverse factor, each alone
    monkeypatch.setattr(np.linalg, "solve", refuse)
    np.testing.assert_allclose(m.maha_sq(x)[0], expected, rtol=1e-12)
    assert [m.maha_sq(r)[0] for r in rows] == m.maha_sq(rows).tolist()
    assert abs(m.log_det - math.log(np.linalg.det(REF_CORR))) < 1e-12


def test_dispersion_jitter_repair():
    # rank-deficient by 0: PSD matrix within the jitter budget still loads
    v = np.array([1.0, 1.0])
    m = al.DispersionMatrix(np.outer(v, v) + 1e-12 * np.eye(2))
    assert m.d == 2


def _total_mass(gen, d):
    """c_d (2 pi)^{d/2} / Gamma(d/2) * int_0^inf t^{d/2-1} g(t) dt, the radial
    integral of c_d g(|x|^2 / 2) over R^d after substituting t = r^2 / 2."""
    a = d / 2.0
    val, _ = integrate.quad(lambda t: np.exp((a - 1.0) * np.log(t) + gen.log_g(t, d)),
                            0.0, np.inf, limit=200)
    return math.exp(gen.log_c(d) + a * math.log(2 * math.pi) - special.gammaln(a)) * val


def _model_and_points(d, gen):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    mu, sigma = rng.standard_normal(d), a @ a.T + d * np.eye(d)
    return al.EllipticalJoint(mu, sigma, gen), mu, sigma, mu + 2.0 * rng.standard_normal((20, d))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_normal_generator_constant(d):
    # c_d = (2 pi)^{-d/2} normalizes g(t) = exp(-t)
    gen = al.NormalGen()
    assert abs(_total_mass(gen, d) - 1.0) < 1e-9
    model, mu, sigma, x = _model_and_points(d, gen)
    np.testing.assert_allclose(model.logpdf(x), stats.multivariate_normal(mu, sigma).logpdf(x),
                               rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("d,nu", [(d, nu) for d in (1, 2, 3, 5) for nu in (5.0, 3.5)])
def test_t_generator_constant(d, nu):
    # c_d = Gamma((d+nu)/2) / ((pi nu)^{d/2} Gamma(nu/2)) normalizes the t generator
    gen = al.StudentTGen(nu)
    assert abs(_total_mass(gen, d) - 1.0) < 1e-9
    model, mu, sigma, x = _model_and_points(d, gen)
    np.testing.assert_allclose(model.logpdf(x), stats.multivariate_t(mu, sigma, df=nu).logpdf(x),
                               rtol=0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# Elliptical models
# ---------------------------------------------------------------------------

def test_elliptical_normal_matches_scipy():
    mu = np.array([0.5, -1.0, 2.0])
    ell = al.EllipticalJoint(mu, al.DispersionMatrix(REF_CORR), al.NormalGen())
    ref = stats.multivariate_normal(mu, REF_CORR)
    x = rng_from_seed(0).standard_normal((50, 3)) * 2.0
    np.testing.assert_allclose(ell.logpdf(x), ref.logpdf(x), rtol=1e-12)


def test_elliptical_t_matches_scipy(t5_joint):
    ref = stats.multivariate_t(np.zeros(3), REF_CORR, df=5.0)
    x = rng_from_seed(1).standard_normal((50, 3)) * 3.0
    np.testing.assert_allclose(t5_joint.logpdf(x), ref.logpdf(x), rtol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("generator", [al.NormalGen(), al.StudentTGen(4.0)], ids=["normal", "t"])
def test_float_evaluation_matches_the_batch_logpdf_and_differences(generator, d):
    rng = np.random.default_rng(d)
    root = rng.standard_normal((d, d))
    ell = al.EllipticalJoint(rng.standard_normal(d), root @ root.T + d * np.eye(d), generator)
    points = ell.mu + 2.0 * rng.standard_normal((20, d))
    batch = ell.logpdf(points)
    for x, lp_batch in zip(points, batch):
        lp, g = ell.logpdf_and_grad(x.tolist())
        assert type(lp) is float and isinstance(g, list) and all(type(v) is float for v in g)
        assert lp == lp_batch == ell.logpdf(x)
        np.testing.assert_allclose(g, _fd_grad(ell.logpdf, x), rtol=1e-5, atol=1e-8)


def test_elliptical_t_sampling_moments(t5_joint):
    x = t5_joint.sample(200_000, rng_from_seed(2))
    # Cov = nu/(nu-2) * Sigma for a t_nu law
    np.testing.assert_allclose(np.cov(x, rowvar=False), 5.0 / 3.0 * REF_CORR,
                               atol=0.05)
    np.testing.assert_allclose(x.mean(axis=0), np.zeros(3), atol=0.02)


def test_elliptical_joint_adds_only_sample(t5_joint):
    # one class: the density and the sampler are EllipticalJoint's own
    assert al.EllipticalJoint.__bases__ == (object,) and not hasattr(al, "EllipticalModel")
    assert {"logpdf", "logpdf_and_grad", "sample"} <= set(vars(al.EllipticalJoint))
    assert not hasattr(t5_joint, "elliptical")
    # an int seed and a Generator made from it give the same draws
    assert np.array_equal(t5_joint.sample(50, 3), t5_joint.sample(50, rng_from_seed(3)))
    with pytest.raises(SampleSizeError):
        t5_joint.sample(0, 3)


def test_elliptical_shape_mismatch():
    with pytest.raises(ShapeError):
        al.EllipticalJoint([0.0, 0.0], al.DispersionMatrix(REF_CORR), al.NormalGen())


# ---------------------------------------------------------------------------
# Copulas
# ---------------------------------------------------------------------------

def test_t_copula_density_oracle():
    # c(u) = f_t(z) / prod f_1(z_j) with z_j the marginal t quantiles
    corr = np.array([[1.0, 0.6], [0.6, 1.0]])
    cop = al.StudentTCopula(4.0, corr)
    u = np.array([[0.3, 0.7], [0.9, 0.2], [0.5, 0.5]])
    z = stats.t(4.0).ppf(u)
    expected = stats.multivariate_t(np.zeros(2), corr, df=4.0).logpdf(z) \
        - stats.t(4.0).logpdf(z).sum(axis=1)
    np.testing.assert_allclose(cop.logdensity(u), expected, rtol=1e-10)


def _t_copula_reference(cop, u):
    """logdensity of a StudentTCopula at u by the formulas that wrote its
    univariate t margin out, kept as the reference for their bits.  The
    joint's log1p is math.log1p of each value, as a point's evaluation
    takes it, and the margin's is np.log1p of the array."""
    z = special.stdtrit(cop.nu, np.atleast_2d(u))
    nu, d = cop.nu, cop.d
    c1 = special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0) \
        - 0.5 * math.log(nu * math.pi)
    log_t1 = c1 - (nu + 1.0) / 2.0 * np.log1p(z * z / nu)
    q = cop.corr.maha_sq(z)
    log_joint = (
        special.gammaln((nu + d) / 2.0) - special.gammaln(nu / 2.0)
        - d / 2.0 * math.log(nu * math.pi) - 0.5 * cop.corr.log_det
        - (nu + d) / 2.0 * np.array([math.log1p(v) for v in (q / nu).tolist()])
    )
    return log_joint - np.sum(log_t1, axis=1)


@pytest.mark.parametrize("d,nu", [(2, 4.0), (3, 5.0)])
def test_t_copula_is_bitwise_its_written_out_formulas(d, nu):
    rng = np.random.default_rng(70 + d)
    cop = al.StudentTCopula(nu, 0.6 * np.eye(d) + 0.4 * np.ones((d, d)))
    t = rng.standard_t(nu, size=(2000, d)) * 10.0 ** rng.uniform(-3.0, 8.0, size=(2000, d))
    t[:5] = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])[:, None]
    t[5:10] = np.array([1e8, -1e8, 5e-324, -5e-324, 1e-300])[:, None]
    assert cop.to_uniform(t).tobytes() == special.stdtr(nu, t).tobytes()
    u = rng.uniform(size=(2000, d)) ** rng.uniform(0.1, 30.0, size=(2000, d))
    u[:3] = np.array([1e-15, 1.0 - 1e-15, 0.5])[:, None]
    u[3] = [1e-15, 1.0 - 1e-15, 1e-15][:d]
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    assert cop.logdensity(u).tobytes() == _t_copula_reference(cop, u).tobytes()


def test_t_copula_point_evaluation_evaluates_its_joint_once(monkeypatch):
    cop = al.StudentTCopula(5.0, MIXED_CORR)
    u = np.array([0.3, 0.92, 0.05, 0.6])
    calls = []
    for name in ("logpdf", "logpdf_and_grad"):
        method = getattr(al.EllipticalJoint, name)
        monkeypatch.setattr(al.EllipticalJoint, name, lambda joint, z, name=name, method=method:
                            calls.append(name) or method(joint, z))
    lc, dc = cop.logdensity_and_grad(u)
    assert calls == ["logpdf_and_grad"]
    assert lc == cop.logdensity(u[None, :])[0]


def test_t_copula_samples_in_cube():
    cop = al.StudentTCopula(5.0, REF_CORR)
    u = cop.to_uniform(cop.latent(5000, rng_from_seed(3)))
    assert u.shape == (5000, 3)
    assert np.all((u > 0.0) & (u < 1.0))
    # uniform margins
    assert abs(u[:, 0].mean() - 0.5) < 0.02


def test_t_copula_draws_without_its_joint_sampler(m1_model, monkeypatch):
    # the copula's joint is an EllipticalJoint, but a model draw must not go
    # through its sample, or a tracer of EllipticalJoint.sample counts it twice
    assert isinstance(m1_model.copula.joint, al.EllipticalJoint)

    def refuse(*args, **kwargs):
        raise AssertionError("EllipticalJoint.sample called")

    monkeypatch.setattr(al.EllipticalJoint, "sample", refuse)
    assert m1_model.sample(100, 0).shape == (100, 3)


def test_t_copula_boundary_error():
    cop = al.StudentTCopula(5.0, np.eye(2))
    with pytest.raises(BoundaryError):
        cop.logdensity(np.array([[0.0, 0.5]]))


def test_independence_copula():
    cop = al.IndependenceCopula(3)
    np.testing.assert_array_equal(cop.logdensity([[0.2, 0.4, 0.9]]), [0.0])


def test_empirical_joint():
    store = np.array([[0.1, 0.9], [0.5, 0.5], [0.7, 0.2]])
    margins = [{"type": "normal"}, {"type": "lomax", "shape": 3.0, "scale": 1.0}]
    doc = {"kind": "margin_copula", "copula": "empirical", "pseudo_obs": store.tolist(),
           "margins": margins}
    mapped = np.column_stack([al.Normal().quantile(store[:, 0]),
                              al.Lomax(3.0, 1.0).quantile(store[:, 1])])
    for model, rows in ((al.model_from_config(doc), mapped),
                        (al.EmpiricalJoint(store, [0.0, 0.0]), store)):
        x = model.sample(100, rng_from_seed(4))
        assert all(any(np.array_equal(r, s) for s in rows) for r in x)
        assert not model.has_density
        for method in (model.logpdf, model.logpdf_and_grad):
            with pytest.raises(DataError, match="has no density"):
                method(x[0])
    np.testing.assert_array_equal(al.model_from_config(doc).margin_lowers(), [-np.inf, 0.0])
    with pytest.raises(DataError, match="model.pseudo_obs"):
        al.model_from_config(dict(doc, pseudo_obs=[[1.2, 0.3]]))


# ---------------------------------------------------------------------------
# Joint models
# ---------------------------------------------------------------------------

def test_margin_copula_density_decomposition(m1_model):
    x = np.array([2.0, 3.0, 1.5])
    u = np.array([m.cdf(v) for m, v in zip(m1_model.margins, x)])
    expected = sum(float(m.logpdf(v)) for m, v in zip(m1_model.margins, x)) \
        + float(m1_model.copula.logdensity(u[None, :])[0])
    assert abs(m1_model.logpdf(x) - expected) < 1e-10


def test_margin_copula_outside_support(m1_model):
    assert m1_model.logpdf(np.array([-0.5, 1.0, 1.0])) == -np.inf
    assert m1_model.logpdf_and_grad([-0.5, 1.0, 1.0]) == (-np.inf, None)
    with pytest.raises(BoundaryError):
        m1_model.logpdf_and_grad([0.0, 1.0, 1.0])


MIXED_MARGINS = [al.Lomax(2.5, 5.0), al.ParetoI(3.0, 2.0), al.Normal(0.5, 1.5),
                 al.StudentT(4.0, 1.0, 2.0)]
MIXED_CORR = np.array([[1.0, -0.4, 0.3, 0.2], [-0.4, 1.0, 0.1, -0.3],
                       [0.3, 0.1, 1.0, 0.25], [0.2, -0.3, 0.25, 1.0]])

# every kind of model with a density, and a point inside its support
POINT_MODELS = {
    "normal": (al.EllipticalJoint([0.5, -1.0, 2.0], REF_CORR, al.NormalGen()), [1.2, -0.4, 2.5]),
    "t5": (al.EllipticalJoint(np.zeros(3), REF_CORR, al.StudentTGen(5.0)), [1.2, -0.4, 2.5]),
    "m1": (lomax_t_model(LOMAX_CORRS["m1"]), [2.0, 3.0, 1.5]),
    "independence": (al.MarginCopula(MIXED_MARGINS, al.IndependenceCopula(4)),
                     [3.0, 2.5, -0.7, 1.9]),
    "t_copula": (al.MarginCopula(MIXED_MARGINS, al.StudentTCopula(5.0, MIXED_CORR)),
                 [3.0, 2.5, -0.7, 1.9]),
}


@pytest.mark.parametrize("name", POINT_MODELS)
def test_point_evaluation(name, monkeypatch):
    # logpdf_and_grad is the one evaluation at a point: logpdf's value bit
    # for bit, alone and in a batch, its gradient, one inversion u -> z of a
    # t copula, (-inf, None) outside the support, a refusal on a lower end
    model, x = POINT_MODELS[name]
    inversions = []
    invert = al.StudentTCopula._z
    monkeypatch.setattr(al.StudentTCopula, "_z",
                        lambda cop, u: inversions.append(u) or invert(cop, u))
    lp, g = model.logpdf_and_grad(x)
    copula = getattr(model, "copula", None)
    assert len(inversions) == isinstance(copula, al.StudentTCopula)
    assert type(lp) is float and isinstance(g, list) and all(type(v) is float for v in g)
    assert lp == model.logpdf(np.array(x)) == model.logpdf(np.array([x]))[0]
    np.testing.assert_allclose(g, _fd_grad(model.logpdf, x), rtol=1e-5)
    if copula is not None:
        # the copula's own point evaluation: logdensity's value, its u-gradient
        u = np.array([float(m.cdf(v)) for m, v in zip(model.margins, x)])
        lc, dc = copula.logdensity_and_grad(u)
        assert lc == copula.logdensity(u[None, :])[0]
        np.testing.assert_allclose(dc, _fd_grad(lambda v: copula.logdensity(v[None, :])[0], u),
                                   rtol=1e-5, atol=1e-9)
    lows = model.margin_lowers()
    assert (copula is None) == np.all(np.isneginf(lows))
    for j in np.flatnonzero(np.isfinite(lows)):
        outside, edge = list(x), list(x)
        outside[j], edge[j] = lows[j] - 0.5, lows[j]
        assert model.logpdf_and_grad(outside) == (-np.inf, None)
        with pytest.raises(BoundaryError):
            model.logpdf_and_grad(edge)


def test_margin_copula_sampling_margins(m1_model):
    x = m1_model.sample(100_000, 5)
    # Lomax mean = scale/(shape-1)
    np.testing.assert_allclose(x.mean(axis=0),
                               [5.0 / 1.5, 5.0 / 1.75, 5.0 / 2.0], rtol=0.05)
    assert np.all(x >= 0.0)


def test_margin_copula_dimension_mismatch():
    with pytest.raises(ShapeError):
        al.MarginCopula([al.Normal(), al.Normal()],
                        al.StudentTCopula(5.0, REF_CORR))


def test_empirical_model_from_matrix():
    from alloc_lab.models import empirical_model_from_matrix
    data = rng_from_seed(6).exponential(size=(200, 3))
    model = empirical_model_from_matrix(data)
    assert model.d == 3 and not model.has_density
    x = model.sample(500, 7)
    assert np.all(x >= data.min(axis=0) - 1e-12)
    with pytest.raises(DataError):
        empirical_model_from_matrix(data[:1])
    with pytest.raises(DataError, match="non-finite"):
        empirical_model_from_matrix(np.where(data > 2.0, np.nan, data))


# ---------------------------------------------------------------------------
# Risk measures
# ---------------------------------------------------------------------------

def test_empirical_var_order_statistic():
    s = np.arange(1.0, 101.0)
    # VaR_p = ceil(n p)-th order statistic
    assert al.empirical_var(s, 0.95) == 95.0
    assert al.empirical_var(s, 0.951) == 96.0
    assert al.empirical_es(s, 0.95) == np.mean(s[94:])
    assert al.empirical_es(s, 0.95) >= al.empirical_var(s, 0.95)


def test_empirical_var_is_the_sorted_order_statistic():
    # k = ceil(n p) runs from 1 to n - 1: n >= 1 / (1 - p) keeps n p <= n - 1
    rng = np.random.default_rng(60)
    for n in (2, 3, 10, 101, 5000):
        ties = rng.integers(0, 4, size=n) + 0.5 * rng.integers(0, 2, size=n)
        x = np.where(rng.uniform(size=n) < 0.5, ties, rng.standard_normal(n))
        before = x.copy()
        ks = set()
        for p in (0.5 / n, 0.3, 0.5, 0.95, 0.99, (n - 1.5) / n):
            if n < 1.0 / (1.0 - p):
                continue
            k = max(math.ceil(n * p), 1)
            ks.add(k)
            assert al.empirical_var(x, p) == np.sort(x)[k - 1]
        assert {1, n - 1} <= ks
        assert x.tobytes() == before.tobytes()


def test_empirical_var_errors():
    with pytest.raises(SampleSizeError):
        al.empirical_var(np.arange(5.0), 0.99)
    with pytest.raises(ParameterError):
        al.empirical_var(np.arange(100.0), 1.0)


# ---------------------------------------------------------------------------
# Config construction and seeds
# ---------------------------------------------------------------------------

def test_model_from_config_elliptical():
    doc = {"kind": "elliptical", "mu": [0.0, 0.0, 0.0],
           "sigma": REF_CORR.tolist(), "generator": "student_t", "nu": 5.0}
    model = al.model_from_config(doc)
    ref = stats.multivariate_t(np.zeros(3), REF_CORR, df=5.0)
    x = np.array([0.5, -0.2, 1.0])
    assert abs(model.logpdf(x) - ref.logpdf(x)) < 1e-10


def test_model_from_config_margin_copula(m1_model):
    doc = {"kind": "margin_copula",
           "margins": [{"type": "lomax", "shape": 2.5, "scale": 5.0},
                       {"type": "lomax", "shape": 2.75, "scale": 5.0},
                       {"type": "lomax", "shape": 3.0, "scale": 5.0}],
           "copula": "student_t", "nu": 5.0,
           "corr": [[1.0, 0.8, 0.5], [0.8, 1.0, 0.8], [0.5, 0.8, 1.0]]}
    model = al.model_from_config(doc)
    x = np.array([2.0, 3.0, 1.5])
    assert abs(model.logpdf(x) - m1_model.logpdf(x)) < 1e-12


def test_model_from_config_errors():
    with pytest.raises(ParameterError):
        al.model_from_config({"kind": "unknown"})
    with pytest.raises(ParameterError):
        margin_from_config({"type": "weibull"})


def test_split_seeds_distinct_and_deterministic():
    a = split_seeds(42, 5)
    b = split_seeds(42, 5)
    assert len(a) == 5
    for s, t in zip(a, b):
        assert rng_from_seed(s).integers(1 << 30) == rng_from_seed(t).integers(1 << 30)
    draws = {rng_from_seed(s).integers(1 << 30) for s in a}
    assert len(draws) == 5

"""Slab rejection sampling, Metropolis-Hastings, polytopes, reflective HMC."""
import json
import math
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import alloc_lab as al
from alloc_lab.conditional import elliptical_condition
from alloc_lab.errors import (
    ConfigurationError,
    EfficiencyError,
    FeasibilityError,
    StabilityError,
)
from alloc_lab.samplers import (
    HMCConfig,
    MHConfig,
    Polytope,
    SlabConfig,
    _advance_with_reflection,
    _pilot_sample,
    chain_diagnostics,
    hmc_reflect_chain,
    mh_chain,
    slab_sample,
)

from conftest import LOMAX_CORRS, REF_CORR, lomax_t_model, normal_joint


RHO_HALF = np.array([[1.0, 0.5], [0.5, 1.0]])
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def pair_target():
    """Bivariate normal, rho = 0.5: X1 | {S = 2} is N(1, 1/4)."""
    return al.ConditionalTarget(normal_joint(RHO_HALF), 2.0)


# ---------------------------------------------------------------------------
# Slab Monte Carlo
# ---------------------------------------------------------------------------

def test_slab_standardized_rows_sum_to_K(t5_joint):
    x, rate = slab_sample(t5_joint, 8.0, SlabConfig(n=500), seed=0)
    assert x.shape == (500, 3)
    assert np.max(np.abs(x.sum(axis=1) - 8.0)) <= 16 * np.finfo(float).eps * 8.0
    assert 0.0 < rate < 1.0


def test_slab_unstandardized_stays_in_slab(t5_joint):
    cfg = SlabConfig(n=400, delta=0.5, standardize=False)
    x, _ = slab_sample(t5_joint, 8.0, cfg, seed=1)
    assert np.all(np.abs(x.sum(axis=1) - 8.0) < 0.5)
    assert np.any(x.sum(axis=1) != 8.0)


def test_slab_hit_rate_matches_analytic():
    # P(|S - K| < delta) ~ 2 delta f_S(K), S ~ N(0, 3) for rho = 0.5, d = 2
    joint = normal_joint(RHO_HALF)
    delta = 0.05
    _, rate = slab_sample(joint, 0.0, SlabConfig(n=4000, delta=delta), seed=2)
    expected = 2 * delta * stats.norm(0, math.sqrt(3.0)).pdf(0.0)
    assert abs(rate - expected) < 0.15 * expected


def test_slab_standardization_bias_shrinks_with_delta():
    # projection x -> K x / S biases means for wide slabs; the bias must
    # decrease as the slab narrows
    joint = normal_joint(RHO_HALF, mu=[1.0, -1.0])
    # E[X1 | S = 3] = 1 + (3 - 0)/3 * 1.5 = 2.5
    exact = 2.5
    biases = []
    for delta in (3.0, 0.05):
        x, _ = slab_sample(joint, 3.0, SlabConfig(n=60_000, delta=delta), seed=3)
        biases.append(abs(x[:, 0].mean() - exact))
    assert biases[1] < biases[0]
    assert biases[1] < 0.02


def test_slab_efficiency_error(t5_joint):
    cfg = SlabConfig(n=100, delta=1e-7, max_attempts=100_000)
    with pytest.raises(EfficiencyError) as e:
        slab_sample(t5_joint, 8.0, cfg, seed=4)
    assert e.value.hit_rate < 1e-4


def test_slab_deterministic(t5_joint):
    a, _ = slab_sample(t5_joint, 8.0, SlabConfig(n=200), seed=9)
    b, _ = slab_sample(t5_joint, 8.0, SlabConfig(n=200), seed=9)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kwargs,key", [
    ({"n": 0}, "sampler.n"),
    ({"n": -5}, "sampler.n"),
    ({"n": 1, "delta": float("nan")}, "sampler.delta"),
    ({"n": 1, "delta": float("inf")}, "sampler.delta"),
    ({"n": 1, "delta": 0.0}, "sampler.delta"),
    ({"n": 1, "delta": -1.0}, "sampler.delta"),
])
def test_slab_config_rejects_bad_size_or_width(kwargs, key):
    with pytest.raises(ConfigurationError, match=key):
        SlabConfig(**kwargs)


def _exact_slab(model, K, cfg, seed):
    """The slab loop without the pre-screen: whole `model.sample` batches,
    filtered by |s - K| < delta, with the batch sizes of `slab_sample`."""
    delta = cfg.resolved_delta(K)
    rng = al.models.rng_from_seed(seed)
    kept, drawn, hits = [], 0, 0
    batch = max(4 * cfg.n, 20_000)
    while hits < cfg.n:
        x = model.sample(batch, rng)
        sel = np.abs(x.sum(axis=1) - K) < delta
        drawn += batch
        kept.append(x[sel])
        hits += int(sel.sum())
        if hits == 0:
            batch = min(batch * 4, 2_000_000)
        else:
            batch = int(min(max(1.2 * (cfg.n - hits) / max(hits / drawn, 1e-12),
                                20_000), 4_000_000))
    return np.concatenate(kept, axis=0)[: cfg.n], hits / drawn


SCREENED_CASES = [
    (name, lambda c=corr: lomax_t_model(c), 40.0, 1.0, 100)
    for name, corr in LOMAX_CORRS.items()
] + [
    ("independence", lambda: al.MarginCopula(
        [al.ParetoI(3.0, 1.0), al.StudentT(4.0, 2.0, 1.0), al.Normal(3.0, 1.0)],
        al.IndependenceCopula(3)), 9.0, 0.1, 200),
    # thinner than a grid cell near K, so the screen keeps rows that miss
    ("m1-thin", lambda: lomax_t_model(LOMAX_CORRS["m1"]), 40.0, 0.01, 20),
]


@pytest.mark.parametrize("name,make,K,delta,n", SCREENED_CASES,
                         ids=[c[0] for c in SCREENED_CASES])
def test_slab_screen_keeps_the_exact_rows(name, make, K, delta, n):
    model = make()
    assert model.screen_tables is not None
    # the budget makes a screen that drops hits fail in seconds
    cfg = SlabConfig(n=n, delta=delta, standardize=False, max_attempts=20_000_000)
    for seed in (0, 1):
        x, rate = slab_sample(model, K, cfg, seed)
        ref, ref_rate = _exact_slab(model, K, cfg, seed)
        assert np.array_equal(x, ref)
        assert rate == ref_rate


def test_slab_without_finite_tables_warns_nothing_and_keeps_the_exact_rows():
    # Lomax(0.03, 5) overflows to an infinite loss at the grid's top node, so
    # the model has no screen tables and draws whole batches
    model = al.MarginCopula([al.Lomax(0.03, 5.0), al.Lomax(2.75, 5.0), al.Lomax(3.0, 5.0)],
                            al.StudentTCopula(5.0, np.eye(3)))
    cfg = SlabConfig(n=200, delta=1.0, standardize=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.screen_tables is None
        x, rate = slab_sample(model, 40.0, cfg, seed=0)
    ref, ref_rate = _exact_slab(model, 40.0, cfg, 0)
    assert np.array_equal(x, ref)
    assert rate == ref_rate


def _transform_route(store, margins):
    """Draws of a row-store model as the per-draw map makes them: gather
    pseudo-observation rows, clip, and map them through the margins."""
    def sample(n, rng):
        u = np.clip(store[rng.integers(0, store.shape[0], size=n)], 1e-15, 1.0 - 1e-15)
        x = np.empty_like(u)
        for j, m in enumerate(margins):
            x[:, j] = m.quantile(u[:, j])
        return x
    return sample


def _empirical_case():
    """A loss matrix's model, with the column ranks over n + 1 (ties in row
    order) as pseudo-observations and empirical margins, which map them
    back to the matrix."""
    data = np.exp(0.5 * np.random.default_rng(3).standard_normal((5000, 3)))
    ranks = np.argsort(np.argsort(data, axis=0, kind="stable"), axis=0, kind="stable")
    return (al.models.empirical_model_from_matrix(data), (ranks + 1) / (data.shape[0] + 1.0),
            [al.Empirical(column) for column in data.T])


def _parametric_case():
    store = np.random.default_rng(4).uniform(size=(3000, 3))
    margins = [{"type": "lomax", "shape": 2.5, "scale": 5.0},
               {"type": "student_t", "df": 4.0, "loc": 3.0},
               {"type": "normal", "mean": 2.0, "stdev": 0.5}]
    model = al.models.model_from_config({"kind": "margin_copula", "copula": "empirical",
                                         "pseudo_obs": store.tolist(), "margins": margins})
    return model, store, [al.models.margin_from_config(m) for m in margins]


ROW_STORE_CASES = {"empirical": _empirical_case, "parametric-margins": _parametric_case}


@pytest.mark.parametrize("name", ROW_STORE_CASES)
def test_row_store_draws_are_bitwise_the_transform_route(name):
    model, store, margins = ROW_STORE_CASES[name]()
    reference = _transform_route(store, margins)
    for n in (1, 7, 20_000):
        assert np.array_equal(model.sample(n, 5), reference(n, np.random.default_rng(5)))
    # K at the median row sum, delta thin enough that most draws miss
    K = float(np.median(reference(20_000, np.random.default_rng(6)).sum(axis=1)))
    cfg = SlabConfig(n=300, delta=0.002 * K, standardize=False)
    for seed in (0, 1):
        x, rate = slab_sample(model, K, cfg, seed)
        ref, ref_rate = _exact_slab(types.SimpleNamespace(sample=reference), K, cfg, seed)
        assert np.array_equal(x, ref)
        assert rate == ref_rate


def test_slab_screen_bounds_hold(m4_model):
    t = m4_model.copula.latent(200_000, np.random.default_rng(11))
    t[:3] = [[np.inf, -np.inf, 0.0], [1e300, -1e300, 2.0], [-1e-300, 0.0, 5e-324]]
    lo, hi = m4_model.row_sum_bounds(t)
    s = m4_model.transform(t).sum(axis=1)
    assert np.all(lo <= s) and np.all(s <= hi)
    # a latent value with no grid position takes the whole grid
    lower, upper = m4_model.screen_tables
    lo_nan, hi_nan = m4_model.row_sum_bounds(np.full((1, 3), np.nan))
    assert lo_nan[0] == lower[0, 0] + lower[1, 0] + lower[2, 0]
    assert hi_nan[0] == upper[0, -1] + upper[1, -1] + upper[2, -1]
    # the bounds are a few cells wide: their median width is below the
    # shipped delta of 1
    assert np.median(hi - lo) < 1.0


# ---------------------------------------------------------------------------
# Chain diagnostics
# ---------------------------------------------------------------------------

def test_diagnostics_iid_chain():
    rng = np.random.default_rng(0)
    diag = chain_diagnostics(rng.standard_normal((20_000, 2)))
    assert np.all(np.abs(diag.lag1) < 0.03)
    assert np.all(diag.ess > 0.85 * 20_000)


def test_diagnostics_ar1_ess():
    # AR(1) with phi = 0.5: IACT = (1+phi)/(1-phi) = 3, so ESS ~ n/3
    rng = np.random.default_rng(1)
    n = 50_000
    x = np.empty(n)
    x[0] = 0.0
    eps = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = 0.5 * x[i - 1] + eps[i]
    diag = chain_diagnostics(x[:, None])
    assert abs(diag.lag1[0] - 0.5) < 0.03
    assert abs(diag.ess[0] - n / 3.0) < 0.1 * n / 3.0


def test_diagnostics_ess_sums_past_lag_50():
    # AR(1) with phi = 0.98: IACT = 99, so ESS ~ n / 99.  rho_50 is still
    # 0.36; a sum cut at lag 50 reads about n / 63.  Geyer's estimate
    # spreads by about 10 % across seeds at this n.
    rng = np.random.default_rng(0)
    n = 100_000
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0]
    for i in range(1, n):
        x[i] = 0.98 * x[i - 1] + eps[i]
    diag = chain_diagnostics(x[:, None])
    assert abs(diag.ess[0] - n / 99.0) < 0.15 * n / 99.0


def test_diagnostics_acceptance_from_moves():
    chain = np.array([[0.0], [0.0], [1.0], [1.0], [1.0], [2.0]] * 40)
    diag = chain_diagnostics(chain)
    # per block: moves at 0->1, 1->2, 2->0 (wrap), so 119 moves in 239 steps
    assert abs(diag.acceptance_rate - 119.0 / 239.0) < 1e-12


def test_diagnostics_short_chain():
    from alloc_lab.errors import SampleSizeError
    with pytest.raises(SampleSizeError):
        chain_diagnostics(np.zeros((50, 2)))
    # rows are states: two states of 200 coordinates are not a long chain
    with pytest.raises(SampleSizeError):
        chain_diagnostics(np.zeros((2, 200)))


# ---------------------------------------------------------------------------
# Metropolis-Hastings
# ---------------------------------------------------------------------------

def test_mh_random_walk_recovers_conditional(pair_target):
    chain, diag = mh_chain(pair_target, MHConfig(chain_length=30_000, seed=5))
    assert 0.1 < diag.acceptance_rate < 0.9
    se = 0.5 / math.sqrt(diag.ess[0])
    assert abs(chain.mean() - 1.0) < 4 * se + 0.01
    assert abs(chain.std() - 0.5) < 0.02


def test_mh_detailed_balance_flow(pair_target):
    # empirical detailed balance: transitions A -> B and B -> A between the
    # two half-lines around the conditional mean balance out
    chain, _ = mh_chain(pair_target, MHConfig(chain_length=40_000, seed=6))
    side = (chain[:, 0] > 1.0).astype(int)
    ab = int(np.sum((side[:-1] == 0) & (side[1:] == 1)))
    ba = int(np.sum((side[:-1] == 1) & (side[1:] == 0)))
    assert abs(ab - ba) <= 1
    assert abs(ab - ba) < 0.05 * max(ab, 1) + 2


def test_mh_uniform_simplex_proposal(m1_model):
    target = al.ConditionalTarget(m1_model, 40.0)
    cfg = MHConfig(chain_length=4000, proposal="independent_uniform_simplex", seed=7)
    chain, diag = mh_chain(target, cfg)
    assert np.all(target.support.contains(chain))
    assert diag.acceptance_rate > 0.0


def test_mh_uniform_proposal_needs_bounded_support(pair_target):
    cfg = MHConfig(chain_length=500, proposal="independent_uniform_simplex")
    with pytest.raises(ConfigurationError):
        mh_chain(pair_target, cfg)


def test_mh_validation(pair_target):
    with pytest.raises(ConfigurationError):
        mh_chain(pair_target, MHConfig(chain_length=1000, proposal="hamiltonian"))
    with pytest.raises(ConfigurationError):
        mh_chain(pair_target, MHConfig(chain_length=100, burn_in=100))
    with pytest.raises(FeasibilityError):
        target = al.ConditionalTarget(normal_joint(RHO_HALF), 2.0)
        bad = al.ConditionalTarget(
            al.MarginCopula([al.Lomax(2.5, 5.0), al.Lomax(2.5, 5.0)],
                            al.IndependenceCopula(2)), 10.0)
        mh_chain(bad, MHConfig(chain_length=1000, initial=np.array([-5.0])))


def test_mh_deterministic(pair_target):
    a, _ = mh_chain(pair_target, MHConfig(chain_length=2000, seed=8))
    b, _ = mh_chain(pair_target, MHConfig(chain_length=2000, seed=8))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

def test_polytope_projection_consistency():
    # membership of x' must agree with the original constraints at (x', K-1'x')
    K = 8.0
    constraints = [((1, 0, 0), 6.0), ((0, 1, 1), 7.0), ((1, 1, 0), 7.5)]
    poly = Polytope(constraints, K, 3)
    rng = np.random.default_rng(10)
    xp = rng.uniform(-2, 8, size=(500, 2))
    full = np.column_stack([xp, K - xp.sum(axis=1)])
    direct = np.ones(500, dtype=bool)
    for lam, r in constraints:
        direct &= full @ np.asarray(lam, dtype=float) <= r + 1e-10
    np.testing.assert_array_equal(poly.contains(xp), direct)


def test_polytope_interior_point():
    poly = Polytope([((1, 0, 0), 6.0), ((0, 1, 0), 6.0), ((0, 0, 1), 6.0)], 8.0, 3)
    c = poly.interior_point()
    assert poly.contains(c)[0]
    slack = poly.b - poly.A @ c
    assert np.all(slack > 0.1)


def test_polytope_infeasible():
    # x1 <= 1 and x2 <= 1 and x3 <= 1 cannot hold when the sum is 8
    with pytest.raises(FeasibilityError):
        Polytope([((1, 0, 0), 1.0), ((0, 1, 0), 1.0), ((0, 0, 1), 1.0)], 8.0, 3)


def test_polytope_grand_coalition_dropped():
    # the full-coalition bound has zero projected normal when satisfied
    poly = Polytope([((1, 1, 1), 9.0)], 8.0, 3)
    assert poly.A.shape[0] == 0
    with pytest.raises(FeasibilityError):
        Polytope([((1, 1, 1), 7.0)], 8.0, 3)


# ---------------------------------------------------------------------------
# Reflective HMC
# ---------------------------------------------------------------------------

def test_reflection_elastic():
    # one wall x <= 1: reflection preserves kinetic energy and flips the
    # normal component
    A = np.array([[1.0, 0.0]])
    b = np.array([1.0])
    x, p, ok = _advance_with_reflection(np.zeros(2), np.array([2.0, 1.0]),
                                        1.0, A, b, 8)
    assert ok
    np.testing.assert_allclose(p, [-2.0, 1.0])
    np.testing.assert_allclose(x, [0.0, 1.0])   # 0.5 out, 0.5 back
    assert np.linalg.norm(p) == np.linalg.norm([2.0, 1.0])


def test_reflection_budget_exhaustion():
    # narrow corridor forces many bounces
    A = np.array([[1.0], [-1.0]])
    b = np.array([0.01, 0.01])
    _, _, ok = _advance_with_reflection(np.zeros(1), np.array([5.0]), 1.0, A, b, 3)
    assert not ok


def _advance_reference(x, p, dt, A, b, max_reflections=32):
    """The array form of `_advance_with_reflection` that the chains were
    recorded with, kept as the reference for its bits."""
    for _ in range(max_reflections + 1):
        ap = A @ p
        moving_out = ap > 0.0
        if not moving_out.any():
            return x + dt * p, p, True
        tau = np.full(ap.shape, np.inf)
        np.divide(np.maximum(b - A @ x, 0.0), ap, out=tau, where=moving_out)
        i = int(np.argmin(tau))
        if tau[i] >= dt:
            return x + dt * p, p, True
        x = x + tau[i] * p
        a = A[i]
        p = p - 2.0 * (a @ p) / (a @ a) * a
        dt = dt - tau[i]
    return x, p, False


def _assert_same_advance(x, p, dt, A, b, budget=32):
    got = _advance_with_reflection(x, p, dt, A, b, budget)
    ref = _advance_reference(x, p, dt, A, b, budget)
    assert got[2] == ref[2]
    for g, r in zip(got[:2], ref[:2]):
        if np.isfinite(r).all():
            assert g.tobytes() == r.tobytes()
        else:
            np.testing.assert_array_equal(g, r)
    return ref


def _walk(A, b, x, rng, n, dt_scale):
    """n advances from x with fresh normal velocities, each from where the
    last one ended; returns how many reflected."""
    reflected = 0
    for _ in range(n):
        p = rng.standard_normal(x.size)
        x_new, p_new, ok = _assert_same_advance(x, p, dt_scale * rng.exponential(), A, b)
        reflected += not np.array_equal(p_new, p)
        if ok:
            x = x_new
    return reflected


def test_advance_is_bitwise_the_array_form_on_core_t5():
    with open(CONFIG_DIR / "core_t5.cfg", encoding="utf-8") as fh:
        doc = json.load(fh)
    model = al.model_from_config(doc["model"])
    poly, _ = al.core_polytope(model, doc["capital"]["p"], doc["capital"]["n_cal"], 5)
    rng = np.random.default_rng(50)
    # the configured trajectory length 0.105 * 24, then long drifts in a
    # budget of 3 reflections, which some run out of
    x = poly.interior_point()
    assert _walk(poly.A, poly.b, x, rng, 3000, 0.105 * 24) > 1000
    for _ in range(200):
        p = rng.standard_normal(2)
        _, _, ok = _assert_same_advance(x, p, 100.0, poly.A, poly.b, 3)
        assert not ok


def test_advance_is_bitwise_the_array_form_on_random_polytopes():
    # walls around a centre c: b = A c + slack keeps c inside
    rng = np.random.default_rng(51)
    for dim in (1, 2, 3, 4):
        for _ in range(5):
            m = int(rng.integers(dim + 1, 3 * dim + 4))
            A = rng.standard_normal((m, dim))
            c = rng.standard_normal(dim)
            b = A @ c + rng.exponential(size=m)
            _walk(A, b, c, rng, 300, 1.0)


def test_advance_is_bitwise_the_array_form_at_corners_and_edges():
    box_A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    box_b = np.ones(4)
    cases = [
        # straight into the corner (1, 1): two walls tie, the first is hit
        (np.zeros(2), np.array([1.0, 1.0]), 1.5, box_b),
        (np.zeros(2), np.array([-1.0, -1.0]), 5.0, box_b),
        (np.array([0.5, 0.25]), np.array([1.0, 1.5]), 3.0, box_b),
        # parallel to two walls: only one wall is moved towards
        (np.zeros(2), np.array([1.0, 0.0]), 4.5, box_b),
        (np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.5, box_b),
        # on a wall and just past it: time 0
        (np.array([1.0, 0.0]), np.array([1.0, 0.5]), 0.5, box_b),
        (np.array([1.0 + 1e-12, 0.0]), np.array([1.0, 0.5]), 0.5, box_b),
        # a wall at -0.0 through the origin: np.maximum gives +0
        (np.zeros(2), np.array([1.0, 0.5]), 0.5, np.array([-0.0, 1.0, 1.0, 1.0])),
        # still, and exactly the time to the wall
        (np.zeros(2), np.zeros(2), 1.0, box_b),
        (np.zeros(2), np.array([2.0, 0.0]), 0.5, box_b),
        # a drift that runs out of its budget
        (np.zeros(2), np.array([3.0, 1.0]), 1e3, box_b),
    ]
    for x, p, dt, b in cases:
        _assert_same_advance(x, p, dt, box_A, b)
    with np.errstate(all="ignore"):
        for p in ([np.inf, 0.0], [np.nan, 1.0], [1e308, 1e308]):
            _assert_same_advance(np.zeros(2), np.array(p), 0.5, box_A, box_b)
        # a NaN time is taken first, as np.argmin takes it
        for x in ([np.inf, 0.0], [np.nan, 0.0]):
            _assert_same_advance(np.array(x), np.array([1.0, 1.0]), 0.5, box_A, box_b)


def test_hmc_free_space_recovers_conditional(pair_target):
    # trajectory length 0.75 avoids the half-period resonance of the
    # conditional sd-0.5 Gaussian (period pi)
    cfg = HMCConfig(chain_length=4000, epsilon=0.15, steps=5, seed=11)
    chain, diag = hmc_reflect_chain(pair_target, None, cfg)
    assert diag.acceptance_rate > 0.8
    assert abs(chain.mean() - 1.0) < 0.03
    assert abs(chain.std() - 0.5) < 0.03


def test_hmc_respects_polytope(t5_joint):
    target = al.ConditionalTarget(t5_joint, 8.046)
    poly = Polytope([((1, 0, 0), 4.0), ((0, 1, 0), 4.0), ((0, 0, 1), 4.0)],
                    8.046, 3)
    cfg = HMCConfig(chain_length=2000, epsilon=0.1, steps=12, seed=12)
    chain, diag = hmc_reflect_chain(target, poly, cfg)
    assert np.all(poly.contains(chain))
    # specular reflection conserves energy, so acceptance stays high
    assert diag.acceptance_rate > 0.8
    assert np.all(diag.ess > 100)


def test_hmc_estimator_agrees_with_slab_and_mh(t5_joint):
    K = 8.046
    target = al.ConditionalTarget(t5_joint, K)
    exact = elliptical_condition(t5_joint, K).mu
    slab, _ = slab_sample(t5_joint, K, SlabConfig(n=4000, delta=0.05), seed=13)
    mh, _ = mh_chain(target, MHConfig(chain_length=20_000, seed=14))
    hmc, _ = hmc_reflect_chain(target, None,
                               HMCConfig(chain_length=6000, epsilon=0.3,
                                         steps=10, seed=15))
    for est in (slab[:, :2].mean(axis=0), mh.mean(axis=0), hmc.mean(axis=0)):
        np.testing.assert_allclose(est, exact, atol=0.12)


def test_hmc_divergence_guard(pair_target):
    cfg = HMCConfig(chain_length=1000, epsilon=200.0, steps=50, seed=16,
                    initial=np.array([1.0]))
    with pytest.raises(StabilityError):
        hmc_reflect_chain(pair_target, None, cfg)


def test_hmc_deterministic(pair_target):
    cfg = HMCConfig(chain_length=1500, epsilon=0.2, steps=8, seed=17)
    a, _ = hmc_reflect_chain(pair_target, None, cfg)
    b, _ = hmc_reflect_chain(pair_target, None, cfg)
    np.testing.assert_array_equal(a, b)


def test_hmc_makes_one_evaluation_per_leapfrog_step(pair_target, monkeypatch):
    target_cls = type(pair_target)
    fused = target_cls.log_density_and_grad
    calls = []

    def counted(self, xp):
        calls.append(1)
        return fused(self, xp)

    def separate(self, xp):
        raise AssertionError("separate density or gradient call inside the chain")

    monkeypatch.setattr(target_cls, "log_density_and_grad", counted)
    monkeypatch.setattr(target_cls, "log_density", separate)
    monkeypatch.setattr(target_cls, "grad_log_density", separate)
    cfg = HMCConfig(chain_length=300, epsilon=0.15, steps=5, seed=11,
                    initial=np.array([1.0]))
    _, diag = hmc_reflect_chain(pair_target, None, cfg)
    assert diag.acceptance_rate > 0.9
    # the start, then one per step; a divergent trajectory would stop early
    assert len(calls) == cfg.chain_length * cfg.steps + 1


def test_hmc_pilot_mass_is_inverse_pilot_variance(t5_joint):
    # the pilot that tunes the step size and start also sets the mass
    K = 8.046
    target = al.ConditionalTarget(t5_joint, K)
    poly = Polytope([((1, 0, 0), 4.0), ((0, 1, 0), 4.0), ((0, 0, 1), 4.0)], K, 3)
    pilot = _pilot_sample(target, np.random.default_rng(18))
    mass = 1.0 / pilot.var(axis=0, ddof=1)
    chains = [hmc_reflect_chain(target, poly, HMCConfig(chain_length=300, seed=18, mass=m))[0]
              for m in ("pilot", mass)]
    np.testing.assert_array_equal(chains[0], chains[1])


@pytest.mark.parametrize("mass", ["diag", "", [], [1.0, 0.0], [1.0, float("nan")],
                                  [[1.0, 2.0]], True])
def test_hmc_config_rejects_bad_mass(mass):
    with pytest.raises(ConfigurationError, match="sampler.mass"):
        HMCConfig(chain_length=200, mass=mass)


@pytest.mark.parametrize("key,value", [
    ("chain_length", "long"), ("chain_length", 0), ("chain_length", 100.0),
    ("chain_length", True), ("steps", "many"), ("steps", 0), ("steps", 2.5),
    ("epsilon", -1.0), ("epsilon", 0.0), ("epsilon", float("nan")),
    ("epsilon", float("inf")), ("epsilon", "x"), ("burn_in", 200),
    ("burn_in", -1), ("burn_in", 1.5),
])
def test_hmc_config_rejects_bad_chain_keys(key, value):
    with pytest.raises(ConfigurationError, match=f"sampler.{key}"):
        HMCConfig(**{"chain_length": 200, key: value})


@pytest.mark.parametrize("key,value", [
    ("chain_length", "long"), ("chain_length", -5), ("burn_in", 200),
    ("burn_in", "x"), ("proposal", "hamiltonian"), ("proposal", None),
    ("thinning", 2.5), ("thinning", 0), ("thinning", "2"),
])
def test_mh_config_rejects_bad_keys(key, value):
    with pytest.raises(ConfigurationError, match=f"sampler.{key}"):
        MHConfig(**{"chain_length": 200, key: value})


def test_hmc_mass_needs_one_entry_per_coordinate(pair_target):
    cfg = HMCConfig(chain_length=200, epsilon=0.2, steps=4, mass=[1.0, 2.0])
    with pytest.raises(ConfigurationError, match="sampler.mass"):
        hmc_reflect_chain(pair_target, None, cfg)


def test_hmc_infeasible_start(t5_joint):
    target = al.ConditionalTarget(t5_joint, 8.0)
    poly = Polytope([((1, 0, 0), 4.0)], 8.0, 3)
    cfg = HMCConfig(chain_length=1000, epsilon=0.1, steps=5,
                    initial=np.array([5.0, 1.0]))
    with pytest.raises(FeasibilityError):
        hmc_reflect_chain(target, poly, cfg)

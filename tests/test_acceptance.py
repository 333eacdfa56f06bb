"""Acceptance gate: one pass/fail line per criterion.

Reference values are frozen outputs for the shipped model configurations.
Criteria 4b and 5 check closed-form targets: the exact slab hit probability
of the t5 aggregate, and the two intervals of the crossed-box conditional
superlevel set, both derived in the comments of their tests.
"""
import json
import math
import os
import sys
import time

import numpy as np
import pytest
from scipy import stats

import alloc_lab as al
from alloc_lab.allocation import (
    Allocation,
    ScenarioSet,
    core_polytope,
    euler_allocation,
    multimodality_adjust,
)
from alloc_lab.cli import load_config, main, run_pipeline
from alloc_lab.conditional import GridSpec, elliptical_condition
from alloc_lab.diagnostics import (
    CompleteMixTarget,
    complete_mix_dirichlet,
    mrv_exponent,
    mtp2_conditional_inheritance,
    s_concavity_check,
    superlevel_components,
)
from alloc_lab.models import empirical_var, rng_from_seed
from alloc_lab.modes import MeanShiftConfig, mean_shift_modes
from alloc_lab.samplers import (
    HMCConfig,
    MHConfig,
    SlabConfig,
    hmc_reflect_chain,
    mh_chain,
    slab_sample,
)

from conftest import REF_CORR, _fd_grad, crossed_box_model, lomax_t_model, normal_joint

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


_EMIT = print


@pytest.fixture(autouse=True)
def _uncaptured_report(capfd):
    # route criterion lines around pytest's fd capture so they always show
    global _EMIT

    def emit(line):
        with capfd.disabled():
            print(line, flush=True)

    _EMIT = emit
    yield
    _EMIT = print


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE CRITERION {criterion}: {tag}"
    if detail:
        line += f" -- {detail}"
    _EMIT(line)
    return line


def t5_model():
    return al.EllipticalJoint(np.zeros(3), al.DispersionMatrix(REF_CORR), al.StudentTGen(5.0))


def calibrated_K(seed=5):
    model = t5_model()
    s = model.sample(10 ** 6, rng_from_seed(seed)).sum(axis=1)
    return float(empirical_var(s, 0.99))


# ---------------------------------------------------------------------------
# Criterion 1: three samplers vs the closed-form conditional mean
# ---------------------------------------------------------------------------

def test_criterion_01_conditional_mean_oracle():
    t0 = time.time()
    joint = t5_model()
    K = calibrated_K()
    cond = elliptical_condition(joint, K)
    exact = np.append(cond.mu, K - cond.mu.sum())
    target = al.ConditionalTarget(joint, K)

    estimates = {}
    slab, _ = slab_sample(joint, K, SlabConfig(n=4000, delta=0.05), seed=1)
    estimates["slab"] = (slab.mean(axis=0),
                         slab.std(axis=0, ddof=1) / math.sqrt(slab.shape[0]))

    chain, diag = mh_chain(target, MHConfig(chain_length=30_000, seed=2))
    full = target.lift(chain)
    ess = np.append(diag.ess, diag.ess.mean())
    estimates["mh"] = (full.mean(axis=0), full.std(axis=0, ddof=1) / np.sqrt(ess))

    mass = 1.0 / np.diag(np.asarray(cond.dispersion.matrix))
    chain, diag = hmc_reflect_chain(
        target, None, HMCConfig(chain_length=8000, epsilon=0.25, steps=6,
                                seed=3, mass=mass))
    full = target.lift(chain)
    ess = np.append(diag.ess, diag.ess.mean())
    estimates["hmc"] = (full.mean(axis=0), full.std(axis=0, ddof=1) / np.sqrt(ess))

    ok = abs(exact[0] - 2.827) < 0.05 and abs(exact[1] - 2.356) < 0.05
    worst = 0.0
    for name, (est, se) in estimates.items():
        z = np.abs(est - exact) / np.maximum(se, 1e-12)
        worst = max(worst, float(z.max()))
        ok = ok and bool(np.all(z < 3.0))
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    line = report(1, ok, f"worst z={worst:.2f}, K={K:.4f}, {elapsed:.0f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 2: closure of the t conditional under density ratios
# ---------------------------------------------------------------------------

def test_criterion_02_t_closure_ratios():
    model = t5_model()
    K = 8.046
    cond = elliptical_condition(model, K)
    ref = stats.multivariate_t(cond.mu, np.asarray(cond.dispersion.matrix),
                               df=cond.generator.nu)
    rng = rng_from_seed(7)
    x = cond.mu + rng.standard_normal((100, 2)) * 1.5
    y = cond.mu + rng.standard_normal((100, 2)) * 1.5
    ours = cond.logpdf(x) - cond.logpdf(y)
    theirs = ref.logpdf(x) - ref.logpdf(y)
    rel = float(np.max(np.abs(np.expm1(ours - theirs))))
    ok = rel < 1e-8
    line = report(2, ok, f"max relative ratio error {rel:.2e}")
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 3: replication study over the four shipped Lomax-copula models
# ---------------------------------------------------------------------------

REFERENCE_STUDY = {
    "m1": {"euler": (15.549, 13.889, 10.562), "euler_se": (0.336, 0.157, 0.288),
           "modes": [((15.849, 14.434, 9.718), (0.482, 0.213, 0.356))]},
    "m2": {"euler": (16.228, 13.042, 10.562), "euler_se": (0.399, 0.355, 0.288),
           "modes": [((17.689, 12.481, 9.830), (0.759, 0.663, 0.475))]},
    "m3": {"euler": (17.479, 11.368, 10.562), "euler_se": (0.517, 0.530, 0.288),
           "modes": [((25.678, 3.107, 11.215), (1.185, 0.278, 1.205)),
                     ((2.639, 35.275, 2.086), (0.973, 1.306, 0.424))]},
    "m4": {"euler": (19.062, 9.272, 10.562), "euler_se": (0.556, 0.614, 0.288),
           "modes": [((28.353, 0.684, 10.962), (2.125, 1.646, 2.154)),
                     ((0.710, 38.385, 0.905), (1.719, 3.537, 2.705))]},
}


@pytest.mark.slow
def test_criterion_03_replication_study():
    t0 = time.time()
    failures = []
    for name, ref in REFERENCE_STUDY.items():
        doc, _ = load_config(os.path.join(CONFIG_DIR, f"{name}.cfg"))
        rep, _, _ = run_pipeline(doc, CONFIG_DIR)
        euler = np.array(rep["euler"]["mean"])
        # both the reference values and ours are replication averages, so
        # compare against the combined standard error of the difference
        band = 3.0 * np.sqrt(np.array(ref["euler_se"]) ** 2
                             + np.array(rep["euler"]["se"]) ** 2)
        z = np.abs(euler - np.array(ref["euler"])) / band
        if np.any(z > 1.0):
            failures.append(f"{name} euler off by {z.max():.2f}x the band")
        want_modes = len(ref["modes"])
        got_modes = rep["modes"]["count"]
        if got_modes != want_modes:
            failures.append(f"{name} found {got_modes} modes, expected {want_modes}")
            continue
        clusters = rep["modes"]["clusters"]
        locs = np.array([c["location"] for c in clusters])
        for ref_loc, ref_se in ref["modes"]:
            i = int(np.argmin(np.linalg.norm(locs - np.array(ref_loc), axis=1)))
            band = 3.0 * np.sqrt(np.array(ref_se) ** 2
                                 + np.array(clusters[i]["se"]) ** 2)
            zz = np.abs(locs[i] - np.array(ref_loc)) / band
            if np.any(zz > 1.0):
                failures.append(f"{name} mode near {ref_loc} off by {zz.max():.2f}x")
    elapsed = time.time() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s over budget")
    ok = not failures
    line = report(3, ok, "; ".join(failures) if failures else f"{elapsed:.0f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 4: core-constrained HMC and the thin-slab hit rate
# ---------------------------------------------------------------------------

REFERENCE_CORE_MEAN = np.array([2.876, 2.269, 2.877])
REFERENCE_CORE_SE = np.array([0.002, 0.003, 0.002])
CALIBRATION_SD = np.array([0.0052, 0.0099, 0.0096])   # spread over VaR seeds


def test_criterion_04a_core_hmc():
    t0 = time.time()
    joint = t5_model()
    poly, K = core_polytope(joint, 0.99, 10 ** 6, seed=5)
    target = al.ConditionalTarget(joint, K)
    pilot, _ = slab_sample(joint, K, SlabConfig(n=200, standardize=False), seed=6)
    mass = 1.0 / pilot[:, :2].var(axis=0, ddof=1)
    cfg = HMCConfig(chain_length=10_000, epsilon=0.09, steps=28, seed=7,
                    mass=mass)
    chain, diag = hmc_reflect_chain(target, poly, cfg)
    full = target.lift(chain)
    est = full.mean(axis=0)
    ess = np.append(diag.ess, diag.ess.mean())
    mcse = full.std(axis=0, ddof=1) / np.sqrt(ess)
    band = 3.0 * np.sqrt(mcse ** 2 + REFERENCE_CORE_SE ** 2 + CALIBRATION_SD ** 2)
    z = np.abs(est - REFERENCE_CORE_MEAN) / band
    lag1 = float(np.max(np.abs(diag.lag1)))
    elapsed = time.time() - t0
    ok = (bool(np.all(z < 1.0))
          and 0.7 <= diag.acceptance_rate <= 0.95
          and lag1 < 0.1
          and elapsed < 300.0)
    line = report("4a", ok,
                  f"mean=({est[0]:.3f},{est[1]:.3f},{est[2]:.3f}), "
                  f"max z={z.max():.2f}, acc={diag.acceptance_rate:.3f}, lag1={lag1:.3f}, "
                  f"{elapsed:.0f}s")
    assert ok, line


def test_criterion_04b_thin_slab_hit_rate():
    # S = 1'X is univariate t5 with location 0 and scale s = sqrt(1'Sigma 1)
    # = sqrt(17/3), so a draw lands in the slab |S - K| < delta with exact
    # probability p = T5((K + delta)/s) - T5((K - delta)/s) ~ 2 delta f_S(K)
    # ~ 9e-6.  the hit count over n draws is Binomial(n, p); accept it inside
    # the central 99.9% interval, [1, 20] here, which rejects zero hits and
    # any wrong scale for S.
    model = t5_model()
    K, delta, n = 8.046, 0.001, 10 ** 6
    s = model.sample(n, rng_from_seed(8)).sum(axis=1)
    hits = int(np.sum(np.abs(s - K) < delta))
    scale = math.sqrt(REF_CORR.sum())
    p = stats.t.cdf((K + delta) / scale, 5) - stats.t.cdf((K - delta) / scale, 5)
    lo, hi = stats.binom.interval(0.999, n, p)
    ok = lo <= hits <= hi
    line = report("4b", ok, f"observed {hits} hits per 1e6 (exact {n * p:.2f}, "
                            f"99.9% band [{lo:.0f},{hi:.0f}])")
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 5: crossed-box conditional level-set split
# ---------------------------------------------------------------------------

def test_criterion_05_crossed_box_levelset():
    # {f >= t} = r D with r = a exp(-t/2).  on the line x1 + x2 = K (x' = x1)
    # the vertical bar r[-1,1]x[-2,2] contributes [K - 2r, r] and the
    # horizontal bar r[-2,2]x[-1,1] contributes [K - r, 2r]; the set splits
    # into these two intervals exactly when 2r < K <= 3r.  at K = 1/3 that is
    # log 3 < t <= 2 log(9/(2 sqrt 3)) ~ 1.909.  t = log(16/3) gives r = 1/8
    # and the intervals [1/12, 1/8] and [5/24, 1/4]; at t = log 3 (r = K/2)
    # the two meet and the set is the single interval [0, 1/3].
    m = crossed_box_model()
    K = 1.0 / 3.0
    f = m.conditional_slice(K)
    grid = GridSpec([(-0.4, 0.8)], resolution=4800)
    cell = float(grid.cell_sizes()[0])

    def matches(level, want):
        count, boxes = superlevel_components(f, level, grid)
        ok = count == len(want) and all(
            abs(lo[0] - wlo) <= cell and abs(hi[0] - whi) <= cell
            for (lo, hi), (wlo, whi) in zip(boxes, want))
        return ok, f"t={level:.3f}: {count} component(s) " + ", ".join(
            f"[{lo[0]:.4f},{hi[0]:.4f}]" for lo, hi in boxes)

    t_split = math.log(16.0 / 3.0)
    r = m.a * math.exp(-t_split / 2.0)
    assert 2.0 * r < K <= 3.0 * r
    ok_split, split = matches(t_split, [(K - 2.0 * r, r), (K - r, 2.0 * r)])
    ok_joined, joined = matches(math.log(3.0), [(0.0, K)])
    ok = ok_split and ok_joined
    line = report(5, ok, f"{split}; {joined}")
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 6: trimodal complete-mix fixture
# ---------------------------------------------------------------------------

def test_criterion_06_complete_mix_modes():
    t0 = time.time()
    K = 1.0
    x = complete_mix_dirichlet(2.0, 10.0, K, 3000, seed=3)
    sums_tight = bool(np.all(x.sum(axis=1) == K))
    modes = mean_shift_modes(x[:, :2], CompleteMixTarget(2.0, 10.0, K))
    elapsed = time.time() - t0
    ok = sums_tight and len(modes) == 3 and elapsed < 30.0
    line = report(6, ok, f"{len(modes)} modes, bit-tight sums={sums_tight}, "
                         f"{elapsed:.0f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 7: mode-allocation equivariance under matched seeds
# ---------------------------------------------------------------------------

def _slab_mode(model, K, delta, seed, n=1500):
    x, _ = slab_sample(model, K, SlabConfig(n=n, delta=delta, standardize=False),
                       seed)
    target = al.ConditionalTarget(model, K)
    return mean_shift_modes(x[:, :-1], target).locations[0]


def test_criterion_07_mla_properties():
    base = t5_model()
    K0, delta, seed = 8.0, 0.1, 42
    m0 = _slab_mode(base, K0, delta, seed)

    # translation: X + c under matched seeds shifts the mode by exactly c
    c = np.array([1.0, -0.5, 2.0])
    shifted = al.EllipticalJoint(c, al.DispersionMatrix(REF_CORR), al.StudentTGen(5.0))
    m_shift = _slab_mode(shifted, K0 + c.sum(), delta, seed)
    t_err = float(np.max(np.abs(m_shift - (m0 + c))))

    # positive homogeneity: 2X under matched seeds doubles the mode
    scaled = al.EllipticalJoint(np.zeros(3), al.DispersionMatrix(4.0 * REF_CORR),
                                al.StudentTGen(5.0))
    m_scale = _slab_mode(scaled, 2.0 * K0, 2.0 * delta, seed)
    h_err = float(np.max(np.abs(m_scale - 2.0 * m0)))

    # exchangeable symmetry: equal split within 3 SEs over replications
    eq = al.EllipticalJoint(np.zeros(3),
                            al.DispersionMatrix(np.full((3, 3), 0.5)
                                                + 0.5 * np.eye(3)),
                            al.StudentTGen(5.0))
    reps = np.array([_slab_mode(eq, 6.0, 0.1, s, n=1000) for s in range(6)])
    mean = reps.mean(axis=0)
    se = reps.std(axis=0, ddof=1) / math.sqrt(reps.shape[0])
    z = float(np.max(np.abs(mean - 2.0) / np.maximum(se, 1e-12)))

    # matched seeds make the checks deterministic up to the mean-shift
    # stopping rule, whose norm-relative criterion breaks exact equivariance
    ok = t_err < 5e-4 and h_err < 5e-4 and z < 3.0
    line = report(7, ok, f"translation err {t_err:.1e}, scaling err {h_err:.1e}, "
                         f"symmetry z={z:.2f}")
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 8: multimodality adjustment algebra and the frozen study fixture
# ---------------------------------------------------------------------------

def test_criterion_08_adjustment():
    failures = []

    # single scenario: zero adjustment exactly
    one = ScenarioSet(np.array([[6.0, 4.0]]), [1.0])
    _, adj, _ = multimodality_adjust(one, 1.0)
    if not np.all(adj == 0.0):
        failures.append("M=1 adjustment nonzero")

    sc = ScenarioSet(np.array([[8.0, 2.0], [3.0, 7.0]]), [0.6, 0.4])
    _, adj0, _ = multimodality_adjust(sc, 0.0)
    if not np.all(adj0 == 0.0):
        failures.append("lambda=0 adjustment nonzero")

    # zero characterization: with positive loadings the adjustment vanishes
    # iff every scenario equals the baseline
    _, adj, _ = multimodality_adjust(sc, 1.0)
    if not np.all(adj > 0.0):
        failures.append("distinct scenarios gave a zero adjustment")
    flat = ScenarioSet(np.array([[6.0, 4.0], [6.0 + 1e-7, 4.0 - 1e-7]]),
                       [0.5, 0.5], sum_tol=1e-6)
    _, adj_flat, _ = multimodality_adjust(flat, 1.0)
    if np.any(adj_flat > 1e-6):
        failures.append("coincident scenarios gave a positive adjustment")

    # convex order: spreading the scenarios about the same baseline can only
    # increase the adjustment
    base = np.array([0.6, 0.4]) @ sc.scenarios
    spread = ScenarioSet(base + 2.0 * (sc.scenarios - base), [0.6, 0.4])
    _, adj2, _ = multimodality_adjust(spread, 1.0)
    if not np.all(adj2 >= adj - 1e-12):
        failures.append("mean-preserving spread decreased the adjustment")

    # frozen study fixture: two quoted scenarios and their weights
    k1 = np.array([26.726, 2.114, 11.158])
    k2 = np.array([1.505, 37.203, 1.291])
    w = np.array([0.509, 0.491])
    w = w / w.sum()
    sset = ScenarioSet(np.vstack([k1, k2]), w, K=40.0, sum_tol=0.01)
    base_alloc, adj, _ = multimodality_adjust(sset, 1.0)
    if np.max(np.abs(base_alloc.a - [14.357, 19.323, 6.319])) > 0.05:
        failures.append(f"baseline {np.round(base_alloc.a, 3)} off")
    if abs(adj[0] - 6.30) > 0.05:
        failures.append(f"first adjustment component {adj[0]:.3f} off")
    # the quoted second component (11.204) is inconsistent with the quoted
    # scenarios: w2*(k2_2 - base_2)+ = 0.491*(37.203-19.323) = 8.78
    if abs(adj[1] - 8.769) > 0.05:
        failures.append(f"second adjustment component {adj[1]:.3f} drifted")

    ok = not failures
    line = report(8, ok, "; ".join(failures) if failures else
                  f"baseline ok, adj=({adj[0]:.2f},{adj[1]:.2f},{adj[2]:.2f})")
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 9: tail-variation classification
# ---------------------------------------------------------------------------

def test_criterion_09_tail_diagnostics():
    target = al.ConditionalTarget(t5_model(), 8.046)
    x = np.array([0.4, 0.3])
    rep = mrv_exponent(target, x, 2.0 * x)
    rel = abs(rep.fitted - rep.predicted) / abs(rep.predicted) \
        if rep.fitted is not None else math.inf
    norm_rep = mrv_exponent(al.ConditionalTarget(normal_joint(REF_CORR), 2.0),
                            x, 2.0 * x)
    ok = (not rep.rapid) and rel < 0.05 and norm_rep.rapid
    line = report(9, ok, f"t exponent rel err {rel:.2e}, normal rapid="
                         f"{norm_rep.rapid}")
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 10: structure checks and exact counterexamples
# ---------------------------------------------------------------------------

def test_criterion_10_structure_checks():
    failures = []

    ref = stats.multivariate_normal(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
    grid = GridSpec([(-3.0, 3.0), (-3.0, 3.0)], resolution=40)
    if not s_concavity_check(lambda x: ref.pdf(x), 0.0, grid, seed=1).passed:
        failures.append("Gaussian failed log-concavity")

    # crossed-box density: star-shaped but non-convex level sets break even
    # quasi-concavity (s = -inf)
    box = crossed_box_model()
    bgrid = GridSpec([(-2.0, 2.0), (-2.0, 2.0)], resolution=40)
    if s_concavity_check(lambda x: np.exp(np.minimum(box.density(x), 50.0))
                         * (box.density(x) > 0), -math.inf, bgrid,
                         seed=2).passed:
        failures.append("crossed-box density passed quasi-concavity")

    pos = np.array([[1.0, 0.8, 0.0], [0.8, 1.0, 0.0], [0.0, 0.0, 4.0]])
    neg = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    sgrid = GridSpec([(-1.5, 1.5), (-1.5, 1.5)], resolution=24)
    jp = normal_joint(pos)
    jn = normal_joint(neg)
    if mtp2_conditional_inheritance(lambda x: np.exp(jp.logpdf(x)), 1.0,
                                    sgrid) != "MTP2":
        failures.append("positive coupling did not stay MTP2 after slicing")
    if mtp2_conditional_inheritance(lambda x: np.exp(jn.logpdf(x)), 1.0,
                                    sgrid) != "MRR2":
        failures.append("equicorrelated slice was not MRR2")

    # pooling two iid-normal blocks moves every per-name allocation
    pooled = elliptical_condition(
        al.EllipticalJoint(np.zeros(5), al.DispersionMatrix(np.eye(5)),
                           al.NormalGen()), 8.0).mu
    pooled = np.append(pooled, 8.0 - pooled.sum())
    blocks = np.array([1.0, 1.0, 2.0, 2.0, 2.0])   # K1=2 over 2, K2=6 over 3
    if float(np.min(np.abs(pooled - blocks))) <= 1e-6:
        failures.append("pooled-block allocations coincide")

    # convolution: the combined conditional mode differs from the sum of
    # the separate modes at split capitals
    S = np.array([[1.0, 0.0], [0.0, 9.0]])
    T = np.array([[1.0, 0.9], [0.9, 1.0]])
    ones = np.ones(2)
    combined = 3.0 * ((S + T) @ ones) / (ones @ (S + T) @ ones)
    split = 1.5 * (S @ ones) / (ones @ S @ ones) \
        + 1.5 * (T @ ones) / (ones @ T @ ones)
    if float(np.max(np.abs(combined - split))) <= 1e-6:
        failures.append("convolution allocations coincide")

    ok = not failures
    line = report(10, ok, "; ".join(failures) if failures else "all checks hold")
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 11: numerical hygiene and CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_11_hygiene(tmp_path):
    failures = []

    model = t5_model()
    x = np.array([1.2, -0.4, 2.5])
    g = model.grad_logpdf(x)
    fd = _fd_grad(model.logpdf, x)
    if np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-12)) >= 1e-5:
        failures.append("elliptical gradient check")
    m1 = lomax_t_model(np.array([[1.0, 0.8, 0.5], [0.8, 1.0, 0.8],
                                 [0.5, 0.8, 1.0]]))
    y = np.array([2.0, 3.0, 1.5])
    if np.max(np.abs(m1.grad_logpdf(y) - _fd_grad(m1.logpdf, y))
              / np.maximum(np.abs(_fd_grad(m1.logpdf, y)), 1e-12)) >= 1e-5:
        failures.append("copula-model gradient check")

    p = np.linspace(0.001, 0.999, 199)
    for margin in (al.Lomax(2.5, 5.0), al.ParetoI(3.0, 2.0),
                   al.StudentT(4.0, 1.0, 2.0), al.Normal(0.5, 1.5)):
        if np.max(np.abs(margin.cdf(margin.quantile(p)) - p)) >= 1e-10:
            failures.append(f"{type(margin).__name__} quantile round trip")

    doc = {
        "model": {"kind": "elliptical", "mu": [0.0, 0.0, 0.0],
                  "sigma": REF_CORR.tolist(), "generator": "student_t",
                  "nu": 5.0},
        "capital": {"rule": "fixed", "K": 8.0},
        "sampler": {"method": "slab", "n": 200, "delta": 0.5},
        "replications": 1, "seed": 99,
    }
    cfg = tmp_path / "hygiene.json"
    cfg.write_text(json.dumps(doc))
    main(["run", str(cfg), "--output", str(tmp_path / "r1")])
    main(["run", str(cfg), "--output", str(tmp_path / "r2")])
    if (tmp_path / "r1" / "report.json").read_bytes() != \
            (tmp_path / "r2" / "report.json").read_bytes():
        failures.append("CLI runs not byte-identical")

    ok = not failures
    line = report(11, ok, "; ".join(failures) if failures else "all checks hold")
    assert ok, line

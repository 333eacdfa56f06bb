"""Output checks made apart from the program.

Each check reads what a run wrote (report.json, samples.csv, chain.csv,
levelset.csv) and compares it with a value computed from the workload's law
with numpy and scipy alone; nothing here imports alloc_lab.  Each check
returns (passed, detail), and raises when it cannot be made.

Statistical checks use bands wide enough that a correct program misses them
with probability of order 1e-6 per check: Z standard errors for means, and
the central 1 - ALPHA interval of an order statistic for quantiles.
"""
from __future__ import annotations

import csv
import math

import numpy as np
from scipy import stats

Z = 5.0
ALPHA = 1e-6
# The program's MLA is a mean-shift mode of a kernel density estimate; it may
# sit this many plug-in bandwidths (per coordinate) from the true mode.
MLA_BANDWIDTHS = 3.0


def read_matrix(path, cols=None):
    """Headered numeric CSV -> (n, d) array, optionally selecting columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    idx = list(range(len(header))) if cols is None else [header.index(c) for c in cols]
    return np.array([[float(r[i]) for i in idx] for r in rows], dtype=float)


def geyer_ess(x):
    """ESS of one chain coordinate by Geyer's initial positive sequence.

    Autocorrelations come from an FFT; pairs Gamma_k = rho_2k + rho_2k+1 are
    summed up to the first that is not positive.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f), 2 * n)[:n]
    if acov[0] <= 0.0:
        return 1.0
    rho = acov / acov[0]
    pairs = rho[0:n - 1:2] + rho[1:n:2]
    nonpos = np.flatnonzero(pairs <= 0.0)
    m = nonpos[0] if nonpos.size else pairs.size
    tau = -1.0 + 2.0 * float(pairs[:m].sum())
    return n / max(tau, 1e-12)


def order_stat_band(quantile, n, p):
    """Central 1 - ALPHA band of the ceil(n p)-th of n draws, mapped by `quantile`.

    The k-th of n uniform order statistics is Beta(k, n - k + 1); a monotone
    quantile function carries its band to the law of the draws.
    """
    k = max(math.ceil(n * p), 1)
    lo, hi = stats.beta.ppf([ALPHA / 2, 1 - ALPHA / 2], k, n - k + 1)
    return float(quantile(lo)), float(quantile(hi))


# ---------------------------------------------------------------------------
# Laws of the workloads, written out with scipy
# ---------------------------------------------------------------------------

def margin_copula_logpdf(spec, x):
    """Joint log-density of Lomax margins under a Student-t copula."""
    if spec.get("copula") != "student_t" or any(m["type"] != "lomax" for m in spec["margins"]):
        raise ValueError("only Lomax margins with a t copula are written out here")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    nu = float(spec["nu"])
    margins = [stats.lomax(c=float(m["shape"]), scale=float(m["scale"])) for m in spec["margins"]]
    log_marg = sum(m.logpdf(x[:, j]) for j, m in enumerate(margins))
    u = np.column_stack([m.cdf(x[:, j]) for j, m in enumerate(margins)])
    z = stats.t.ppf(u, nu)
    log_cop = (stats.multivariate_t(shape=np.asarray(spec["corr"], dtype=float), df=nu).logpdf(z)
               - stats.t.logpdf(z, nu).sum(axis=1))
    return log_marg + log_cop


def t_sum_quantile(spec, lam):
    """Quantile function of lam'X for X ~ t_nu(mu, Sigma)."""
    lam = np.asarray(lam, dtype=float)
    loc = float(lam @ np.asarray(spec["mu"], dtype=float))
    scale = math.sqrt(float(lam @ np.asarray(spec["sigma"], dtype=float) @ lam))
    nu = float(spec["nu"])
    return lambda u: loc + scale * stats.t.ppf(u, nu)


def t_conditional(spec, K):
    """Law of X' = (X_1..X_{d-1}) given 1'X = K for X ~ t_nu(mu, Sigma).

    It is t_{nu+1}(mu_K, (nu + 2 Delta_K)/(nu + 1) Sigma_K) with the usual
    Gaussian conditioning formulas for mu_K and Sigma_K.
    """
    mu = np.asarray(spec["mu"], dtype=float)
    sigma = np.asarray(spec["sigma"], dtype=float)
    nu = float(spec["nu"])
    d = mu.size
    s1 = sigma.sum(axis=1)[: d - 1]
    var_s = float(sigma.sum())
    mu_k = mu[: d - 1] + (K - mu.sum()) / var_s * s1
    sigma_k = sigma[: d - 1, : d - 1] - np.outer(s1, s1) / var_s
    delta_k = 0.5 * (K - mu.sum()) ** 2 / var_s
    return mu_k, (nu + 2.0 * delta_k) / (nu + 1.0) * sigma_k, nu + 1.0


def lift(xp, K):
    xp = np.atleast_2d(xp)
    return np.column_stack([xp, K - xp.sum(axis=1)])


def coalition_bounds(polytope):
    """(profiles, bounds) of the constraints lam'x <= r of a core polytope."""
    lam = np.array([c[0] for c in polytope["constraints"]], dtype=float)
    r = np.array([c[1] for c in polytope["constraints"]], dtype=float)
    return lam, r


# ---------------------------------------------------------------------------
# Checks common to every workload
# ---------------------------------------------------------------------------

def rows_sum_to_k(samples, K):
    err = np.abs(samples.sum(axis=1) - K)
    tol = 1e-12 * (abs(K) + np.abs(samples).max(axis=1))
    bad = int(np.sum(err > tol))
    return bad == 0, f"{bad} of {samples.shape[0]} rows miss K={K!r}; worst {err.max():.3g}"


def allocations_sum_to_k(report):
    K = report["capital"]
    vectors = {"euler": report["euler"]["mean"]}
    if report.get("mla"):
        vectors["mla"] = report["mla"]["allocation"]
    if report.get("adjustment"):
        vectors["baseline"] = report["adjustment"]["baseline"]
    errs = {k: abs(math.fsum(v) - K) for k, v in vectors.items()}
    ok = all(e <= 1e-9 * max(1.0, abs(K)) for e in errs.values())
    return ok, f"|sum - K| = {errs}"


def _within(value, ref, tol, what):
    value, ref, tol = (np.asarray(v, dtype=float) for v in (value, ref, tol))
    ok = bool(np.all(np.abs(value - ref) <= tol))
    return ok, f"{what}: {np.round(value, 4).tolist()} vs {np.round(ref, 4).tolist()} +- {np.round(tol, 4).tolist()}"


# ---------------------------------------------------------------------------
# slab-negdep
# ---------------------------------------------------------------------------

def euler_vs_slab_reference(report, ref, n_samples):
    """Euler against a thin-slab conditional mean made by make_reference.py.

    The program's slab is wider and standardised, which shifts its mean by
    the measured |wide - thin| gap; the band adds that gap to Z standard
    errors of the program's mean and of both reference means.
    """
    thin, wide = ref["thin"], ref["wide"]
    se = np.sqrt(np.square(thin["sd"]) / n_samples
                 + np.square(thin["se"]) + np.square(wide["se"]))
    tol = np.abs(np.subtract(wide["mean"], thin["mean"])) + Z * se
    return _within(report["euler"]["mean"], thin["mean"], tol, "euler")


def levelset_mask(mask, doc, K):
    """The exported mask equals {f >= level} with f from scipy.stats.

    Grid points within 1e-9 (relative) of the level, and points on the
    support boundary, where the program's open-set test depends on rounding,
    are not compared.
    """
    ls = doc["levelset"]
    axes = [np.linspace(lo, hi, int(ls["resolution"])) for lo, hi in ls["ranges"]]
    mesh = np.meshgrid(*axes, indexing="ij")
    full = lift(np.column_stack([m.ravel() for m in mesh]), K)
    inside = np.all(full > 1e-9 * abs(K), axis=1)
    on_edge = np.any(np.abs(full) <= 1e-9 * abs(K), axis=1)
    logf = np.full(full.shape[0], -np.inf)
    logf[inside] = margin_copula_logpdf(doc["model"], full[inside])
    log_level = math.log(float(ls["level"]))
    ref = logf >= log_level
    near = np.abs(logf - log_level) <= 1e-9 * max(1.0, abs(log_level))
    got = np.asarray(mask, dtype=bool).ravel()
    if got.size != ref.size:
        return False, f"mask has {got.size} cells, grid has {ref.size}"
    bad = int(np.sum((got != ref) & ~near & ~on_edge))
    return bad == 0, f"{bad} cells differ; {int(ref.sum())} cells in the set"


def weights_at_mode_locations(report, spec):
    """Adjustment weights equal the normalised density at the published modes.

    Raises when the report has no weights to compare: fewer than two modes,
    no adjustment, or not one weight per mode.
    """
    clusters = report.get("modes", {}).get("clusters", [])
    adj = report.get("adjustment")
    if len(clusters) < 2 or not adj:
        raise ValueError(f"{len(clusters)} modes and {'an' if adj else 'no'} adjustment in the report")
    locs = np.array([c["location"] for c in clusters])
    logf = margin_copula_logpdf(spec, locs)
    w = np.exp(logf - logf.max())
    w /= w.sum()
    got = np.asarray(adj["weights"], dtype=float)
    if got.shape != w.shape:
        raise ValueError(f"{got.size} weights for {w.size} modes")
    ok = bool(np.all(np.abs(got - w) <= 1e-6))
    return ok, f"weights {np.round(got, 4).tolist()} vs density at locations {np.round(w, 4).tolist()}"


# ---------------------------------------------------------------------------
# core-hmc
# ---------------------------------------------------------------------------

def capital_t_band(report, doc):
    spec, cap = doc["model"], doc["capital"]
    d = len(spec["mu"])
    lo, hi = order_stat_band(t_sum_quantile(spec, np.ones(d)), int(cap["n_cal"]), float(cap["p"]))
    K = report["capital"]
    return lo <= K <= hi, f"K={K:.5f}, band [{lo:.5f}, {hi:.5f}]"


def chain_in_core(samples, polytope, report, doc):
    """Every chain state meets every coalition bound, and each bound r(lam)
    lies in the order-statistic band of the closed-form VaR of lam'X."""
    spec, cap = doc["model"], doc["capital"]
    if polytope is None:
        return False, "no core polytope was built"
    if polytope["K"] != report["capital"]:
        return False, f"polytope K {polytope['K']} differs from reported capital"
    for lam, r in polytope["constraints"]:
        lo, hi = order_stat_band(t_sum_quantile(spec, lam), int(cap["n_cal"]), float(cap["p"]))
        if not lo <= r <= hi:
            return False, f"bound r{lam}={r:.5f} outside [{lo:.5f}, {hi:.5f}]"
    lam, r = coalition_bounds(polytope)
    excess = samples @ lam.T - r
    bad = int(np.sum(np.any(excess > 1e-9 * (1.0 + np.abs(r)), axis=1)))
    return bad == 0, f"{bad} of {samples.shape[0]} states outside; max excess {excess.max():.3g}"


def truncated_t_mean(doc, K, polytope, rng, n=400_000, chunk=100_000):
    """Mean and sd of the closed-form conditional t law restricted to the core,
    by direct sampling with numpy."""
    mu_k, disp, df = t_conditional(doc["model"], K)
    chol = np.linalg.cholesky(disp)
    lam, r = coalition_bounds(polytope)
    total = np.zeros(mu_k.size + 1)
    total_sq = np.zeros(mu_k.size + 1)
    kept = 0
    for _ in range(n // chunk):
        z = rng.standard_normal((chunk, mu_k.size)) @ chol.T
        w = rng.chisquare(df, size=chunk) / df
        x = lift(mu_k + z / np.sqrt(w)[:, None], K)
        x = x[np.all(x @ lam.T <= r, axis=1)]
        total += x.sum(axis=0)
        total_sq += (x * x).sum(axis=0)
        kept += x.shape[0]
    mean = total / kept
    sd = np.sqrt(np.maximum(total_sq / kept - mean ** 2, 0.0))
    return mean, sd, kept


def euler_vs_truncated_t(report, samples, polytope, doc, rng):
    K = report["capital"]
    if polytope is None:
        return False, "no core polytope was built"
    mean, sd_ref, kept = truncated_t_mean(doc, K, polytope, rng)
    ess = np.array([geyer_ess(samples[:, j]) for j in range(samples.shape[1])])
    se_prog = samples.std(axis=0, ddof=1) / np.sqrt(ess)
    tol = Z * np.sqrt(se_prog ** 2 + sd_ref ** 2 / kept)
    return _within(report["euler"]["mean"], mean, tol, "euler")


def mla_near_conditional_mode(report, chain, polytope, doc):
    """MLA within MLA_BANDWIDTHS plug-in bandwidths of mu_K, which is the mode
    of the conditional t law and, when inside the core, of its restriction."""
    K = report["capital"]
    mu_k, _, _ = t_conditional(doc["model"], K)
    mode = lift(mu_k, K)[0]
    lam, r = coalition_bounds(polytope)
    if not np.all(lam @ mode <= r):
        return False, f"mu_K={mode.tolist()} is outside the core"
    if not report.get("mla"):
        return False, f"no MLA in the report ({report.get('modes', {}).get('count')} modes)"
    n, d = chain.shape
    factor = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    h = factor * math.sqrt(float(np.linalg.eigvalsh(np.cov(chain, rowvar=False)).max()))
    return _within(report["mla"]["allocation"], mode, np.full(mode.size, MLA_BANDWIDTHS * h), "mla")


# ---------------------------------------------------------------------------
# empirical-kde
# ---------------------------------------------------------------------------

def euler_vs_slab_rows(report, rows, doc):
    """The rank-resampling copula over empirical margins reproduces data rows,
    so the conditional law is uniform over the standardised rows whose sum is
    within delta of K; its mean is computed exactly."""
    K = report["capital"]
    sampler = doc["sampler"]
    delta = sampler.get("delta") or 0.01 * abs(K)
    s = rows.sum(axis=1)
    sel = np.abs(s - K) < delta
    if not sel.any():
        return False, "no data row lies in the slab"
    slab = rows[sel] * (K / s[sel])[:, None]
    n_samples = int(sampler["n"]) * int(doc["replications"])
    tol = Z * slab.std(axis=0) / math.sqrt(n_samples)
    return _within(report["euler"]["mean"], slab.mean(axis=0), tol,
                   f"euler ({int(sel.sum())} slab rows)")


def capital_row_sum_band(report, rows, doc):
    cap = doc["capital"]
    s = np.sort(rows.sum(axis=1))

    def quantile(u):
        return s[min(max(math.ceil(u * s.size), 1), s.size) - 1]

    lo, hi = order_stat_band(quantile, int(cap["n_cal"]), float(cap["p"]))
    K = report["capital"]
    return lo <= K <= hi, f"K={K:.5f}, band [{lo:.5f}, {hi:.5f}]"

"""Batch front door: config-driven experiments, CSV ingest, plot-data export.

Verbs: run <config>, ingest <csv>, export <report dir>, check <config>.
Exit codes: 0 success, 1 error, 2 completed with warnings.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .allocation import (
    ScenarioSet,
    core_polytope,
    euler_allocation,
    multimodality_adjust,
)
from .conditional import ConditionalTarget, GridSpec, superlevel_mask
from .errors import (
    AllocLabError,
    ConfigurationError,
    DataError,
    NotAvailableError,
    StabilityError,
)
from .models import (
    FLAG,
    POSITIVE,
    _Keys,
    _built,
    _finite_number,
    _finite_positive,
    _int_at_least,
    checked,
    empirical_model_from_matrix,
    empirical_var,
    integer,
    model_from_config,
    or_null,
    split_seeds,
)
from .modes import MeanShiftConfig, mean_shift_modes, radius_merge, scenario_weights
from .samplers import (HMCConfig, MHConfig, SlabConfig, _burn_in, hmc_reflect_chain, mh_chain,
                       slab_sample)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def load_config(path):
    """(doc, sha256 of its text) of a config file; refuses a bad value."""
    doc, digest = _read_config(path)
    validate_config(doc)
    return doc, digest


def _read_config(path):
    with _opened(path, ConfigurationError, "config file ") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config parse error at line {exc.lineno}: {exc.msg}")
    return doc, hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Experiment:
    """Every value of a config that a run reads, each checked once by
    `validate_config`; the `model` section is read by `build_model`."""
    K: float                      # fixed capital; None under the rule 'var'
    p: float                      # VaR level and calibration draws of the rule 'var'
    n_cal: int
    core: bool                    # sample the core polytope (rule 'var', method 'hmc')
    method: str
    sampler: object               # SlabConfig, MHConfig or HMCConfig, at seed 0
    replications: int
    seed: int
    mean_shift: MeanShiftConfig   # None when modes.enabled is false
    cluster_radius: float         # None: 0.25 |K|, or 1 at K = 0
    mla: bool
    adjust: bool
    lam: float
    grid: GridSpec                # None without a level set
    level: float
    output: str


# sampler.method -> (config class, the keys of `sampler` it takes)
_SAMPLERS = {
    "slab": (SlabConfig, ("n", "delta", "standardize")),
    "mh": (MHConfig, ("chain_length", "proposal", "burn_in", "thinning")),
    "hmc": (HMCConfig, ("chain_length", "epsilon", "steps", "burn_in", "mass")),
}


# the keys that a rule or method of each run-level section reads ("" the
# top level); the keys of `model` are left to build_model
RUN_KEYS = {
    "": ("model", "capital", "sampler", "modes", "allocate", "levelset",
         "replications", "seed", "output"),
    "capital": ("rule", "K", "p", "n_cal"),
    "sampler": ("method", "core", *dict.fromkeys(k for _, keys in _SAMPLERS.values()
                                                 for k in keys)),
    "modes": ("enabled", "tol", "max_iter", "cluster_radius"),
    "allocate": ("mla", "adjust", "lambda"),
    "levelset": ("level", "ranges", "resolution"),
}

# the keys of an empirical model, which build_model reads; models.MODEL_KEYS
# holds those of the other kinds
EMPIRICAL_KEYS = ("kind", "csv", "cols", "flip")


def validate_config(doc):
    """The Experiment of a config document; a bad value or a key outside
    RUN_KEYS raises a ConfigurationError that names its key path."""
    if not isinstance(doc, dict) or "model" not in doc:
        raise ConfigurationError("missing key: model")
    top = _Keys(doc, "").known(RUN_KEYS[""])
    cap, sampler, modes, alloc, ls = (top.section(s).known(RUN_KEYS[s]) for s in
                                      ("capital", "sampler", "modes", "allocate", "levelset"))
    rule = cap.get("rule", None, lambda v: v in ("fixed", "var"), "'fixed' or 'var'")
    K = p = n_cal = None
    if rule == "fixed":
        K = cap.number("K")
    else:
        p = cap.get("p", None, lambda v: _finite_positive(v) and v < 1, "a number in (0, 1)")
        n_cal = cap.get("n_cal", 10 ** 6, *integer(1))
    method = sampler.get("method", "slab", lambda v: v in ("slab", "mh", "hmc"),
                         "'slab', 'mh' or 'hmc'")
    cls, keys = _SAMPLERS[method]
    core = sampler.get("core", False, *FLAG)
    checked(core, "sampler.core", lambda v: not v or (rule, method) == ("var", "hmc"),
            "false unless capital.rule is 'var' and sampler.method 'hmc'")
    if n_cal is not None:
        # the draws that empirical_var asks for at level p, and core_polytope ten times as many
        least = (10.0 if core else 1.0) / (1.0 - p)
        checked(n_cal, "capital.n_cal", lambda n: n >= least,
                f"an integer >= {math.ceil(least)} at capital.p = {p!r}")
    shift = MeanShiftConfig(**{k: modes.doc[k] for k in ("tol", "max_iter") if k in modes.doc})
    grid = level = None
    if ls.doc:
        level = ls.get("level", None, *POSITIVE)
        ranges = ls.get("ranges", None, _is_ranges,
                        "a list of [lo, hi] pairs of finite numbers with lo < hi")
        grid = GridSpec([tuple(r) for r in ranges], ls.get("resolution", 200, *integer(16)))
    return Experiment(
        K=K, p=p, n_cal=n_cal, core=core, method=method,
        sampler=cls(**{k: sampler.doc[k] for k in keys if k in sampler.doc}),
        replications=top.get("replications", 1, *integer(1)),
        seed=top.get("seed", 0, *integer(0)),
        mean_shift=shift if modes.get("enabled", True, *FLAG) else None,
        cluster_radius=modes.get("cluster_radius", None, *or_null(POSITIVE)),
        mla=alloc.get("mla", True, *FLAG),
        adjust=alloc.get("adjust", True, *FLAG),
        lam=alloc.get("lambda", 1.0, lambda v: _finite_number(v) and v >= 0,
                      "a finite number >= 0"),
        grid=grid, level=level,
        output=top.get("output", "alloc_lab_out", lambda v: isinstance(v, str), "a string"),
    )


def _is_ranges(v):
    return isinstance(v, list) and all(
        isinstance(r, list) and len(r) == 2 and all(map(_finite_number, r)) and r[0] < r[1]
        for r in v)


def build_model(doc, base_dir="."):
    spec = doc["model"]
    if isinstance(spec, dict) and spec.get("kind") == "empirical":
        keys = _Keys(spec, "model").known(EMPIRICAL_KEYS)
        path = keys.get("csv", None, lambda v: isinstance(v, str) and v, "a file path")
        cols = keys.get("cols", None, lambda v: v is None or isinstance(v, list) and len(v) > 1
                        and all(isinstance(c, (str, int)) and not isinstance(c, bool) for c in v),
                        "null or a list of at least 2 column names or indices")
        data, _ = _built("model.csv" if cols is None else "model.csv with model.cols", ingest_csv,
                         os.path.join(base_dir, path), cols=cols)
        return _built("model.csv", empirical_model_from_matrix,
                      _flipped(data, spec.get("flip")))
    return model_from_config(spec)


def _model(exp, doc, base_dir):
    """The model of doc; refuses a model of d < 2, a fixed K that no point of
    its support sums to, and a level set, an HMC mass or a sample size per
    replication that does not fit d, before any draw."""
    model, cfg = build_model(doc, base_dir), exp.sampler
    keys = {"elliptical": "model.mu", "empirical": "model.csv"}
    checked(model.d, keys.get(doc["model"].get("kind"), "model.margins"),
            lambda d: d >= 2, "at least 2 coordinates")
    if exp.K is not None:
        lowest = float(np.sum(model.margin_lowers()))
        checked(exp.K, "capital.K", lambda K: K > lowest,
                f"above the sum of the margins' lower ends, {lowest:g}")
        highest = model.largest_sum()
        checked(exp.K, "capital.K", lambda K: K < highest,
                f"below the largest row sum of the model's support, {highest:g}")
    free = model.d - 1
    if exp.grid is not None:
        checked(exp.grid.ranges, "levelset.ranges", lambda r: len(r) == free,
                f"d - 1 = {free} [lo, hi] pairs")
        if not model.has_density:
            raise ConfigurationError("levelset must be left out for a model without a density")
    checked(getattr(cfg, "mass", None), "sampler.mass",
            lambda m: not isinstance(m, list) or len(m) == free,
            f"null, 'pilot' or a list of d - 1 = {free} entries")
    # Euler needs 30 samples, chain diagnostics 100 states, mean-shift 10 per free coordinate
    least = max(30 if exp.method == "slab" else 100, 0 if exp.mean_shift is None else 10 * free)
    if exp.method == "slab":
        checked(cfg.n, "sampler.n", lambda n: n >= least,
                f"an integer >= {least} (samples per replication)")
    else:
        kept = len(range(_burn_in(cfg), cfg.chain_length, getattr(cfg, "thinning", 1)))
        checked(cfg.chain_length, "sampler.chain_length", lambda n: kept >= least,
                f"long enough to keep {least} states after burn-in and thinning, not {kept}")
    return model


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------

def _resolve_capital(exp, model, seed):
    if exp.K is not None:
        return exp.K, None
    if exp.core:
        poly, K = core_polytope(model, exp.p, exp.n_cal, seed)
        return float(K), poly
    s = model.sample(exp.n_cal, seed).sum(axis=1)
    return float(empirical_var(s, exp.p)), None


def _run_replication(model, K, exp, polytope, seed):
    """(samples, ess, entry) of one replication: ess is None for slab draws
    and the chain's per-coordinate ESS with their mean appended otherwise;
    entry is the slab hit fraction, or the chain's report dict."""
    if exp.method == "slab":
        samples, frac = slab_sample(model, K, exp.sampler, seed)
        return samples, None, frac
    target = ConditionalTarget(model, K)
    cfg = replace(exp.sampler, seed=seed)
    if exp.method == "mh":
        chain, diag = mh_chain(target, cfg)
    else:
        chain, diag = hmc_reflect_chain(target, polytope, cfg)
    entry = {
        "acceptance": diag.acceptance_rate,
        "lag1": [float(v) for v in diag.lag1],
        "ess": [float(v) for v in diag.ess],
    }
    return target.lift(chain), np.append(diag.ess, float(np.mean(diag.ess))), entry


def _replicate(seed, job=None):
    """(samples, ess, entry, mode set or None) of the replication drawn from
    seed; job is (model, K, exp, polytope, target), that of this worker when
    None."""
    model, K, exp, polytope, target = _worker_job if job is None else job
    samples, ess, entry = _run_replication(model, K, exp, polytope, seed)
    ms = None
    if exp.mean_shift is not None:
        ms = mean_shift_modes(samples[:, :-1], target, exp.mean_shift)
    return samples, ess, entry, ms


def _workers(R):
    """Processes for R replications: one per usable CPU, at most R; 1, the
    calling process alone, where a forked pool is not available."""
    if R == 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    import multiprocessing
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):    # it may not start children
        return 1
    return min(R, len(os.sched_getaffinity(0)))


_worker_job = None    # the job of a pool worker, set by _worker_init

# the thread-count setters of OpenBLAS builds: plain, 64-bit interface, and
# the prefixed builds that the numpy and scipy wheels bundle
_BLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _worker_init(job):
    """Pool initializer: keep the job, and cap the BLAS threads of the worker.
    A failed cap is reported, not raised: a worker whose initializer raises
    breaks the pool, and the cap only saves time."""
    global _worker_job
    _worker_job = job
    try:
        _one_blas_thread()
    except Exception as exc:
        print(f"warning: BLAS threads of a replication worker not capped: {exc!r}",
              file=sys.stderr)


def _one_blas_thread():
    """Cap every OpenBLAS loaded in the process at one thread, so that one
    worker per CPU fills the CPUs without each also running a BLAS thread per
    CPU."""
    import ctypes
    with open("/proc/self/maps", "rb") as fh:    # paths are bytes, not always UTF-8
        fields = [line.split(None, 5) for line in fh]
    paths = {os.fsdecode(f[5].strip()) for f in fields
             if len(f) == 6 and b"openblas" in os.path.basename(f[5])}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except (OSError, UnicodeDecodeError):    # not a library; the latter for a non-UTF-8 path
            continue
        setter = next((getattr(lib, n) for n in _BLAS_SETTERS if hasattr(lib, n)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _in_workers(workers, job, seeds):
    """[_replicate(seed, job) for seed in seeds], run by forked worker
    processes that inherit job. Results are read in seed order, so the first
    error raised is that of the lowest failing seed; the seeds not yet started
    are then dropped. A worker that dies (killed by the OOM killer, say) is a
    StabilityError rather than a wait without end."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_worker_init, initargs=(job,))
    try:
        return list(pool.map(_replicate, seeds))
    except BrokenProcessPool as exc:
        raise StabilityError(f"a replication worker process died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


def aggregate_modesets(modesets, radius):
    """Cluster per-replication modes; returns cluster summaries in
    descending density of each cluster's highest member."""
    locs = np.concatenate([ms.locations for ms in modesets])
    logf = np.concatenate([ms.log_densities for ms in modesets])
    reps = np.concatenate([np.full(len(ms), r) for r, ms in enumerate(modesets)])
    nreps = len(modesets)
    out = []
    for idx in radius_merge(locs, logf, radius):
        members = locs[idx]
        out.append({
            "location": members.mean(axis=0),
            "se": members.std(axis=0, ddof=1) if members.shape[0] > 1 else np.zeros(members.shape[1]),
            "support": len(set(reps[idx])) / nreps,
            "log_density": float(logf[idx[0]]),
        })
    min_support = 0.5 if nreps > 1 else 0.0
    kept = [c for c in out if c["support"] > min_support]
    return kept if kept else out


def run_pipeline(doc, base_dir="."):
    """Execute the configured experiment; returns (report, artifacts, warnings)."""
    return _run(validate_config(doc), doc, base_dir)


def _run(exp, doc, base_dir):
    """run_pipeline of the Experiment exp of doc."""
    model = _model(exp, doc, base_dir)
    R = exp.replications
    seeds = split_seeds(exp.seed, R + 1)
    K, polytope = _resolve_capital(exp, model, seeds[0])

    target = ConditionalTarget(model, K)
    job = (model, K, exp, polytope, target)
    workers = _workers(R)
    if workers == 1:
        results = map(partial(_replicate, job=job), seeds[1:])
    else:
        results = _in_workers(workers, job, seeds[1:])
    rep_samples, rep_ess, entries, rep_modes = zip(*results)
    modesets = [] if exp.mean_shift is None else list(rep_modes)
    warnings = [f"replication {r}: mean-shift convergence below 80%"
                for r, ms in enumerate(modesets) if ms.convergence_warning]
    if modesets:
        # mean_shift_modes asks for 10 rows per dimension; repeats of a few
        # rows meet that count, but then the modes follow the replication count
        least = 10 * (rep_samples[0].shape[1] - 1)
        for r, s in enumerate(rep_samples):
            distinct = np.unique(s[:, :-1], axis=0).shape[0]
            if distinct < least:
                warnings.append(f"replication {r}: {distinct} distinct sample rows, "
                                f"fewer than {least}; the modes may change with the "
                                "replication count")

    # rows are pinned to sum to K, but where K is small against the
    # coordinates no float row may sum to it exactly
    for r, s in enumerate(rep_samples):
        missed = int(np.count_nonzero(s.sum(axis=1) != K))
        if missed:
            warnings.append(f"replication {r}: {missed} of {s.shape[0]} sample rows "
                            f"do not sum to K = {K!r} in floating point")

    eulers = [euler_allocation(s, K, ess=ess) for s, ess in zip(rep_samples, rep_ess)]
    euler_reps = np.array([e.a for e in eulers])
    euler_mean = euler_reps.mean(axis=0)
    euler_se = euler_reps.std(axis=0, ddof=1) if R > 1 else eulers[0].se

    report = {
        "capital": K,
        "replications": R,
        "euler": {"mean": euler_mean.tolist(), "se": np.asarray(euler_se).tolist()},
    }

    clusters = None
    if modesets:
        radius = exp.cluster_radius
        if radius is None:
            radius = 0.25 * abs(K) if K else 1.0
        clusters = aggregate_modesets(modesets, radius)
        report["modes"] = {"count": len(clusters), "clusters": [
            {"location": c["location"].tolist(), "se": c["se"].tolist(), "support": c["support"]}
            for c in clusters]}

    if exp.mla and clusters is not None:
        if len(clusters) == 1:
            report["mla"] = {"allocation": clusters[0]["location"].tolist(),
                             "se": clusters[0]["se"].tolist()}
        else:
            warnings.append(
                f"multimodal target ({len(clusters)} modes): MLA downgraded to adjusted capital"
            )
            report["mla"] = None

    if clusters is not None and exp.adjust:
        if len(clusters) > 1:
            locs = np.array([c["location"] for c in clusters])
            if model.has_density:
                logf = model.logpdf(locs)
            else:
                # no density to evaluate: the KDE value each cluster's
                # highest member was ranked by
                logf = [c["log_density"] for c in clusters]
            w = scenario_weights(logf)
            sset = ScenarioSet(locs, w, K=K, sum_tol=1e-6 * max(1.0, abs(K)))
            base, adj, total = multimodality_adjust(sset, exp.lam)
            report["adjustment"] = {
                "baseline": base.a.tolist(),
                "adjustment": adj.tolist(),
                "total": total.tolist(),
                "weights": w.tolist(),
                "lambda": exp.lam,
            }
        else:
            report["adjustment"] = None

    if exp.method == "slab":
        report["slab"] = {"acceptance_fraction": float(np.mean(entries))}
    else:
        report["chain"] = entries[0] if R == 1 else list(entries)

    artifacts = {"samples": rep_samples[0]}
    if exp.grid is not None:
        artifacts["levelset"] = superlevel_mask(lambda xp: np.exp(target.log_density(xp)),
                                                exp.level, exp.grid)
    report["warnings"] = warnings
    return report, artifacts, warnings


# ---------------------------------------------------------------------------
# Reports on disk
# ---------------------------------------------------------------------------

@contextmanager
def _opened(path, error, what=""):
    """path opened for reading UTF-8 text, a leading byte-order mark left
    out; a missing or unreadable file is raised as `error`, naming the path
    and, before it, `what` it is."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except FileNotFoundError:
        raise error(f"{what or 'file '}not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:    # a directory, say, or not UTF-8
        raise error(f"cannot read {what}{path}: "
                    f"{getattr(exc, 'strerror', 'not UTF-8 text')}") from None


@contextmanager
def _created(path, newline=None):
    """path opened for writing text; an OSError is raised as a DataError
    that names the path."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:    # a directory, say
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_csv(path, header, rows, fmt="%.17g"):
    with _created(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt % v if isinstance(v, float) else v for v in row])


def write_report(report, artifacts, exp, config_hash, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    report = dict(report)
    report["provenance"] = {
        "config_sha256": config_hash,
        "seed": exp.seed,
        "versions": {"alloc_lab": __version__, "numpy": np.__version__},
    }
    with _created(os.path.join(out_dir, "report.json")) as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")

    d = len(report["euler"]["mean"])
    cols = [f"X{j + 1}" for j in range(d)]
    named = [("euler", report["euler"]["mean"]), ("euler_se", report["euler"]["se"])]
    if report.get("mla"):
        named += [("mla", report["mla"]["allocation"]), ("mla_se", report["mla"]["se"])]
    for i, c in enumerate(report.get("modes", {}).get("clusters", [])):
        named += [(f"mode_{i + 1}", c["location"]), (f"mode_{i + 1}_se", c["se"])]
    if report.get("adjustment"):
        adj = report["adjustment"]
        named += [("baseline", adj["baseline"]), ("adjustment", adj["adjustment"]),
                  ("adjusted_total", adj["total"])]
    rows = [[name] + [round(v, 3) for v in values] for name, values in named]
    _write_csv(os.path.join(out_dir, "table.csv"), ["method"] + cols, rows, fmt="%.3f")

    samples = artifacts.get("samples")
    if samples is not None:
        _write_csv(os.path.join(out_dir, "samples.csv"), cols,
                   [list(map(float, row)) for row in samples])
        if exp.method in ("mh", "hmc"):
            _write_csv(os.path.join(out_dir, "chain.csv"), cols[:-1],
                       [list(map(float, row[:-1])) for row in samples])
    if "levelset" in artifacts:
        mask = artifacts["levelset"].astype(int)
        _write_csv(os.path.join(out_dir, "levelset.csv"),
                   [f"cell_{j}" for j in range(mask.shape[-1])] if mask.ndim > 1 else ["cell_0"],
                   mask.reshape(mask.shape[0], -1).tolist())


def _prepare(config_path, output=None):
    """(doc, sha256 of its text, Experiment, config directory, report
    directory) of a config file, each value and the report directory checked
    before any draw."""
    doc, digest = _read_config(config_path)
    exp = validate_config(doc)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    # --output, a command-line path, is taken from the working directory;
    # the config's own output key from the config file's directory
    if output:
        out_dir = _output_dir(os.getcwd(), output, "--output")
    else:
        out_dir = _output_dir(base_dir, exp.output, "output")
    return doc, digest, exp, base_dir, out_dir


def run_experiment(config_path, output=None):
    """Load a config, run the pipeline, write the report; returns exit code."""
    doc, config_hash, exp, base_dir, out_dir = _prepare(config_path, output)
    report, artifacts, warnings = _run(exp, doc, base_dir)
    write_report(report, artifacts, exp, config_hash, out_dir)
    for text in warnings:
        print(f"warning: {text}", file=sys.stderr)
    return 2 if warnings else 0


def _output_dir(base_dir, output, key):
    """The report directory output, taken from base_dir; refused naming key
    unless it is a directory or its nearest existing ancestor is one."""
    def makeable(path):
        while not os.path.exists(path) and os.path.dirname(path) != path:
            path = os.path.dirname(path)
        return os.path.isdir(path)

    out_dir = os.path.join(base_dir, output)
    return checked(out_dir, key, makeable, "a directory or a path where one can be made")


# ---------------------------------------------------------------------------
# CSV ingest and export
# ---------------------------------------------------------------------------

def ingest_csv(path, cols=None):
    """Headered CSV -> loss matrix; returns (matrix, dropped-row count).

    numpy's C reader parses the data rows.  A file it refuses, or one where
    it returns fewer rows than the body has lines (it skips blank lines,
    which count as dropped rows here), goes through the exact row loop
    `_parse_rows` instead, so both give the same matrix, count and errors.
    """
    with _opened(path, DataError) as fh:
        # readline, not iteration, so that tell() works afterwards
        reader = csv.reader(iter(fh.readline, ""))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file")
        except csv.Error as exc:
            raise DataError(f"row 1: {exc}") from None
        body = fh.tell()
        lines = _count_lines(fh)
        idx = _column_indices(header, cols)
        data = None
        if lines:
            fh.seek(body)
            try:
                with warnings.catch_warnings():
                    # a body of blank lines: loadtxt warns and returns no rows
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                      usecols=idx, ndmin=2)
            except (ValueError, OverflowError):    # a cell or a column index it refuses
                pass
        dropped = []    # indices into the body's records of the dropped rows
        if data is None or data.shape[0] < lines:
            fh.seek(body)
            data, dropped = _parse_rows(csv.reader(fh), idx)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        rnum = int(bad[0])
        for skipped in dropped:    # dropped rows before it shift its index
            if skipped > rnum:
                break
            rnum += 1
        raise DataError(f"row {rnum + 2}: non-finite cell")
    return data, len(dropped)


def _flipped(data, flip):
    """data with each column listed in flip negated, once per listing; a flip
    that is neither None nor a list of column indices is refused naming model.flip."""
    if flip is not None:
        d = data.shape[1]
        checked(flip, "model.flip", lambda f: isinstance(f, (list, tuple))
                and all(_int_at_least(j, -d) and j < d for j in f),
                f"a list of column indices in [{-d}, {d})")
        for j in flip:
            data[:, j] = -data[:, j]
    return data


def _count_lines(fh):
    """Number of lines from the file position to the end, a last line
    without a line end included."""
    n, last = 0, "\n"
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        n += chunk.count("\n")
        last = chunk[-1]
    return n + (last != "\n")


def _column_indices(header, cols):
    """Indices of the selected columns: all of them, or each name or int of cols."""
    if cols is None:
        idx = list(range(len(header)))
    else:
        idx = []
        for c in cols:
            if isinstance(c, int) and not isinstance(c, bool):
                idx.append(c)
            elif c in header:
                idx.append(header.index(c))
            else:
                raise DataError(f"column {c!r} not in header {header}")
    if len(idx) < 2:
        raise DataError("need at least 2 numeric columns")
    return idx


def _parse_rows(raw, idx):
    """The exact row loop: (matrix, indices of the dropped records) of the
    records `raw`; drops blank records and records with an empty selected
    cell, and names the file row of a short or non-numeric one."""
    rows = []
    dropped = []
    try:
        for rnum, row in enumerate(raw):
            if not row:
                dropped.append(rnum)
                continue
            try:
                vals = [row[i].strip() for i in idx]
            except IndexError:
                raise DataError(f"row {rnum + 2}: too few columns")
            if any(v == "" for v in vals):
                dropped.append(rnum)
                continue
            try:
                rows.append([float(v) for v in vals])
            except ValueError:
                raise DataError(f"row {rnum + 2}: non-numeric cell")
    except csv.Error as exc:    # a cell beyond the csv module's field limit
        raise DataError(f"row {len(rows) + len(dropped) + 2}: {exc}") from None
    if not rows:
        raise DataError("no usable data rows")
    return np.array(rows, dtype=float), dropped


def export_plotdata(report_dir, kind, out_path):
    """Re-shape saved artifacts into plain plot-ready CSV."""
    names = {"scatter": "samples.csv", "levelset": "levelset.csv", "chain-trace": "chain.csv"}
    if kind not in names:
        raise NotAvailableError(f"unknown export kind: {kind!r}")
    src = os.path.join(report_dir, names[kind])
    if not os.path.exists(src):
        raise NotAvailableError(f"report has no {names[kind]} artifact")
    if kind == "scatter":
        data, _ = ingest_csv(src)
        _write_csv(out_path, ["x1", "x2"], [list(map(float, r[:2])) for r in data])
    else:
        with _opened(src, DataError) as fh:
            text = fh.read()
        with _created(out_path) as out:
            out.write(text)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(prog="alloc-lab",
                                     description="Conditional capital-allocation lab")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None)

    p_ing = sub.add_parser("ingest", help="validate and summarize a loss CSV")
    p_ing.add_argument("csv")
    p_ing.add_argument("--cols", nargs="*", default=None)

    p_exp = sub.add_parser("export", help="export plot-ready CSV from a report")
    p_exp.add_argument("report")
    p_exp.add_argument("--kind", required=True,
                       choices=["scatter", "levelset", "chain-trace"])
    p_exp.add_argument("--out", required=True)

    p_chk = sub.add_parser("check", help="dry-run validation of a config")
    p_chk.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return run_experiment(args.config, output=args.output)
        if args.verb == "ingest":
            cols = None
            if args.cols:
                cols = [int(c) if c.lstrip("-").isdigit() else c for c in args.cols]
            data, dropped = ingest_csv(args.csv, cols=cols)
            print(f"rows={data.shape[0]} cols={data.shape[1]} dropped={dropped}")
            return 2 if dropped else 0
        if args.verb == "export":
            export_plotdata(args.report, args.kind, args.out)
            print(f"wrote {args.out}")
            return 0
        if args.verb == "check":
            doc, digest, exp, base_dir, _ = _prepare(args.config)
            _model(exp, doc, base_dir)
            print(f"config ok (sha256 {digest[:12]})")
            return 0
    except AllocLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

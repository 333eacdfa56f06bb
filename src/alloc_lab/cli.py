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
import numbers
import os
import sys

import numpy as np

from . import __version__
from .allocation import (
    ScenarioSet,
    core_polytope,
    euler_allocation,
    multimodality_adjust,
)
from .conditional import ConditionalTarget
from .diagnostics import GridSpec, superlevel_mask
from .errors import (
    AllocLabError,
    ConfigurationError,
    DataError,
    NotAvailableError,
)
from .models import (
    empirical_model_from_matrix,
    empirical_var,
    model_from_config,
    split_seeds,
)
from .modes import MeanShiftConfig, mean_shift_modes, radius_merge, scenario_weights
from .samplers import HMCConfig, MHConfig, SlabConfig, hmc_reflect_chain, mh_chain, slab_sample


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config parse error at line {exc.lineno}: {exc.msg}")
    validate_config(doc)
    return doc, hashlib.sha256(text.encode("utf-8")).hexdigest()


def validate_config(doc):
    if "model" not in doc:
        raise ConfigurationError("missing key: model")
    cap = doc.get("capital")
    if not isinstance(cap, dict) or cap.get("rule") not in ("fixed", "var"):
        raise ConfigurationError("capital.rule must be 'fixed' or 'var'")
    if cap["rule"] == "fixed" and "K" not in cap:
        raise ConfigurationError("capital.rule 'fixed' needs key K")
    if cap["rule"] == "var" and "p" not in cap:
        raise ConfigurationError("capital.rule 'var' needs key p")
    if cap["rule"] == "fixed" and not (isinstance(cap["K"], (int, float))
                                       and math.isfinite(cap["K"])):
        raise ConfigurationError(f"capital.K must be a finite number, got {cap['K']!r}")
    sampler = doc.get("sampler", {})
    method = sampler.get("method", "slab")
    if method not in ("slab", "mh", "hmc"):
        raise ConfigurationError("sampler.method must be slab, mh, or hmc")
    if method == "slab":
        _slab_config(sampler)
    if method == "hmc":
        _hmc_config(sampler)
    reps = doc.get("replications", 1)
    if not (isinstance(reps, numbers.Integral) and reps >= 1):
        raise ConfigurationError(f"replications must be an integer >= 1, got {reps!r}")


def _slab_config(sampler):
    """The SlabConfig of a config's `sampler` mapping; raises on a bad n or delta."""
    return SlabConfig(
        n=sampler.get("n", 500),
        delta=sampler.get("delta"),
        standardize=bool(sampler.get("standardize", True)),
    )


def _hmc_config(sampler, seed=0):
    """The HMCConfig of a config's `sampler` mapping; raises on a bad mass."""
    return HMCConfig(
        chain_length=int(sampler.get("chain_length", 10000)),
        epsilon=sampler.get("epsilon"),
        steps=sampler.get("steps"),
        burn_in=sampler.get("burn_in"),
        seed=seed,
        mass=sampler.get("mass"),
    )


def build_model(doc, base_dir="."):
    spec = doc["model"]
    if spec.get("kind") == "empirical":
        path = spec["csv"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        data, _ = ingest_csv(path, cols=spec.get("cols"), flip=spec.get("flip"))
        return empirical_model_from_matrix(data)
    return model_from_config(spec)


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------

def _resolve_capital(doc, model, seed):
    cap = doc["capital"]
    if cap["rule"] == "fixed":
        return float(cap["K"]), None
    p = float(cap["p"])
    n_cal = int(cap.get("n_cal", 10 ** 6))
    sampler = doc.get("sampler", {})
    if sampler.get("method") == "hmc" and sampler.get("core", False):
        poly, K = core_polytope(model, p, n_cal, seed)
        return float(K), poly
    s = model.sample(n_cal, seed).sum(axis=1)
    return float(empirical_var(s, p)), None


def _run_replication(model, K, doc, polytope, seed):
    """One replication: conditional samples plus optional chain diagnostics."""
    sampler = doc.get("sampler", {})
    method = sampler.get("method", "slab")
    info = {}
    if method == "slab":
        samples, frac = slab_sample(model, K, _slab_config(sampler), seed)
        info["slab_acceptance"] = frac
        return samples, info
    target = ConditionalTarget(model, K)
    if method == "mh":
        cfg = MHConfig(
            chain_length=int(sampler.get("chain_length", 10000)),
            proposal=sampler.get("proposal", "random_walk"),
            burn_in=sampler.get("burn_in"),
            thinning=int(sampler.get("thinning", 1)),
            seed=seed,
        )
        chain, diag = mh_chain(target, cfg)
    else:
        chain, diag = hmc_reflect_chain(target, polytope, _hmc_config(sampler, seed))
    info["chain"] = {
        "acceptance": diag.acceptance_rate,
        "lag1": [float(v) for v in diag.lag1],
        "ess": [float(v) for v in diag.ess],
    }
    info["ess"] = np.append(diag.ess, float(np.mean(diag.ess)))
    samples = target.lift(chain)
    return samples, info


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
            "members": members.shape[0],
            "log_density": float(logf[idx[0]]),
        })
    min_support = 0.5 if nreps > 1 else 0.0
    kept = [c for c in out if c["support"] > min_support]
    return kept if kept else out


def run_pipeline(doc, base_dir="."):
    """Execute the configured experiment; returns (report, artifacts, warnings)."""
    warnings = []
    model = build_model(doc, base_dir)
    master = int(doc.get("seed", 0))
    seeds = split_seeds(master, int(doc.get("replications", 1)) + 1)
    K, polytope = _resolve_capital(doc, model, seeds[0])

    R = int(doc.get("replications", 1))
    rep_samples = []
    rep_info = []
    modesets = []
    modes_doc = doc.get("modes", {})
    modes_on = bool(modes_doc.get("enabled", True))
    mcfg = MeanShiftConfig(
        tol=float(modes_doc.get("tol", 1e-6)),
        max_iter=int(modes_doc.get("max_iter", 500)),
    )
    target = ConditionalTarget(model, K)
    for r in range(R):
        samples, info = _run_replication(model, K, doc, polytope, seeds[r + 1])
        rep_samples.append(samples)
        rep_info.append(info)
        if modes_on:
            ms = mean_shift_modes(samples[:, :-1], target, mcfg)
            if ms.convergence_warning:
                warnings.append(f"replication {r}: mean-shift convergence below 80%")
            modesets.append(ms)

    eulers = [euler_allocation(s, K, ess=info.get("ess"))
              for s, info in zip(rep_samples, rep_info)]
    euler_reps = np.array([e.a for e in eulers])
    euler_mean = euler_reps.mean(axis=0)
    euler_se = euler_reps.std(axis=0, ddof=1) if R > 1 else eulers[0].se

    report = {
        "capital": K,
        "replications": R,
        "euler": {"mean": euler_mean.tolist(), "se": np.asarray(euler_se).tolist()},
    }
    alloc_doc = doc.get("allocate", {})

    clusters = None
    if modes_on and modesets:
        radius = float(modes_doc.get("cluster_radius", 0.25 * abs(K) if K else 1.0))
        clusters = aggregate_modesets(modesets, radius)
        report["modes"] = {
            "count": len(clusters),
            "clusters": [
                {
                    "location": c["location"].tolist(),
                    "se": c["se"].tolist(),
                    "support": c["support"],
                }
                for c in clusters
            ],
        }

    if alloc_doc.get("mla", True) and clusters is not None:
        if len(clusters) == 1:
            report["mla"] = {
                "allocation": clusters[0]["location"].tolist(),
                "se": clusters[0]["se"].tolist(),
            }
        else:
            warnings.append(
                f"multimodal target ({len(clusters)} modes): MLA downgraded to adjusted capital"
            )
            report["mla"] = None

    if clusters is not None and alloc_doc.get("adjust", True):
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
            lam = float(alloc_doc.get("lambda", 1.0))
            base, adj, total = multimodality_adjust(sset, lam)
            report["adjustment"] = {
                "baseline": base.a.tolist(),
                "adjustment": adj.tolist(),
                "total": total.tolist(),
                "weights": w.tolist(),
                "lambda": lam,
            }
        else:
            report["adjustment"] = None

    chains = [i["chain"] for i in rep_info if "chain" in i]
    if chains:
        report["chain"] = chains[0] if R == 1 else chains
    slabs = [i["slab_acceptance"] for i in rep_info if "slab_acceptance" in i]
    if slabs:
        report["slab"] = {"acceptance_fraction": float(np.mean(slabs))}

    artifacts = {"samples": rep_samples[0]}
    if doc.get("levelset"):
        ls = doc["levelset"]
        grid = GridSpec([tuple(r) for r in ls["ranges"]],
                        int(ls.get("resolution", 200)))
        mask = superlevel_mask(lambda xp: np.exp(target.log_density(xp)),
                               float(ls["level"]), grid)
        artifacts["levelset"] = mask
    report["warnings"] = warnings
    return report, artifacts, warnings


# ---------------------------------------------------------------------------
# Reports on disk
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows, fmt="%.17g"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt % v if isinstance(v, float) else v for v in row])


def write_report(report, artifacts, doc, config_hash, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    report = dict(report)
    report["provenance"] = {
        "config_sha256": config_hash,
        "seed": int(doc.get("seed", 0)),
        "versions": {"alloc_lab": __version__, "numpy": np.__version__},
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")

    d = len(report["euler"]["mean"])
    cols = [f"X{j + 1}" for j in range(d)]
    rows = [["euler"] + [round(v, 3) for v in report["euler"]["mean"]],
            ["euler_se"] + [round(v, 3) for v in report["euler"]["se"]]]
    if report.get("mla"):
        rows.append(["mla"] + [round(v, 3) for v in report["mla"]["allocation"]])
        rows.append(["mla_se"] + [round(v, 3) for v in report["mla"]["se"]])
    for i, c in enumerate(report.get("modes", {}).get("clusters", [])):
        rows.append([f"mode_{i + 1}"] + [round(v, 3) for v in c["location"]])
        rows.append([f"mode_{i + 1}_se"] + [round(v, 3) for v in c["se"]])
    if report.get("adjustment"):
        adj = report["adjustment"]
        rows.append(["baseline"] + [round(v, 3) for v in adj["baseline"]])
        rows.append(["adjustment"] + [round(v, 3) for v in adj["adjustment"]])
        rows.append(["adjusted_total"] + [round(v, 3) for v in adj["total"]])
    _write_csv(os.path.join(out_dir, "table.csv"), ["method"] + cols, rows, fmt="%.3f")

    samples = artifacts.get("samples")
    if samples is not None:
        _write_csv(os.path.join(out_dir, "samples.csv"), cols,
                   [list(map(float, row)) for row in samples])
        if doc.get("sampler", {}).get("method") in ("mh", "hmc"):
            _write_csv(os.path.join(out_dir, "chain.csv"), cols[:-1],
                       [list(map(float, row[:-1])) for row in samples])
    if "levelset" in artifacts:
        mask = artifacts["levelset"].astype(int)
        _write_csv(os.path.join(out_dir, "levelset.csv"),
                   [f"cell_{j}" for j in range(mask.shape[-1])] if mask.ndim > 1 else ["cell_0"],
                   mask.reshape(mask.shape[0], -1).tolist())


def run_experiment(config_path, output=None):
    """Load a config, run the pipeline, write the report; returns exit code."""
    doc, config_hash = load_config(config_path)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    report, artifacts, warnings = run_pipeline(doc, base_dir)
    out_dir = output or doc.get("output", "alloc_lab_out")
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(base_dir, out_dir)
    write_report(report, artifacts, doc, config_hash, out_dir)
    return 2 if warnings else 0


# ---------------------------------------------------------------------------
# CSV ingest and export
# ---------------------------------------------------------------------------

def ingest_csv(path, cols=None, flip=None, resample_n=None, seed=0):
    """Headered CSV -> loss matrix; returns (matrix, dropped-row count)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError("empty file")
            raw = list(reader)
    except FileNotFoundError:
        raise DataError(f"file not found: {path}")
    if cols is None:
        idx = list(range(len(header)))
    else:
        idx = []
        for c in cols:
            if isinstance(c, int):
                idx.append(c)
            elif c in header:
                idx.append(header.index(c))
            else:
                raise DataError(f"column {c!r} not in header {header}")
    if len(idx) < 2:
        raise DataError("need at least 2 numeric columns")
    rows = []
    dropped = 0
    for rnum, row in enumerate(raw):
        if not row:
            dropped += 1
            continue
        try:
            vals = [row[i].strip() for i in idx]
        except IndexError:
            raise DataError(f"row {rnum + 2}: too few columns")
        if any(v == "" for v in vals):
            dropped += 1
            continue
        try:
            rows.append([float(v) for v in vals])
        except ValueError:
            raise DataError(f"row {rnum + 2}: non-numeric cell")
    if not rows:
        raise DataError("no usable data rows")
    data = np.array(rows, dtype=float)
    if flip:
        for j in flip:
            data[:, j] = -data[:, j]
    if resample_n:
        rng = np.random.default_rng(seed)
        data = data[rng.integers(0, data.shape[0], size=int(resample_n))]
    return data, dropped


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
        with open(src, "r", encoding="utf-8") as fh, \
                open(out_path, "w", encoding="utf-8") as out:
            out.write(fh.read())


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
    p_ing.add_argument("--flip", nargs="*", type=int, default=None)
    p_ing.add_argument("--resample-n", type=int, default=None)
    p_ing.add_argument("--seed", type=int, default=0)

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
            data, dropped = ingest_csv(args.csv, cols=cols, flip=args.flip,
                                       resample_n=args.resample_n, seed=args.seed)
            print(f"rows={data.shape[0]} cols={data.shape[1]} dropped={dropped}")
            return 2 if dropped else 0
        if args.verb == "export":
            export_plotdata(args.report, args.kind, args.out)
            print(f"wrote {args.out}")
            return 0
        if args.verb == "check":
            doc, digest = load_config(args.config)
            build_model(doc, os.path.dirname(os.path.abspath(args.config)))
            print(f"config ok (sha256 {digest[:12]})")
            return 0
    except AllocLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: their configs, generated inputs, ESS and checks.

Each workload's config lives in perfbench/configs/ and was derived from a
shipped config (README.md says how).  A round gives the config a seed drawn
from the benchmark seed and the round number; the program sees only the
config file and, for empirical-kde, the generated loss CSV.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference" / "slab-negdep.json"

# Generated loss file for empirical-kde: lognormal margins under a Gaussian
# copula, one row per period, 6 decimals, with an integer id column first.
LOSS_COLUMNS = ("bank", "insurance", "fund")
LOSS_ROWS = 100_000
LOSS_LOG_MEAN = np.array([1.6, 1.2, 1.3])
LOSS_LOG_SD = np.array([0.5, 0.6, 0.55])
LOSS_CORR = np.array([[1.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 1.0]])

# The check that fails on every round because of a known program fault:
# run_pipeline weights scenarios by the log-density of each cluster's
# highest-density member, not by the density at the published location.  It
# runs on a fixed, seed-independent cut of slab-negdep that reports two modes,
# so that its outcome does not depend on --seed.
KNOWN_FAULT = "weights_at_mode_locations"
FAULT_RUN = {"seed": 20240801, "replications": 2, "n": 250}


def child_seed(seed, *keys):
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def base_config(name):
    with open(CONFIGS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def write_losses(path, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    z = rng.standard_normal((LOSS_ROWS, 3)) @ np.linalg.cholesky(LOSS_CORR).T
    x = np.exp(LOSS_LOG_MEAN + LOSS_LOG_SD * z)
    table = np.column_stack([np.arange(1, LOSS_ROWS + 1), x])
    np.savetxt(path, table, fmt=["%d", "%.6f", "%.6f", "%.6f"], delimiter=",",
               header=",".join(("id",) + LOSS_COLUMNS), comments="")


def prepare(name, work, seed):
    """Write the workload's generated inputs into `work`; returns what the
    checks need from them."""
    if name == "empirical-kde":
        path = work / "losses.csv"
        write_losses(path, seed)
        return {"csv": path}
    if name == "slab-negdep":
        with open(REFERENCE, encoding="utf-8") as fh:
            return {"ref": json.load(fh)}
    return {}


def round_config(name, work, seed, i):
    doc = base_config(name)
    doc["seed"] = child_seed(seed, 1, i)
    if name == "empirical-kde":
        doc["model"]["csv"] = str(work / "losses.csv")
    return doc


def fault_config(name):
    """The fixed config of the known-fault check, or None for workloads
    without one.  It is run once per benchmark run, after the timed rounds;
    runs are byte-deterministic for a fixed config, so its report is checked
    in every round."""
    if name != "slab-negdep":
        return None
    doc = base_config(name)
    del doc["levelset"]
    doc["seed"] = FAULT_RUN["seed"]
    doc["replications"] = FAULT_RUN["replications"]
    doc["sampler"]["n"] = FAULT_RUN["n"]
    return doc


def ess(doc, out):
    """Effective conditional samples of one run.

    Slab samples are independent, so every kept sample counts; for a chain it
    is the smallest Geyer ESS over the coordinates of the written chain.
    """
    if doc["sampler"]["method"] == "slab":
        return float(doc["sampler"]["n"] * doc["replications"])
    chain = checks.read_matrix(out / "chain.csv")
    return min(checks.geyer_ess(chain[:, j]) for j in range(chain.shape[1]))


@dataclass
class Round:
    """One run of the workload's config, and what it wrote."""
    index: int
    seed: int
    doc: dict
    out: Path
    run_s: float
    code: int = None
    error: str = None
    polytope: dict = None        # the core polytope the run built, if any

    @cached_property
    def report(self):
        with open(self.out / "report.json", encoding="utf-8") as fh:
            return json.load(fh)

    @cached_property
    def samples(self):
        return checks.read_matrix(self.out / "samples.csv")


def _euler_vs_slab_reference(r, ref):
    doc = r.doc
    if (ref["model"] != doc["model"] or ref["K"] != doc["capital"]["K"]
            or ref["wide"]["delta"] != doc["sampler"]["delta"]):
        return False, "reference was made for another law; rerun make_reference.py"
    n_samples = doc["sampler"]["n"] * doc["replications"]
    return checks.euler_vs_slab_reference(r.report, ref, n_samples)


def _slab_negdep(r, inputs):
    return [
        ("euler_vs_reference", lambda: _euler_vs_slab_reference(r, inputs["ref"])),
        ("levelset_mask", lambda: checks.levelset_mask(
            checks.read_matrix(r.out / "levelset.csv"), r.doc, r.report["capital"])),
        (KNOWN_FAULT, lambda: _weights_on_fault_run(inputs["fault_report"])),
    ]


def _weights_on_fault_run(report):
    if report is None:
        raise RuntimeError("the fixed run did not complete")
    return checks.weights_at_mode_locations(report, fault_config("slab-negdep")["model"])


def _core_hmc(r, inputs):
    rng = np.random.default_rng(np.random.SeedSequence([r.seed, 2]))
    return [
        ("capital_band", lambda: checks.capital_t_band(r.report, r.doc)),
        ("chain_in_core", lambda: checks.chain_in_core(r.samples, r.polytope, r.report, r.doc)),
        ("euler_vs_truncated_t", lambda: checks.euler_vs_truncated_t(
            r.report, r.samples, r.polytope, r.doc, rng)),
        ("mla_near_mode", lambda: checks.mla_near_conditional_mode(
            r.report, r.samples[:, :-1], r.polytope, r.doc)),
    ]


def _loss_rows(inputs):
    """The generated rows, parsed once, after the timed rounds."""
    if "rows" not in inputs:
        inputs["rows"] = checks.read_matrix(inputs["csv"], LOSS_COLUMNS)
    return inputs["rows"]


def _empirical_kde(r, inputs):
    return [
        ("euler_vs_slab_rows", lambda: checks.euler_vs_slab_rows(r.report, _loss_rows(inputs), r.doc)),
        ("capital_band", lambda: checks.capital_row_sum_band(r.report, _loss_rows(inputs), r.doc)),
    ]


WORKLOAD_CHECKS = {
    "slab-negdep": _slab_negdep,
    "core-hmc": _core_hmc,
    "empirical-kde": _empirical_kde,
}


def check_round(name, r, inputs):
    """[(operation, outcome, detail)] for one round: the same operations, in
    the same order, for every round of a workload.  The outcome is "pass",
    "fail" (the check was made and the output missed it) or "error" (the
    check could not be made)."""
    ops = [
        ("completed", lambda: (r.error is None and r.code in (0, 2),
                               r.error or f"exit status {r.code}")),
        ("rows_sum_to_k", lambda: checks.rows_sum_to_k(r.samples, r.report["capital"])),
        ("allocations_sum_to_k", lambda: checks.allocations_sum_to_k(r.report)),
    ] + WORKLOAD_CHECKS[name](r, inputs)
    results = []
    for op, fn in ops:
        if r.error is not None and op != "completed":
            results.append((op, "error", "run did not complete"))
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that cannot be made counts as failed
            results.append((op, "error", f"{type(exc).__name__}: {exc}"))
            continue
        results.append((op, "pass" if ok else "fail", detail))
    return results

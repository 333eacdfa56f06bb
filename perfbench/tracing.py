"""Spans around the calls into each alloc_lab layer, recorded from outside.

`Tracer.install` replaces the names that each caller looks up (a module
global such as `alloc_lab.cli.slab_sample`, or a method on a class) with a
wrapper that records a span: its name, start, end, parent span and one
count taken from the call's arguments or result.  `restore` puts the
originals back, so untraced rounds run without spans.  Spans stay
in memory and are written once, when the run ends.
"""
from __future__ import annotations

import os
import time

import numpy as np


def _rows(x):
    return int(x.shape[0]) if getattr(x, "ndim", 1) == 2 else 1


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _fixed_point_starts(args, kwargs):
    samples, cfg = args[0], args[1]
    return min(_rows(samples), cfg.start_cap)


def targets(al):
    """(owner, attribute, span name, count) for every wrapped call site.

    A count is a function of (args, kwargs, result) or None.
    """
    cli, samplers, modes = al.cli, al.samplers, al.modes
    slab_count = lambda a, k, out: out[1]                      # hit ratio
    sample_count = lambda a, k, out: int(a[1])                 # rows drawn
    return [
        # models
        (al.models.MarginCopula, "sample", "models.sample", sample_count),
        (al.models.EllipticalJoint, "sample", "models.sample", sample_count),
        # conditional
        (al.conditional.ConditionalTarget, "log_density", "conditional.log_density",
         lambda a, k, out: _rows(np.asarray(a[1]))),
        (al.conditional.ConditionalTarget, "grad_log_density", "conditional.grad", None),
        (al.conditional.ConditionalTarget, "lift", "conditional.lift", None),
        # samplers: the CLI and the HMC/MH pilots look up slab_sample apart
        (cli, "slab_sample", "samplers.slab_sample", slab_count),
        (samplers, "slab_sample", "samplers.slab_sample", slab_count),
        (cli, "hmc_reflect_chain", "samplers.hmc",
         lambda a, k, out: (out[1].acceptance_rate, a[2].chain_length)),
        # modes
        (cli, "mean_shift_modes", "modes.mean_shift",
         lambda a, k, out: (len(out), out.converged_fraction, _rows(a[0]))),
        (modes, "mean_shift_fixed_points", "modes.fixed_points",
         lambda a, k, out: _fixed_point_starts(a, k)),
        (modes, "kde_logvalues", "modes.kde_rank", None),
        # allocation
        (cli, "core_polytope", "allocation.core_polytope", None),
        (cli, "euler_allocation", "allocation.euler", None),
        (cli, "multimodality_adjust", "allocation.adjust", None),
        # diagnostics
        (cli, "superlevel_mask", "diagnostics.levelset",
         lambda a, k, out: int(out.size)),
        # cli
        (cli, "ingest_csv", "cli.ingest", lambda a, k, out: int(out[0].shape[0])),
        (cli, "_resolve_capital", "cli.capital", None),
        (cli, "aggregate_modesets", "cli.aggregate", None),
        (cli, "write_report", "cli.write", lambda a, k, out: _dir_bytes(a[4])),
    ]


class Tracer:
    """Spans of one round, in parallel lists indexed by span id."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.count = []
        self._stack = [-1]
        self._saved = []

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            sid = len(self.name)
            self.name.append(name)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self.count.append(None)
            self._stack.append(sid)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.count[sid] = count(args, kwargs, out)
            return out
        return traced

    def install(self, al):
        for owner, attr, name, count in targets(al):
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, count))

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def arrays(self):
        return {
            "name": np.array(self.name),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
        }


def layer_metrics(tr, ess_min):
    """Per-layer figures of one traced round, by the names in BENCHMARK.json."""
    a = tr.arrays()
    dur = a["end"] - a["start"]
    names = a["name"]

    def spans(name):
        return np.flatnonzero(names == name)

    def total(name):
        return float(dur[spans(name)].sum())

    def counts(name):
        return [tr.count[i] for i in spans(name)]

    def ratio(num, den):
        return num / den if den else 0.0

    root = spans("run")[0]
    run_s = float(dur[root])
    top = np.flatnonzero(a["parent"] == root)

    sample_ids = spans("models.sample")
    draws = sum(tr.count[i] for i in sample_ids)
    slab_ids = set(spans("samplers.slab_sample").tolist())
    slab_draws_by_call = {}
    for i in sample_ids:
        if a["parent"][i] in slab_ids:
            p = int(a["parent"][i])
            slab_draws_by_call[p] = slab_draws_by_call.get(p, 0) + tr.count[i]
    slab_draws = sum(slab_draws_by_call.values())
    slab_hits = sum(round(tr.count[p] * n) for p, n in slab_draws_by_call.items())

    hmc = counts("samplers.hmc")
    hmc_s = total("samplers.hmc")
    hmc_iters = sum(c[1] for c in hmc)
    ms = counts("modes.mean_shift")

    return {
        "models.sample_s": total("models.sample"),
        "models.draws": draws,
        "models.draws_per_s": ratio(draws, total("models.sample")),
        "samplers.slab_s": total("samplers.slab_sample"),
        "samplers.slab_draws": slab_draws,
        "samplers.slab_hits": slab_hits,
        "samplers.slab_hit_ratio": ratio(slab_hits, slab_draws),
        "samplers.hmc_s": hmc_s,
        "samplers.hmc_iters": hmc_iters,
        "samplers.hmc_s_per_iter": ratio(hmc_s, hmc_iters),
        "samplers.hmc_acceptance": float(np.mean([c[0] for c in hmc])) if hmc else 0.0,
        "samplers.hmc_ess_min": ess_min if hmc else 0.0,
        "conditional.logdens_calls": int(spans("conditional.log_density").size),
        "conditional.logdens_points": int(sum(counts("conditional.log_density"))),
        "conditional.logdens_s": total("conditional.log_density"),
        "conditional.grad_calls": int(spans("conditional.grad").size),
        "conditional.grad_s": total("conditional.grad"),
        "conditional.lift_calls": int(spans("conditional.lift").size),
        "conditional.lift_s": total("conditional.lift"),
        "modes.mean_shift_s": total("modes.mean_shift"),
        "modes.fixed_point_s": total("modes.fixed_points"),
        "modes.kde_rank_s": total("modes.kde_rank"),
        "modes.starts": int(sum(counts("modes.fixed_points"))),
        "modes.samples": int(sum(c[2] for c in ms)),
        "modes.converged_fraction": float(np.mean([c[1] for c in ms])) if ms else 0.0,
        "modes.count": float(np.mean([c[0] for c in ms])) if ms else 0.0,
        "allocation.core_polytope_s": total("allocation.core_polytope"),
        "allocation.euler_s": total("allocation.euler"),
        "allocation.adjust_s": total("allocation.adjust"),
        "diagnostics.levelset_s": total("diagnostics.levelset"),
        "diagnostics.grid_points": int(sum(counts("diagnostics.levelset"))),
        "cli.ingest_s": total("cli.ingest"),
        "cli.ingest_rows": int(sum(counts("cli.ingest"))),
        "cli.capital_s": total("cli.capital"),
        "cli.aggregate_s": total("cli.aggregate"),
        "cli.write_s": total("cli.write"),
        "cli.write_bytes": int(sum(counts("cli.write"))),
        "trace.run_s": run_s,
        "trace.coverage": float(dur[top].sum()) / run_s,
    }

"""alloc-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is slab-negdep, core-hmc, empirical-kde, or `all`, which runs each of
them untraced and traced, one after another, in child processes.

A run writes the workload's inputs, times three fresh-process set-ups, then
runs the workload's config through `alloc_lab.cli.run_experiment` in
rounds, a new seed each round, until S seconds have passed.  Every round's
outputs are checked apart from the program (checks.py) once the timing is
over.  With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones, with the tracing overhead.  Each metric is printed on a
line of its own, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh interpreter that imports alloc_lab and loads and validates a config,
# then prints the monotonic clock, which the parent shares.
SETUP_CHILD = """import sys, time
sys.path.insert(0, sys.argv[1])
from alloc_lab import cli
cli.load_config(sys.argv[2])
print(time.monotonic())
"""


def limit_threads():
    """BLAS pools no larger than the CPUs this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(config_path):
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) - t0


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


class Runner:
    """Rounds of one workload in this process."""

    def __init__(self, al, wl, name, seed, work):
        self.al, self.wl, self.name, self.seed, self.work = al, wl, name, seed, work
        self.polytopes = []
        build = al.cli.core_polytope

        # The chain-state checks need the core polytope that the run built.
        def keep_polytope(*args, **kwargs):
            poly, K = build(*args, **kwargs)
            self.polytopes.append({"K": poly.K, "constraints": poly.constraints})
            return poly, K

        al.cli.core_polytope = keep_polytope

    def _write(self, doc, rdir):
        rdir.mkdir()
        cfg = rdir / "config.json"
        write_json(cfg, doc)
        return str(cfg), rdir / "out"

    def run_fixed(self, doc, rdir):
        """Run a config outside the timed rounds; returns its report, or None
        if the run did not complete."""
        cfg, out = self._write(doc, rdir)
        try:
            code = self.al.cli.run_experiment(cfg, output=str(out))
            if code not in (0, 2):
                raise RuntimeError(f"exit status {code}")
            with open(out / "report.json", encoding="utf-8") as fh:
                return json.load(fh)
        except Exception:
            traceback.print_exc()
            return None

    def round(self, i, config_index, tracer=None):
        doc = self.wl.round_config(self.name, self.work, self.seed, config_index)
        cfg, out = self._write(doc, self.work / f"round-{i}")
        run = self.al.cli.run_experiment
        if tracer is not None:
            tracer.install(self.al)
            run = tracer.wrap("run", run, None)
        self.polytopes.clear()
        code = error = None
        t0 = time.perf_counter()
        try:
            code = run(cfg, output=str(out))
        except Exception:  # the run failed: its operations count as failed
            error = traceback.format_exc()
        run_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
        return self.wl.Round(i, doc["seed"], doc, out, run_s, code, error,
                             self.polytopes[0] if self.polytopes else None)


def run_workload(args, bench):
    import numpy as np
    import tracing
    import workloads as wl
    import alloc_lab.cli  # noqa: F401  (loads every layer module)
    import alloc_lab as al

    if Path(al.__file__).resolve().parent != SRC / "alloc_lab":
        raise SystemExit(f"error: alloc_lab was imported from {al.__file__}, not {SRC}")

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = wl.prepare(args.workload, work, args.seed)

    setup_cfg = work / "setup.json"
    write_json(setup_cfg, wl.round_config(args.workload, work, args.seed, 0))
    setup_s = statistics.median(measure_setup(setup_cfg) for _ in range(SETUP_REPEATS))

    runner = Runner(al, wl, args.workload, args.seed, work)
    rounds, tracers = [], {}
    t_start = time.perf_counter()
    while (not rounds or (args.trace and len(rounds) % 2)
           or time.perf_counter() - t_start < args.seconds):
        i = len(rounds)
        if args.trace:
            # pairs of rounds run one config, untraced and then traced
            tracer = tracing.Tracer() if i % 2 else None
            rounds.append(runner.round(i, i // 2, tracer))
            if tracer is not None:
                tracers[i] = tracer
        else:
            rounds.append(runner.round(i, i))
        print(f"round {i}: run_s {rounds[-1].run_s:.4f}", file=sys.stderr)
        if i == 0:
            # what one `alloc-lab run` holds, whatever the number of rounds
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fault_doc = wl.fault_config(args.workload)
    if fault_doc is not None:
        inputs["fault_report"] = runner.run_fixed(fault_doc, work / "fault")

    results = [wl.check_round(args.workload, r, inputs) for r in rounds]
    attempted = sum(len(res) for res in results)
    failed = 0
    correct = True
    for r, res in zip(rounds, results):
        for op, outcome, detail in res:
            if outcome != "pass":
                failed += 1
                # only the known fault itself is exempt, not a check that
                # could not be made
                correct &= op == wl.KNOWN_FAULT and outcome == "fail"
                print(f"round {r.index} {op} {outcome.upper()}: {detail}", file=sys.stderr)

    ess = [wl.ess(r.doc, r.out) if r.error is None else 0.0 for r in rounds]
    if args.trace:
        traced = list(tracers)
        per_round = [tracing.layer_metrics(tracers[i], ess[i]) for i in traced]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["trace.overhead"] = statistics.median(
            m["trace.run_s"] / rounds[i - 1].run_s for i, m in zip(traced, per_round)) - 1.0
        np.savez_compressed(work / "trace.npz", **{
            f"round{i}_{k}": v for i in traced for k, v in tracers[i].arrays().items()})
    else:
        run_s = statistics.median(r.run_s for r in rounds)
        values = {
            "run_s": run_s,
            "setup_s": setup_s,
            # the effective samples of a typical run, per second of a typical
            # run: the mean damps the ESS estimate's noise, the median of the
            # round times a round slowed by the host
            "ess_per_s": statistics.fmean(ess) / run_s,
            "peak_rss_mb": peak_rss_mb,
        }
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    metrics = {k: {"value": values[k], "unit": units[k]} for k in wanted}
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {failed} failed")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    write_json(work / f"result-trace{args.trace}.json", result)
    print(json.dumps(result))
    return 0


def run_all(args, bench):
    """Every workload, untraced then traced, each in a child process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for k, m in res["metrics"].items():
                total["metrics"][f"{w['name']}/{k}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alloc_lab" / "__init__.py").is_file():
        print(f"error: no alloc_lab source under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    limit_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args, bench)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())

"""Config loading, the batch pipeline, CSV ingest/export, and the entry point."""
import csv
import json
import os

import numpy as np
import pytest

from alloc_lab.cli import (
    aggregate_modesets,
    export_plotdata,
    ingest_csv,
    load_config,
    main,
    run_experiment,
    run_pipeline,
    validate_config,
)
from alloc_lab.errors import ConfigurationError, DataError, NotAvailableError
from alloc_lab.modes import ModeSet

from conftest import REF_CORR


def small_config(tmp_path, **overrides):
    doc = {
        "model": {
            "kind": "elliptical",
            "mu": [0.0, 0.0, 0.0],
            "sigma": REF_CORR.tolist(),
            "generator": "student_t",
            "nu": 5.0,
        },
        "capital": {"rule": "fixed", "K": 8.0},
        "sampler": {"method": "slab", "n": 300, "delta": 0.5},
        "replications": 2,
        "seed": 123,
        "output": "out",
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path), doc


def write_losses(path, n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = np.exp(0.3 * rng.standard_normal((n, 3)))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "a", "b", "c"])
        for i, row in enumerate(x):
            w.writerow([f"2024-01-{i % 28 + 1:02d}"] + [f"{v:.6f}" for v in row])
    return x


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_load_config_and_hash(tmp_path):
    path, _ = small_config(tmp_path)
    doc, digest = load_config(path)
    assert doc["capital"]["K"] == 8.0
    assert len(digest) == 64
    # the digest is over the raw bytes
    doc2, digest2 = load_config(path)
    assert digest == digest2


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(ConfigurationError) as e:
        load_config(str(bad))
    assert "line" in str(e.value)


def test_validate_config_rules():
    base = {"model": {}, "capital": {"rule": "fixed", "K": 1.0}}
    validate_config(base)
    with pytest.raises(ConfigurationError):
        validate_config({"capital": {"rule": "fixed", "K": 1.0}})
    with pytest.raises(ConfigurationError):
        validate_config({"model": {}, "capital": {"rule": "es"}})
    with pytest.raises(ConfigurationError):
        validate_config({"model": {}, "capital": {"rule": "fixed"}})
    with pytest.raises(ConfigurationError):
        validate_config({"model": {}, "capital": {"rule": "var"}})
    with pytest.raises(ConfigurationError):
        validate_config(dict(base, sampler={"method": "gibbs"}))
    with pytest.raises(ConfigurationError):
        validate_config(dict(base, replications=0))


@pytest.mark.parametrize("sampler,key", [
    ({"n": 0}, "sampler.n"),
    ({"n": -5}, "sampler.n"),
    ({"n": "many"}, "sampler.n"),
    ({"delta": float("nan")}, "sampler.delta"),
    ({"delta": float("inf")}, "sampler.delta"),
    ({"delta": 0.0}, "sampler.delta"),
    ({"delta": "wide"}, "sampler.delta"),
])
def test_validate_config_rejects_bad_slab(sampler, key):
    base = {"model": {}, "capital": {"rule": "fixed", "K": 1.0}}
    with pytest.raises(ConfigurationError, match=key):
        validate_config(dict(base, sampler=sampler))
    # the same keys mean nothing to a chain sampler
    validate_config(dict(base, sampler=dict(sampler, method="hmc")))


LOMAX_PAIR = {
    "kind": "margin_copula",
    "margins": [{"type": "lomax", "shape": 3.0, "scale": 1.0},
                {"type": "lomax", "shape": 3.0}],
}


@pytest.mark.parametrize("override,key", [
    ({"model": {"kind": "elliptical", "mu": [0.0, 0.0, 0.0]}}, "model.sigma"),
    ({"model": LOMAX_PAIR}, "model.margins[1].scale"),
    ({"replications": "many"}, "replications"),
    ({"replications": 2.5}, "replications"),
    ({"sampler": {"method": "hmc", "mass": "diag"}}, "sampler.mass"),
    ({"sampler": {"method": "hmc", "mass": [1.0, -1.0]}}, "sampler.mass"),
])
def test_check_names_the_bad_key(tmp_path, capsys, override, key):
    path, _ = small_config(tmp_path, **override)
    assert main(["check", path]) == 1
    assert key in capsys.readouterr().err


def test_validate_config_rejects_non_finite_K():
    with pytest.raises(ConfigurationError, match="capital.K"):
        validate_config({"model": {}, "capital": {"rule": "fixed", "K": float("nan")}})


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def test_pipeline_slab_report(tmp_path):
    _, doc = small_config(tmp_path)
    report, artifacts, warnings = run_pipeline(doc)
    assert report["capital"] == 8.0
    assert report["replications"] == 2
    euler = np.array(report["euler"]["mean"])
    assert abs(euler.sum() - 8.0) < 1e-6
    assert report["modes"]["count"] == 1
    assert report["mla"] is not None
    assert artifacts["samples"].shape == (300, 3)


def test_pipeline_var_capital(tmp_path):
    _, doc = small_config(tmp_path, capital={"rule": "var", "p": 0.95,
                                             "n_cal": 100_000},
                          replications=1)
    report, _, _ = run_pipeline(doc)
    # 95% quantile of a t5 sum with scale sqrt(17/3)
    from scipy import stats
    import math
    expected = stats.t(5.0, scale=math.sqrt(17.0 / 3.0)).ppf(0.95)
    assert abs(report["capital"] - expected) < 0.15


def test_pipeline_mh_chain_diagnostics(tmp_path):
    _, doc = small_config(tmp_path,
                          sampler={"method": "mh", "chain_length": 3000},
                          replications=1)
    report, artifacts, _ = run_pipeline(doc)
    assert 0.0 < report["chain"]["acceptance"] < 1.0
    assert len(report["chain"]["ess"]) == 2
    assert np.max(np.abs(artifacts["samples"].sum(axis=1) - 8.0)) < 1e-9


def test_pipeline_hmc_with_pilot_mass(tmp_path):
    _, doc = small_config(tmp_path,
                          sampler={"method": "hmc", "chain_length": 800,
                                   "epsilon": 0.2, "steps": 8,
                                   "mass": "pilot"},
                          replications=1)
    report, _, _ = run_pipeline(doc)
    assert report["chain"]["acceptance"] > 0.6


def test_pipeline_hmc_draws_one_pilot_per_replication(tmp_path, monkeypatch):
    import alloc_lab.cli
    import alloc_lab.samplers
    calls = []
    original = alloc_lab.samplers.slab_sample

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (alloc_lab.cli, alloc_lab.samplers):
        monkeypatch.setattr(module, "slab_sample", counted)
    _, doc = small_config(tmp_path,
                          sampler={"method": "hmc", "chain_length": 200,
                                   "epsilon": 0.2, "steps": 4, "mass": "pilot"},
                          modes={"enabled": False})
    report, _, _ = run_pipeline(doc)
    assert report["replications"] == 2
    assert len(calls) == 2


def test_pipeline_levelset_artifact(tmp_path):
    _, doc = small_config(tmp_path, replications=1,
                          levelset={"ranges": [[-2.0, 6.0], [-2.0, 6.0]],
                                    "level": 0.0004, "resolution": 40})
    _, artifacts, _ = run_pipeline(doc)
    mask = artifacts["levelset"]
    assert mask.shape == (40, 40)
    assert 0 < mask.sum() < mask.size


def test_pipeline_deterministic(tmp_path):
    _, doc = small_config(tmp_path)
    r1, a1, _ = run_pipeline(doc)
    r2, a2, _ = run_pipeline(doc)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    np.testing.assert_array_equal(a1["samples"], a2["samples"])


# ---------------------------------------------------------------------------
# Mode aggregation across replications
# ---------------------------------------------------------------------------

def make_ms(locs, logfs, K):
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    logfs = np.asarray(logfs, dtype=float)
    return ModeSet(locations=locs, densities=np.exp(logfs), log_densities=logfs,
                   basin_counts=np.full(len(logfs), 10), K=K, merge_radius=0.1,
                   unique_global=len(logfs) == 1, converged_fraction=1.0,
                   convergence_warning=False)


def test_aggregate_modesets_clusters_and_support_filter():
    K = 10.0
    stable = [[2.0, 3.0, 5.0], [2.1, 2.9, 5.0], [1.9, 3.1, 5.0]]
    sets = [make_ms([stable[i]], [0.0], K) for i in range(3)]
    # a one-off spurious mode in a single replication
    sets[1] = make_ms([stable[1], [8.0, 1.0, 1.0]], [0.0, -1.0], K)
    out = aggregate_modesets(sets, radius=1.0)
    assert len(out) == 1
    assert out[0]["support"] == 1.0
    np.testing.assert_allclose(out[0]["location"], [2.0, 3.0, 5.0], atol=0.05)
    assert np.all(out[0]["se"] >= 0.0) and np.any(out[0]["se"] > 0.0)


def test_aggregate_modesets_keeps_recurring_modes():
    K = 10.0
    a, b = [2.0, 3.0, 5.0], [6.0, 2.0, 2.0]
    sets = [make_ms([a, b], [0.0, -0.5], K) for _ in range(4)]
    out = aggregate_modesets(sets, radius=1.0)
    assert len(out) == 2
    # descending cluster density
    assert out[0]["log_density"] >= out[1]["log_density"]


# ---------------------------------------------------------------------------
# Ingest and export
# ---------------------------------------------------------------------------

def test_ingest_csv_columns_and_flip(tmp_path):
    path = tmp_path / "losses.csv"
    x = write_losses(path)
    data, dropped = ingest_csv(str(path), cols=["a", "b", "c"])
    assert dropped == 0
    np.testing.assert_allclose(data, np.round(x, 6), atol=1e-9)
    flipped, _ = ingest_csv(str(path), cols=["a", "b", "c"], flip=[0])
    np.testing.assert_allclose(flipped[:, 0], -data[:, 0])
    byidx, _ = ingest_csv(str(path), cols=[1, 2, 3])
    np.testing.assert_array_equal(byidx, data)


def test_ingest_csv_dropped_and_errors(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n1.0,2.0\n,3.0\n\n4.0,5.0\n")
    data, dropped = ingest_csv(str(path))
    assert data.shape == (2, 2) and dropped == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,zzz\n")
    with pytest.raises(DataError):
        ingest_csv(str(bad))
    with pytest.raises(DataError):
        ingest_csv(str(tmp_path / "nope.csv"))
    one = tmp_path / "one.csv"
    one.write_text("a\n1.0\n")
    with pytest.raises(DataError):
        ingest_csv(str(one))
    with pytest.raises(DataError):
        ingest_csv(str(path), cols=["a", "zzz"])


def test_ingest_csv_resample(tmp_path):
    path = tmp_path / "losses.csv"
    write_losses(path)
    data, _ = ingest_csv(str(path), cols=["a", "b", "c"], resample_n=500, seed=1)
    assert data.shape == (500, 3)


def test_export_plotdata_errors(tmp_path):
    with pytest.raises(NotAvailableError):
        export_plotdata(str(tmp_path), "scatter", str(tmp_path / "o.csv"))
    with pytest.raises(NotAvailableError):
        export_plotdata(str(tmp_path), "wireframe", str(tmp_path / "o.csv"))


def test_export_plotdata_all_kinds(tmp_path):
    path, _ = small_config(tmp_path, replications=1,
                           sampler={"method": "hmc", "chain_length": 200,
                                    "epsilon": 0.2, "steps": 4},
                           modes={"enabled": False},
                           levelset={"ranges": [[-2.0, 6.0], [-2.0, 6.0]],
                                     "level": 0.0004, "resolution": 20})
    res = tmp_path / "res"
    assert main(["run", path, "--output", str(res)]) == 0
    for kind, name in (("levelset", "levelset.csv"), ("chain-trace", "chain.csv")):
        out = tmp_path / f"{kind}.csv"
        export_plotdata(str(res), kind, str(out))
        # a text-mode copy: the csv module's CRLF line ends become LF
        assert out.read_bytes() == (res / name).read_bytes().replace(b"\r\n", b"\n")
    export_plotdata(str(res), "scatter", str(tmp_path / "scatter.csv"))
    rows = (tmp_path / "scatter.csv").read_text().splitlines()
    assert rows[0] == "x1,x2" and len(rows) == 181
    empty = tmp_path / "empty"
    empty.mkdir()
    for kind in ("levelset", "chain-trace"):
        with pytest.raises(NotAvailableError):
            export_plotdata(str(empty), kind, str(tmp_path / "o.csv"))


# ---------------------------------------------------------------------------
# Entry point end to end
# ---------------------------------------------------------------------------

def test_main_run_writes_report(tmp_path):
    path, _ = small_config(tmp_path, replications=1)
    rc = main(["run", path, "--output", str(tmp_path / "res")])
    assert rc == 0
    with open(tmp_path / "res" / "report.json") as fh:
        report = json.load(fh)
    assert report["capital"] == 8.0
    assert report["provenance"]["seed"] == 123
    assert len(report["provenance"]["config_sha256"]) == 64
    table = (tmp_path / "res" / "table.csv").read_text().splitlines()
    assert table[0] == "method,X1,X2,X3"
    assert any(line.startswith("euler,") for line in table)
    assert (tmp_path / "res" / "samples.csv").exists()


def test_main_run_determinism_bytes(tmp_path):
    path, _ = small_config(tmp_path, replications=1)
    assert main(["run", path, "--output", str(tmp_path / "r1")]) == 0
    assert main(["run", path, "--output", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    b2 = (tmp_path / "r2" / "report.json").read_bytes()
    assert b1 == b2


def test_main_export_scatter(tmp_path):
    path, _ = small_config(tmp_path, replications=1)
    main(["run", path, "--output", str(tmp_path / "res")])
    out = tmp_path / "scatter.csv"
    assert main(["export", str(tmp_path / "res"), "--kind", "scatter",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "x1,x2"
    assert len(rows) == 301


def test_main_ingest_exit_codes(tmp_path, capsys):
    path = tmp_path / "losses.csv"
    write_losses(path)
    assert main(["ingest", str(path), "--cols", "a", "b", "c"]) == 0
    assert "rows=120" in capsys.readouterr().out
    gaps = tmp_path / "gaps.csv"
    gaps.write_text("a,b\n1.0,2.0\n,3.0\n4.0,5.0\n")
    assert main(["ingest", str(gaps)]) == 2


def test_main_error_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_check_config(tmp_path, capsys):
    path, _ = small_config(tmp_path)
    assert main(["check", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_shipped_configs_check():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("m1.cfg", "m2.cfg", "m3.cfg", "m4.cfg", "core_t5.cfg",
                 "empirical.cfg"):
        assert main(["check", os.path.join(root, name)]) == 0, name


@pytest.mark.parametrize("name", ["empirical"] + [
    pytest.param(m, marks=pytest.mark.slow) for m in ("m1", "m2", "m3", "m4", "core_t5")])
def test_shipped_config_reproduces_table(tmp_path, name):
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    run_experiment(os.path.join(root, f"{name}.cfg"), output=str(tmp_path))
    # a chain reproduces draw for draw; slab samples do not (see README)
    for fname in ("table.csv", "chain.csv") if name == "core_t5" else ("table.csv",):
        with open(os.path.join(root, f"out_{name}", fname), "rb") as fh:
            shipped = fh.read()
        with open(tmp_path / fname, "rb") as fh:
            assert fh.read() == shipped, fname

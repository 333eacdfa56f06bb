"""Config loading, the batch pipeline, CSV ingest/export, and the entry point."""
import csv
import json
import os
import re
import signal
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from alloc_lab import cli
from alloc_lab.cli import (
    aggregate_modesets,
    build_model,
    export_plotdata,
    ingest_csv,
    load_config,
    main,
    run_experiment,
    run_pipeline,
    validate_config,
)
from alloc_lab.errors import (
    AllocLabError,
    ConfigurationError,
    DataError,
    EfficiencyError,
    NotAvailableError,
)
from alloc_lab.models import _MARGIN_BUILDERS, MODEL_KEYS, model_from_config
from alloc_lab.modes import ModeSet, scenario_weights

from conftest import REF_CORR

EXAMPLE_CSV = os.path.join(os.path.dirname(__file__), "..", "configs", "losses_example.csv")


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
    ({"sampler": {"method": "hmc", "chain_length": "long"}}, "sampler.chain_length"),
    ({"sampler": {"method": "hmc", "steps": "many"}}, "sampler.steps"),
    ({"sampler": {"method": "hmc", "epsilon": -1}}, "sampler.epsilon"),
    ({"sampler": {"method": "hmc", "burn_in": 20000}}, "sampler.burn_in"),
    ({"sampler": {"method": "mh", "chain_length": 0}}, "sampler.chain_length"),
    ({"sampler": {"method": "mh", "burn_in": -1}}, "sampler.burn_in"),
    ({"sampler": {"method": "mh", "proposal": "hamiltonian"}}, "sampler.proposal"),
    ({"sampler": {"method": "mh", "thinning": 2.5}}, "sampler.thinning"),
    ({"modes": {"tol": "tiny"}}, "modes.tol"),
    ({"modes": {"tol": -1}}, "modes.tol"),
    ({"modes": {"tol": True}}, "modes.tol"),
    ({"modes": {"max_iter": -3}}, "modes.max_iter"),
    ({"modes": {"max_iter": 2.5}}, "modes.max_iter"),
    ({"modes": {"max_iter": True}}, "modes.max_iter"),
    ({"modes": {"cluster_radius": -2}}, "modes.cluster_radius"),
    ({"modes": {"cluster_radius": float("inf")}}, "modes.cluster_radius"),
    ({"modes": 5}, "modes must be"),
    ({"sampler": "slab"}, "sampler must be"),
    ({"allocate": [1]}, "allocate must be"),
    ({"capital": "var"}, "capital must be"),
    ({"levelset": 3}, "levelset must be"),
    ({"capital": {"rule": "var", "p": 1.5}}, "capital.p"),
    ({"capital": {"rule": "var", "p": 0}}, "capital.p"),
    ({"capital": {"rule": "var", "p": True}}, "capital.p"),
    ({"capital": {"rule": "var", "p": 0.9, "n_cal": "x"}}, "capital.n_cal"),
    ({"capital": {"rule": "var", "p": 0.9, "n_cal": 0}}, "capital.n_cal"),
    ({"capital": {"rule": "var", "p": 0.9, "n_cal": 1e5}}, "capital.n_cal"),
    ({"seed": "abc"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": True}, "seed"),
    ({"allocate": {"lambda": -1}}, "allocate.lambda"),
    ({"allocate": {"lambda": float("nan")}}, "allocate.lambda"),
    ({"allocate": {"lambda": False}}, "allocate.lambda"),
    ({"levelset": {"ranges": [[0, 8], [0, 8]], "level": "x"}}, "levelset.level"),
    ({"levelset": {"ranges": [[0, 8], [0, 8]], "level": 0}}, "levelset.level"),
    ({"levelset": {"ranges": [[0, 8], [0, 8]]}}, "levelset.level"),
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "cols": ["bank", "fund"],
                "flip": [5]}}, "flip"),
    ({"levelset": {"level": 0.01}}, "levelset.ranges"),
    ({"levelset": {"ranges": "abc", "level": 0.01}}, "levelset.ranges"),
    ({"levelset": {"ranges": [[0, 8], [8, 0]], "level": 0.01}}, "levelset.ranges"),
    ({"levelset": {"ranges": [[0, 8], [0, "x"]], "level": 0.01}}, "levelset.ranges"),
    ({"levelset": {"ranges": [[0, 8]], "level": 0.01}}, "levelset.ranges"),
    ({"levelset": {"ranges": [[0, 8]] * 3, "level": 0.01}}, "levelset.ranges"),
    ({"levelset": {"ranges": [[0, 8], [0, 8]], "level": 0.01, "resolution": "x"}},
     "levelset.resolution"),
    ({"levelset": {"ranges": [[0, 8], [0, 8]], "level": 0.01, "resolution": 8}},
     "levelset.resolution"),
    ({"levelset": {"ranges": [[0, 8], [0, 8]], "level": 0.01, "resolution": 40.0}},
     "levelset.resolution"),
    ({"modes": {"enabled": "no"}}, "modes.enabled"),
    ({"allocate": {"mla": "false"}}, "allocate.mla"),
    ({"allocate": {"adjust": 1}}, "allocate.adjust"),
    ({"sampler": {"method": "slab", "standardize": "no"}}, "sampler.standardize"),
    ({"capital": {"rule": "fixed", "K": True}}, "capital.K"),
    ({"output": 5}, "output"),
    ({"sampler": {"method": "slab", "core": True}}, "sampler.core"),
    ({"sampler": {"method": "hmc", "core": True}}, "sampler.core"),
    ({"capital": {"rule": "var", "p": 0.9}, "sampler": {"method": "slab", "core": True}},
     "sampler.core"),
    ({"capital": {"rule": "var", "p": 0.9}, "sampler": {"method": "hmc", "core": "yes"}},
     "sampler.core"),
    ({"model": 5}, "model must be"),
    ({"model": {"kind": "margin_copula", "margins": 5}}, "model.margins"),
    ({"model": {"kind": "margin_copula", "margins": [5]}}, "model.margins[0]"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "lomax", "shape": "abc", "scale": 1.0}])},
     "model.margins[0].shape"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "lomax", "shape": "2.5", "scale": 1.0}])},
     "model.margins[0].shape"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "lomax", "shape": True, "scale": 1.0}])},
     "model.margins[0].shape"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "normal", "mean": "x"}])},
     "model.margins[0].mean"),
    ({"model": {"kind": "elliptical", "mu": [0.0, 0.0, 0.0], "sigma": REF_CORR.tolist(),
                "generator": "student_t", "nu": "abc"}}, "model.nu"),
    ({"model": {"kind": "elliptical", "mu": "x", "sigma": REF_CORR.tolist()}}, "model.mu"),
    ({"model": {"kind": "elliptical", "mu": [0.0, float("nan"), 0.0],
                "sigma": REF_CORR.tolist()}}, "model.mu"),
    ({"model": {"kind": "elliptical", "mu": [0.0, 0.0, 0.0],
                "sigma": [[1.0, 0.0], [0.0]]}}, "model.sigma"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "lomax", "shape": 3.0, "scale": 1.0}] * 2,
                    copula="student_t", nu=5.0, corr="x")}, "model.corr"),
    ({"model": {"kind": "empirical"}}, "model.csv"),
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "cols": 5}}, "model.cols"),
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "cols": ["bank", "insurance", "fund"]},
      "capital": {"rule": "fixed", "K": 3.0},
      "levelset": {"ranges": [[0, 8], [0, 8]], "level": 0.01}}, "levelset"),
    # errors of the model constructors carry the key path of their value
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "lomax", "shape": -1.0, "scale": 1.0}] * 2)},
     "model.margins[0]"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "normal"}, {"type": "empirical", "sample": []}])},
     "model.margins[1]"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "weibull"}])}, "model.margins[0].type"),
    ({"model": {"kind": "copula"}}, "model.kind"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "normal"}] * 2, copula="gumbel")},
     "model.copula"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "normal"}] * 2, copula="student_t", nu=0,
                    corr=[[1.0, 0.5], [0.5, 1.0]])}, "model.nu"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "normal"}] * 2, copula="student_t", nu=5,
                    corr=[[2.0, 0.5], [0.5, 1.0]])}, "model.corr"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "normal"}] * 2, copula="student_t", nu=5,
                    corr=[[1.0, 2.0], [2.0, 1.0]])}, "model.corr"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "normal"}] * 2, copula="student_t", nu=5,
                    corr=REF_CORR.tolist())}, "model.margins"),
    ({"model": {"kind": "elliptical", "mu": [0.0, 0.0, 0.0], "sigma": REF_CORR.tolist(),
                "generator": "cauchy"}}, "model.generator"),
    ({"model": {"kind": "elliptical", "mu": [0.0, 0.0, 0.0], "sigma": REF_CORR.tolist(),
                "generator": "student_t", "nu": -1.0}}, "model.nu"),
    ({"model": {"kind": "elliptical", "mu": [0.0, 0.0], "sigma": REF_CORR.tolist()}},
     "model.mu"),
    ({"model": {"kind": "elliptical", "mu": [0.0, 0.0], "sigma": [[1.0, 2.0], [2.0, 1.0]]}},
     "model.sigma"),
    ({"model": {"kind": "elliptical", "mu": [0.0, 0.0], "sigma": [[1.0, 0.5], [0.0, 1.0]]}},
     "model.sigma"),
    ({"model": {"kind": "empirical", "csv": "missing.csv"}}, "model.csv"),
    ({"model": {"kind": "empirical", "csv": "."}}, "model.csv"),
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "cols": ["bank", "x"]}}, "model.cols"),
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "cols": ["bank"]}}, "model.cols"),
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "cols": ["bank", 1.0]}}, "model.cols"),
    # refused by `check`, where the sampler meets the model's d, not after sampling
    ({"sampler": {"method": "hmc", "mass": [1.0]}}, "sampler.mass"),
    ({"sampler": {"method": "hmc", "chain_length": 100}}, "sampler.chain_length"),
    ({"sampler": {"method": "mh", "chain_length": 1000, "thinning": 10}}, "sampler.chain_length"),
    ({"sampler": {"method": "slab", "n": 10}}, "sampler.n"),
    ({"sampler": {"method": "slab", "n": 29}, "modes": {"enabled": False}}, "sampler.n"),
    ({"model": {"kind": "elliptical", "mu": [0.0] * 5, "sigma": np.eye(5).tolist()},
      "sampler": {"method": "slab", "n": 35}}, "sampler.n"),
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "cols": ["bank", "fund"],
                "flip": ["x"]}}, "model.flip"),
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "cols": ["bank", "fund"],
                "flip": [2]}}, "model.flip"),
    # the report directory: the config file itself, or a path below it
    ({"output": "cfg.json"}, "output"),
    ({"output": "cfg.json/out"}, "output"),
    # a model key that its kind or margin type does not read
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "normal"}] * 3, copla="student_t")},
     "model.copla"),
    ({"model": {"kind": "elliptical", "mu": [0.0, 0.0, 0.0], "sigma": REF_CORR.tolist(),
                "generater": "student_t"}}, "model.generater"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "student_t", "df": 4.0, "locc": 1.0}] * 3)},
     "model.margins[0].locc"),
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "fip": [0]}}, "model.fip"),
    # a model of one coordinate, and a fixed K below every point of the support
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "lomax", "shape": 3.0, "scale": 1.0}])},
     "model.margins must be at least 2"),
    ({"model": {"kind": "elliptical", "mu": [0.0], "sigma": [[1.0]]}}, "model.mu must be at least 2"),
    ({"model": dict(LOMAX_PAIR, margins=[{"type": "pareto1", "shape": 2.0, "minimum": 20.0}] * 3),
      "capital": {"rule": "fixed", "K": 40.0}}, "capital.K"),
    # fewer calibration draws than the VaR at p takes, and than a core run takes
    ({"capital": {"rule": "var", "p": 0.99, "n_cal": 50}}, "capital.n_cal must"),
    ({"capital": {"rule": "var", "p": 0.99, "n_cal": 500},
      "sampler": {"method": "hmc", "core": True}}, "capital.n_cal must"),
    # a chain on a model without a density, and a uniform MH proposal on a
    # support without lower ends: run refused both only after drawing
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "cols": ["bank", "insurance", "fund"]},
      "capital": {"rule": "fixed", "K": 3.0}, "sampler": {"method": "hmc"}}, "sampler.method"),
    ({"model": {"kind": "empirical", "csv": EXAMPLE_CSV, "cols": ["bank", "insurance", "fund"]},
      "capital": {"rule": "var", "p": 0.9, "n_cal": 1000}, "sampler": {"method": "mh"}},
     "sampler.method"),
    ({"sampler": {"method": "mh", "proposal": "independent_uniform_simplex"}},
     "sampler.proposal must be 'random_walk'"),
])
def test_check_names_the_bad_key(tmp_path, capsys, override, key):
    path, _ = small_config(tmp_path, **override)
    assert main(["check", path]) == 1
    # key is a key path, or one and the start of its refusal; the path must
    # be followed by its refusal, "<path> must ..." or, from a model builder,
    # "<path>: ...", so that a refusal of a longer path such as
    # <path>[0].scale does not pass
    err = capsys.readouterr().err
    name = key.split(" ")[0]
    assert key in err and (f"{name} must" in err or f"{name}: " in err)


def _largest_example_row_sum():
    data = np.loadtxt(EXAMPLE_CSV, delimiter=",", skiprows=1, usecols=(1, 2, 3))
    return float(data.sum(axis=1).max())


# a model of each kind, and the largest row sum of its support
BOUNDED_MODELS = {
    "elliptical": ({"kind": "elliptical", "mu": [0.0, 0.0, 0.0], "sigma": REF_CORR.tolist()},
                   np.inf),
    "margin_copula": (dict(LOMAX_PAIR, copula="student_t", nu=5.0, corr=REF_CORR.tolist(),
                           margins=[{"type": "empirical", "sample": [0.0, 1.0, 2.5]}] * 3), 7.5),
    "empirical": ({"kind": "empirical", "csv": os.path.abspath(EXAMPLE_CSV),
                   "cols": ["bank", "insurance", "fund"]}, _largest_example_row_sum()),
}


@pytest.mark.parametrize("kind", BOUNDED_MODELS)
def test_check_refuses_a_fixed_K_at_or_above_the_largest_row_sum(tmp_path, capsys, kind):
    # {S = K} is empty, or one corner, at or above the largest row sum
    model, largest = BOUNDED_MODELS[kind]
    for K, refused in ((min(largest, 1e6) - 0.01, False), (largest, True), (largest + 1.0, True)):
        if not np.isfinite(K):
            continue
        path, _ = small_config(tmp_path, model=model, capital={"rule": "fixed", "K": K})
        assert main(["check", path]) == int(refused)
        err = capsys.readouterr().err
        assert ("capital.K must be below the largest row sum" in err) == refused


EMPIRICAL_MODELS = {
    "kind": {"kind": "empirical", "csv": os.path.abspath(EXAMPLE_CSV),
             "cols": ["bank", "insurance", "fund"]},
    "copula": dict(LOMAX_PAIR, margins=[{"type": "lomax", "shape": 3.0, "scale": 1.0}] * 3,
                   copula="empirical",
                   pseudo_obs=np.random.default_rng(8).uniform(size=(400, 3)).tolist()),
}


@pytest.mark.parametrize("method", ["mh", "hmc"])
@pytest.mark.parametrize("empirical", EMPIRICAL_MODELS)
def test_a_chain_on_an_empirical_model_ends_in_a_data_error(tmp_path, capsys, empirical, method):
    # refused before the capital calibration, naming the key
    path, _ = small_config(tmp_path, model=EMPIRICAL_MODELS[empirical],
                           capital={"rule": "var", "p": 0.5, "n_cal": 1000},
                           sampler={"method": method, "chain_length": 200}, replications=1)
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "has no density" in err and "Traceback" not in err
    assert "sampler.method must be 'slab'" in err


def _key_paths(node, keys=()):
    """The keys that lead to each value of a config document, outermost first."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield keys + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, keys + (key,))


def _path(keys):
    """A key path as refusals write it, such as model.margins[0].shape."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


# a mutated key whose refusal may name the other key of a conflict instead:
# null cols select every column, and the file has a date column
CONFLICTS = {"model.cols": ("model.csv",)}


def test_every_mutated_value_passes_check_or_is_refused_naming_its_key():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    unnamed = []
    for name in ("m4", "core_t5", "empirical"):
        with open(os.path.join(root, f"{name}.cfg"), encoding="utf-8") as fh:
            base = json.load(fh)
        for keys in _key_paths(base):
            # the path itself, a prefix of it below its section, or a conflicting key
            names = {_path(keys[:k]) for k in range(min(2, len(keys)), len(keys) + 1)}
            names.update(CONFLICTS.get(_path(keys), ()))
            for value in (None, True, False, 0, -1, 2.5, 1e30, "x", [], {},
                          float("nan"), float("inf")):
                doc = json.loads(json.dumps(base))
                parent = doc
                for key in keys[:-1]:
                    parent = parent[key]
                parent[keys[-1]] = value
                try:
                    cli._model(validate_config(doc), doc, root)
                except AllocLabError as exc:
                    if not any(n in str(exc) for n in names):
                        unnamed.append((name, _path(keys), value, str(exc)))
    assert not unnamed


def test_every_misspelled_run_key_is_refused_naming_its_path():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("m1", "m2", "m3", "m4", "core_t5", "empirical"):
        with open(os.path.join(root, f"{name}.cfg"), encoding="utf-8") as fh:
            base = json.load(fh)
        # the top-level keys, and the keys of each run-level section
        paths = [(key,) for key in base if key != "model"]
        paths += [(s, key) for s in cli.RUN_KEYS if s and s in base for key in base[s]]
        assert len(paths) >= 13
        for keys in paths:
            doc = json.loads(json.dumps(base))
            parent = doc if len(keys) == 1 else doc[keys[0]]
            wrong = keys[-1] + keys[-1][-1]
            parent[wrong] = parent.pop(keys[-1])
            path = ".".join(keys[:-1] + (wrong,))
            with pytest.raises(ConfigurationError, match=re.escape(path)):
                validate_config(doc)


def test_every_misspelled_model_key_is_refused_naming_its_path():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("m1", "m2", "m3", "m4", "core_t5", "empirical"):
        with open(os.path.join(root, f"{name}.cfg"), encoding="utf-8") as fh:
            base = json.load(fh)
        # the keys of model, and of each of its margins
        paths = [("model", key) for key in base["model"]]
        paths += [("model", "margins", i, key)
                  for i, margin in enumerate(base["model"].get("margins", [])) for key in margin]
        assert len(paths) >= 3
        for keys in paths:
            doc = json.loads(json.dumps(base))
            parent = doc
            for key in keys[:-1]:
                parent = parent[key]
            wrong = keys[-1] + keys[-1][-1]
            parent[wrong] = parent.pop(keys[-1])
            # without its kind or type, a mapping is refused naming that key
            last = keys[-1] if keys[-1] in ("kind", "type") else wrong
            with pytest.raises(AllocLabError, match=re.escape(_path(keys[:-1] + (last,)))):
                cli._model(validate_config(doc), doc, root)


def _readme_schema_block():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read().split("### Config schema (JSON)")[1].split("```")[1]


def test_readme_schema_block_lists_every_run_key():
    listed, section = {"": set()}, None
    for line in _readme_schema_block().splitlines():
        top = re.match(r'  "(\w+)":', line)
        if top:
            section = top.group(1)
            listed[""].add(section)
            line = line[top.end():]
        elif not line.startswith("   "):    # the braces around the document
            continue
        listed.setdefault(section, set()).update(re.findall(r'"(\w+)":', line))
    del listed["model"]    # model keys depend on model.kind, and are not run keys
    assert {s: keys for s, keys in listed.items() if keys} == {
        s: set(keys) for s, keys in cli.RUN_KEYS.items()}


def test_readme_schema_block_lists_every_model_and_margin_key():
    # a margin type's keys on its own line; a model kind's from the line that
    # names it to the next kind, its margins aside
    model = _readme_schema_block().split('  "model": ')[1].split('\n  "capital"')[0]
    kinds, margins, kind = {}, {}, None
    for line in model.splitlines():
        keys = set(re.findall(r'"(\w+)":', line))
        margin = re.search(r'\{"type": "(\w+)"', line)
        if margin:
            margins[margin.group(1)] = keys
            continue
        named = re.search(r'"kind": "(\w+)"', line)
        kind = named.group(1) if named else kind
        kinds.setdefault(kind, set()).update(keys)
    assert kinds == {k: set(v) for k, v in dict(MODEL_KEYS, empirical=cli.EMPIRICAL_KEYS).items()}
    assert margins == {t: {"type", *keys} for t, (keys, _) in _MARGIN_BUILDERS.items()}


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
    # one line per call, in a file, so that calls in worker processes count too
    calls = tmp_path / "calls"
    calls.touch()
    original = alloc_lab.samplers.slab_sample

    def counted(*args, **kwargs):
        with open(calls, "a") as fh:
            fh.write("slab_sample\n")
        return original(*args, **kwargs)

    for module in (alloc_lab.cli, alloc_lab.samplers):
        monkeypatch.setattr(module, "slab_sample", counted)
    _, doc = small_config(tmp_path,
                          sampler={"method": "hmc", "chain_length": 200,
                                   "epsilon": 0.2, "steps": 4, "mass": "pilot"},
                          modes={"enabled": False})
    report, _, _ = run_pipeline(doc)
    assert report["replications"] == 2
    assert len(calls.read_text().splitlines()) == 2


def test_pipeline_levelset_artifact(tmp_path):
    _, doc = small_config(tmp_path, replications=1,
                          levelset={"ranges": [[-2.0, 6.0], [-2.0, 6.0]],
                                    "level": 0.0004, "resolution": 40})
    _, artifacts, _ = run_pipeline(doc)
    mask = artifacts["levelset"]
    assert mask.shape == (40, 40)
    assert 0 < mask.sum() < mask.size


def test_pipeline_adjustment_weights_are_the_density_at_the_reported_modes(tmp_path):
    _, doc = small_config(tmp_path, model=M4_MODEL, capital={"rule": "fixed", "K": 40.0},
                          sampler={"method": "slab", "n": 250, "delta": 1.0}, seed=20240801)
    report, _, _ = run_pipeline(doc)
    locations = np.array([c["location"] for c in report["modes"]["clusters"]])
    assert locations.shape[0] >= 2
    w = scenario_weights(model_from_config(M4_MODEL).logpdf(locations))
    assert report["adjustment"]["weights"] == w.tolist()


def test_pipeline_deterministic(tmp_path):
    _, doc = small_config(tmp_path)
    r1, a1, _ = run_pipeline(doc)
    r2, a2, _ = run_pipeline(doc)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    np.testing.assert_array_equal(a1["samples"], a2["samples"])


def test_pipeline_warns_of_a_slab_with_few_distinct_rows(tmp_path):
    # the shipped empirical slab keeps 4 distinct rows of the example CSV
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    with open(os.path.join(root, "empirical.cfg"), encoding="utf-8") as fh:
        doc = json.load(fh)
    _, _, warnings = run_pipeline(doc, root)
    few = [w for w in warnings if "distinct sample rows" in w]
    assert few == [f"replication {r}: 4 distinct sample rows, fewer than 20; the modes "
                   "may change with the replication count" for r in range(10)]
    _, doc = small_config(tmp_path, model=M4_MODEL, capital={"rule": "fixed", "K": 40.0},
                          sampler={"method": "slab", "n": 250, "delta": 1.0}, seed=20240801)
    _, _, warnings = run_pipeline(doc)
    assert not any("distinct sample rows" in w for w in warnings)


@pytest.mark.parametrize("levelset", [
    {"level": 0.01},
    {"ranges": [[0.0, 8.0]], "level": 0.01},
])
def test_pipeline_refuses_a_bad_levelset_before_sampling(tmp_path, monkeypatch, levelset):
    calls = []
    monkeypatch.setattr(cli, "slab_sample", lambda *args: calls.append(args))
    _, doc = small_config(tmp_path, levelset=levelset)
    with pytest.raises(ConfigurationError, match="levelset.ranges"):
        run_pipeline(doc)
    assert calls == []


# ---------------------------------------------------------------------------
# Mode aggregation across replications
# ---------------------------------------------------------------------------

def make_ms(locs, logfs):
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    logfs = np.asarray(logfs, dtype=float)
    return ModeSet(locations=locs, log_densities=logfs,
                   basin_counts=np.full(len(logfs), 10), converged_fraction=1.0,
                   convergence_warning=False)


def test_aggregate_modesets_clusters_and_support_filter():
    stable = [[2.0, 3.0, 5.0], [2.1, 2.9, 5.0], [1.9, 3.1, 5.0]]
    sets = [make_ms([stable[i]], [0.0]) for i in range(3)]
    # a one-off spurious mode in a single replication
    sets[1] = make_ms([stable[1], [8.0, 1.0, 1.0]], [0.0, -1.0])
    out = aggregate_modesets(sets, radius=1.0)
    assert len(out) == 1
    assert out[0]["support"] == 1.0
    np.testing.assert_allclose(out[0]["location"], [2.0, 3.0, 5.0], atol=0.05)
    assert np.all(out[0]["se"] >= 0.0) and np.any(out[0]["se"] > 0.0)


def test_aggregate_modesets_keeps_recurring_modes():
    a, b = [2.0, 3.0, 5.0], [6.0, 2.0, 2.0]
    sets = [make_ms([a, b], [0.0, -0.5]) for _ in range(4)]
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
    flipped = build_model({"model": {"kind": "empirical", "csv": str(path),
                                     "cols": ["a", "b", "c"], "flip": [0]}})
    np.testing.assert_array_equal(flipped.rows[:, 0], -data[:, 0])
    np.testing.assert_array_equal(flipped.rows[:, 1:], data[:, 1:])
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
    for cell in ("nan", "inf", "-inf"):
        bad.write_text(f"a,b\n,9.0\n1.0,2.0\n\n3.0,{cell}\n\n")
        with pytest.raises(DataError, match="row 5: non-finite cell"):
            ingest_csv(str(bad))
    with pytest.raises(DataError):
        ingest_csv(str(tmp_path / "nope.csv"))
    one = tmp_path / "one.csv"
    one.write_text("a\n1.0\n")
    with pytest.raises(DataError):
        ingest_csv(str(one))
    with pytest.raises(DataError):
        ingest_csv(str(path), cols=["a", "zzz"])


def _reference_ingest(path, cols=None):
    """The per-row ingest loop that the C-parsed path must reproduce."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:    # a byte-order mark is no header text
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
    dropped = []
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
    if not rows:
        raise DataError("no usable data rows")
    data = np.array(rows, dtype=float)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        rnum = int(bad[0])
        for skipped in dropped:
            if skipped > rnum:
                break
            rnum += 1
        raise DataError(f"row {rnum + 2}: non-finite cell")
    return data, len(dropped)


# file text, cols, whether the exact row loop runs
INGEST_CORPUS = {
    "clean": ("a,b,c\n1,2,3\n4.5,-6e-2,7\n", None, False),
    "blank-lines": ("a,b\n1,2\n\n3,4\n\n", None, True),
    "blank-lines-only": ("a,b\n\n\n", None, True),
    "header-only": ("a,b\n", None, True),
    "whitespace-line": ("a,b\n1,2\n   \n3,4\n", None, True),
    "whitespace-line-one-column": ("a,b\n1,2\n \t \n3,4\n", [0, 0], True),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", None, False),
    "crlf-blank-line": ("a,b\r\n1,2\r\n\r\n3,4\r\n", None, True),
    "no-final-newline": ("a,b\n1,2\n3,4", None, False),
    "quoted": ('a,b\n"1.5","2"\n" 3 ",4\n"5"6,7\n', None, False),
    "quote-after-space": ('a,b\n1, "2"\n', None, True),
    "quoted-newline": ('a,b\n"1\n",2\n3,4\n', None, True),
    "spaces": ("a,b\n 1 , 2 \n\t3,4\t\n", None, False),
    "extra-columns": ("a,b\n1,2,x\n3,4,5,6\n", None, False),
    "short-row": ("a,b,c\n1,2,3\n4,5\n", None, True),
    "empty-cells": ("a,b\n1,\n,2\n3,4\n", None, True),
    "underscore": ("a,b\n1_0,2\n", None, True),
    "non-numeric": ("a,b\n1,2\n3,x\n", None, True),
    "nan": ("a,b\n1,2\nnan,3\n", None, False),
    "inf": ("a,b\n1,2\n4,-inf\n", None, False),
    "inf-after-blank": ("a,b\n1,2\n\n,5\nInfinity,3\n", None, True),
    "bom": ("\ufeffa,b\n1,2\n", None, False),
    "bom-named-column": ("\ufeffa,b\n1,2\n", ["a", "b"], False),
    "negative-cols": ("a,b,c\n1,2,3\n4,5,6,7\n", [-1, 0], False),
    "integer-and-named-cols": ("a,b,c\n1,2,3\n", [2, "a"], False),
    "col-past-every-row": ("a,b\n1,2\n", [0, 10 ** 30], True),
}


@pytest.mark.parametrize("text,cols,loop", INGEST_CORPUS.values(), ids=list(INGEST_CORPUS))
def test_ingest_matches_the_row_loop_reference(tmp_path, monkeypatch, text, cols, loop):
    path = tmp_path / "losses.csv"
    path.write_bytes(text.encode("utf-8"))
    calls = []
    parse_rows = cli._parse_rows
    monkeypatch.setattr(cli, "_parse_rows", lambda *a: calls.append(a) or parse_rows(*a))

    def outcome(ingest):
        try:
            data, dropped = ingest(str(path), cols=cols)
        except DataError as exc:
            return str(exc)
        return data.dtype, data.shape, data.tobytes(), dropped

    assert outcome(ingest_csv) == outcome(_reference_ingest)
    assert bool(calls) == loop


def test_ingest_peak_memory_is_a_small_multiple_of_the_matrix(tmp_path):
    path = tmp_path / "losses.csv"
    write_losses(path, n=20_000)
    tracemalloc.start()
    try:
        data, _ = ingest_csv(str(path), cols=["a", "b", "c"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1.2 matrices; the per-row loop peaked at about 23
    assert peak <= 2 * data.nbytes


def test_export_plotdata_errors(tmp_path):
    with pytest.raises(NotAvailableError):
        export_plotdata(str(tmp_path), "scatter", str(tmp_path / "o.csv"))
    with pytest.raises(NotAvailableError):
        export_plotdata(str(tmp_path), "wireframe", str(tmp_path / "o.csv"))


def test_written_chain_rows_sum_to_K_bit_tightly(tmp_path):
    # the chain runs unpinned; its rows are pinned to sum to K on output
    path, _ = small_config(tmp_path, replications=1,
                           sampler={"method": "hmc", "chain_length": 300,
                                    "epsilon": 0.2, "steps": 4, "mass": "pilot"},
                           modes={"enabled": False})
    res = tmp_path / "res"
    assert main(["run", path, "--output", str(res)]) == 0
    full = np.loadtxt(res / "samples.csv", delimiter=",", skiprows=1)
    chain = np.loadtxt(res / "chain.csv", delimiter=",", skiprows=1)
    assert full.shape == (270, 3)
    assert np.array_equal(chain, full[:, :2])
    assert np.all(full.sum(axis=1) == 8.0)


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


def test_main_run_prints_each_warning(tmp_path, capsys):
    # one mean-shift iteration leaves the starts unconverged
    path, _ = small_config(tmp_path, replications=1, modes={"max_iter": 1})
    assert main(["run", path, "--output", str(tmp_path / "res")]) == 2
    with open(tmp_path / "res" / "report.json") as fh:
        report = json.load(fh)
    assert "replication 0: mean-shift convergence below 80%" in report["warnings"]
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"warning: {w}" for w in report["warnings"]]


def test_main_run_warns_of_sample_rows_that_miss_K(tmp_path, capsys):
    # at K = 0.1 the coordinates of an HMC chain are large against K, and
    # many lifted rows have no float row sum equal to K, pinned or not
    path, _ = small_config(tmp_path, replications=1, capital={"rule": "fixed", "K": 0.1},
                           sampler={"method": "hmc", "chain_length": 300})
    assert main(["run", path, "--output", str(tmp_path / "res")]) == 2
    samples = np.loadtxt(tmp_path / "res" / "samples.csv", delimiter=",", skiprows=1)
    missed = int(np.count_nonzero(samples.sum(axis=1) != 0.1))
    assert missed > 0
    warning = (f"replication 0: {missed} of {samples.shape[0]} sample rows "
               "do not sum to K = 0.1 in floating point")
    assert f"warning: {warning}" in capsys.readouterr().err.splitlines()
    # and none at K = 8, where every row sums to K
    path, _ = small_config(tmp_path, replications=1, sampler={"method": "hmc", "chain_length": 300})
    main(["run", path, "--output", str(tmp_path / "res8")])
    assert "sum to K" not in capsys.readouterr().err


def test_main_run_warns_once_of_the_rows_that_miss_K(tmp_path, capsys):
    # one line for the run, with the count of every replication that has such rows
    path, _ = small_config(tmp_path, replications=3, capital={"rule": "fixed", "K": 0.1},
                           sampler={"method": "hmc", "chain_length": 300})
    assert main(["run", path, "--output", str(tmp_path / "res")]) == 2
    lines = [line for line in capsys.readouterr().err.splitlines() if "sum to K" in line]
    assert len(lines) == 1
    match = re.fullmatch(r"warning: (replication 0: (\d+) of (\d+), replication 1: \d+ of \3, "
                         r"replication 2: \d+ of \3 sample rows do not sum to K = 0\.1 "
                         r"in floating point)", lines[0])
    samples = np.loadtxt(tmp_path / "res" / "samples.csv", delimiter=",", skiprows=1)
    assert match and int(match[3]) == samples.shape[0]
    assert int(match[2]) == np.count_nonzero(samples.sum(axis=1) != 0.1)
    report = json.loads((tmp_path / "res" / "report.json").read_text())
    assert [w for w in report["warnings"] if "sum to K" in w] == [match[1]]


def test_main_run_output_bases(tmp_path, monkeypatch):
    # --output is taken from the working directory, the config's output key
    # ("out") from the config file's directory
    config_dir, work = tmp_path / "configs", tmp_path / "work"
    config_dir.mkdir()
    work.mkdir()
    path, _ = small_config(config_dir, replications=1)
    monkeypatch.chdir(work)
    assert main(["run", path, "--output", "rel"]) == 0
    assert (work / "rel" / "report.json").exists()
    assert not (config_dir / "rel").exists()
    assert main(["run", path]) == 0
    assert (config_dir / "out" / "report.json").exists()
    assert not (work / "out").exists()
    assert ((work / "rel" / "report.json").read_bytes()
            == (config_dir / "out" / "report.json").read_bytes())


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


def test_a_byte_order_mark_does_not_hide_the_first_column_name(tmp_path, capsys):
    # spreadsheet programs save "CSV UTF-8" with a leading byte-order mark
    cols = ["bank", "insurance", "fund"]
    with open(EXAMPLE_CSV, encoding="utf-8") as fh:
        text = "".join(line.split(",", 1)[1] for line in fh)    # bank is the first column
    path = tmp_path / "bom.csv"
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfbank,")
    assert main(["ingest", str(path), "--cols", *cols]) == 0
    assert "rows=400" in capsys.readouterr().out
    expected, _ = ingest_csv(EXAMPLE_CSV, cols=cols)
    np.testing.assert_array_equal(ingest_csv(str(path), cols=cols)[0], expected)
    model = {"kind": "empirical", "csv": str(path), "cols": cols}
    np.testing.assert_array_equal(build_model({"model": model}).rows, expected)
    cfg, _ = small_config(tmp_path, model=model,
                          capital={"rule": "var", "p": 0.5, "n_cal": 1000})
    assert main(["check", cfg]) == 0


def test_main_ingest_names_the_row_of_an_overlong_cell(tmp_path, capsys):
    # the blank line sends the file through the row loop, whose csv reader
    # refuses a cell beyond its field limit
    path = tmp_path / "long.csv"
    path.write_text("a,b\n1.0,2.0\n\n0." + "0" * 199_998 + "1,2.0\n")
    assert main(["ingest", str(path)]) == 1
    err = capsys.readouterr().err
    assert "row 4" in err and "field limit" in err


@pytest.mark.parametrize("verb", ["check", "ingest", "export"])
@pytest.mark.parametrize("content", [None, b"a,b\n1,2\n\xff,3\n"], ids=["directory", "latin-1"])
def test_main_names_an_unreadable_file(tmp_path, capsys, verb, content):
    # export reads the artifact of a report directory as it is
    path = tmp_path / ("levelset.csv" if verb == "export" else "input")
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    args = ([str(tmp_path), "--kind", "levelset", "--out", str(tmp_path / "out.csv")]
            if verb == "export" else [str(path)])
    assert main([verb] + args) == 1
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("flag", [True, False], ids=["--output", "output"])
def test_main_run_refuses_an_output_file_before_sampling(tmp_path, capsys, monkeypatch, flag):
    taken = tmp_path / "taken"
    taken.write_text("")
    path, _ = small_config(tmp_path, replications=1, **({} if flag else {"output": "taken"}))

    def no_draw(*args):
        raise AssertionError("sampled before the output path was checked")

    monkeypatch.setattr(cli, "_run_replication", no_draw)
    assert main(["run", path] + (["--output", str(taken)] if flag else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + ("--output" if flag else "output")) and str(taken) in err
    assert taken.read_text() == ""


@pytest.mark.parametrize("kind", ["scatter", "levelset", "chain-trace"])
def test_main_export_to_a_directory_names_it(tmp_path, capsys, kind):
    path, _ = small_config(tmp_path, replications=1,
                           sampler={"method": "mh", "chain_length": 200},
                           modes={"enabled": False},
                           levelset={"ranges": [[-2.0, 6.0], [-2.0, 6.0]],
                                     "level": 0.0004, "resolution": 16})
    res = tmp_path / "res"
    assert main(["run", path, "--output", str(res)]) == 0
    capsys.readouterr()
    assert main(["export", str(res), "--kind", kind, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(tmp_path) in err


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


# ---------------------------------------------------------------------------
# Replications in worker processes
# ---------------------------------------------------------------------------

def test_worker_errors_reach_main_like_in_process_ones(tmp_path, capsys, monkeypatch):
    path, doc = small_config(tmp_path, replications=3)
    run = cli._run_replication

    def thin_after_first(model, K, exp, polytope, seed):
        # split_seeds gives replication r the spawn key (r + 1,)
        if seed.spawn_key[-1] > 1:
            raise EfficiencyError(f"slab too thin at seed {seed.spawn_key}", hit_rate=0.0)
        return run(model, K, exp, polytope, seed)

    # the workers are forked, so they see the patched function
    monkeypatch.setattr(cli, "_run_replication", thin_after_first)
    seen = []
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_workers", lambda R: workers)
        with pytest.raises(EfficiencyError) as info:
            run_pipeline(doc, str(tmp_path))
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        seen.append((type(info.value), str(info.value), info.value.hit_rate, err))
    assert seen[0] == seen[1]
    assert seen[0][1:] == ("slab too thin at seed (2,)", 0.0,
                           "error: slab too thin at seed (2,)\n")


M4_MODEL = {
    "kind": "margin_copula",
    "margins": [{"type": "lomax", "shape": s, "scale": 5.0} for s in (2.5, 2.75, 3.0)],
    "copula": "student_t",
    "nu": 5.0,
    "corr": [[1.0, -0.5, 0.5], [-0.5, 1.0, -0.5], [0.5, -0.5, 1.0]],
}


@pytest.mark.parametrize("overrides", [
    {"model": M4_MODEL, "capital": {"rule": "fixed", "K": 40.0},
     "sampler": {"method": "slab", "n": 100, "delta": 1.0}, "replications": 3,
     "levelset": {"ranges": [[0.0, 40.0], [0.0, 40.0]], "resolution": 32, "level": 2e-6}},
    {"sampler": {"method": "mh", "chain_length": 400}, "replications": 2},
], ids=["slab-m4", "mh"])
def test_worker_and_in_process_runs_write_the_same_bytes(tmp_path, monkeypatch, overrides):
    path, _ = small_config(tmp_path, **overrides)
    codes, outputs = [], []
    for workers in (1, 2):
        # forced, whatever the number of usable CPUs
        monkeypatch.setattr(cli, "_workers", lambda R: workers)
        out = tmp_path / f"workers-{workers}"
        codes.append(main(["run", path, "--output", str(out)]))
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert codes[0] == codes[1]
    assert set(outputs[0]) >= {"report.json", "table.csv", "samples.csv"}
    assert ("levelset.csv" if "levelset" in overrides else "chain.csv") in outputs[0]
    assert outputs[0] == outputs[1]


@contextmanager
def deadline(seconds):
    """Fail, instead of waiting without end, when the block outlasts seconds
    (forked children do not inherit the alarm)."""
    def expired(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_dead_worker_ends_run_with_an_error(tmp_path, capsys, monkeypatch):
    path, _ = small_config(tmp_path, replications=3)
    parent = os.getpid()
    run = cli._run_replication

    def killed_at_second(model, K, exp, polytope, seed):
        if seed.spawn_key[-1] == 2 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)    # as the OOM killer would
        return run(model, K, exp, polytope, seed)

    monkeypatch.setattr(cli, "_run_replication", killed_at_second)
    monkeypatch.setattr(cli, "_workers", lambda R: 2)
    with deadline(120):
        assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a replication worker process died") and "Traceback" not in err


def test_workers_start_with_a_mapped_file_whose_path_is_not_utf8(tmp_path, capfd, monkeypatch):
    import mmap
    path, _ = small_config(tmp_path, replications=2, modes={"enabled": False})
    # an "openblas" name, so the BLAS cap also tries, and fails, to load it
    odd = os.path.join(os.fsencode(tmp_path), b"\xff-openblas.so")
    with open(odd, "wb") as fh:
        fh.write(b"not a library\n")
    monkeypatch.setattr(cli, "_workers", lambda R: 2)
    with open(odd, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ), \
            deadline(120):
        # the forked workers inherit the mapping and read it in /proc/self/maps
        assert main(["run", path, "--output", str(tmp_path / "res")]) == 0
    # the workers' stderr: their BLAS cap read the maps without failing
    assert "warning" not in capfd.readouterr().err

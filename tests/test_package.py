"""The package as a whole: its imports, its methods, and the names the benchmark hooks."""
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import alloc_lab as al
from alloc_lab import cli

from conftest import REF_CORR

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "alloc_lab"


def imported_but_unused(source):
    """Names bound by the import statements of source that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export
    unused = {path.name: imported_but_unused(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_import_does_not_load_scipy_signal():
    # scipy.signal adds about 0.4 s to every interpreter that imports it;
    # the mode grid smooths with scipy.ndimage, which the package loads anyway.
    # Every normalizing constant is in closed form, so no quadrature either.
    # Neither the package nor the benchmark's set-up path (cli loading each
    # shipped config) loads the property checks of alloc_lab.diagnostics, the
    # scipy.spatial they use, or scipy.optimize, which only a core run needs.
    configs = sorted(str(path) for path in (ROOT / "configs").glob("*.cfg"))
    assert len(configs) == 6
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, alloc_lab\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith(("
            "'scipy.signal', 'scipy.integrate', 'scipy.optimize', 'scipy.spatial',"
            " 'alloc_lab.diagnostics')))\n"
            "print(loaded())\n"
            "from alloc_lab import cli\n"
            "for path in sys.argv[1:]:\n"
            "    cli.load_config(path)\n"
            "print(loaded())\n")
    out = subprocess.run([sys.executable, "-c", code, *configs], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "[]"]


def imports_module(source, module):
    """Whether an import statement of source, at any depth, loads the
    package's module alloc_lab.<module>."""
    wanted = f"alloc_lab.{module}"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "alloc_lab" + (f".{base}" if base else "")
            targets = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any(t == wanted or t.startswith(wanted + ".") for t in targets):
            return True
    return False


def test_only_diagnostics_reaches_diagnostics():
    # the property checks load on demand: a run never imports them
    assert imports_module("from . import diagnostics", "diagnostics")
    assert imports_module("from alloc_lab.diagnostics import mrv_exponent", "diagnostics")
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "diagnostics.py"
             and imports_module(path.read_text(encoding="utf-8"), "diagnostics")]
    assert found == []


def pass_throughs(source):
    """Class.method names whose body, a docstring aside, is only
    `return self.<attr>.<same name>(<its own arguments>)`."""
    found = []
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    for cls in classes:
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or not fn.args.args:
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == fn.name and isinstance(call.func.value, ast.Attribute)):
                continue
            owner = call.func.value.value
            params = [a.arg for a in fn.args.args]
            passed = [a.id if isinstance(a, ast.Name) else None for a in call.args]
            passed += [k.arg if isinstance(k.value, ast.Name) and k.value.id == k.arg else None
                       for k in call.keywords]
            if isinstance(owner, ast.Name) and owner.id == params[0] and passed == params[1:]:
                found.append(f"{cls.name}.{fn.name}")
    return found


def test_no_method_only_forwards_to_an_attribute():
    found = {path.name: pass_throughs(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: methods for name, methods in found.items() if methods} == {}


def model_internals(source):
    """Line numbers at which source names an attribute `copula`,
    `row_sum_bounds`, `transform` or `latent`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("copula", "row_sum_bounds", "transform", "latent"))


def test_only_models_knows_how_a_model_draws():
    # a sampler asks `model.sample(n, seed, slab=...)` for its draws; how
    # they are made (latent rows, screen bounds, stored rows) stays in models.py
    found = {path.name: model_internals(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "models.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_every_traced_name_is_an_attribute_of_its_owner():
    # perfbench/tracing.py wraps owner.__dict__[attr]: a name inherited,
    # moved or gone breaks every traced round
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, _, _ in tracing.targets(al):
        assert attr in owner.__dict__, (owner, attr)


def test_a_core_run_looks_up_core_polytope_on_cli_once(tmp_path, monkeypatch):
    # the benchmark records the polytope of a core run by patching this global
    calls = []
    build = cli.core_polytope

    def recorder(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "core_polytope", recorder)
    doc = {
        "model": {"kind": "elliptical", "mu": [0.0, 0.0, 0.0], "sigma": REF_CORR.tolist(),
                  "generator": "student_t", "nu": 5.0},
        "capital": {"rule": "var", "p": 0.9, "n_cal": 20_000},
        "sampler": {"method": "hmc", "core": True, "epsilon": 0.105, "steps": 8,
                    "chain_length": 200},
        "modes": {"enabled": False},
        "seed": 5,
    }
    path = tmp_path / "core.json"
    path.write_text(json.dumps(doc))
    assert cli.run_experiment(str(path), output=str(tmp_path / "out")) == 0
    assert len(calls) == 1
    assert (tmp_path / "out" / "chain.csv").exists()


# what the three joint models answer: one evaluation at a point, draws, and
# the two bounds of the support that `check` reads
JOINT_PROTOCOL = {"logpdf", "logpdf_and_grad", "sample", "margin_lowers", "largest_sum"}


def public_methods(cls):
    return {name for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_")}


def test_the_joint_models_share_one_protocol():
    assert public_methods(al.EllipticalJoint) == JOINT_PROTOCOL
    assert public_methods(al.EmpiricalJoint) == JOINT_PROTOCOL
    # a margin copula adds only the latent-to-loss map and its slab screen
    assert public_methods(al.MarginCopula) - JOINT_PROTOCOL == {"transform", "row_sum_bounds"}
    assert JOINT_PROTOCOL <= public_methods(al.MarginCopula)


def definitions(source):
    """'Class.name' for each def and assigned name in a class body of source,
    'name' for those outside any class."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [child.name]
            elif isinstance(child, ast.Assign):
                names = [t.id for t in child.targets if isinstance(t, ast.Name)]
            found.update(f"{owner}.{n}" if owner else n for n in names)
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_no_module_defines_a_gradient_only_method():
    # a model's gradient comes with its value from logpdf_and_grad alone
    assert definitions("class A:\n    x = y = 1\n    def f(self):\n        pass\n"
                       "def g():\n    pass\n") == {"A.x", "A.y", "A.f", "g"}
    gone = {"DispersionMatrix.solve", "CopulaModel.sample"}
    found = {path.name: sorted(n for n in definitions(path.read_text(encoding="utf-8"))
                               if n in gone or n.rsplit(".", 1)[-1] in
                               ("grad_logpdf", "dlogdensity_du"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def builtin_sum_calls(source):
    """Line numbers at which source calls the built-in sum, or reduce."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("sum", "reduce"))


def test_the_chain_path_calls_no_builtin_sum():
    # the built-in sum() compensates from CPython 3.12 on; models.dot and
    # models.total add left to right on every version
    assert builtin_sum_calls("a = sum(x)\nb = np.sum(x)\nc = x.sum()\nd = reduce(f, x)\n") \
        == [1, 4]
    found = {name: builtin_sum_calls((PACKAGE / name).read_text(encoding="utf-8"))
             for name in ("models.py", "samplers.py", "conditional.py")}
    assert found == {"models.py": [], "samplers.py": [], "conditional.py": []}

"""Every name a library or test module imports at module level is used
there, the package exports exactly the names it imports, every private
helper of the library has a caller in it, and every function the
benchmark tracer reads a metric from is one it wraps.  The suites of
`setlp all` load neither scipy nor the process-pool modules; the body
path loads Qhull on first use."""

import ast
import importlib
import importlib.util
import inspect
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import setlp
from setlp.bodies import ConvexBody
from setlp.harness import _usable_cores

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "setlp"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def _imported_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _imported_names(tree) - _used_names(tree)
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def _referenced_names(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_private_helpers_are_used_in_the_library():
    # (module, top-level statement, names it references), library-wide
    nodes = [(path.name, node, _referenced_names(node))
             for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text(), filename=str(path)).body]
    unused = [f"{module}:{node.name}" for module, node, _ in nodes
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and not any(node.name in refs for _, other, refs in nodes if other is not node)]
    assert not unused, f"private helpers without a caller outside their own body: {unused}"


def test_package_exports_exactly_the_names_it_binds():
    # a name dropped from the package's imports cannot linger in __all__
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for a in node.names}
    public = {name for name in bound if not inspect.ismodule(getattr(setlp, name))
              and not (name.startswith("_") and not name.endswith("__"))}
    assert sorted(setlp.__all__) == sorted(public)


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", TESTS.parent / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _load_tracer()
# the functions bench/tracer.py reads metrics and observations from
TRACER_SOURCES = sorted({name for name, _ in TRACER.NAMED_METRICS.values()}
                        | set(TRACER.ALWAYS_SPAN) | set(TRACER.SUM_OBSERVERS)
                        | set(TRACER.KEY_OBSERVERS))


@pytest.mark.parametrize("name", TRACER_SOURCES)
def test_tracer_metric_sources_are_wrapped_functions(name):
    # the tracer wraps public functions defined in a layer module and the
    # public methods (and __init__) of its classes; a metric whose function
    # was renamed or made private drops out of a traced pass
    layer, *attrs = name.split(".")
    assert layer in TRACER.LAYERS, name
    mod = importlib.import_module(f"setlp.{layer}")
    assert all(not a.startswith("_") or a == "__init__" for a in attrs), name
    if len(attrs) == 1:
        fn = vars(mod).get(attrs[0])
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
    else:
        cls_name, method = attrs
        cls = vars(mod).get(cls_name)
        assert inspect.isclass(cls) and cls.__module__ == mod.__name__, name
        raw = vars(cls).get(method)
        assert inspect.isfunction(getattr(raw, "__func__", raw)), name


def _imported_modules(path: pathlib.Path) -> set:
    """The package modules a library module imports from, at any depth."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_array_layers_stay_off_the_body_path():
    # the field norms read magnitudes; weights, matrices and grids read
    # value arrays, and the A_p oracle shares no code with the cube gathers
    assert "seminorms" not in _imported_modules(SRC / "fields.py")
    for name in ("weights", "matrices", "grids"):
        assert not _imported_modules(SRC / f"{name}.py") & {"operators", "bodies"}, name
    tree = ast.parse((SRC / "weights.py").read_text())
    oracle = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "classical_ap_constant")
    assert not _referenced_names(oracle) & {"_cube_cells", "_ancestor_ids"}


def _run_fresh(code: str, tmp_path, threads: int = 1) -> str:
    """Run code in a new interpreter with SETLP_THREADS=threads; return the
    last line of its stdout."""
    env = dict(os.environ, SETLP_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent),
                                                        os.environ.get("PYTHONPATH")])))
    env.pop("SETLP_OUT", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()[-1]


_HEAVY = ("scipy", "multiprocessing", "concurrent.futures")


def test_suites_load_neither_scipy_nor_the_pool(tmp_path):
    loaded = _run_fresh(f"""
import json, sys
from setlp.cli import main
assert main(["all", "--seed", "7", "--level", "3", "--out", "reports"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith({_HEAVY!r}))))
""", tmp_path)
    assert json.loads(loaded) == []


def test_failure_fixture_loads_no_scipy(tmp_path):
    # trial 1 is a planar field on the line: building its bodies would load Qhull
    loaded = _run_fresh("""
import json, sys
from setlp.harness import ExperimentConfig, _failure_fixture
path = _failure_fixture(ExperimentConfig(seed=7, level=3, out="fx"), "endpoints",
                        [{"trial": 1, "ok": False}])
assert path.endswith("endpoints-failure-trial1.json"), path
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
""", tmp_path)
    assert json.loads(loaded) == []


def test_bodies_selftest_loads_qhull(tmp_path):
    loaded = _run_fresh("""
import sys
from setlp.harness import ExperimentConfig, run_bodies_selftest
before = "scipy.spatial" in sys.modules
assert run_bodies_selftest(ExperimentConfig(seed=13)).passed
print(before, "scipy.spatial" in sys.modules)
""", tmp_path)
    assert loaded == "False True"


@pytest.mark.skipif(_usable_cores() < 2 or "fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs two usable cores and the fork start method")
def test_pool_children_inherit_numpy_lazy_modules(tmp_path):
    # numpy 2 imports these on first use; a forked trial worker that had to
    # import them itself would pay for it in every pool of every pass
    inherited = _run_fresh("""
import os, sys
from setlp.harness import _run_trials
def probe(i):
    return os.getpid(), "numpy.random" in sys.modules and "numpy.ma" in sys.modules
out = _run_trials(probe, [0, 1])
print(all(ok for _, ok in out), os.getpid() not in {pid for pid, _ in out})
""", tmp_path, threads=2)
    assert inherited == "True True"


# coplanar in R^3 (a hexagon with one interior point), then collinear: Qhull
# refuses both, so pruning takes the QhullError fallback
_DEGENERATE = ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0], [0.3, 0.2, 0.5]],
               [[0.5, 1.0, -0.5], [-2.0, -4.0, 2.0], [1.5, 3.0, -1.5]])


def test_degenerate_prune_from_a_cold_start(tmp_path):
    kept = _run_fresh(f"""
import json, sys
from setlp.bodies import ConvexBody
assert not any(m.startswith("scipy") for m in sys.modules)
print(json.dumps([ConvexBody(3, G).generators.tolist() for G in {_DEGENERATE!r}]))
""", tmp_path)
    expected = [ConvexBody(3, np.array(G)).generators.tolist() for G in _DEGENERATE]
    assert json.loads(kept) == expected
    assert [len(g) for g in expected] == [3, 1]

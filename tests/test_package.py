"""The package's public names, its module imports and its README quickstart."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import liftconv

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(liftconv.__path__))
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
# the library's own modules; __init__.py only re-exports their names
LIBRARY = sorted(p for p in (ROOT / "src" / "liftconv").glob("*.py") if p.name != "__init__.py")

PUBLIC_NAMES = {
    "BoundQuery", "SampleComplexity", "angle_preservation_bound",
    "dudley_fourier_bound", "dudley_sparse_bound",
    "gamma2_bound", "maurey_f", "maurey_h",
    "sample_complexity", "solve_a",
    "EstimateReport", "estimate_rap", "estimate_rip",
    "estimate_rop", "isotropy_check",
    "Ensemble", "FactoredOperator", "LiftedPoint", "forward",
    "lifted_dist", "lifted_inner", "sample_omega",
    "ModelSpec", "OrthogonalizationError", "hard_threshold", "in_gamma",
    "orthogonalize_pair", "project_flat", "sample_model", "spectral_flatness",
    "AttemptRecord", "SolveOptions", "SolveResult",
    "plant_instance", "recover", "success_metric",
    "ZeroVectorError", "derive_seed", "rng_for",
    "__version__",
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 40
    assert len(liftconv.__all__) == len(set(liftconv.__all__))
    assert set(liftconv.__all__) == PUBLIC_NAMES


def test_module_lists_partition_the_public_names():
    # a module's __all__ is its share of the package's names, so a helper
    # listed in one fails here whether or not __init__.py re-exports it
    lists = [importlib.import_module(f"liftconv.{name}").__all__
             for name in ("bounds", "concentration", "measurement", "models",
                          "solver", "util")]
    names = [name for names in lists for name in names]
    assert len(names) == len(set(names))
    assert set(names) | {"__version__"} == PUBLIC_NAMES


@pytest.mark.parametrize("name", ["SolverBreakdownError", "InfeasibleModelError"])
def test_retired_exception_names_are_gone(name):
    # a collapse raises ZeroVectorError and a spent rop budget OrthogonalizationError
    with pytest.raises(ImportError):
        exec(f"from liftconv import {name}", {})


def test_every_public_name_resolves():
    namespace = {}
    exec("from liftconv import *", namespace)
    for name in liftconv.__all__:
        assert namespace[name] is getattr(liftconv, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_export_resolves(name):
    mod = importlib.import_module(f"liftconv.{name}")
    namespace = {}
    exec(f"from liftconv.{name} import *", namespace)
    for attr in getattr(mod, "__all__", ()):
        assert namespace[attr] is getattr(mod, attr)


def _tracer_targets():
    # the benchmark's tracer wraps these by name; read, never imported here
    tree = ast.parse(TRACER.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public name stays only if library code or a benchmark workload
    # uses it; test oracles live in tests/helpers.py. The tracer's TARGETS
    # name module attributes, not package names, so they count for nothing
    # here (test_traced_benchmark_targets_resolve guards them)
    sources = LIBRARY + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                               if not p.name.startswith("test_"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert sorted(set(liftconv.__all__) - used) == []


def test_no_library_module_has_an_unused_import():
    unused = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text())
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.stem}.{name}" for name in sorted(bound - loaded)]
    assert unused == []


def test_readme_library_quickstart_recovers_the_planted_pair(capsys):
    section = (ROOT / "README.md").read_text().split("## Library quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quickstart", "exec"), {})
    rel = float(capsys.readouterr().out)
    assert rel <= 1e-4


def test_traced_benchmark_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for mod_name, attr in targets:
        obj = importlib.import_module(f"liftconv.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{attr}"


def test_estimate_report_keeps_the_fields_the_benchmark_reads():
    # the benchmark's estimate workload reads these report fields by name
    names = {f.name for f in dataclasses.fields(liftconv.EstimateReport)}
    assert {"delta_hat", "trials", "deviations", "witness", "resamples"} <= names


def test_importing_the_cli_loads_no_process_pool_stack():
    # restarts and sweep cells fan out through util.fan_out's own fork, so
    # a fresh interpreter never pays for multiprocessing or concurrent.futures
    code = ("import sys, liftconv.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_importing_the_cli_loads_no_numpy_random():
    # util.rng_streams makes its numpy.random subclass on first use, so a
    # fresh interpreter pays for numpy.random only when it draws
    code = "import sys, liftconv.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"

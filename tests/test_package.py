"""The package's public names."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import liftconv

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(liftconv.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

PUBLIC_NAMES = {
    "BoundQuery", "SampleComplexity", "angle_preservation_bound",
    "dudley_fourier_bound", "dudley_sparse_bound", "dyadic_chain_check",
    "gamma2_bound", "greedy_cover", "maurey_f", "maurey_h",
    "sample_complexity", "solve_a",
    "EstimateReport", "estimate_rap", "estimate_rip", "estimate_rip_matrix",
    "estimate_rop", "exact_rip_small", "isotropy_check",
    "rop_form_samples",
    "dft_matrix", "fftu", "ifftu",
    "Ensemble", "FactoredOperator", "LiftedPoint", "adjoint_apply", "forward",
    "lifted_dist", "lifted_inner", "partial_forward", "sample_omega",
    "InfeasibleModelError", "ModelSpec",
    "OrthogonalizationError", "hard_threshold", "in_gamma", "in_tilde_gamma",
    "orthogonalize_pair", "project_flat", "sample_model", "spectral_flatness",
    "AttemptRecord", "SolveOptions", "SolveResult", "SolverBreakdownError",
    "plant_instance", "recover", "success_metric",
    "ZeroVectorError", "derive_seed", "rng_for",
    "__version__",
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 53
    assert len(liftconv.__all__) == len(set(liftconv.__all__))
    assert set(liftconv.__all__) == PUBLIC_NAMES


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


def test_traced_benchmark_targets_resolve():
    # the benchmark's tracer wraps these by name; read, never imported here
    tree = ast.parse(TRACER.read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
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

"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q perfbench/test_perfbench.py

Kept out of the package's tier-1 suite (pytest's testpaths is tests/).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, run.SRC)

import liftconv.cli  # noqa: E402,F401
from liftconv import measurement  # noqa: E402

TINY = {
    "recover": {"RECOVER_MS": (24, 64), "RECOVER_TRIALS": 2, "RECOVER_REPEATS": 1},
    "estimate": {"ESTIMATE_MIX": (
        ("c9_rap", "rap", "c9", {}, 12),
        ("c9_rop_both", "rop", "c9", {"orthogonality": "both"}, 12),
        ("c9_rop_either", "rop", "c9", {"orthogonality": "either"}, 12),
        ("c8_rap", "rap", "c8", {}, 12),
        ("c6_isotropy", "iso", "c6", {"average_over": "phi"}, 30),
        ("flat_rap", "rap", "flat", {}, 3),
    )},
    "sweep": {"SWEEP_CONFIG": "kind = rap\nn = 64\nm = 16,32\ns1 = 2\ns2 = 2\n"
                              "mu2 = none,4\ntrials = 5\nseed = {seed}\n"},
}

COUNTERS = ("solver.attempts", "solver.useful_attempt_ratio", "concentration.resamples",
            "models.proj_per_draw")


def _bindings() -> dict:
    """Every module attribute and class slot the tracer may replace."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and name.startswith("liftconv"):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    for cls in (measurement.PartialMap, measurement.Ensemble):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def _tiny_run(monkeypatch, tmp_path, workload: str, trace: bool, label: str) -> dict:
    for key, value in TINY[workload].items():
        monkeypatch.setattr(workloads, key, value)
    out_dir = tmp_path / label
    return run.run(workload, 3, 0.0, trace, str(out_dir))["result"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counters_repeat_and_wrappers_are_removed(monkeypatch, tmp_path, workload):
    before = _bindings()
    first = _tiny_run(monkeypatch, tmp_path, workload, True, "a")
    second = _tiny_run(monkeypatch, tmp_path, workload, True, "b")
    assert _bindings() == before

    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    calls = {k: v["value"] for k, v in first["metrics"].items()
             if k.endswith(".calls") or k in COUNTERS}
    again = {k: second["metrics"][k]["value"] for k in calls}
    assert calls == again
    assert set(first["metrics"]) == {m["name"] for m in _bench()["per_layer"]}

    if workload == "recover":
        # one partial map per half-step, several applications per map
        assert calls["measurement.partial_forward.calls"] > 0
        assert calls["measurement.PartialMap.apply.calls"] > calls[
            "measurement.partial_forward.calls"]
        assert calls["solver.recover.calls"] == 4
        assert calls["solver.attempts"] > 4
    elif workload == "estimate":
        assert calls["models.project_flat.calls"] > 0
        assert calls["concentration.estimate_rap.calls"] == 3
        assert calls["measurement.PartialMap.apply.calls"] == 0
    else:
        # cells run in forked pool workers; their spans must come back
        assert calls["cli._execute_cell.calls"] == 4
        assert calls["measurement.Ensemble.generate.calls"] == 4
        assert first["metrics"]["cli.worker_busy_frac"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(monkeypatch, tmp_path, workload):
    res = _tiny_run(monkeypatch, tmp_path, workload, False, "plain")
    assert res["correct"] and res["failed"] == 0
    spec = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fingerprint_mismatch_counts_as_failed(monkeypatch, tmp_path):
    with open(run.FINGERPRINT) as fh:
        fp = json.load(fh)
    fp["recover"]["64"][0][1] += 1
    fp["estimate"]["c9_rap"] *= 1 + 1e-9
    path = tmp_path / "fingerprint.json"
    path.write_text(json.dumps(fp))
    monkeypatch.setattr(run, "FINGERPRINT", str(path))
    rec = _tiny_run(monkeypatch, tmp_path, "recover", False, "rec")
    est = _tiny_run(monkeypatch, tmp_path, "estimate", False, "est")
    assert not rec["correct"] and rec["failed"] == 1
    assert not est["correct"] and est["failed"] == 1


def test_tail_is_order_statistic_with_ten_beyond():
    xs = list(range(100))
    assert run.tail_of(xs) == (89, 90.0)
    assert run.tail_of([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    tr = tracer.Tracer(str(tmp_path))
    tr.install()
    try:
        ens = liftconv.measurement.Ensemble.generate(16, 8, seed=1)
    finally:
        tr.uninstall()
    spans = tr.write()[os.getpid()]
    names = [tr.names[f] for f in spans["fn"]]
    gen = names.index("measurement.Ensemble.generate")
    children = spans[spans["parent"] == spans["id"][gen]]
    assert {tr.names[f] for f in children["fn"]} == {"util.rng_for"}
    dur = spans["end"][gen] - spans["start"][gen]
    child = float((children["end"] - children["start"]).sum())
    assert spans["self"][gen] == pytest.approx(dur - child)
    assert ens.n == 16


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def _bench() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)

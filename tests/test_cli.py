"""Config parsing, sweep determinism, and command exit codes."""

import csv

import numpy as np
import pytest

import liftconv.cli as cli
from liftconv.cli import (
    ConfigError,
    ESTIMATE_FIELDS,
    RECOVER_FIELDS,
    SweepConfig,
    build_parser,
    main,
    parse_config,
    run_sweep,
)
from liftconv.concentration import estimate_rip
from liftconv.measurement import Ensemble
from liftconv.models import ModelSpec
import liftconv.solver as solver
from liftconv.solver import SolveOptions
from liftconv.util import derive_seed, fmt_float

RIP_CONFIG = """
# two-cell isometry sweep
kind = rip
n = 8
m = 4,6
s1 = 1
s2 = 1
trials = 3
seed = 5
"""

RECOVER_CONFIG = """
kind = recover
n = 16
m = 12
s1 = 1
s2 = 1
trials = 2
seed = 5
restarts = 2
max_outer_iters = 8
"""


# -- config parsing -----------------------------------------------------------


def test_parse_config_minimal_defaults():
    cfg = parse_config("kind=rip\nn=8\nm=4\ns1=1\ns2=1\n")
    assert cfg.kind == "rip"
    assert cfg.n == [8] and cfg.m == [4]
    assert cfg.mu1 == [None] and cfg.mu2 == [None]
    assert cfg.trials == 100 and cfg.seed == 0
    assert cfg.phi == "gaussian" and cfg.omega_mode == "without_replacement"


def test_parse_config_grid_lists_and_comments():
    cfg = parse_config(RIP_CONFIG)
    assert cfg.m == [4, 6]
    assert cfg.trials == 3


def test_parse_config_mu_none_token():
    cfg = parse_config("kind=rip\nn=8\nm=4\ns1=1\ns2=1\nmu1=none,2.0\n")
    assert cfg.mu1 == [None, 2.0]


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("kind=rip\nn=8\nm=4\ns1=1\ns2=1\ncolor=blue\n")
    # the aliased angle statistic is the isometry statistic: kind=rip
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("kind=rap\nn=8\nm=4\ns1=1\ns2=1\ndiagonal=true\n")


def test_parse_config_rejects_key_for_wrong_kind():
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config("kind=rip\nn=8\nm=4\ns1=1\ns2=1\ndecoupled=true\n")


def test_solver_and_trial_defaults_are_written_once():
    opts = SolveOptions(s1=1, s2=1)
    cfg = parse_config("kind=recover\nn=8\nm=4\ns1=1\ns2=1\n")
    parser = build_parser()
    args = parser.parse_args(["recover", "--n", "8", "--m", "4",
                              "--s1", "1", "--s2", "1"])
    for key in ("max_outer_iters", "outer_tol", "restarts"):
        assert getattr(cfg, key) == getattr(args, key) == getattr(opts, key)
    for kind in ("rip", "rap", "rop"):
        est = parser.parse_args([f"{kind}-estimate", "--n", "8", "--m", "4",
                                 "--s1", "1", "--s2", "1"])
        assert est.trials == cfg.trials


def test_parse_config_requires_core_keys():
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config("kind=rip\nn=8\nm=4\ns1=1\n")
    with pytest.raises(ConfigError, match="kind"):
        parse_config("n=8\nm=4\ns1=1\ns2=1\n")


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("kind=rip\nn=eight\nm=4\ns1=1\ns2=1\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config("kind=rip\nn 8\nm=4\ns1=1\ns2=1\n")


def test_parse_config_overrides_win():
    cfg = parse_config(RIP_CONFIG, overrides=["trials=9", "seed=77"])
    assert cfg.trials == 9 and cfg.seed == 77


def test_parse_config_validates_cells():
    with pytest.raises(ConfigError, match="m > n"):
        parse_config("kind=rip\nn=4\nm=8\ns1=1\ns2=1\n")
    with pytest.raises(ConfigError, match="m > n"):
        parse_config("kind=rap\nn=16\nm=32\ns1=1\ns2=1\n"
                     "omega_mode=iid_uniform\n")
    with pytest.raises(ConfigError, match="bad cell"):
        parse_config("kind=rip\nn=8\nm=4\ns1=9\ns2=1\n")
    with pytest.raises(ConfigError, match="enforce_flatness"):
        parse_config(
            "kind=recover\nn=8\nm=4\ns1=1\ns2=1\nenforce_flatness=true\n")
    # a nan noise ran noiseless under a row labelled nan; inf wrote
    # rel_q50=inf rows; a nan success_threshold made every success_rate 0
    for setting in ("noise=-0.5", "noise=nan", "noise=inf", "noise=0.0,nan",
                    "success_threshold=nan", "success_threshold=-1e-4"):
        with pytest.raises(ConfigError, match=setting.split("=")[0]):
            parse_config(f"kind=recover\nn=8\nm=4\ns1=1\ns2=1\n{setting}\n")
    with pytest.raises(ConfigError, match="trials"):
        parse_config("kind=rip\nn=8\nm=4\ns1=1\ns2=1\ntrials=0\n")


@pytest.mark.parametrize("setting", ["restarts=-1", "max_outer_iters=0", "outer_tol=0",
                                     "outer_tol=nan", "outer_tol=inf"])
def test_parse_config_rejects_bad_solver_settings(setting):
    # rejected with the config, not inside the first cell after planting
    with pytest.raises(ConfigError, match="bad solver settings"):
        parse_config(f"kind=recover\nn=8\nm=4\ns1=1\ns2=1\n{setting}\n")


def test_cells_enumeration_order():
    cfg = parse_config("kind=rip\nn=8\nm=4,6\ns1=1,2\ns2=1\n")
    coords = [(c["m"], c["s1"]) for c in cfg.cells()]
    assert coords == [(4, 1), (4, 2), (6, 1), (6, 2)]


def test_noise_axis_applies_only_to_recovery():
    est = parse_config("kind=rip\nn=8\nm=4\ns1=1\ns2=1\n")
    assert [c["noise"] for c in est.cells()] == [None]
    rec = parse_config(
        "kind=recover\nn=8\nm=4\ns1=1\ns2=1\nnoise=0.0,0.1\n")
    assert [c["noise"] for c in rec.cells()] == [0.0, 0.1]


def test_cell_seed_depends_on_coordinates():
    cfg = parse_config(RIP_CONFIG)
    cells = cfg.cells()
    assert cfg.cell_seed(cells[0]) != cfg.cell_seed(cells[1])
    assert cfg.cell_seed(cells[0]) == cfg.cell_seed(dict(cells[0]))


# -- sweep execution ----------------------------------------------------------


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_rip_sweep_layout_and_replayability(tmp_path):
    out = tmp_path / "rip.csv"
    cfg = parse_config(RIP_CONFIG)
    assert run_sweep(cfg, str(out)) == 2

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert list(rows[0]) == list(ESTIMATE_FIELDS)

    # a row carries enough to replay its cell in isolation
    row = rows[1]
    seed = int(row["seed"])
    assert seed == cfg.cell_seed(cfg.cells()[1])
    ens = Ensemble.generate(8, 6, seed=derive_seed(seed, "ensemble"))
    rep = estimate_rip(ens, ModelSpec(8, 1, side="left"),
                       ModelSpec(8, 1, side="right"), 3, seed=seed)
    assert row["delta_hat"] == fmt_float(rep.delta_hat)


def _meta(out) -> dict:
    return dict(line.split("=", 1)
                for line in _read(str(out) + ".meta").decode().splitlines())


def test_sweep_meta_sidecar(tmp_path):
    out = tmp_path / "rip.csv"
    run_sweep(parse_config(RIP_CONFIG), str(out))
    meta = _meta(out)
    assert meta["kind"] == "rip" and meta["cells"] == "2"
    assert meta["m"] == "4,6" and "version" in meta
    assert "workers" not in meta
    # only the keys a rip config accepts
    for key in ("decoupled", "orthogonality", "enforce_flatness", "max_outer_iters",
                "noise", "outer_tol", "restarts", "success_threshold"):
        assert key not in meta

    rop = tmp_path / "rop.csv"
    run_sweep(parse_config(RIP_CONFIG.replace("kind = rip", "kind = rop")
                           + "decoupled = true\n"), str(rop))
    meta = _meta(rop)
    assert meta["orthogonality"] == "both" and meta["decoupled"] == "true"
    assert "restarts" not in meta and "outer_tol" not in meta

    rec = tmp_path / "recover.csv"
    run_sweep(parse_config(RECOVER_CONFIG), str(rec))
    meta = _meta(rec)
    assert meta["restarts"] == "2" and meta["max_outer_iters"] == "8"
    for key in ("noise", "outer_tol", "success_threshold", "enforce_flatness"):
        assert key in meta
    assert "orthogonality" not in meta and "decoupled" not in meta


def test_sweep_reruns_are_byte_identical(tmp_path):
    cfg = parse_config(RIP_CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(cfg, str(a))
    run_sweep(cfg, str(b))
    assert _read(a) == _read(b)
    assert _read(str(a) + ".meta") == _read(str(b) + ".meta")


def test_sweep_bytes_do_not_depend_on_worker_count(tmp_path):
    cfg = parse_config(RIP_CONFIG)
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    run_sweep(cfg, str(one), workers=1)
    run_sweep(cfg, str(two), workers=2)
    assert _read(one) == _read(two)


FAILING_CELL_CONFIG = """
kind = rap
n = 128
m = 32
s1 = 3
s2 = 3
mu2 = none,2.0
trials = 25
"""


def test_failed_estimator_cell_keeps_its_row_and_exits_3(tmp_path):
    # the mu2 = 2.0 cell cannot draw a flat partner on some trial streams
    cfg_path = tmp_path / "flat.cfg"
    cfg_path.write_text(FAILING_CELL_CONFIG)
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--workers", workers]) == 3
        outs.append((_read(out), _read(str(out) + ".meta")))
    assert outs[0] == outs[1]
    with open(tmp_path / "w1.csv", newline="") as fh:
        ok, failed = list(csv.DictReader(fh))
    cfg = parse_config(FAILING_CELL_CONFIG)
    assert float(ok["delta_hat"]) > 0 and ok["mu2"] == ""
    assert failed["mu2"] == "2.0" and failed["trials"] == "25"
    assert failed["seed"] == str(cfg.cell_seed(cfg.cells()[1]))
    assert all(failed[k] == "" for k in ("delta_hat", "q50", "q90", "q99"))
    assert "cells=2" in outs[0][1].decode()


def test_recover_sweep_fields(tmp_path):
    out = tmp_path / "rec.csv"
    run_sweep(parse_config(RECOVER_CONFIG), str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert list(rows[0]) == list(RECOVER_FIELDS)
    assert 0.0 <= float(rows[0]["success_rate"]) <= 1.0
    assert rows[0]["noise"] == "0.0"


# -- command line entry ---------------------------------------------------------


def test_cli_rip_estimate_prints_report(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    argv = ["rip-estimate", "--n", "8", "--m", "4", "--s1", "1",
            "--s2", "1", "--trials", "3", "--seed", "4",
            "--csv", str(csv_path)]
    code = main(argv)
    assert code == 0
    out = capsys.readouterr().out
    assert "delta_hat=" in out and "wall_time=" in out
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["kind"] == "rip"
    # a second run replaces the file rather than appending to it
    assert main(argv) == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["kind"] == "rip"


def test_cli_recover_roundtrip(capsys):
    code = main(["recover", "--n", "16", "--m", "12", "--s1", "1",
                 "--s2", "1", "--seed", "3", "--restarts", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rel_error=" in out and "noise_ratio=" in out


def test_cli_recover_prints_its_work_outside_the_csv(tmp_path, capsys):
    path = tmp_path / "one.csv"
    code = main(["recover", "--n", "16", "--m", "12", "--s1", "1",
                 "--s2", "1", "--seed", "3", "--restarts", "2", "--csv", str(path)])
    assert code == 0
    printed = dict(line.split("=", 1) for line in capsys.readouterr().out.split())
    assert 1 <= int(printed["attempts"]) <= 3
    assert int(printed["half_steps"]) >= 2 * int(printed["iterations"])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert "attempts" not in rows[0] and "half_steps" not in rows[0]
    assert rows[0]["iterations"] == printed["iterations"]


def test_cli_recover_csv_row(tmp_path):
    path = tmp_path / "one.csv"
    assert main(["recover", "--n", "16", "--m", "12", "--s1", "2", "--s2", "2",
                 "--seed", "115", "--csv", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = rows[0]
    assert row["n"] == "16" and row["m"] == "12"
    assert row["converged"] in ("0", "1")
    assert set(row) == {"n", "m", "s1", "s2", "mu1", "mu2", "seed",
                        "rel_error", "iterations", "converged",
                        "residual_norm", "noise_ratio", "wall_time"}


def test_cli_isotropy_defaults_to_dense_signals(capsys):
    code = main(["isotropy", "--n", "6", "--m", "3", "--draws", "20",
                 "--seed", "2"])
    assert code == 0
    assert "rel_error=" in capsys.readouterr().out


def test_cli_bounds_table(capsys):
    code = main(["bounds", "--n", "64", "--m", "16", "--s1", "2", "--s2", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "a_star=" in out and "m_required_orthogonal=" in out


def test_cli_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_sweep_with_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(RIP_CONFIG)
    out = tmp_path / "out.csv"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--set", "trials=5"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["trials"] == "5"


def test_cli_exit_codes():
    assert main(["rip-estimate", "--n", "8"]) == 2        # missing arguments
    assert main(["sweep", "--config", "/no/such/file", "--out", "x.csv"]) == 2
    assert main(["--help"]) == 0
    # the planted caps are what --enforce-flatness passes to the solver
    assert main(["recover", "--n", "16", "--m", "8", "--s1", "1", "--s2", "1",
                 "--enforce-flatness"]) == 2
    assert main(["rap-estimate", "--n", "8", "--m", "4", "--s1", "1",
                 "--s2", "1", "--diagonal"]) == 2           # option removed
    # orthogonal partners cannot exist in a one-dimensional model
    assert main(["rop-estimate", "--n", "1", "--m", "1", "--s1", "1",
                 "--s2", "1", "--trials", "1"]) == 3


@pytest.mark.parametrize("flag, value", [
    ("--outer-tol", "nan"), ("--outer-tol", "inf"),
    ("--noise", "-0.5"), ("--noise", "nan"), ("--noise", "inf"),
])
def test_cli_recover_rejects_bad_settings_before_solving(flag, value, monkeypatch):
    # outer_tol nan ran every level to its cap and exited 0; a negative
    # noise ran noiseless and exited 0
    def no_solve(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "recover", no_solve)
    assert main(["recover", "--n", "32", "--m", "16", "--s1", "2", "--s2", "2",
                 "--seed", "1", flag, value]) == 2


def test_cli_numeric_value_errors_exit_3_and_bad_input_exits_2(monkeypatch):
    # a degenerate draw: the planted pair, hence the data, is zero, and
    # the solver's zero-vector guard fires partway through the run
    monkeypatch.setattr(solver, "sample_model", lambda spec, rng: np.zeros(spec.n))
    assert main(["recover", "--n", "16", "--m", "8", "--s1", "1",
                 "--s2", "1"]) == 3
    # m > n is bad input, also a ValueError
    assert main(["rap-estimate", "--n", "16", "--m", "32", "--s1", "1",
                 "--s2", "1"]) == 2


def test_cli_rejects_bad_config_file(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("kind=rip\nn=8\nm=4\ns1=1\ns2=1\ncolor=blue\n")
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o.csv")]) == 2

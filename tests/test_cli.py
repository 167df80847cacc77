"""Config parsing, sweep determinism, and command exit codes."""

import argparse
import csv
import dataclasses
import errno
import hashlib
import importlib
import math
import os
import pkgutil
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import no_children, record_forks, recorded_under

import liftconv
from liftconv.bounds import BoundQuery
import liftconv.cli as cli
from liftconv.cli import (
    ConfigError,
    ESTIMATE_FIELDS,
    RECOVER_FIELDS,
    SWEEP_KINDS,
    SweepConfig,
    build_parser,
    main,
    parse_config,
    run_sweep,
)
import liftconv.concentration as concentration
from liftconv.concentration import estimate_rip
from liftconv.measurement import Ensemble
import liftconv.models as models
from liftconv.models import ModelSpec, OrthogonalizationError
import liftconv.solver as solver
from liftconv.solver import SolveOptions
from liftconv.util import ZeroVectorError, derive_seed, fmt_float

README = Path(__file__).resolve().parents[1] / "README.md"

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
    # the planted caps always reach the solver: the switch is gone
    # and so do the solver's step tolerance and the success threshold,
    # which are constants
    for setting in ("enforce_flatness=false", "outer_tol=1e-3", "success_threshold=1e-3"):
        key = setting.split("=")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"kind=recover\nn=8\nm=4\ns1=1\ns2=1\n{setting}\n")
    # the aliased angle statistic is the isometry statistic: kind=rip
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("kind=rap\nn=8\nm=4\ns1=1\ns2=1\ndiagonal=true\n")


def test_the_sparsity_flavor_is_not_a_config_key():
    # every model is s-sparse: the flavor picked nothing a run could observe
    with pytest.raises(ConfigError, match="unknown key 'flavor'"):
        parse_config("kind=rap\nn=8\nm=4\ns1=1\ns2=1\nflavor=exact\n")


@pytest.mark.parametrize("command", ["rip-estimate", "rap-estimate", "rop-estimate",
                                     "recover"])
def test_the_sparsity_flavor_is_not_a_run_flag(command, capsys):
    assert main([command, "--n", "8", "--m", "4", "--s1", "1", "--s2", "1",
                 "--flavor", "exact"]) == 2
    assert "unrecognized arguments: --flavor exact" in capsys.readouterr().err


def test_parse_config_rejects_key_for_wrong_kind():
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config("kind=rip\nn=8\nm=4\ns1=1\ns2=1\ndecoupled=true\n")


def _run_config(*argv) -> SweepConfig:
    """The one-cell config a single run's command line resolves to."""
    return cli._one_cell(build_parser().parse_args(list(argv)))


def test_solver_and_trial_defaults_are_written_once():
    # a bare single run resolves to parse_config's defaults, and a recover
    # config's solver settings default to SolveOptions'
    core = ["--n", "8", "--m", "4", "--s1", "1", "--s2", "1"]
    for kind in SWEEP_KINDS:
        command = kind if kind == "recover" else f"{kind}-estimate"
        cfg = _run_config(command, *core)
        assert cfg == parse_config(f"kind={kind}\nn=8\nm=4\ns1=1\ns2=1\n")
    opts = SolveOptions(s1=1, s2=1)
    for key in ("max_outer_iters", "restarts"):
        assert getattr(cfg, key) == getattr(opts, key)


def test_every_sweep_config_field_is_a_config_key():
    # a field no config can set would be a setting nothing varies
    assert {f.name for f in dataclasses.fields(SweepConfig)} == cli._ALL_KEYS


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
    # a nan noise ran noiseless under a row labelled nan; inf wrote
    # rel_q50=inf rows
    for setting in ("noise=-0.5", "noise=nan", "noise=inf", "noise=0.0,nan"):
        with pytest.raises(ConfigError, match=setting.split("=")[0]):
            parse_config(f"kind=recover\nn=8\nm=4\ns1=1\ns2=1\n{setting}\n")
    with pytest.raises(ConfigError, match="trials"):
        parse_config("kind=rip\nn=8\nm=4\ns1=1\ns2=1\ntrials=0\n")


@pytest.mark.parametrize("setting", ["restarts=-1", "max_outer_iters=0"])
def test_parse_config_rejects_bad_solver_settings(setting):
    # rejected with the config, not inside the first cell after planting
    with pytest.raises(ConfigError, match="bad solver settings"):
        parse_config(f"kind=recover\nn=8\nm=4\ns1=1\ns2=1\n{setting}\n")


@pytest.mark.parametrize("bad, match", [
    (dict(kind="rap", n=[8], m=[4, 16], s1=[2], s2=[2], trials=3), "m > n"),
    (dict(kind="recover", n=[8], m=[4], s1=[1], s2=[1], restarts=-1), "bad solver settings"),
    (dict(kind="sweep", n=[8], m=[4], s1=[1], s2=[1]), "kind"),
])
def test_a_sweep_config_that_cannot_run_is_rejected_when_constructed(tmp_path, bad, match):
    # built directly, not parsed: a config with a cell that cannot run is
    # rejected before run_sweep writes any row, header or .meta
    out = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match=match):
        run_sweep(SweepConfig(**bad), str(out))
    assert not out.exists()
    assert not Path(str(out) + ".meta").exists()


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
    for key in ("decoupled", "orthogonality", "max_outer_iters", "noise", "restarts"):
        assert key not in meta

    rop = tmp_path / "rop.csv"
    run_sweep(parse_config(RIP_CONFIG.replace("kind = rip", "kind = rop")
                           + "decoupled = true\n"), str(rop))
    meta = _meta(rop)
    assert meta["orthogonality"] == "both" and meta["decoupled"] == "true"
    assert "restarts" not in meta and "max_outer_iters" not in meta

    rec = tmp_path / "recover.csv"
    run_sweep(parse_config(RECOVER_CONFIG), str(rec))
    meta = _meta(rec)
    assert meta["restarts"] == "2" and meta["max_outer_iters"] == "8"
    assert meta["noise"] == "0.0"
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


def test_failed_estimator_cell_keeps_its_row_and_exits_3(tmp_path, monkeypatch):
    # the mu2 = 2.0 cap binds (s2 = 3), and its flat projection is made
    # to fail; the forked workers inherit the patch
    def refuse(x, mu, off=None):
        raise OrthogonalizationError("flat projection refused")

    monkeypatch.setattr(models, "_flat_descent", refuse)
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


ROP_CONFIG = """
kind = rop
n = 16
m = 8
s1 = 1
s2 = 1,2
trials = 5
"""


def test_rop_cell_that_spends_its_draws_keeps_its_row_and_exits_3(
        tmp_path, monkeypatch, caplog):
    # partners on the s2 = 2 side are refused, so trial 0 of that cell
    # spends all its draws; the forked workers inherit the patch
    real = concentration.orthogonalize_pair

    def refuse_s2(u, u_hat, spec):
        if spec.s == 2:
            raise OrthogonalizationError("partner refused")
        return real(u, u_hat, spec)

    monkeypatch.setattr(concentration, "orthogonalize_pair", refuse_s2)
    cfg_path = tmp_path / "rop.cfg"
    cfg_path.write_text(ROP_CONFIG)
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        with caplog.at_level("ERROR", logger="liftconv"):
            assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--workers", workers]) == 3
        outs.append((_read(out), _read(str(out) + ".meta")))
    assert outs[0] == outs[1]
    assert "orthogonalization failed 8 times in trial 0" in caplog.text
    ok, failed = csv.DictReader(outs[0][0].decode().splitlines())
    assert float(ok["delta_hat"]) > 0 and ok["s2"] == "1"
    assert failed["s2"] == "2" and failed["trials"] == "5"
    assert all(failed[k] == "" for k in ("delta_hat", "q50", "q90", "q99"))


# A recover sweep whose caps cannot bind (mu2 = 3.0 >= s2 = 2): sha256
# of the CSV and of the .meta, recorded when the caps reached the solver
# only under enforce_flatness (off here), with that key's line dropped
# from the .meta, and since then the outer_tol and success_threshold
# lines too. Caps that cannot bind must leave every byte as it was.
NONBINDING_CAP_CONFIG = """
kind = recover
n = 32,64
m = 16,24
s1 = 2
s2 = 2
mu2 = none,3.0
noise = 0,0.01
trials = 2
restarts = 3
max_outer_iters = 20
"""
_NONBINDING_CAP_RECORD = (
    "ef7a1bf368f43de58a8eb66143e238ff00a7b668f487726556f2c74e00b2cefe",
    "cb4a06c301f908d83482b9b09bd5029210557ad224acd8133aa0a28263d48e05",
)


@pytest.mark.parametrize("workers", [1, 2])
def test_recover_sweep_with_caps_that_cannot_bind_matches_its_recorded_bytes(
        workers, tmp_path):
    out = tmp_path / "rec.csv"
    run_sweep(parse_config(NONBINDING_CAP_CONFIG), str(out), workers=workers)
    got = tuple(hashlib.sha256(_read(p)).hexdigest() for p in (out, str(out) + ".meta"))
    assert got == _NONBINDING_CAP_RECORD, recorded_under()


@pytest.mark.parametrize("trial, error, success_rate", [
    (1, ZeroVectorError("degenerate data"), "0.0"),
    (1, np.linalg.LinAlgError("degenerate data"), "0.0"),
    (1, FloatingPointError("degenerate data"), "0.0"),
    (0, ZeroVectorError("degenerate data"), "0.5"),
], ids=["zero-vector", "linalg", "floating-point", "breakdown-on-a-miss"])
def test_a_failed_recover_trial_is_logged_and_counts_as_a_miss(
        trial, error, success_rate, tmp_path, monkeypatch, caplog):
    # a numeric failure in one trial became rel = inf with nothing logged
    real, calls = cli.recover, []

    def one_trial_fails(ens, b, opts):
        calls.append(1)
        if len(calls) == trial + 1:
            raise error
        return real(ens, b, opts)

    out = tmp_path / "rec.csv"
    run_sweep(parse_config(RECOVER_CONFIG), str(out))
    clean = _read(out)
    monkeypatch.setattr(cli, "recover", one_trial_fails)
    with caplog.at_level("ERROR", logger="liftconv"):
        assert run_sweep(parse_config(RECOVER_CONFIG), str(out)) == 1
    (record,) = caplog.records
    message = record.getMessage()
    assert record.levelname == "ERROR"
    assert "'m': 12" in message and f"trial {trial} failed: degenerate data" in message
    # trial 1 is a hit when it runs and becomes a miss; trial 0 is a
    # miss either way, so the row's success rate keeps its value
    (row,) = csv.DictReader(_read(out).decode().splitlines())
    (clean_row,) = csv.DictReader(clean.decode().splitlines())
    assert (clean_row["success_rate"], row["success_rate"]) == ("0.5", success_rate)
    assert row["seed"] == clean_row["seed"]


@pytest.mark.parametrize("rel, hits", [
    (0.0, 2),
    (1e-4, 2),
    (float(np.nextafter(1e-4, np.inf)), 0),
], ids=["exact", "at-threshold", "just-above"])
def test_a_recover_trial_succeeds_at_relative_error_1e_4(rel, hits, monkeypatch):
    # the threshold is a constant, the one C10 and the bench use, and inclusive
    assert cli._SUCCESS_REL == 1e-4
    monkeypatch.setattr(cli, "_run_recover", lambda cfg, cell, seed: (None, rel, 0.0))
    cfg = parse_config(RECOVER_CONFIG)
    (cell,) = cfg.cells()
    row = cli._recover_cell(cfg, cell, cfg.cell_seed(cell))
    assert row["success_rate"] == hits / cfg.trials
    assert row["rel_q50"] == row["rel_q90"] == rel


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


def test_cli_recover_shows_the_caps_it_solved_with(tmp_path, capsys):
    path = tmp_path / "one.csv"
    assert main(["recover", "--n", "16", "--m", "12", "--s1", "2", "--s2", "2",
                 "--mu1", "3", "--seed", "115", "--csv", str(path)]) == 0
    printed = dict(line.split("=", 1) for line in capsys.readouterr().out.split())
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    for shown in (printed, row):
        assert (shown["mu1"], shown["mu2"]) == ("3.0", "")


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


@pytest.mark.parametrize("args, digest", [
    ("--n 64 --m 16 --s1 2 --s2 2",
     "a64ede0295cd2dbd4eef84a5f88e1ce31d28ce64414220af160a71fd44d33860"),
    ("--n 128 --m 32 --s1 3 --s2 3 --mu1 1.5 --mu2 2",
     "48dbf613d1244a80b2a91b94b93626cc026ec7dbbe81eaec8416a291e7b2cfe4"),
    ("--n 256 --m 64 --s1 4 --s2 2 --delta 0.1 --big-c 2.5",
     "56459f6f074424aa8017cea0f742070bce1911427fcbec3c4a31101a06d71704"),
], ids=["defaults", "caps", "delta-big-c"])
def test_cli_bounds_table_is_pinned(args, digest, capsys):
    # sha256 of the whole table, recorded before the flags were declared
    # from BoundQuery's fields
    assert main(["bounds", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, recorded_under()


def test_cli_bounds_flags_are_the_bound_query_fields(monkeypatch, capsys):
    # the flags' defaults are BoundQuery's, and the table reads the query
    queries = []
    real = cli.sample_complexity
    monkeypatch.setattr(cli, "sample_complexity",
                        lambda query, which: queries.append(query) or real(query, which))
    core = ["bounds", "--n", "64", "--m", "16", "--s1", "2", "--s2", "3"]
    assert main(core) == 0
    assert set(queries) == {BoundQuery(n=64, m=16, s1=2, s2=3)}
    queries.clear()
    assert main([*core, "--mu1", "1.5", "--mu2", "2", "--delta", "0.25", "--big-c", "3"]) == 0
    assert set(queries) == {BoundQuery(64, 16, 2, 3, mu1=1.5, mu2=2.0, delta=0.25, big_c=3.0)}
    capsys.readouterr()
    assert main(["bounds", "--help"]) == 0
    usage = capsys.readouterr().out.split("options:", 1)[0]
    assert [tok.strip("[]") for tok in usage.split() if tok.lstrip("[").startswith("--")] == [
        "--" + f.name.replace("_", "-") for f in dataclasses.fields(BoundQuery)]


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
    assert main(["rap-estimate", "--n", "8", "--m", "4", "--s1", "1",
                 "--s2", "1", "--diagonal"]) == 2           # option removed
    assert main(["recover", "--n", "8", "--m", "4", "--s1", "1",
                 "--s2", "1", "--outer-tol", "1e-3"]) == 2  # a solver constant
    assert main(["selftest"]) == 2                          # subcommand removed
    # s1 > n: a point no sparse model admits
    assert main(["bounds", "--n", "128", "--m", "64", "--s1", "200", "--s2", "2"]) == 2
    # orthogonal partners cannot exist in a one-dimensional model: bad input
    assert main(["rop-estimate", "--n", "1", "--m", "1", "--s1", "1",
                 "--s2", "1", "--trials", "1"]) == 2


@pytest.mark.parametrize("n, code", [(64, 0), (1, 2)])
def test_the_console_script_exits_with_the_code_main_returns(monkeypatch, n, code):
    monkeypatch.setattr("sys.argv", ["liftconv", "bounds", "--n", str(n), "--m", "16",
                                     "--s1", "2", "--s2", "2"])
    with pytest.raises(SystemExit) as exit_:
        cli.main_entry()
    assert exit_.value.code == code


def test_cli_recover_exits_3_when_every_attempt_collapses(monkeypatch, caplog):
    monkeypatch.setattr(solver, "_run_attempt", lambda *args: None)
    monkeypatch.setattr(solver, "_FAN_OUT_S", math.inf)  # the restarts run in process
    with caplog.at_level("ERROR", logger="liftconv"):
        assert main(["recover", "--n", "16", "--m", "8", "--s1", "1", "--s2", "1"]) == 3
    assert "a factor collapsed to zero in all 15 attempts" in caplog.text


def test_every_library_exception_is_handled_by_main():
    # main maps these to exit 3 or 2; any other class would escape it as a traceback
    handled = (*cli._NUMERIC_ERRORS, ValueError, OSError)
    classes = {obj for info in pkgutil.iter_modules(liftconv.__path__)
               for obj in vars(importlib.import_module(f"liftconv.{info.name}")).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == f"liftconv.{info.name}"}
    assert {ZeroVectorError, OrthogonalizationError, ConfigError, cli.CellFailureError} <= classes
    assert sorted(cls.__name__ for cls in classes if not issubclass(cls, handled)) == []


@pytest.mark.parametrize("flag, value", [
    ("--noise", "-0.5"), ("--noise", "nan"), ("--noise", "inf"),
])
def test_cli_recover_rejects_bad_settings_before_solving(flag, value, monkeypatch):
    # a negative noise ran noiseless and exited 0
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


@pytest.mark.parametrize("body", ["m=4\ns1=1\ns2=1\ncolor=blue", "m=8,-2\ns1=1\ns2=1"],
                         ids=["unknown-key", "nonpositive-m"])
def test_cli_rejects_bad_config_file(tmp_path, body):
    # every cell is validated before the first row is written
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"kind=rip\nn=8\n{body}\n")
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind, key, value", [
    ("rap", "m", "16"), ("rap", "m", "0"), ("rip", "m", "-1"), ("rip", "m", ""),
    ("rap", "s1", "9"), ("rap", "mu1", "0.5"), ("rap", "trials", "0"),
    ("recover", "noise", "nan"), ("recover", "phi", "wavelet"),
    ("recover", "restarts", "-1"),
])
def test_single_runs_and_sweeps_share_one_validation(kind, key, value, monkeypatch):
    settings = {"n": "8", "m": "4", "s1": "1", "s2": "1", key: value}
    with pytest.raises(ConfigError):
        parse_config(f"kind={kind}\n" + "".join(f"{k}={v}\n" for k, v in settings.items()))

    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(Ensemble, "generate", never)
    monkeypatch.setattr(cli, "plant_instance", never)
    argv = ["recover" if kind == "recover" else f"{kind}-estimate"]
    for k, v in settings.items():
        argv += ["--" + k.replace("_", "-"), v]
    assert main(argv) == 2


@pytest.mark.parametrize("text", [
    RIP_CONFIG.replace("m = 4,6", "m = 4,6\nmu2 = none,2.0"),
    RIP_CONFIG.replace("kind = rip", "kind = rop") + "decoupled = true\northogonality = either\n",
    RECOVER_CONFIG + "noise = 0.0,0.01\nmu1 = 3.0\n",
])
def test_meta_lines_parse_back_to_the_config(text):
    # every key a .meta records parses back with its SweepConfig type
    cfg = parse_config(text)
    assert parse_config("".join(f"{k}={v}\n" for k, v in cfg.resolved().items())) == cfg


def test_sweep_starts_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    forks = record_forks(monkeypatch)
    run_sweep(parse_config(RIP_CONFIG), str(tmp_path / "two.csv"), workers=64)
    assert len(forks) == 1
    run_sweep(parse_config(RIP_CONFIG, overrides=["m=4"]), str(tmp_path / "one.csv"),
              workers=64)
    assert len(forks) == 1


def test_a_sweep_whose_fork_fails_runs_its_cells_and_writes_the_serial_bytes(
        tmp_path, monkeypatch, caplog):
    # a failed fork exited 2, as bad input, with only the CSV header written
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(RIP_CONFIG)
    serial = tmp_path / "serial.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(serial)]) == 0

    def fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    out = tmp_path / "out.csv"
    with caplog.at_level("WARNING", logger="liftconv"):
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "2"]) == 0
    assert "could not start a worker process" in caplog.text
    assert out.read_bytes() == serial.read_bytes()
    assert (tmp_path / "out.csv.meta").read_bytes() == (tmp_path / "serial.csv.meta").read_bytes()


def test_a_sweep_worker_lost_without_a_result_exits_4(tmp_path, monkeypatch, caplog):
    # a forked sibling that dies inside a cell (killed, out of memory)
    # raised nothing and hung or escaped as a traceback; now run_sweep
    # names it once the others are reaped, and main exits 4
    caller, real = os.getpid(), cli._execute_cell

    def sibling_dies(payload):
        if os.getpid() != caller:
            os._exit(9)
        time.sleep(0.2)  # leaves cells for the sibling to claim
        return real(payload)

    monkeypatch.setattr(cli, "_execute_cell", sibling_dies)
    cfg = parse_config(RIP_CONFIG, overrides=["m=4,5,6,7"])
    out = tmp_path / "out.csv"
    with pytest.raises(ChildProcessError, match=r"worker process \d+ ended \(exit status 9\)"):
        run_sweep(cfg, str(out), workers=2)
    assert not (tmp_path / "out.csv.meta").exists()
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(RIP_CONFIG)
    with caplog.at_level("ERROR", logger="liftconv"):
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "2"]) == 4
    assert "without sending its results" in caplog.text
    assert no_children()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_a_worker_count_below_1(workers, tmp_path, monkeypatch):
    # such a count ran the cells serially and exited 0
    def never(payload):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "_execute_cell", never)
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(RIP_CONFIG)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--workers", workers]) == 2
    assert not out.exists()


def test_rop_sweep_with_a_one_dimensional_cell_exits_2_and_writes_nothing(tmp_path):
    # an rop cell at n = 1 has no orthogonal pairs; it wrote an empty row
    # and exited 3
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("kind=rop\nn=1,8\nm=1\ns1=1\ns2=1\ntrials=2\nseed=3\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "out.csv.meta").exists()


def test_interrupted_sweep_keeps_finished_rows_and_no_meta(tmp_path, monkeypatch):
    cfg = parse_config(RIP_CONFIG, overrides=["m=4,5,6,7"])
    out = tmp_path / "out.csv"
    run_sweep(cfg, str(out))
    full = _read(out)
    real, calls = cli._execute_cell, []

    def third_cell_dies(payload):
        calls.append(payload)
        if len(calls) == 3:
            raise RuntimeError("killed")
        return real(payload)

    monkeypatch.setattr(cli, "_execute_cell", third_cell_dies)
    # rerun into the finished sweep's files: the old .meta goes first
    with pytest.raises(RuntimeError, match="killed"):
        run_sweep(cfg, str(out))
    assert _read(out).splitlines() == full.splitlines()[:3]
    assert not (tmp_path / "out.csv.meta").exists()


def test_isotropy_takes_no_dictionary_flags(capsys):
    argv = ["isotropy", "--n", "8", "--m", "4", "--draws", "20", "--seed", "1"]
    assert main(argv) == 0
    assert main(argv + ["--phi", "identity"]) == 2
    assert main(argv + ["--psi", "identity"]) == 2


def test_run_flags_are_the_sweep_keys_and_hold_no_defaults():
    # every run flag is a raw string handed to parse_config, which alone
    # types, defaults and validates it
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    for kind in SWEEP_KINDS:
        sp = subparsers[kind if kind == "recover" else f"{kind}-estimate"]
        flags = {a.dest: a for a in sp._actions if a.dest not in ("help", "csv")}
        keys = cli._KIND_KEYS[kind] - {"kind"}
        if kind == "recover":
            keys -= {"trials"}
        assert set(flags) == keys
        for action in flags.values():
            assert action.default is argparse.SUPPRESS
            assert action.type is None and action.choices is None
        assert {a for a in flags if flags[a].required} == {"n", "m", "s1", "s2"}


def test_run_flags_take_the_config_spellings():
    core = ["--n", "8", "--m", "4", "--s1", "1", "--s2", "1"]
    assert _run_config("rop-estimate", *core, "--decoupled").decoupled is True
    assert _run_config("rop-estimate", *core, "--decoupled", "false").decoupled is False
    assert _run_config("rip-estimate", *core, "--mu1", "none", "--mu2", "1").mu1 == [None]
    with pytest.raises(ConfigError, match="bad value 'eight' for key 'n'"):
        _run_config("recover", "--n", "eight", "--m", "4", "--s1", "1", "--s2", "1")


def test_cli_run_help_lists_choices_and_required_flags(capsys):
    assert main(["rop-estimate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--n N --m M --s1 S1 --s2 S2" in out
    for choices in ("{gaussian,identity}", "{without_replacement,iid_uniform}",
                    "{both,either}"):
        assert choices in out
    assert "--flavor" not in out


def test_cli_single_run_logs_nothing_and_rejects_a_grid(caplog, capsys):
    with caplog.at_level("INFO", logger="liftconv"):
        assert main(["rip-estimate", "--n", "8", "--m", "4", "--s1", "1",
                     "--s2", "1", "--trials", "2"]) == 0
    assert caplog.records == []
    # a flag takes one value; a grid is a sweep
    assert main(["rip-estimate", "--n", "8", "--m", "4,6", "--s1", "1",
                 "--s2", "1", "--trials", "2"]) == 2


def test_readme_and_docstring_name_exactly_the_subcommands():
    registered = set(next(a for a in build_parser()._actions if a.dest == "command").choices)
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    assert {line.split()[1] for line in block.splitlines()
            if line.startswith("liftconv ")} == registered
    body = cli.__doc__.split("Subcommands\n-----------\n", 1)[1].split("\nExit codes", 1)[0]
    assert {name for line in body.splitlines() if line and not line[0].isspace()
            for name in line.split(" / ")} == registered


def test_readme_command_lines_and_sweep_config_parse():
    # nothing runs: each command line parses, each run line's flags resolve
    # to a one-cell config, and the sample sweep config is a valid config
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    run_kinds = []
    for line in block.splitlines():
        if line.startswith("liftconv "):
            args = build_parser().parse_args(shlex.split(line)[1:])
            if hasattr(args, "kind"):
                run_kinds.append(cli._one_cell(args).kind)
    assert sorted(run_kinds) == sorted(SWEEP_KINDS)
    ini = section.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config(ini).kind == "recover"

"""Command line front end: one-cell runs, parameter sweeps, formula tables.

Subcommands
-----------
rip-estimate / rap-estimate / rop-estimate
    One Monte Carlo estimation run; prints the report as key=value
    lines (wall_time and resamples included); --csv writes the report
    with its wall_time as a one-row CSV, replacing any old content.
    rip-estimate measures the isometry deviation, rap-estimate the
    angle deviation over independent pairs, rop-estimate the measured
    inner product of pairs orthogonal on --orthogonality's sides. Their
    flags, like recover's, are the sweep keys of the same name, parsed
    by parse_config.
isotropy
    Monte Carlo check (no --phi/--psi: see --fixed-kind) that averaging
    A*A over one dictionary reproduces the closed-form expectation.
recover
    Plant a sparse pair, measure it, run the alternating solver; prints
    the result as key=value lines, with the attempts and the half-steps
    they took after the CSV fields; --csv writes a one-row CSV without
    those two. The planted --mu1/--mu2 caps bound the coefficient
    vectors' flatness; the solver moves a factor whose cap binds inside
    the cap on its support, once.
sweep
    Grid of estimation or recovery cells from a key=value config file.
    The output CSV is a pure function of the resolved config: cell
    seeds are derived from the cell coordinates and rows carry no
    timing, so reruns and different --workers counts (at most one per
    cell) produce identical bytes. Rows are written in cell order as
    cells finish and the .meta sidecar (the resolved config) last, so a
    CSV without a .meta is an interrupted run. With --workers 1 the
    cells run in this process, where a solve may fan its restarts out
    to forked siblings (solver.recover); with more, this process and
    workers - 1 forked siblings each claim the next cell, and their
    solves keep their restarts in process, so fan-outs never nest; no
    byte depends on it. A worker that dies without its results (killed,
    out of memory) stops the sweep with exit 4. A failed estimator cell
    keeps its row with empty statistics; the sweep then exits 3. A
    recover trial succeeds at relative error 1e-4 or less; one that
    fails numerically is logged and counts as a miss.
bounds
    Closed-form sample-complexity and entropy quantities for one
    parameter point; exits 2 when n < 2 or m, s1, s2 or a cap exceeds n.

Exit codes: 0 success, 2 bad arguments or config, 3 numeric failure
(including a zero vector met partway through a draw or a solve), 4 a
forked worker process died without sending its results.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bounds import (
    _COMPLEXITY_COMBOS,
    BoundQuery,
    angle_preservation_bound,
    dudley_fourier_bound,
    dudley_sparse_bound,
    gamma2_bound,
    maurey_f,
    maurey_h,
    sample_complexity,
    solve_a,
)
from .concentration import (
    estimate_rap,
    estimate_rip,
    estimate_rop,
    isotropy_check,
)
from .measurement import (
    DICTIONARY_KINDS,
    OMEGA_MODES,
    Ensemble,
    LiftedPoint,
)
from .models import ModelSpec, OrthogonalizationError, sample_model
from .solver import SolveOptions, plant_instance, recover, success_metric
from .util import ZeroVectorError, derive_seed, fan_out, fmt_float, rng_for

log = logging.getLogger("liftconv")

ESTIMATE_FIELDS = (
    "kind", "n", "m", "s1", "s2", "mu1", "mu2", "trials",
    "delta_hat", "q50", "q90", "q99", "seed",
)
RECOVER_FIELDS = (
    "kind", "n", "m", "s1", "s2", "mu1", "mu2", "trials", "noise",
    "success_rate", "rel_q50", "rel_q90", "seed",
)
# a recover trial succeeds when its relative lifted error is at most this
_SUCCESS_REL = 1e-4


class CellFailureError(RuntimeError):
    """Some sweep cells failed; raised after every row has been written."""


_NUMERIC_ERRORS = (
    CellFailureError,
    OrthogonalizationError,
    ZeroVectorError,
    np.linalg.LinAlgError,
    ArithmeticError,
)


class ConfigError(ValueError):
    pass


# -- config parsing -----------------------------------------------------------

def _cap(tok: str):
    return None if tok.lower() == "none" else float(tok)


# grid keys -> element parser; a scalar key parses as its SweepConfig default's type
_GRID_KEYS = {"n": int, "m": int, "s1": int, "s2": int,
              "mu1": _cap, "mu2": _cap, "noise": float}
_FLAGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

_BASE_KEYS = frozenset(
    ("kind", "n", "m", "s1", "s2", "mu1", "mu2", "trials", "seed",
     "phi", "psi", "omega_mode")
)
_KIND_KEYS = {
    "rip": _BASE_KEYS,
    "rap": _BASE_KEYS,
    "rop": _BASE_KEYS | {"orthogonality", "decoupled"},
    "recover": _BASE_KEYS | {"noise", "max_outer_iters", "restarts"},
}
SWEEP_KINDS = tuple(_KIND_KEYS)
_ALL_KEYS = frozenset().union(*_KIND_KEYS.values())
# keys with a fixed set of values, checked by SweepConfig and listed in the run flags' help
_CHOICES = {"phi": DICTIONARY_KINDS, "psi": DICTIONARY_KINDS,
            "omega_mode": OMEGA_MODES, "orthogonality": ("both", "either")}


@dataclasses.dataclass
class SweepConfig:
    """Fully resolved sweep description; one instance defines one CSV."""

    kind: str
    n: list
    m: list
    s1: list
    s2: list
    mu1: list = dataclasses.field(default_factory=lambda: [None])
    mu2: list = dataclasses.field(default_factory=lambda: [None])
    noise: list = dataclasses.field(default_factory=lambda: [0.0])
    trials: int = 100
    seed: int = 0
    phi: str = "gaussian"
    psi: str = "gaussian"
    omega_mode: str = "without_replacement"
    orthogonality: str = "both"
    decoupled: bool = False
    max_outer_iters: int = SolveOptions.max_outer_iters
    restarts: int = SolveOptions.restarts

    def __post_init__(self):
        """Reject a config with a cell that cannot run."""
        if self.kind not in SWEEP_KINDS:
            raise ConfigError(f"kind must be one of {SWEEP_KINDS}, got {self.kind!r}")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        for key, options in _CHOICES.items():
            if getattr(self, key) not in options:
                raise ConfigError(f"{key} must be one of {options}")
        if self.kind == "recover":
            try:
                SolveOptions(s1=1, s2=1, max_outer_iters=self.max_outer_iters,
                             restarts=self.restarts)
            except ValueError as exc:
                raise ConfigError(f"bad solver settings: {exc}") from None
        for cell in self.cells():
            try:
                ModelSpec(cell["n"], cell["s1"], mu=cell["mu1"])
                ModelSpec(cell["n"], cell["s2"], mu=cell["mu2"])
            except ValueError as exc:
                raise ConfigError(f"bad cell {cell}: {exc}") from None
            if not 1 <= cell["m"] <= cell["n"]:
                raise ConfigError(f"bad cell {cell}: m must be positive" if cell["m"] < 1 else
                                  f"bad cell {cell}: m > n; an ensemble keeps at most n samples")
            if self.kind == "rop" and cell["n"] < 2:
                raise ConfigError(f"bad cell {cell}: rop needs n >= 2 for orthogonal pairs")
            if self.kind == "recover" and not 0 <= cell["noise"] < math.inf:
                raise ConfigError("noise must be finite and nonnegative")

    def cells(self) -> list:
        """Grid points in _GRID_KEYS order, the last key varying fastest."""
        axes = [getattr(self, key) for key in _GRID_KEYS]
        if self.kind != "recover":
            axes[-1] = [None]
        return [dict(zip(_GRID_KEYS, point)) for point in itertools.product(*axes)]

    def cell_seed(self, cell: dict) -> int:
        """Seed derived from the kind, each grid key and its value in
        _GRID_KEYS order, and the trial count."""
        keyed = itertools.chain.from_iterable((key, cell[key]) for key in _GRID_KEYS)
        return derive_seed(self.seed, self.kind, *keyed, "trials", self.trials)

    def resolved(self) -> dict:
        """Canonical text of the keys that apply to this kind, for the .meta sidecar."""
        out = {}
        for key in _KIND_KEYS[self.kind]:
            v = getattr(self, key)
            if isinstance(v, list):
                out[key] = ",".join(_cfg_text(e) for e in v)
            else:
                out[key] = _cfg_text(v)
        return out


def _cfg_text(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def _scalar(key: str, tok: str):
    tok = tok.strip()
    parse = _GRID_KEYS.get(key) or type(getattr(SweepConfig, key))
    try:
        return _FLAGS[tok.lower()] if parse is bool else parse(tok)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value {tok!r} for key {key!r}") from None


def _parse_lines(lines, raw: dict, origin: str):
    for idx, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{origin}:{idx}: expected key=value, got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{origin}:{idx}: unknown key {key!r}")
        if key in raw:
            log.info("config override %s=%s (was %s, from %s)",
                     key, value.strip(), raw[key], origin)
        raw[key] = value.strip()


def parse_config(text: str, overrides=()) -> SweepConfig:
    """Parse a flat key=value config, then apply --set overrides in order.

    Grid keys (n, m, s1, s2, mu1, mu2, noise) accept comma-separated
    lists; everything else is a scalar. Unknown keys and keys that do
    not apply to the configured kind are rejected.
    """
    raw: dict = {}
    _parse_lines(text.splitlines(), raw, "config")
    _parse_lines(overrides, raw, "--set")

    kind = raw.pop("kind", None)
    if kind not in SWEEP_KINDS:
        raise ConfigError(f"kind must be one of {SWEEP_KINDS}, got {kind!r}")
    allowed = _KIND_KEYS[kind]
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"key {key!r} does not apply to kind {kind!r}")
    for key in ("n", "m", "s1", "s2"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    values: dict = {"kind": kind}
    for key, tok in raw.items():
        if key in _GRID_KEYS:
            values[key] = [_scalar(key, t) for t in tok.split(",") if t.strip()]
            if not values[key]:
                raise ConfigError(f"empty value list for key {key!r}")
        else:
            values[key] = _scalar(key, tok)
    return SweepConfig(**values)


# -- sweep execution ----------------------------------------------------------


def _fmt_cell_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(float(v))
    return str(v)


def _run_estimate(cfg: SweepConfig, cell: dict, seed: int):
    """One estimator run of cfg.kind at a cell."""
    ens = Ensemble.generate(cell["n"], cell["m"], cfg.phi, cfg.psi,
                            seed=derive_seed(seed, "ensemble"),
                            omega_mode=cfg.omega_mode)
    spec_u = ModelSpec(cell["n"], cell["s1"], mu=cell["mu1"], side="left")
    spec_v = ModelSpec(cell["n"], cell["s2"], mu=cell["mu2"], side="right")
    if cfg.kind == "rip":
        return estimate_rip(ens, spec_u, spec_v, cfg.trials, seed=seed)
    if cfg.kind == "rap":
        return estimate_rap(ens, spec_u, spec_v, cfg.trials, seed=seed)
    return estimate_rop(ens, spec_u, spec_v, cfg.trials, seed=seed,
                        orthogonality=cfg.orthogonality,
                        decoupled=cfg.decoupled)


def _run_recover(cfg: SweepConfig, cell: dict, seed: int):
    """Plant, solve and score one instance at a cell: (result, relative
    error, noise ratio). The cell's caps bound the flatness of the planted
    coefficient vectors and reach the solver, which moves its estimate
    inside the cap on each side whose cap binds (mu < s)."""
    solve_opts = SolveOptions(s1=cell["s1"], s2=cell["s2"],
                              max_outer_iters=cfg.max_outer_iters,
                              restarts=cfg.restarts, seed=seed,
                              mu1=cell["mu1"], mu2=cell["mu2"])
    ens, truth, b, z_norm = plant_instance(
        cell["n"], cell["m"], cell["s1"], cell["s2"], seed=seed,
        phi_kind=cfg.phi, psi_kind=cfg.psi,
        mu1=cell["mu1"], mu2=cell["mu2"],
        noise_level=cell["noise"], omega_mode=cfg.omega_mode)
    res = recover(ens, b, solve_opts)
    rel, noise_ratio = success_metric(res.point, truth, b, z_norm, ens)
    return res, rel, noise_ratio


def _estimate_row(cfg: SweepConfig, cell: dict, seed: int, rep) -> dict:
    """An estimator cell's row in ESTIMATE_FIELDS order; without a report
    (rep None, the run failed) its statistics are empty."""
    row = {"kind": cfg.kind, **{k: cell[k] for k in ("n", "m", "s1", "s2", "mu1", "mu2")},
           "trials": cfg.trials, "delta_hat": None, "q50": None, "q90": None,
           "q99": None, "seed": seed}
    if rep is not None:
        row.update(delta_hat=rep.delta_hat, q50=rep.quantiles[0.5],
                   q90=rep.quantiles[0.9], q99=rep.quantiles[0.99])
    return row


def _execute_cell(payload) -> tuple:
    """Run one sweep cell: (formatted row, failed). A numeric failure in
    an estimator cell is logged; its row keeps coordinates, trials and
    seed, no statistics."""
    cfg, cell = payload
    seed = cfg.cell_seed(cell)
    if cfg.kind == "recover":
        row, failed = _recover_cell(cfg, cell, seed), False
    else:
        try:
            rep = _run_estimate(cfg, cell, seed)
        except _NUMERIC_ERRORS as exc:
            log.error("cell %s failed: %s", cell, exc)
            rep = None
        row, failed = _estimate_row(cfg, cell, seed, rep), rep is None
    return {k: _fmt_cell_value(v) for k, v in row.items()}, failed


def _recover_cell(cfg: SweepConfig, cell: dict, seed: int) -> dict:
    """Solve a recover cell's trials; a numeric failure is logged and is a miss."""
    rels = []
    successes = 0
    for t in range(cfg.trials):
        try:
            _, rel, _ = _run_recover(cfg, cell, derive_seed(seed, "instance", t))
        except _NUMERIC_ERRORS as exc:
            log.error("cell %s trial %d failed: %s", cell, t, exc)
            rel = float("inf")
        rels.append(rel)
        if rel <= _SUCCESS_REL:
            successes += 1
    # order statistics, no interpolation: stable under infinite entries
    q50, q90 = np.quantile(rels, [0.5, 0.9], method="lower")
    return {"kind": "recover", **cell, "trials": cfg.trials,
            "success_rate": successes / cfg.trials,
            "rel_q50": float(q50), "rel_q90": float(q90), "seed": seed}


def run_sweep(cfg: SweepConfig, out_path: str, workers: int = 1) -> int:
    """Execute every cell and write the CSV plus its .meta sidecar.

    The cells go through util.fan_out: this process and up to workers - 1
    forked siblings, at most one process per cell, each claim the next
    cell. Rows are written and flushed in cell order as cells finish,
    whatever the worker count, and the .meta last; cells reseed from
    their own coordinates, so the bytes depend only on the resolved
    config. Returns the number of rows, or raises CellFailureError after
    writing both files if any cell failed. A sibling that dies without
    its results raises ChildProcessError, with no .meta written. A
    worker count below 1 is rejected before anything runs.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    payloads = [(cfg, cell) for cell in cfg.cells()]
    fields = RECOVER_FIELDS if cfg.kind == "recover" else ESTIMATE_FIELDS
    failed = 0
    # a .meta marks a finished CSV: an old one must not outlive a rerun cut short
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path + ".meta")
    with open(out_path, "w", newline="") as fh, contextlib.closing(
            fan_out(_execute_cell, payloads, workers)) as rows:
        writer = csv.DictWriter(fh, fieldnames=list(fields), lineterminator="\n")
        writer.writeheader()
        for row, cell_failed in rows:
            writer.writerow(row)
            fh.flush()
            failed += cell_failed

    meta = cfg.resolved()
    meta["version"] = __version__
    meta["cells"] = str(len(payloads))
    with open(out_path + ".meta", "w") as fh:
        for key in sorted(meta):
            fh.write(f"{key}={meta[key]}\n")
    if failed:
        raise CellFailureError(
            f"{failed} of {len(payloads)} cells failed; their rows have empty statistics")
    return len(payloads)


# -- single-shot commands -----------------------------------------------------


def _print_kv(row: dict):
    for key, value in row.items():
        print(f"{key}={_fmt_cell_value(value)}")


def _write_csv_row(path: str, row: dict):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row), lineterminator="\n")
        writer.writeheader()
        writer.writerow({k: _fmt_cell_value(v) for k, v in row.items()})


def _one_cell(args) -> SweepConfig:
    """A single run's flags, which are sweep keys, parsed as a one-cell config."""
    flags = [f"{key}={value}" for key, value in vars(args).items()
             if key in _KIND_KEYS[args.kind] and key != "kind"]
    cfg = parse_config(f"kind={args.kind}", overrides=flags)
    if len(cfg.cells()) > 1:
        raise ConfigError("a single run takes one value per flag; use sweep for a grid")
    return cfg


def _cmd_estimate(args) -> int:
    cfg = _one_cell(args)
    cell = cfg.cells()[0]
    rep = _run_estimate(cfg, cell, cfg.seed)
    row = {**_estimate_row(cfg, cell, cfg.seed, rep), "wall_time": rep.wall_time}
    _print_kv({**row, "resamples": rep.resamples})
    if args.csv:
        _write_csv_row(args.csv, row)
    return 0


def _cmd_isotropy(args) -> int:
    # without --s1/--s2 the signals are dense
    s1 = args.n if args.s1 is None else args.s1
    s2 = args.n if args.s2 is None else args.s2
    u = sample_model(ModelSpec(args.n, s1, side="left"), rng_for(args.seed, "iso-u"))
    v = sample_model(ModelSpec(args.n, s2, side="right"), rng_for(args.seed, "iso-v"))
    err = isotropy_check(args.n, args.m, LiftedPoint(u, v), args.draws,
                         seed=args.seed, fixed_kind=args.fixed_kind,
                         average_over=args.average_over,
                         omega_mode=args.omega_mode)
    _print_kv({"n": args.n, "m": args.m, "draws": args.draws,
               "average_over": args.average_over, "fixed_kind": args.fixed_kind,
               "seed": args.seed, "rel_error": err})
    return 0


def _cmd_recover(args) -> int:
    cfg = _one_cell(args)
    cell = cfg.cells()[0]
    t0 = time.perf_counter()
    res, rel, noise_ratio = _run_recover(cfg, cell, cfg.seed)
    row = {"n": cell["n"], "m": cell["m"], "s1": cell["s1"], "s2": cell["s2"],
           "mu1": cell["mu1"], "mu2": cell["mu2"],
           "seed": cfg.seed, "rel_error": rel, "iterations": res.iterations,
           "converged": int(res.converged), "residual_norm": res.residual_norm,
           "noise_ratio": noise_ratio, "wall_time": time.perf_counter() - t0}
    half_steps = sum(rec.half_steps for rec in res.attempt_log)
    _print_kv({**row, "attempts": res.attempts, "half_steps": half_steps})
    if args.csv:
        _write_csv_row(args.csv, row)
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read(), overrides=args.set or ())
    cells = run_sweep(cfg, args.out, workers=args.workers)
    log.info("wrote %d rows to %s", cells, args.out)
    return 0


def _cmd_bounds(args) -> int:
    query = BoundQuery(**{f.name: getattr(args, f.name) for f in dataclasses.fields(BoundQuery)
                          if hasattr(args, f.name)})
    n, m = query.n, query.m
    row: dict = {"a_star": solve_a()}
    for which in _COMPLEXITY_COMBOS:
        sc = sample_complexity(query, which)
        row[f"m_required_{which.replace('-', '_')}"] = sc.m_required
        row[f"feasible_{which.replace('-', '_')}"] = sc.feasible
    row["gamma2"] = gamma2_bound(query.s1, query.s2, query.mu2, m, n)
    row["angle_bound"] = angle_preservation_bound(query.delta)
    for label, s in (("s1", query.s1), ("s2", query.s2)):
        row[f"maurey_f_{label}"] = maurey_f(s, n)
        row[f"maurey_h_{label}"] = maurey_h(s, n, m)
        if 2 <= s <= n and n >= 3:
            row[f"dudley_sparse_{label}"] = dudley_sparse_bound(s, n)
        if 2 <= s <= n and 2 <= m <= n:
            row[f"dudley_fourier_{label}"] = dudley_fourier_bound(s, n, m)
    _print_kv(row)
    return 0


# -- argument parsing ---------------------------------------------------------


_FLAG_HELP = {"n": "signal length", "m": "number of samples kept", "s1": "left sparsity",
              "s2": "right sparsity", "mu1": "left flatness cap", "mu2": "right flatness cap",
              "noise": "noise norm relative to the clean measurement",
              "decoupled": "independent dictionary copies per side"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftconv",
        description="Subsampled convolution measurements of sparse rank-one "
                    "matrices: estimators, recovery, and closed-form bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    # run flags are the sweep keys: raw strings that _one_cell hands to parse_config
    for kind in SWEEP_KINDS:
        estimate = kind != "recover"
        sp = sub.add_parser(f"{kind}-estimate" if estimate else kind,
                            help=f"Monte Carlo {kind} constant estimate" if estimate
                            else "plant an instance and run the solver")
        keys = _KIND_KEYS[kind] - {"kind"}
        if not estimate:  # one solve: no trials
            keys -= {"trials"}
        for key in (f.name for f in dataclasses.fields(SweepConfig) if f.name in keys):
            options = _CHOICES.get(key)
            sp.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                            required=key in ("n", "m", "s1", "s2"), help=_FLAG_HELP.get(key),
                            metavar="{%s}" % ",".join(options) if options else None,
                            **({"nargs": "?", "const": "true"} if key == "decoupled" else {}))
        sp.add_argument("--csv", default=None, help="also write a one-row CSV")
        sp.set_defaults(func=_cmd_estimate if estimate else _cmd_recover, kind=kind)

    sp = sub.add_parser("isotropy", help="Monte Carlo mean of A*A against its expectation")
    sp.add_argument("--n", type=int, required=True, help="signal length")
    sp.add_argument("--m", type=int, required=True, help="number of samples kept")
    sp.add_argument("--omega-mode", choices=OMEGA_MODES, default="without_replacement")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--s1", type=int, default=None)
    sp.add_argument("--s2", type=int, default=None)
    sp.add_argument("--draws", type=int, default=1000)
    sp.add_argument("--fixed-kind", choices=DICTIONARY_KINDS, default="gaussian")
    sp.add_argument("--average-over", choices=("phi", "psi"), default="phi")
    sp.set_defaults(func=_cmd_isotropy)

    sp = sub.add_parser("sweep", help="run a config-defined grid to CSV")
    sp.add_argument("--config", required=True, help="key=value config file")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config entry (repeatable)")
    sp.set_defaults(func=_cmd_sweep)

    # bound flags are BoundQuery's fields: the ones without a default are
    # the integer dimensions, the rest parse as their default's type
    sp = sub.add_parser("bounds", help="closed-form bound table for one point")
    for f in dataclasses.fields(BoundQuery):
        required = f.default is dataclasses.MISSING
        sp.add_argument("--" + f.name.replace("_", "-"), required=required,
                        type=int if required else type(f.default), default=argparse.SUPPRESS)
    sp.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s",
                        level=logging.INFO)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        # before ValueError: ZeroVectorError is one
        log.error("numeric failure: %s", exc)
        return 3
    except ChildProcessError as exc:
        # before OSError: ChildProcessError is one
        log.error("%s", exc)
        return 4
    except (ConfigError, ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2


def main_entry():
    sys.exit(main(argv=None))


if __name__ == "__main__":
    main_entry()

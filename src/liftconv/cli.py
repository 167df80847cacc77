"""Command line front end: single runs, parameter sweeps, formula tables.

Subcommands
-----------
rip-estimate / rap-estimate / rop-estimate
    One Monte Carlo estimation run; prints the report as key=value
    lines (wall_time and resamples included); --csv writes the report
    with its wall_time as a one-row CSV, replacing any old content.
    rip-estimate measures the isometry deviation, rap-estimate the
    angle deviation over independent pairs.
isotropy
    Monte Carlo check that averaging A*A over one dictionary
    reproduces the closed-form expectation.
recover
    Plant a sparse pair, measure it, run the alternating solver; prints
    the result as key=value lines, with the attempts and the half-steps
    they took after the CSV fields; --csv writes a one-row CSV without
    those two. --enforce-flatness passes the planted --mu1/--mu2 caps to
    the solver, one flatness post-step per capped side; it needs a cap.
sweep
    Grid of estimation or recovery cells from a key=value config file.
    The output CSV is a pure function of the resolved config: cell
    seeds are derived from the cell coordinates and rows carry no
    timing, so reruns and different --workers counts produce identical
    bytes. A .meta sidecar records the resolved config. A failed
    estimator cell keeps its row with empty statistics, and the sweep
    exits 3 once every row and the .meta are written.
bounds
    Closed-form sample-complexity and entropy quantities for one
    parameter point.
selftest
    Fast exact identity checks of the operator plumbing.

Exit codes: 0 success, 2 bad arguments or config, 3 numeric failure
(including a zero vector met partway through a draw or a solve).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import logging
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

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
    CSV_FIELDS,
    estimate_rap,
    estimate_rip,
    estimate_rop,
    isotropy_check,
    polarization_check,
)
from .measurement import (
    DICTIONARY_KINDS,
    OMEGA_MODES,
    Ensemble,
    FactoredOperator,
    LiftedPoint,
    adjoint_apply,
    forward,
    forward_dense,
    measurement_matrix,
    r_matrix,
    xi_vector,
)
from .models import (
    FlatProjectionError,
    InfeasibleModelError,
    ModelSpec,
    OrthogonalizationError,
    sample_model,
)
from .solver import (
    SolveOptions,
    SolverBreakdownError,
    plant_instance,
    recover,
    success_metric,
)
from .util import ZeroVectorError, complex_gaussian, derive_seed, fmt_float, rng_for

log = logging.getLogger("liftconv")

SWEEP_KINDS = ("rip", "rap", "rop", "recover")
ESTIMATE_FIELDS = tuple(f for f in CSV_FIELDS if f != "wall_time")
RECOVER_FIELDS = (
    "kind", "n", "m", "s1", "s2", "mu1", "mu2", "trials", "noise",
    "success_rate", "rel_q50", "rel_q90", "seed",
)


class CellFailureError(RuntimeError):
    """Some sweep cells failed; raised after every row has been written."""


_NUMERIC_ERRORS = (
    CellFailureError,
    FlatProjectionError,
    InfeasibleModelError,
    OrthogonalizationError,
    SolverBreakdownError,
    ZeroVectorError,
    np.linalg.LinAlgError,
    ArithmeticError,
)


class ConfigError(ValueError):
    pass


# -- config parsing -----------------------------------------------------------

_GRID_KEYS = ("n", "m", "s1", "s2", "mu1", "mu2", "noise")

_BASE_KEYS = frozenset(
    ("kind", "n", "m", "s1", "s2", "mu1", "mu2", "trials", "seed",
     "phi", "psi", "flavor", "omega_mode")
)
_KIND_KEYS = {
    "rip": _BASE_KEYS,
    "rap": _BASE_KEYS,
    "rop": _BASE_KEYS | {"orthogonality", "decoupled"},
    "recover": _BASE_KEYS | {"noise", "success_threshold", "max_outer_iters",
                             "outer_tol", "enforce_flatness", "restarts"},
}
_ALL_KEYS = frozenset().union(*_KIND_KEYS.values())


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
    flavor: str = "exact"
    omega_mode: str = "without_replacement"
    orthogonality: str = "both"
    decoupled: bool = False
    success_threshold: float = 1e-4
    max_outer_iters: int = SolveOptions.max_outer_iters
    outer_tol: float = SolveOptions.outer_tol
    restarts: int = SolveOptions.restarts
    enforce_flatness: bool = False

    def cells(self) -> list:
        """Grid points in _GRID_KEYS order, the last key varying fastest."""
        axes = [getattr(self, key) for key in _GRID_KEYS]
        if self.kind != "recover":
            axes[-1] = [None]
        return [dict(zip(_GRID_KEYS, point)) for point in itertools.product(*axes)]

    def cell_seed(self, cell: dict) -> int:
        return derive_seed(
            self.seed, self.kind,
            "n", cell["n"], "m", cell["m"],
            "s1", cell["s1"], "s2", cell["s2"],
            "mu1", cell["mu1"], "mu2", cell["mu2"],
            "noise", cell["noise"], "trials", self.trials,
        )

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
    if key in ("mu1", "mu2") and tok.lower() == "none":
        return None
    try:
        if key in ("n", "m", "s1", "s2", "trials", "seed", "max_outer_iters",
                   "restarts"):
            return int(tok)
        if key in ("mu1", "mu2", "noise", "success_threshold", "outer_tol"):
            return float(tok)
        if key in ("decoupled", "enforce_flatness"):
            if tok.lower() in ("true", "1", "yes"):
                return True
            if tok.lower() in ("false", "0", "no"):
                return False
            raise ValueError(tok)
        return tok
    except ValueError:
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
    cfg = SweepConfig(**values)
    _validate_cells(cfg)
    return cfg


def _validate_cells(cfg: SweepConfig):
    if cfg.trials < 1:
        raise ConfigError("trials must be positive")
    if cfg.phi not in DICTIONARY_KINDS or cfg.psi not in DICTIONARY_KINDS:
        raise ConfigError(f"dictionaries must be one of {DICTIONARY_KINDS}")
    if cfg.omega_mode not in OMEGA_MODES:
        raise ConfigError(f"omega_mode must be one of {OMEGA_MODES}")
    if cfg.orthogonality not in ("both", "either"):
        raise ConfigError("orthogonality must be 'both' or 'either'")
    if cfg.kind == "recover":
        try:
            SolveOptions(s1=1, s2=1, max_outer_iters=cfg.max_outer_iters,
                         outer_tol=cfg.outer_tol, restarts=cfg.restarts)
        except ValueError as exc:
            raise ConfigError(f"bad solver settings: {exc}") from None
        if not cfg.success_threshold >= 0:
            raise ConfigError("success_threshold must be nonnegative")
    for cell in cfg.cells():
        try:
            ModelSpec(cell["n"], cell["s1"], mu=cell["mu1"], flavor=cfg.flavor)
            ModelSpec(cell["n"], cell["s2"], mu=cell["mu2"], flavor=cfg.flavor)
        except ValueError as exc:
            raise ConfigError(f"bad cell {cell}: {exc}") from None
        if cell["m"] > cell["n"]:
            raise ConfigError(
                f"bad cell {cell}: m > n; an ensemble keeps at most n samples")
        if (cfg.kind == "recover" and cfg.enforce_flatness
                and cell["mu1"] is None and cell["mu2"] is None):
            raise ConfigError("enforce_flatness needs mu1 or mu2 in every cell")
        if cfg.kind == "recover" and not 0 <= cell["noise"] < math.inf:
            raise ConfigError("noise must be finite and nonnegative")


# -- sweep execution ----------------------------------------------------------


def _fmt_cell_value(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(float(v))
    return str(v)


def _run_estimate(kind: str, opts, point: dict, seed: int):
    """One estimator run at a grid point; opts is a SweepConfig or the
    parsed subcommand arguments, which name the run options alike."""
    ens = Ensemble.generate(point["n"], point["m"], opts.phi, opts.psi,
                            seed=derive_seed(seed, "ensemble"),
                            omega_mode=opts.omega_mode)
    spec_u = ModelSpec(point["n"], point["s1"], mu=point["mu1"],
                       flavor=opts.flavor, side="left")
    spec_v = ModelSpec(point["n"], point["s2"], mu=point["mu2"],
                       flavor=opts.flavor, side="right")
    if kind == "rip":
        return estimate_rip(ens, spec_u, spec_v, opts.trials, seed=seed)
    if kind == "rap":
        return estimate_rap(ens, spec_u, spec_v, opts.trials, seed=seed)
    return estimate_rop(ens, spec_u, spec_v, opts.trials, seed=seed,
                        orthogonality=opts.orthogonality,
                        decoupled=opts.decoupled)


def _run_recover(opts, point: dict, seed: int):
    """Plant, solve and score one instance at a grid point (opts as in
    _run_estimate): (result, relative error, noise ratio). The planted
    caps reach the solver only with enforce_flatness."""
    flat = opts.enforce_flatness
    solve_opts = SolveOptions(s1=point["s1"], s2=point["s2"],
                              max_outer_iters=opts.max_outer_iters,
                              outer_tol=opts.outer_tol,
                              restarts=opts.restarts, seed=seed,
                              mu1=point["mu1"] if flat else None,
                              mu2=point["mu2"] if flat else None)
    ens, truth, b, z_norm = plant_instance(
        point["n"], point["m"], point["s1"], point["s2"], seed=seed,
        phi_kind=opts.phi, psi_kind=opts.psi,
        mu1=point["mu1"], mu2=point["mu2"],
        noise_level=point["noise"], flavor=opts.flavor,
        omega_mode=opts.omega_mode)
    res = recover(ens, b, solve_opts)
    rel, noise_ratio = success_metric(res.point, truth, b, z_norm, ens)
    return res, rel, noise_ratio


def _execute_cell(payload) -> tuple:
    """Run one sweep cell: (formatted row, failed). Top level so worker
    processes can import it. A numeric failure in an estimator cell is
    logged; its row keeps coordinates, trials and seed, no statistics."""
    cfg, cell = payload
    seed = cfg.cell_seed(cell)
    failed = False
    if cfg.kind == "recover":
        row = _recover_cell(cfg, cell, seed)
    else:
        try:
            row = _run_estimate(cfg.kind, cfg, cell, seed).csv_dict()
        except _NUMERIC_ERRORS as exc:
            log.error("cell %s failed: %s", cell, exc)
            row = {"kind": cfg.kind, **{k: cell[k] for k in ESTIMATE_FIELDS if k in cell},
                   "trials": cfg.trials, "seed": seed}
            failed = True
    return {k: _fmt_cell_value(v) for k, v in row.items()}, failed


def _recover_cell(cfg: SweepConfig, cell: dict, seed: int) -> dict:
    rels = []
    successes = 0
    for t in range(cfg.trials):
        try:
            _, rel, _ = _run_recover(cfg, cell, derive_seed(seed, "instance", t))
        except _NUMERIC_ERRORS:
            rel = float("inf")
        rels.append(rel)
        if rel <= cfg.success_threshold:
            successes += 1
    # order statistics, no interpolation: stable under infinite entries
    q50, q90 = np.quantile(rels, [0.5, 0.9], method="lower")
    return {
        "kind": "recover", "n": cell["n"], "m": cell["m"],
        "s1": cell["s1"], "s2": cell["s2"], "mu1": cell["mu1"],
        "mu2": cell["mu2"], "trials": cfg.trials, "noise": cell["noise"],
        "success_rate": successes / cfg.trials,
        "rel_q50": float(q50), "rel_q90": float(q90), "seed": seed,
    }


def run_sweep(cfg: SweepConfig, out_path: str, workers: int = 1) -> int:
    """Execute every cell and write the CSV plus its .meta sidecar.

    Rows appear in cell enumeration order whatever the worker count;
    each cell reseeds from its own coordinates, so the bytes written
    depend only on the resolved config. Returns the number of rows, or
    raises CellFailureError after writing both files if any cell failed.
    """
    payloads = [(cfg, cell) for cell in cfg.cells()]
    if workers <= 1:
        results = [_execute_cell(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute_cell, payloads))
    rows = [row for row, _ in results]

    fields = RECOVER_FIELDS if cfg.kind == "recover" else ESTIMATE_FIELDS
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    from . import __version__

    meta = dict(cfg.resolved())
    meta["version"] = __version__
    meta["cells"] = str(len(rows))
    with open(out_path + ".meta", "w") as fh:
        for key in sorted(meta):
            fh.write(f"{key}={meta[key]}\n")
    failed = sum(f for _, f in results)
    if failed:
        raise CellFailureError(
            f"{failed} of {len(rows)} cells failed; their rows have empty statistics")
    return len(rows)


# -- single-shot commands -----------------------------------------------------


def _print_kv(row: dict):
    for key, value in row.items():
        print(f"{key}={_fmt_cell_value(value)}")


def _write_csv_row(path: str, fields, row: dict):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields), lineterminator="\n")
        writer.writeheader()
        writer.writerow({k: _fmt_cell_value(v) for k, v in row.items()})


def _cmd_estimate(args, kind: str) -> int:
    rep = _run_estimate(kind, args, vars(args), args.seed)
    row = {**rep.csv_dict(), "wall_time": rep.wall_time}
    _print_kv({**row, "resamples": rep.resamples})
    if args.csv:
        _write_csv_row(args.csv, CSV_FIELDS, row)
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
    if args.enforce_flatness and args.mu1 is None and args.mu2 is None:
        raise ConfigError("--enforce-flatness needs --mu1 or --mu2")
    t0 = time.perf_counter()
    res, rel, noise_ratio = _run_recover(args, vars(args), args.seed)
    flat = args.enforce_flatness
    row = {"n": args.n, "m": args.m, "s1": args.s1, "s2": args.s2,
           "mu1": args.mu1 if flat else None, "mu2": args.mu2 if flat else None,
           "seed": args.seed, "rel_error": rel, "iterations": res.iterations,
           "converged": int(res.converged), "residual_norm": res.residual_norm,
           "noise_ratio": noise_ratio, "wall_time": time.perf_counter() - t0}
    half_steps = sum(rec.half_steps for rec in res.attempt_log)
    _print_kv({**row, "attempts": res.attempts, "half_steps": half_steps})
    if args.csv:
        _write_csv_row(args.csv, list(row), row)
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        text = fh.read()
    cfg = parse_config(text, overrides=args.set or ())
    cells = run_sweep(cfg, args.out, workers=args.workers)
    log.info("wrote %d rows to %s", cells, args.out)
    return 0


def _cmd_bounds(args) -> int:
    query = BoundQuery(n=args.n, m=args.m, s1=args.s1, s2=args.s2,
                       mu1=args.mu1, mu2=args.mu2, delta=args.delta,
                       big_c=args.big_c)
    row: dict = {"a_star": solve_a()}
    for which in _COMPLEXITY_COMBOS:
        sc = sample_complexity(query, which)
        row[f"m_required_{which.replace('-', '_')}"] = sc.m_required
        row[f"feasible_{which.replace('-', '_')}"] = sc.feasible
    row["gamma2"] = gamma2_bound(args.s1, args.s2, args.mu2, args.m, args.n)
    row["angle_bound"] = angle_preservation_bound(args.delta)
    for label, s in (("s1", args.s1), ("s2", args.s2)):
        row[f"maurey_f_{label}"] = maurey_f(s, args.n)
        row[f"maurey_h_{label}"] = maurey_h(s, args.n, args.m)
        if 2 <= s <= args.n and args.n >= 3:
            row[f"dudley_sparse_{label}"] = dudley_sparse_bound(s, args.n)
        if 2 <= s <= args.n and 2 <= args.m <= args.n:
            row[f"dudley_fourier_{label}"] = dudley_fourier_bound(
                s, args.n, args.m, norm_t=1.0)
    _print_kv(row)
    return 0


def _selftest_checks(seed: int):
    """Exact identities on small instances; (name, residual) pairs."""
    out = []
    rng = rng_for(seed, "selftest")

    ens = Ensemble.generate(12, 5, seed=derive_seed(seed, "st-ens"))
    X = complex_gaussian(rng, (12, 12))
    b = complex_gaussian(rng, 5)
    lhs = np.vdot(b, forward_dense(ens, X))
    rhs = np.vdot(adjoint_apply(ens, b), X)
    out.append(("adjoint-balance", abs(lhs - rhs)))

    ens8 = Ensemble.generate(8, 4, seed=derive_seed(seed, "st-ens8"))
    u = complex_gaussian(rng, 8)
    v = complex_gaussian(rng, 8)
    p = LiftedPoint(u, v)
    fwd = forward(ens8, p)
    per_entry = np.array([np.vdot(measurement_matrix(ens8, ell), p.dense())
                          for ell in range(4)])
    out.append(("entrywise-forward", float(np.max(np.abs(fwd - per_entry)))))

    out.append(("factorized-forward",
                float(np.max(np.abs(r_matrix(ens8, p) @ xi_vector(ens8) - fwd)))))

    op = FactoredOperator.of(ens8)
    c = complex_gaussian(rng, 4)
    gaps = (op.forward(u, v) - fwd, op.adjoint_image(c) - adjoint_apply(ens8, c))
    out.append(("operator", max(float(np.max(np.abs(g))) for g in gaps)))

    m1 = complex_gaussian(rng, (6, 6))
    m2 = complex_gaussian(rng, (6, 6))
    out.append(("polarization", polarization_check(m1, m2, complex_gaussian(rng, 6))))
    return out


def _cmd_selftest(args) -> int:
    failures = 0
    for name, residual in _selftest_checks(args.seed):
        ok = residual < 1e-10
        print(f"selftest {name} {'ok' if ok else 'FAIL'} residual={residual:.3e}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 3


# -- argument parsing ---------------------------------------------------------


def _ensemble_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--n", type=int, required=True, help="signal length")
    p.add_argument("--m", type=int, required=True, help="number of samples kept")
    p.add_argument("--phi", choices=DICTIONARY_KINDS, default="gaussian")
    p.add_argument("--psi", choices=DICTIONARY_KINDS, default="gaussian")
    p.add_argument("--omega-mode", choices=OMEGA_MODES,
                   default="without_replacement")
    p.add_argument("--seed", type=int, default=0)
    return p


def _model_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--s1", type=int, required=True, help="left sparsity")
    p.add_argument("--s2", type=int, required=True, help="right sparsity")
    p.add_argument("--mu1", type=float, default=None, help="left flatness cap")
    p.add_argument("--mu2", type=float, default=None, help="right flatness cap")
    p.add_argument("--flavor", choices=("exact", "approximate"), default="exact")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftconv",
        description="Subsampled convolution measurements of sparse rank-one "
                    "matrices: estimators, recovery, and closed-form bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    ens_p, mod_p = _ensemble_parent(), _model_parent()

    for kind in ("rip", "rap", "rop"):
        sp = sub.add_parser(f"{kind}-estimate", parents=[ens_p, mod_p],
                            help=f"Monte Carlo {kind} constant estimate")
        sp.add_argument("--trials", type=int, default=SweepConfig.trials)
        sp.add_argument("--csv", default=None, help="also write a one-row CSV")
        if kind == "rop":
            sp.add_argument("--orthogonality", choices=("both", "either"),
                            default="both")
            sp.add_argument("--decoupled", action="store_true",
                            help="independent dictionary copies per side")
        sp.set_defaults(func=lambda a, k=kind: _cmd_estimate(a, k))

    sp = sub.add_parser("isotropy", parents=[ens_p],
                        help="Monte Carlo mean of A*A against its expectation")
    sp.add_argument("--s1", type=int, default=None)
    sp.add_argument("--s2", type=int, default=None)
    sp.add_argument("--draws", type=int, default=1000)
    sp.add_argument("--fixed-kind", choices=DICTIONARY_KINDS, default="gaussian")
    sp.add_argument("--average-over", choices=("phi", "psi"), default="phi")
    sp.set_defaults(func=_cmd_isotropy)

    sp = sub.add_parser("recover", parents=[ens_p, mod_p],
                        help="plant an instance and run the solver")
    sp.add_argument("--noise", type=float, default=0.0,
                    help="noise norm relative to the clean measurement")
    sp.add_argument("--max-outer-iters", type=int,
                    default=SolveOptions.max_outer_iters)
    sp.add_argument("--outer-tol", type=float, default=SolveOptions.outer_tol)
    sp.add_argument("--restarts", type=int, default=SolveOptions.restarts)
    sp.add_argument("--enforce-flatness", action="store_true")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=_cmd_recover)

    sp = sub.add_parser("sweep", help="run a config-defined grid to CSV")
    sp.add_argument("--config", required=True, help="key=value config file")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config entry (repeatable)")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("bounds", help="closed-form bound table for one point")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--s1", type=int, required=True)
    sp.add_argument("--s2", type=int, required=True)
    sp.add_argument("--mu1", type=float, default=1.0)
    sp.add_argument("--mu2", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--big-c", type=float, default=1.0)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("selftest", help="fast exact identity checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_selftest)
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
    except (ConfigError, ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2


def main_entry():
    sys.exit(main(argv=None))


if __name__ == "__main__":
    main_entry()

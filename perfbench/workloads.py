"""The benchmark workloads: recover, estimate and sweep.

Each workload has the same life cycle. ``setup(seed)`` builds the
inputs from the seed and makes one warm-up call; the harness times it
several times. ``run_pass(k)`` does pass k of the workload and
returns the summed time of its operations; a pass's work depends only
on the seed and k, so a traced repeat of pass k does exactly the work
of the untraced one. Between operations, never inside one, the
workload lets its ``Pace`` probe the machine's current speed.
``check()`` runs after the timed passes, with any tracer removed, and
counts each operation whose output disagrees with the recorded
fingerprint or its reference as failed. Library functions are always looked up on their module at call
time, so a tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import os
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# The C10 slice: planted n=128, s1=s2=3, mu1=mu2=3 instances, seeds 7000+t.
RECOVER_N = 128
RECOVER_S = 3
RECOVER_MU = 3.0
RECOVER_MS = (16, 24, 32, 48, 64)
RECOVER_TRIALS = 6
RECOVER_SEED0 = 7000
# Each pass solves every instance this many times, in a shuffled order;
# an instance's latency is the median of its solves, which damps the
# host's second-to-second noise in op_s_p50 and op_s_tail.
RECOVER_REPEATS = 2
SUCCESS_REL = 1e-4

# Estimator points (n, m, s1, s2, mu1, mu2). c9/c8/c6 are the settings of
# acceptance criteria C9/C8/C6; "flat" has mu2 < s2, so every right-side
# draw goes through project_flat, which no criterion setting reaches.
ESTIMATE_POINTS = {
    "c9": (64, 32, 4, 4, None, 4.0),
    "c8": (128, 32, 2, 2, None, 4.0),
    "c6": (16, 8, None, None, None, None),
    "flat": (64, 32, 4, 4, None, 3.5),
}
# (label, estimator, point, keyword arguments, trials or draws per pass)
ESTIMATE_MIX = (
    ("c9_rap", "rap", "c9", {}, 200),
    ("c9_rop_both", "rop", "c9", {"orthogonality": "both"}, 200),
    ("c9_rop_either", "rop", "c9", {"orthogonality": "either"}, 200),
    ("c8_rap", "rap", "c8", {}, 200),
    ("c6_isotropy", "iso", "c6", {"average_over": "phi"}, 500),
    ("flat_rap", "rap", "flat", {}, 15),
)
# Small pinned-seed calls of every mix entry whose results are recorded
# in fingerprint.json; they are the warm-up call of each set-up.
PROBE_SEED = 20151119
PROBE_SIZE = {"c9_rap": 20, "c9_rop_both": 20, "c9_rop_either": 20,
              "c8_rap": 20, "c6_isotropy": 100, "flat_rap": 3}

# Many short rap cells of mixed cost; per-cell set-up and harness
# overhead weigh more here than in any other workload.
SWEEP_CONFIG = """\
kind = rap
n = 64,128
m = 16,32,48
s1 = 2,4
s2 = 2,4
mu2 = none,4
trials = 25
seed = {seed}
"""
SWEEP_WARMUP = ("n=64", "m=16", "s1=2", "s2=2", "mu2=none")
SWEEP_WORKERS = 2

REL_TOL = 1e-12

# Mean time of one pace slice on the machine the baseline was measured on
# (2-core x86-64 VM, Python 3.11, NumPy 2.4, OpenBLAS pinned to 1 thread).
PACE_REF_S = 0.02
PACE_INTERVAL_S = 0.5


def bench_seed(*parts) -> int:
    """Stable 63-bit seed from integers, independent of the library."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def _report_failure(what: str):
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class Pace:
    """Probe of the machine's speed, interleaved with the workload.

    On a shared host the speed of identical work drifts by 10-15% from
    one 20-second window to the next. A slice is fixed work that uses no
    liftconv code, so no change to the package can move it: a Python
    loop of small random draws and length-64 FFTs, the mix of
    interpreter and small-NumPy work the workloads are made of. ``tick``
    runs a slice after an operation, never inside one, once
    ``PACE_INTERVAL_S`` of operation time has passed since the last.
    ``factor`` is the mean slice time over ``PACE_REF_S``: 1.1 means the
    machine ran 10% slower than the reference during the run.
    """

    ITERATIONS = 1000

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.times: list = []
        self.since = 0.0

    def _slice(self):
        rng = self.rng
        for _ in range(self.ITERATIONS):
            x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            float(np.abs(np.fft.fft(x)).max())

    def tick(self, op_s: float):
        self.since += op_s
        if self.since >= PACE_INTERVAL_S or not self.times:
            t0 = perf_counter()
            self._slice()
            self.times.append(perf_counter() - t0)
            self.since = 0.0

    def factor(self) -> float:
        return statistics.fmean(self.times) / PACE_REF_S


@dataclass
class Tally:
    """Operations attempted and failed, and the unit of work counted."""

    attempted: int = 0
    failed: int = 0
    succeeded: int = 0
    work: int = 0
    pass_s: list = field(default_factory=list)
    notes: list = field(default_factory=list)


class Recover:
    """The C10 recovery slice, each instance solved RECOVER_REPEATS times per
    pass; one operation is one recover() solve."""

    name = "recover"
    unit = "instances"

    def __init__(self, fingerprint: dict, out_dir: str):
        self.expected = fingerprint.get("recover")
        self.tally = Tally()
        self.pace = Pace()

    def setup(self, seed: int):
        from liftconv import solver

        self.instances = []
        for m in RECOVER_MS:
            for t in range(RECOVER_TRIALS):
                s = RECOVER_SEED0 + t
                ens, truth, b, _ = solver.plant_instance(
                    RECOVER_N, m, RECOVER_S, RECOVER_S, seed=s,
                    mu1=RECOVER_MU, mu2=RECOVER_MU)
                opts = solver.SolveOptions(s1=RECOVER_S, s2=RECOVER_S, seed=s)
                self.instances.append((m, t, ens, truth, b, opts))
        self.order = np.random.default_rng(seed).permutation(
            np.repeat(np.arange(len(self.instances)), RECOVER_REPEATS))
        self.latency = [[] for _ in self.instances]
        self.outcomes = []  # (instance index, point or None, attempts)
        m, t, ens, _, b, opts = self.instances[-1]
        solver.recover(ens, b, opts)

    def run_pass(self, k: int) -> float:
        from liftconv import solver

        total = 0.0
        for i in self.order:
            m, t, ens, _, b, opts = self.instances[i]
            self.tally.attempted += 1
            t0 = perf_counter()
            try:
                res = solver.recover(ens, b, opts)
            except Exception:
                _report_failure(f"recover m={m} t={t}")
                self.tally.failed += 1
                self.outcomes.append((i, None, 0))
                res = None
            dt = perf_counter() - t0
            total += dt
            if res is not None:
                self.latency[i].append(dt)
                self.outcomes.append((i, res.point, res.attempts))
            self.pace.tick(dt)
        self.tally.pass_s.append(total)
        self.tally.work += len(self.order)
        return total

    def rows(self):
        """(m, t, hit, attempts) for every solve that returned."""
        from liftconv import solver

        for i, point, attempts in self.outcomes:
            if point is None:
                continue
            m, t, ens, truth, b, _ = self.instances[i]
            rel, _ = solver.success_metric(point, truth, b, 0.0, ens)
            yield m, t, bool(rel <= SUCCESS_REL), attempts

    def check(self):
        self.hits = 0
        self.attempts = 0
        per_m: dict = {}
        for m, t, hit, attempts in self.rows():
            self.hits += hit
            self.attempts += attempts
            row = per_m.setdefault(m, [0, 0])
            row[0] += hit
            row[1] += attempts
            if [hit, attempts] != self.expected[str(m)][t]:
                self.tally.failed += 1
                self.tally.notes.append(
                    f"recover m={m} t={t}: (hit, attempts)=({int(hit)}, {attempts}), "
                    f"recorded {tuple(self.expected[str(m)][t])}")
            else:
                self.tally.succeeded += hit
        slices = max(len(self.tally.pass_s), 1) * RECOVER_REPEATS
        self.tally.notes.append("hits,attempts per m per slice: " + ", ".join(
            f"{m}:({h // slices},{a // slices})" for m, (h, a) in sorted(per_m.items())))

    def latencies(self) -> list:
        return [float(np.median(lat)) for lat in self.latency if lat]

    def counters(self) -> dict:
        passes = max(len(self.tally.pass_s), 1)
        return {"solver.attempts": self.attempts // passes,
                "solver.hits": self.hits // passes}


class Estimate:
    """A fixed mix of estimator calls; one operation is one pass over the mix."""

    name = "estimate"
    unit = "trials+draws"

    def __init__(self, fingerprint: dict, out_dir: str):
        self.expected = fingerprint.get("estimate")
        self.tally = Tally()
        self.pace = Pace()

    def _inputs(self, base: int):
        from liftconv.measurement import Ensemble, LiftedPoint
        from liftconv.models import ModelSpec
        from liftconv.util import complex_gaussian, unit

        ens, specs = {}, {}
        for idx, (label, (n, m, s1, s2, mu1, mu2)) in enumerate(ESTIMATE_POINTS.items()):
            if label == "c6":
                continue
            ens[label] = Ensemble.generate(n, m, seed=bench_seed(base, idx, 1))
            specs[label] = (ModelSpec(n, s1, mu=mu1, side="left"),
                            ModelSpec(n, s2, mu=mu2, side="right"))
        n6 = ESTIMATE_POINTS["c6"][0]
        rng = np.random.default_rng(bench_seed(base, 99))
        x6 = LiftedPoint(unit(complex_gaussian(rng, n6)), unit(complex_gaussian(rng, n6)))
        return ens, specs, x6

    def _call(self, entry, ens, specs, x6, size, seed):
        from liftconv import concentration

        label, kind, point, kwargs, _ = entry
        if kind == "iso":
            n, m = ESTIMATE_POINTS[point][:2]
            return concentration.isotropy_check(n, m, x6, size, seed=seed, **kwargs)
        estimator = concentration.estimate_rap if kind == "rap" else concentration.estimate_rop
        spec_u, spec_v = specs[point]
        return estimator(ens[point], spec_u, spec_v, size, seed=seed, **kwargs)

    def probe(self) -> dict:
        """Pinned-seed results of every mix entry, as recorded in the fingerprint."""
        ens, specs, x6 = self._inputs(PROBE_SEED)
        out = {}
        for idx, entry in enumerate(ESTIMATE_MIX):
            res = self._call(entry, ens, specs, x6, PROBE_SIZE[entry[0]],
                             bench_seed(PROBE_SEED, idx))
            out[entry[0]] = float(res if entry[1] == "iso" else res.delta_hat)
        return out

    def setup(self, seed: int):
        self.seed = seed
        self.ens, self.specs, self.x6 = self._inputs(seed)
        self.results = []  # (pass, entry index, result or None)
        self.probe_values = self.probe()

    def run_pass(self, k: int) -> float:
        # trial seeds change from pass to pass, so a run averages the
        # seed-dependent sampler work (flat projections, resamples)
        total = 0.0
        for idx, entry in enumerate(ESTIMATE_MIX):
            self.tally.attempted += 1
            t0 = perf_counter()
            try:
                res = self._call(entry, self.ens, self.specs, self.x6, entry[4],
                                 bench_seed(self.seed, 1000 + k, idx))
            except Exception:
                _report_failure(f"estimate {entry[0]}")
                self.tally.failed += 1
                res = None
            dt = perf_counter() - t0
            total += dt
            if res is not None:
                self.tally.work += entry[4]
            self.results.append((k, idx, res))
            self.pace.tick(dt)
        self.tally.pass_s.append(total)
        return total

    def _replay(self, entry, rep) -> float:
        """Recompute the witness trial's deviation from its stored draws."""
        from liftconv.measurement import LiftedPoint, forward, lifted_inner

        w = rep.witness
        ens = self.ens[entry[2]]
        p, p_hat = LiftedPoint(w["u"], w["v"]), LiftedPoint(w["u_hat"], w["v_hat"])
        val = np.vdot(forward(ens, p_hat), forward(ens, p))
        if entry[1] == "rap":
            val = val - lifted_inner(p_hat, p)
        return float(abs(val) / (p.norm_f * p_hat.norm_f))

    def check(self):
        self.resamples = 0
        for label, value in self.probe_values.items():
            self.tally.attempted += 1
            if rel_close(value, self.expected[label]):
                self.tally.succeeded += 1
            else:
                self.tally.failed += 1
                self.tally.notes.append(
                    f"estimate probe {label}: {value!r}, recorded {self.expected[label]!r}")
        first: dict = {}
        for k, idx, res in self.results:
            if res is None:
                continue
            entry = ESTIMATE_MIX[idx]
            if entry[1] == "iso":
                value, ok = float(res), bool(np.isfinite(res) and res > 0)
            else:
                value = res.delta_hat
                self.resamples += res.resamples
                ok = (res.trials == entry[4] and rel_close(value, self._replay(entry, res))
                      and value == float(res.deviations.max()))
            # a traced repeat of a pass must reproduce it exactly
            ok = ok and first.setdefault((k, idx), value) == value
            if ok:
                self.tally.succeeded += 1
            else:
                self.tally.failed += 1
                self.tally.notes.append(f"estimate {entry[0]}: check failed ({value!r})")
        self.resamples /= max(len(self.tally.pass_s), 1)
        self.tally.notes.append("pass 0 delta_hat: " + ", ".join(
            f"{ESTIMATE_MIX[i][0]}={v:.6g}" for (k, i), v in sorted(first.items()) if k == 0))

    def latencies(self) -> list:
        return list(self.tally.pass_s)

    def counters(self) -> dict:
        return {"concentration.resamples": self.resamples}


class Sweep:
    """run_sweep over a rap grid with a 2-worker pool; one operation is one sweep."""

    name = "sweep"
    unit = "cells"

    def __init__(self, fingerprint: dict, out_dir: str):
        self.out_dir = out_dir
        self.tally = Tally()
        self.pace = Pace()

    def setup(self, seed: int):
        from liftconv import cli

        os.makedirs(self.out_dir, exist_ok=True)
        self.text = SWEEP_CONFIG.format(seed=seed % 2**31)
        self.cells = len(cli.parse_config(self.text).cells())
        self.csv_path = os.path.join(self.out_dir, "sweep.csv")
        self.outputs = []  # (csv bytes, meta bytes) or None per pass
        warm = cli.parse_config(self.text, overrides=SWEEP_WARMUP)
        cli.run_sweep(warm, os.path.join(self.out_dir, "warmup.csv"), workers=1)

    def _read(self, path: str) -> tuple:
        with open(path, "rb") as fh:
            csv_bytes = fh.read()
        with open(path + ".meta", "rb") as fh:
            return csv_bytes, fh.read()

    def run_pass(self, k: int) -> float:
        from liftconv import cli

        self.tally.attempted += self.cells
        t0 = perf_counter()
        try:
            cfg = cli.parse_config(self.text)
            cli.run_sweep(cfg, self.csv_path, workers=SWEEP_WORKERS)
            ok = True
        except Exception:
            _report_failure("sweep")
            ok = False
        dt = perf_counter() - t0
        if ok:
            self.outputs.append(self._read(self.csv_path))
            self.tally.work += self.cells
        else:
            self.outputs.append(None)
            self.tally.failed += self.cells
        self.tally.pass_s.append(dt)
        self.pace.tick(dt)
        return dt

    def check(self):
        from liftconv import cli

        ref_path = os.path.join(self.out_dir, "reference.csv")
        try:
            cli.run_sweep(cli.parse_config(self.text), ref_path, workers=1)
            reference = self._read(ref_path)
        except Exception:
            _report_failure("sweep reference (workers=1)")
            reference = None
        for out in self.outputs:
            if out is None:
                continue
            if out == reference:
                self.tally.succeeded += self.cells
            else:
                self.tally.failed += self.cells
                self.tally.notes.append("sweep: CSV or .meta bytes differ from workers=1")
        if reference is not None:
            self.tally.notes.append(f"sweep: {self.cells} cells, {len(reference[0])} CSV bytes")

    def latencies(self) -> list:
        return list(self.tally.pass_s)

    def counters(self) -> dict:
        return {}


WORKLOADS = {cls.name: cls for cls in (Recover, Estimate, Sweep)}

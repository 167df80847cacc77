"""liftconv benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 20 --trace 0

Run from the root of a liftconv checkout; the package is imported from
``src/`` there, never from an installed copy. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a run that
alternates untraced and traced passes of identical work. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the run also writes it, with
the environment and the notes printed before it, to
``.perfbench_out/<workload>-seed<seed>-trace<trace>/result.json``.
See perfbench/README.md for the metrics and workloads.
"""

import os

# BLAS/OpenMP pools pinned to one thread before numpy is first imported;
# forked sweep workers inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
FINGERPRINT = os.path.join(HERE, "fingerprint.json")
SETUP_REPEATS = 3
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import liftconv.cli; "
                  "print(time.perf_counter() - t)")

sys.path.insert(0, HERE)

from tracer import Tracer, layer_totals  # noqa: E402
from workloads import SWEEP_WORKERS, WORKLOADS  # noqa: E402

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
             "op_s_tail": "s", "success_rate": "ratio", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure passes until this many seconds have elapsed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment --------------------------------------------------------------


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "liftconv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pool_start_method": multiprocessing.get_start_method(),
        "sweep_workers": SWEEP_WORKERS,
        "platform": platform.platform(),
    }


# -- statistics ---------------------------------------------------------------


def tail_of(samples: list) -> tuple:
    """Highest order statistic with ten samples above it, and its percentile.

    With fewer than twenty samples that statistic lies at or below the
    median, so the maximum (percentile 100) is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _count(total: float, passes: int):
    per = total / passes
    return int(per) if per == int(per) else per


def layer_metrics(wl, totals: dict, traced: list, plain: list) -> dict:
    passes = len(traced)
    out = {}
    for name, t in totals.items():
        out[f"{name}.calls"] = (_count(t["calls"], passes), "count")
        out[f"{name}.self_s"] = (t["self_s"] / passes, "s")
    counters = wl.counters()
    attempts = counters.get("solver.attempts", 0)
    hits = counters.get("solver.hits", 0)
    draws = totals["models.sample_model"]["calls"]
    cells = totals["cli._execute_cell"]
    sweep_wall = totals["cli.run_sweep"]["total_s"]
    out["solver.attempts"] = (attempts, "count")
    out["solver.useful_attempt_ratio"] = (hits / attempts if attempts else 0.0, "ratio")
    out["models.proj_per_draw"] = (
        totals["models.project_flat"]["calls"] / draws if draws else 0.0, "ratio")
    out["concentration.resamples"] = (counters.get("concentration.resamples", 0), "count")
    out["cli.cell_s_max"] = (cells["max_s"], "s")
    out["cli.worker_busy_frac"] = (
        cells["total_s"] / (SWEEP_WORKERS * sweep_wall) if sweep_wall else 0.0, "ratio")
    out["trace_overhead"] = (sum(traced) / sum(plain) - 1.0, "ratio")
    return out


# -- run ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Set up, measure and check one workload; return the result record."""
    import liftconv.cli  # noqa: F401  every layer loaded before any wrapping

    with open(FINGERPRINT) as fh:
        fingerprint = json.load(fh)
    setups = []
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        wl = WORKLOADS[workload](fingerprint, out_dir)
        t0 = perf_counter()
        wl.setup(seed)
        setups.append(imp + perf_counter() - t0)

    if trace:
        tracer = Tracer(os.path.join(out_dir, "trace"))
        tracer.clear_dir()
        plain, traced = [], []
        while True:
            plain.append(wl.run_pass(len(traced)))
            tracer.install()
            try:
                traced.append(wl.run_pass(len(traced)))
            finally:
                tracer.uninstall()
            if sum(plain) + sum(traced) >= seconds:
                break
        totals = layer_totals(tracer.write(), tracer.names)
    else:
        start = perf_counter()
        for k in itertools.count():
            wl.run_pass(k)
            if perf_counter() - start >= seconds:
                break
    wl.check()

    tally = wl.tally
    if trace:
        metrics = layer_metrics(wl, totals, traced, plain)
    else:
        lat = wl.latencies() or [0.0]  # [0.0] only when every operation raised
        tail, pct = tail_of(lat)
        raw = {"ops_per_s": tally.work / sum(tally.pass_s),
               "op_s_p50": statistics.median(lat), "op_s_tail": tail}
        # times rescaled to the reference machine speed; see Pace
        speed = wl.pace.factor()
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": raw["ops_per_s"] * speed,
            "op_s_p50": raw["op_s_p50"] / speed,
            "op_s_tail": raw["op_s_tail"] / speed,
            "success_rate": tally.succeeded / tally.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
        tally.notes.append(
            f"{wl.name}: {tally.work} {wl.unit} in {len(tally.pass_s)} passes; "
            f"op latency over {len(lat)} samples, tail = p{pct:.1f}; "
            f"setup repeats {[round(s, 4) for s in setups]}")
        tally.notes.append(
            f"pace factor {speed:.4f} over {len(wl.pace.times)} slices; unscaled: "
            + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    return {
        "latencies_s": [] if trace else sorted(lat),
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "notes": tally.notes,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liftconv", "__init__.py")):
        print(f"perfbench: no liftconv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import liftconv

    if not os.path.abspath(liftconv.__file__).startswith(SRC + os.sep):
        print(f"perfbench: liftconv imported from {liftconv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    env = environment()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    record["env"] = env
    record["args"] = vars(args)
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    for note in record["notes"]:
        print(note)
    for name, m in record["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads recover estimate sweep \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and prints for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the quartile distance as a
share of the median, next to the bound in BENCHMARK.json. ``--out``
writes the same summary, every run's values and the environment of the
first run to a JSON file, under the key "untraced" or "traced" (the
other key, if the file has it, is kept).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / abs(q2) if q2 else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, seconds, args.trace)
            runs.append(res)
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
                      if k in bounds or not args.trace), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarize(values), unit=runs[0]["metrics"][name]["unit"],
                                 bound=bounds.get(name), values=values)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            bound = s["bound"]
            flag = "" if bound is None or s["iqr_share"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {workload:8s} {name:42s} median={s['median']:.6g} {s['unit']} "
                  f"iqr/median={s['iqr_share']:.4f}"
                  + ("" if bound is None else f" bound={bound}") + flag, flush=True)
    if args.out:
        env_file = os.path.join(ROOT, ".perfbench_out",
                                f"{args.workloads[0]}-seed{args.seeds[0]}-trace{args.trace}",
                                "result.json")
        with open(env_file) as fh:
            report["env"] = json.load(fh)["env"]
        # untraced and traced summaries live side by side in one file
        merged = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                merged = json.load(fh)
        merged["traced" if args.trace else "untraced"] = report
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

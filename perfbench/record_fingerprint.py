"""Record the behaviour fingerprint the benchmark checks against.

    python3 perfbench/record_fingerprint.py

Solves the C10 slice once and runs the pinned-seed estimator probes,
then writes perfbench/fingerprint.json: (hit, attempts) for every
recover instance and delta_hat (the isotropy error for c6) for every
probe. Re-record only when a change is meant to alter behaviour, and
say so with the fingerprint diff.
"""

import json
import sys

import run  # first: pins BLAS threads before numpy loads

import workloads
from workloads import RECOVER_MS, RECOVER_TRIALS, Estimate, Recover


def main() -> int:
    sys.path.insert(0, run.SRC)
    workloads.RECOVER_REPEATS = 1
    rec = Recover({}, "")
    rec.setup(0)
    rec.run_pass(0)
    table = {str(m): [None] * RECOVER_TRIALS for m in RECOVER_MS}
    for m, t, hit, attempts in rec.rows():
        table[str(m)][t] = [hit, attempts]
    fingerprint = {
        "recorded_on": {"commit": run.git_commit(), "src_sha256": run.src_digest()},
        "recover": table,
        "estimate": Estimate({}, "").probe(),
    }
    with open(run.FINGERPRINT, "w") as fh:
        json.dump(fingerprint, fh, indent=1)
        fh.write("\n")
    for m in RECOVER_MS:
        rows = table[str(m)]
        print(f"m={m}: hits={sum(h for h, _ in rows)} attempts={sum(a for _, a in rows)}")
    print(json.dumps(fingerprint["estimate"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

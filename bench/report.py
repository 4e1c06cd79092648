"""Run every workload of the benchmark, untraced and traced, and print one
table of end-to-end metrics and one of layer self times, whose sum is the
traced wall time.

    python3 bench/report.py [--seed N] [--seconds S]

Each workload runs in a fresh interpreter, so ``peak_rss_mb`` covers that
workload only.  The error rate is failed / attempted over both runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads
from tracing import LAYERS

END_TO_END = tuple(run.UNITS)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, run.__file__, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()

    rows = {w: (run_one(w, args.seed, args.seconds, 0), run_one(w, args.seed, args.seconds, 1))
            for w in workloads.WORKLOADS}

    print(f"{'workload':10s}" + "".join(f"{m:>16s}" for m in END_TO_END) + f"{'error_rate':>12s}")
    for w, (plain, traced) in rows.items():
        m = plain["metrics"]
        rate = (plain["failed"] + traced["failed"]) / (plain["attempted"] + traced["attempted"])
        print(f"{w:10s}" + "".join(f"{m[k]['value']:>12.3f} {m[k]['unit']:3s}" for k in END_TO_END)
              + f"{rate:>12.4f}")

    print()
    print(f"{'workload':10s}" + "".join(f"{layer + '.self_s':>16s}" for layer in LAYERS)
          + f"{'sum':>10s}{'trace.wall_s':>14s}{'overhead_%':>12s}")
    for w, (_, traced) in rows.items():
        m = traced["metrics"]
        selfs = [m[layer + ".self_s"]["value"] for layer in LAYERS]
        print(f"{w:10s}" + "".join(f"{v:>16.3f}" for v in selfs) + f"{sum(selfs):>10.3f}"
              + f"{m['trace.wall_s']['value']:>14.3f}{m['trace.overhead_pct']['value']:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

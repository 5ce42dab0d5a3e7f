"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload eigen --seeds 1-10 --seconds 30

Runs perfbench/run.py once per seed, one run at a time, and prints for each
end-to-end metric its median and its spread: the distance between the
first and third quartiles (`statistics.quantiles(values, n=4)`) as a share
of the median.  Also prints the share of failed operations of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    values, failed_shares = {}, []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs are wrong\n{out.stderr}")
        failed_shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k} {m['value']:.4f}" for k, m in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name}: median {med:.4f}, spread {(q3 - q1) / med:.4f}")
    print(f"failed shares: {sorted(set(failed_shares))}")


if __name__ == "__main__":
    main()

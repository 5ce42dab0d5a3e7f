"""Benchmark runner for bethelab.

    python3 perfbench/run.py --workload eigen --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30

Runs passes of one workload (or of each in turn with `all`), one at a
time, each in a fresh interpreter (perfbench/passes.py), until --seconds
have gone by; a pass that has started always runs to its end.  `pass_ref_s`
is a pass's time in reference seconds (perfbench/calibrate.py); the plain
wall time a pass takes is printed beside it.  Prints every
metric by name with its unit, and as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of perfbench/tracing.py with --trace 1.

Writes perfbench/out/result-<workload>-seed<seed>-trace<t>.json (every
pass, the environment, the metrics) and, when traced,
perfbench/out/trace-<workload>-seed<seed>.jsonl (one span a line).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from calibrate import ROUNDS, reference_s  # noqa: E402
from tracing import ALL_METRICS, COUNT_METRICS  # noqa: E402

WORKLOADS = ("verify-all", "eigen", "sumrule")
# a run must end within 180 s; a pass is stopped when it would pass this
RUN_DEADLINE_S = 170
# interpreters launched only to set up, so that setup_s is a median of many
SETUP_PROBES = 6


class PassFailed(RuntimeError):
    pass


def run_pass(workload, seed, index, trace, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(index), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t_launch = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_launch))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {index} of {workload} ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise PassFailed(f"pass {index} of {workload} exited with "
                         f"{proc.returncode}:\n{err}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_wall_s"] = result.pop("t_ready") - t_launch
    # the rounds timed right after set-up
    result["setup_s"] = reference_s(result["setup_wall_s"],
                                    result["calibration_s"][:ROUNDS])
    return result


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    probes = [run_pass(workload, seed, -1 - k, trace, deadline, True)
              for k in range(0 if trace else SETUP_PROBES)]
    passes = []
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(workload, seed, len(passes), trace, deadline))
    launched = probes + passes

    def median(key):
        return statistics.median(p[key] for p in passes)

    if trace:
        metrics = {}
        for name in ALL_METRICS:
            value = statistics.median(p["layers"][name] for p in passes)
            metrics[name] = {"value": value,
                             "unit": "count" if name in COUNT_METRICS
                             else "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                p["setup_s"] for p in launched), "unit": "s"},
            "pass_ref_s": {"value": median("pass_ref_s"), "unit": "s"},
            "peak_rss_mib": {"value": median("rss_kib") / 1024,
                             "unit": "MiB"},
        }
    summary = {
        "correct": not any(p["wrong"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    write_outputs(workload, seed, trace, passes, summary)
    env = passes[0]["env"]
    setup_wall = statistics.median(p["setup_wall_s"] for p in launched)
    calibration = statistics.median(c for p in launched
                                    for c in p["calibration_s"])
    print(f"{workload} seed {seed}: {len(passes)} passes, "
          f"{'traced ' if trace else ''}wall time a pass "
          f"{median('pass_s'):.4f} s, set-up wall time {setup_wall:.4f} s, "
          f"calibration round {calibration:.4f} s")
    print(f"  python {env['python']}, rationals from "
          f"{env['rational_backend']}, {env['cores']} cores")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(f"  operations attempted {summary['attempted']}, "
          f"failed {summary['failed']}, correct {summary['correct']}")
    for p in passes:
        for wrong in p["wrong"]:
            print(f"  WRONG {wrong}", file=sys.stderr)
        for tb in p["errors"]:
            print(f"  FAILED\n{tb}", file=sys.stderr)
    return summary


def write_outputs(workload, seed, trace, passes, summary):
    OUT.mkdir(exist_ok=True)
    spans = [s for p in passes for s in p.pop("spans", ())]
    stem = f"{workload}-seed{seed}"
    record = {"workload": workload, "seed": seed, "trace": trace,
              "env": passes[0]["env"], "passes": passes, **summary}
    (OUT / f"result-{stem}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if trace:
        with open(OUT / f"trace-{stem}.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def pin_to_one_cpu():
    """Run this process and every pass it launches on one CPU, so that a
    pass and its calibration rounds share a core, and the CLI's worker
    threads take turns on it as they do for the interpreter lock."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    ap = argparse.ArgumentParser(description="bethelab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # stopped from outside, leave through run_pass's cleanup of its pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    pin_to_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = {w: run_workload(w, args.seed, args.seconds, args.trace)
                     for w in names}
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{k}": m for w, s in summaries.items()
                        for k, m in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

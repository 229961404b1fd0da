"""Repeat ``bench/run.py`` over seeds and summarise each metric.

Usage (from the repository root):

    python3 bench/sweep.py --workloads paper-link,mc-sweep --seeds 1-10 \
        [--seconds 25] [--trace 0] [--json OUT.json]

For each workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), plus the wall
time of each run. The runs are sequential, one process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        values, walls, failed = {}, [], 0
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"error: {workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s wall, "
                  f"{result['attempted']} jobs, {result['failed']} failed", flush=True)
        summary[workload] = {
            "metrics": {name: summarise(v) for name, v in values.items()},
            "failed": failed,
            "run_wall_s": summarise(walls),
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"  {name:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        print(f"  run wall median {summary[workload]['run_wall_s']['median']:.1f} s", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

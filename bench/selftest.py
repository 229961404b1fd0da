"""Fast self-test of the benchmark: every workload at reduced size.

Usage (from the repository root):

    python3 bench/selftest.py

For each workload it runs ``bench/run.py --smoke`` once untraced and once
traced, and asserts that the last output line holds exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; that every job passed;
that the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
(traced) names of ``BENCHMARK.json``, each with its listed unit and a finite
value; and that every output check of the workload ran, the determinism
rerun included. Last, it runs the benchmark in a directory that holds only
``BENCHMARK.json`` and ``bench/`` and asserts that it exits non-zero without
printing a result. Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload, trace, spec):
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}"
    assert result["correct"] and result["failed"] == 0, f"{where}: {detail['failures']}"
    assert result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    assert set(got) == set(units), f"{where}: metric names differ: {set(got) ^ set(units)}"
    for name, metric in got.items():
        assert metric["unit"] == units[name], f"{where}: {name} unit {metric['unit']}"
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    missing = set(WORKLOADS[workload].CHECKS) | {"determinism"}
    missing -= {name for name, count in detail["checks"].items() if count > 0}
    assert not missing, f"{where}: checks never ran: {sorted(missing)}"
    print(f"ok  {where}: {result['attempted']} jobs, {len(got)} metrics")


def check_bare_directory(spec):
    """Without ``src/`` the benchmark must fail and print no result."""
    bare = os.path.join(HERE, ".work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if name.endswith((".py", ".md", ".json")):
                shutil.copy(os.path.join(HERE, name), os.path.join(bare, "bench"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "bare directory: exit code 0"
        assert '"metrics"' not in proc.stdout, "bare directory: printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(os.path.dirname(bare)):
            os.rmdir(os.path.dirname(bare))
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS), f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}"
    for workload in names:
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_bare_directory(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

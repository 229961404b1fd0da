"""metatx benchmark: one seeded workload per run, checked outputs, metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: paper-link, mc-sweep, two-stream, signal-chain (see
``bench/README.md`` for why each exists and what it checks). The program is
imported from ``src/`` next to this directory and from nowhere else; without
it the run exits with code 1 and prints no result.

Load model: one fresh process per run, a closed loop with one client. Each
job is an in-process call of ``metatx.cli.run`` or of library functions;
the next job starts when the previous one returns. Every job's seed and
config derive from ``--seed``. BLAS is capped at one thread.

A run measures for ``--seconds``. Untraced, it starts fresh jobs while two
more are expected to fit the window (at least two), then reruns its first
job as the last one and compares the output files byte for byte (manifest
timestamps aside). Traced, it runs pairs (at least two) and then the rerun.
A job fails if it raises, fails an output check, or, for the rerun, differs
from the first run. Every job is bracketed by runs of a fixed reference
computation (``reference_seconds``); a job's cost is its wall time in units
of the reference, which cancels most of the shared host's speed drift.

Output: a ``{"detail": ...}`` JSON line (environment, job seeds, job times,
checks run, failures), then as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end set (``E2E_METRICS``), measured untraced.
With ``--trace 1`` they are the per-layer set (``LAYER_METRICS``): each
untraced job is followed by the same job traced, the layer values come
from the traced jobs, and the two medians give the tracing overhead.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, ".work")

SETUP_SAMPLES = 5
MIN_JOBS = 2
MIN_PAIRS = 2

E2E_METRICS = {
    "job_cost.p50": "ref",
    "jobs_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_METRICS = {
    "geometry.phase_difference_matrix.self_s": "s",
    "geometry.transform_matrix.self_s": "s",
    "reflection.reflection_coefficients.self_s": "s",
    "reflection.surface_uniform.self_s": "s",
    "reflection.gamma_bytes": "B",
    "channel.selection_vector.calls": "count",
    "channel.effective_channels.self_s": "s",
    "channel.rayleigh_matrix.calls": "count",
    "channel.add_noise.self_s": "s",
    "modem.QamConstellation.calls": "count",
    "modem.QamConstellation.self_s": "s",
    "modem.qam_map.calls": "count",
    "modem.qam_map.self_s": "s",
    "modem.qam_demap.calls": "count",
    "modem.qam_demap.self_s": "s",
    "modem.qam_demap.symbols": "count",
    "modem.duc.self_s": "s",
    "modem.ddc.self_s": "s",
    "modem.samples": "count",
    "mixer.calibrate_predistortion.self_s": "s",
    "mixer.inverse.self_s": "s",
    "mixer.inverse.samples": "count",
    "mixer.reflect_magnitude.self_s": "s",
    "precoder.closed_form_phases.calls": "count",
    "precoder.closed_form_phases.self_s": "s",
    "precoder.alternating_optimize.self_s": "s",
    "precoder.sum_sinr.calls": "count",
    "precoder.sum_sinr.self_s": "s",
    "precoder.euclidean_gradient.calls": "count",
    "precoder.riemannian_project.calls": "count",
    "precoder.retract.calls": "count",
    "precoder.outer_iterations": "count",
    "precoder.converged_ratio": "ratio",
    "precoder.trials_per_step": "ratio",
    "simulator.build_link.self_s": "s",
    "simulator.simulate_rx.self_s": "s",
    "simulator.ber_sweep.self_s": "s",
    "simulator.two_stream_experiment.self_s": "s",
    "simulator.doppler_spoof_experiment.self_s": "s",
    "sensing.istft_synthesize.self_s": "s",
    "sensing.stft.calls": "count",
    "sensing.stft.self_s": "s",
    "sensing.doppler_signature.self_s": "s",
    "sensing.signature_fidelity.self_s": "s",
    "cli.parse_config.self_s": "s",
    "cli.run.self_s": "s",
    "cli.output_bytes": "B",
    "trace.unattributed_share": "ratio",
    "trace.job_s.p50": "s",
    "trace.untraced_job_s.p50": "s",
    "trace.overhead_share": "ratio",
}


def import_metatx():
    """Import the program from this checkout's ``src/``, or exit with code 1."""
    sys.path.insert(0, SRC)
    try:
        import metatx
    except ImportError as exc:
        sys.exit(f"error: cannot import metatx from {SRC}: {exc}")
    if not os.path.abspath(metatx.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: metatx imported from {metatx.__file__}, not from {SRC}")


def environment(seed, job_seeds):
    import metatx
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "metatx": metatx.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
        "job_seeds": job_seeds,
    }


def tail(times):
    """Time at the highest percentile with at least ten jobs beyond it."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return {"s": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "jobs": n}


_REF_Z = 1j * np.linspace(0.0, 1.0, 300_000)
_REF_OUT = np.exp(_REF_Z)


def reference_seconds():
    """Wall time of a fixed computation, the unit of job cost ("ref").

    About half of its 80 ms is a pure-Python loop and half numpy complex
    exponentials into a preallocated 4.8 MB buffer, a mix like the
    program's own work. It allocates nothing, so the allocator state a job
    leaves behind does not change it. The host is shared and its speed
    drifts by +-25% over minutes, also within 60 s windows; timing this
    next to each job cancels most of that drift.
    """
    start = time.perf_counter()
    acc = 0
    for j in range(450_000):
        acc += j * j
    for _ in range(5):
        np.exp(_REF_Z, out=_REF_OUT)
    return time.perf_counter() - start


def snapshot(out_dir):
    """Output files as bytes; the manifest without its timestamps."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "run_manifest.json":
            manifest = json.loads(data)
            manifest.pop("started_utc", None)
            manifest.pop("finished_utc", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        files[name] = data
    return files


def setup_probe(args):
    """One set-up sample: spawn to first job ready, in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit(f"error: setup probe failed (exit {code})")
    return ready - start


class Runner:
    """Runs one workload's jobs in a work directory and tallies outcomes."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.checks = Counter()
        self.failures = []
        self.attempted = 0
        self.job_seeds = []
        self._dirs = 0

    def new_job(self, job_seed=None):
        if job_seed is None:
            job_seed = self.workload.next_job_seed()
            self.job_seeds.append(job_seed)
        job_dir = os.path.join(self.work_dir, f"job{self._dirs:04d}")
        self._dirs += 1
        return self.workload.prepare(job_seed, job_dir)

    def execute(self, spec, call=None):
        """Run and check one job; returns its wall time, or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            if call is None:
                self.workload.run(spec)
                wall = time.perf_counter() - start
            else:
                wall = call(lambda: self.workload.run(spec))
            self.workload.check(spec, self.checks)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"job seed {spec['seed']}: {type(exc).__name__}: {exc}")
            return None
        return wall

    def discard(self, spec):
        shutil.rmtree(os.path.dirname(spec["out"]), ignore_errors=True)

    def repeat_first(self, first):
        """Rerun the first job and compare its outputs byte for byte."""
        spec = self.new_job(first["seed"])
        wall = self.execute(spec)
        if wall is None:
            return None
        self.checks["determinism"] += 1
        a, b = snapshot(first["out"]), snapshot(spec["out"])
        if a != b:
            differ = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            self.failures.append(f"job seed {first['seed']}: rerun differs in {differ}")
            return None
        return wall


def run_untraced(runner, seconds):
    """Fresh jobs while two more fit the window, then the rerun of the first.

    Each job is bracketed by reference runs; its cost is its wall time over
    the mean of the two. Returns the job times and costs, rerun included,
    and the reference times.
    """
    times, costs, refs = [], [], [reference_seconds()]

    def record(wall):
        refs.append(reference_seconds())
        if wall is not None:
            times.append(wall)
            costs.append(wall / ((refs[-2] + refs[-1]) / 2))

    first = None
    start = time.perf_counter()
    while True:
        spec = runner.new_job()
        record(runner.execute(spec))
        if first is None:
            first = spec
        else:
            runner.discard(spec)
        expected = statistics.median(times) if times else 0.0
        if (len(runner.job_seeds) >= MIN_JOBS
                and time.perf_counter() - start + 2 * expected > seconds):
            break
    record(runner.repeat_first(first))
    return times, costs, refs


def run_traced(runner, seconds):
    """Pairs of one job seed run untraced and traced, then the rerun.

    The pair order alternates, so neither side always gets the caches the
    other one warmed.
    """
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    first = None
    start = time.perf_counter()
    while True:
        job_seed = runner.workload.next_job_seed()
        runner.job_seeds.append(job_seed)
        plain, spec = runner.new_job(job_seed), runner.new_job(job_seed)
        plain_job = lambda: runner.execute(plain)
        traced_job = lambda: runner.execute(
            spec, lambda fn: tracer.run_job(job_seed, fn)[1])
        if len(runner.job_seeds) % 2:
            wall_plain, wall = plain_job(), traced_job()
        else:
            wall, wall_plain = traced_job(), plain_job()
        if wall_plain is not None and wall is not None:
            untraced.append(wall_plain)
            traced.append(wall)
        if first is None:
            first = plain
        else:
            runner.discard(plain)
        runner.discard(spec)
        expected = statistics.median(untraced) + statistics.median(traced) if traced else 0.0
        if len(runner.job_seeds) >= MIN_PAIRS and (
            time.perf_counter() - start + expected > seconds
        ):
            break
    runner.repeat_first(first)
    return untraced, traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_metatx()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.setup_probe:
            spec = workload.prepare(workload.next_job_seed(), os.path.join(work_dir, "job"))
            workload.setup(spec)
            print("ready", flush=True)
            return 0
        runner = Runner(workload, work_dir)
        detail = {"workload": args.workload, "smoke": args.smoke}
        if args.trace:
            untraced, traced, tracer = run_traced(runner, args.seconds)
            times = traced
        else:
            setup_samples = [setup_probe(args)
                             for _ in range(2 if args.smoke else SETUP_SAMPLES)]
            times, costs, refs = run_untraced(runner, args.seconds)
            detail["setup_s"] = setup_samples
            detail["ref_s"] = refs
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only if no other run is using it
        except OSError:
            pass

    if not times:
        print(json.dumps({"detail": detail, "failures": runner.failures}), file=sys.stderr)
        sys.exit("error: no job completed")

    failed = len(runner.failures)
    if args.trace:
        layer = tracer.layer_metrics()
        layer["trace.job_s.p50"] = statistics.median(traced)
        layer["trace.untraced_job_s.p50"] = statistics.median(untraced)
        layer["trace.overhead_share"] = (
            layer["trace.job_s.p50"] / layer["trace.untraced_job_s.p50"] - 1
        )
        values = {name: layer[name] for name in LAYER_METRICS}
        units = LAYER_METRICS
        detail["untraced_job_s"] = untraced
    else:
        values = {
            "job_cost.p50": statistics.median(costs),
            "jobs_per_ref": len(costs) / sum(costs),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        detail["job_cost"] = costs
        detail["ref_s.p50"] = statistics.median(refs)
        units = E2E_METRICS
    detail.update({
        "environment": environment(args.seed, runner.job_seeds),
        "jobs": len(times),
        "job_s": times,
        "job_s.p50": statistics.median(times),
        "jobs_per_s": len(times) / sum(times),
        "job_s.tail": tail(times),
        "error_rate": failed / runner.attempted,
        "peak_rss_mb": peak_rss_mb,
        "checks": dict(sorted(runner.checks.items())),
        "failures": runner.failures,
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

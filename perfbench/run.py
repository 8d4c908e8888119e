"""Benchmark of l1select: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload {verify-sweep,select-large,query-stream,all}
                             --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` next to this directory, in this
process, single-threaded (``THREADS`` is removed from the environment).
Each op is timed alone; its output is checked after it, untimed.  The run
ends once ``--seconds`` have passed and at least ``MIN_SAMPLES`` latency
samples exist (at most ``MAX_WINDOW_S`` seconds).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
half the time untraced, then installs the tracer for the other half and
reports the per-layer metrics, including the tracing overhead; its spans are
written to ``.bench_out/spans-<workload>.npz``.  ``--workload all`` runs each
workload in its own child process, one after another.

Every metric is printed as ``name value unit``; the last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_START = time.perf_counter()  # setup_s counts from here, before numpy and l1select load

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

os.environ.pop("THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

import numpy as np

import l1select

if Path(l1select.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"l1select was imported from {l1select.__file__}, not from {SRC}")

import workloads
from tracing import Tracer

IMPORT_S = time.perf_counter() - _START

SETUP_REPEATS = 3
MAX_WINDOW_S = 120.0
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"


class Window:
    """Latency samples and outcomes of one measuring loop."""

    def __init__(self):
        self.latency_ms: list[float] = []  # one per call: its time / its ops
        self.busy_s = 0.0
        self.ops = 0
        self.failed = 0

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy_s


def measure(workload, first_call: int, seconds: float, min_samples: int, tracer=None) -> Window:
    window = Window()
    began = time.perf_counter()
    i = first_call
    while True:
        elapsed = time.perf_counter() - began
        if elapsed >= MAX_WINDOW_S or (elapsed >= seconds and len(window.latency_ms) >= min_samples):
            return window
        workload.prepare(i)
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter_ns()
        result = workload.op(i)
        busy = (time.perf_counter_ns() - t0) / 1e9
        if tracer is not None:
            tracer.op_id = -1
        n = workload.ops_per_call
        window.latency_ms.append(busy * 1e3 / n)
        window.busy_s += busy
        window.ops += n
        window.failed += workload.check(i, result)
        i += 1


def environment() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = read(f"{index}/size")
    model = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "THREADS": os.environ.get("THREADS", "unset"),
    }


def run(workload, seed: int, seconds: float, trace: bool, min_samples: int) -> tuple[dict, dict]:
    """Set up, measure and check one workload; return the result object
    and the metrics that are printed but not part of it."""
    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    cwd = os.getcwd()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            workload.setup(seed, workdir)
            setups.append(time.perf_counter() - t0)
        setup_s = IMPORT_S + statistics.median(setups)
        workdir.mkdir(parents=True, exist_ok=True)
        os.chdir(workdir)  # anything the program writes to its cwd stays in the work dir
        if not trace:
            window = measure(workload, 0, seconds, min_samples)
            windows = [window]
            deciles = statistics.quantiles(window.latency_ms, n=10)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (window.ops_per_s, "1/s"),
                "latency_ms.p90": (deciles[8], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            # Printed, but not in the result's metrics.  On a 2-vCPU VM whose
            # speed switched every few seconds between a fast and a slow phase,
            # the median landed in whichever phase held more of the run, and
            # spread from run to run wider than the largest bound allowed.
            unbounded = {"latency_ms.p50": (statistics.median(window.latency_ms), "ms")}
            mismatches = 0
        else:
            plain = measure(workload, 0, seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, len(plain.latency_ms), seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            windows = [plain, traced]
            unbounded = {}
            metrics = tracer.per_layer_metrics(traced.ops)
            metrics["trace.ops_per_s_untraced"] = (plain.ops_per_s, "1/s")
            metrics["trace.ops_per_s_traced"] = (traced.ops_per_s, "1/s")
            metrics["trace.overhead_ratio"] = (plain.ops_per_s / traced.ops_per_s, "ratio")
            mismatches = metrics["selectors.ledger_mismatches"][0]
            OUT_DIR.mkdir(exist_ok=True)
            tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
            if tracer.missing:
                print(f"# trace: not found, not wrapped: {', '.join(tracer.missing)}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_DIR.rmdir()
    attempted = sum(w.ops for w in windows)
    failed = sum(w.failed for w in windows)
    unbounded["failed_ratio"] = (failed / attempted, "ratio")
    result = {
        "correct": failed == 0 and mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, unbounded


def report(workload, seed: int, result: dict, unbounded: dict) -> None:
    print("# env " + json.dumps(environment()))
    print(
        "# workload "
        + json.dumps(
            {"name": workload.name, "seed": seed, "working_set": workload.working_set()}
        )
    )
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for name, (value, unit) in unbounded.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps(result))


def run_all(args) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode
        results[name] = json.loads(child.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]()
    result, unbounded = run(workload, args.seed, args.seconds, bool(args.trace), workloads.MIN_SAMPLES)
    report(workload, args.seed, result, unbounded)
    return 0


if __name__ == "__main__":
    sys.exit(main())

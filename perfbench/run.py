#!/usr/bin/env python3
"""Benchmark of the triphot package.

Run from the repository root (the package is loaded from src/, as the tests
load it; nothing needs installing):

    python3 perfbench/run.py --workload fringe_scan --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): fringe_scan, counting_run, trit_synthesis,
cli_session.  Each is a closed loop with one caller and inputs made from
--seed.  With --trace 0 the run measures end-to-end metrics with no tracing;
with --trace 1 it runs one round untraced and one traced and reports
per-layer metrics (spans.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

End-to-end metrics:
  setup_s      median over SETUP_SAMPLES fresh workload processes of the time
               from spawning the interpreter to "ready" (imports and inputs)
  ops_per_s    successful ops per second over the timed loop
  op_p50_s     median op latency
  op_tail_s    latency of the 11th-slowest op, the highest percentile with
               ten ops beyond it (the median when fewer than 21 ops ran)
  ok_frac      successful ops / attempted ops (an op fails by raising, by a
               non-zero exit or by an output that fails its check)
  peak_rss_mb  peak RSS of the workload process; for cli_session, of the
               largest command process
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fringe_scan", "counting_run", "trit_synthesis", "cli_session")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def tail_latency(latencies):
    """(value, percentile, ops beyond it) of the 11th-slowest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n // 2
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, 10


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_mb"):
        return "MB"
    if name == "io.bytes_written":
        return "B"
    return "count"


def import_metrics(env) -> dict:
    """Import times from `python -X importtime`, and the modules loaded."""
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sys, triphot.cli; print(len(sys.modules))"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing triphot.cli failed: {proc.stderr.strip()[-300:]}")
        self_us, cumulative_us = {}, {}
        for match in pattern.finditer(proc.stderr):
            self_us[match.group(3)] = int(match.group(1))
            cumulative_us[match.group(3)] = int(match.group(2))
        scipy_us = sum(v for k, v in self_us.items() if k == "scipy" or k.startswith("scipy."))
        samples.append((cumulative_us["triphot"], cumulative_us["triphot.cli"], scipy_us, int(proc.stdout)))
    return {
        "import.triphot_s": statistics.median(s[0] for s in samples) / 1e6,
        "import.cli_s": statistics.median(s[1] for s in samples) / 1e6,
        "import.scipy_s": statistics.median(s[2] for s in samples) / 1e6,
        "import.modules_n": samples[0][3],
    }


class Children:
    """Workers started by this run; a watchdog kills them past the deadline."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []
        self.timer = threading.Timer(DEADLINE_S, self.kill)
        self.timer.daemon = True
        self.timer.start()

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)  # each worker leads its own group

    def close(self) -> None:
        self.timer.cancel()
        self.kill()
        for proc in self.procs:
            proc.wait()

    def start_worker(self, argv, env, setup_only: bool):
        """Start a worker; returns (process, seconds until it said ready)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv] + (["--setup-only"] if setup_only else []),
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True,
        )
        self.procs.append(proc)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready != "ready\n":
            proc.wait()
            raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
        return proc, setup_s

    @staticmethod
    def finish(proc) -> list[str]:
        lines = proc.stdout.read().splitlines()
        if proc.wait() != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        return lines


def measure(args, env, argv, children) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup_s = children.start_worker(argv, env, setup_only=True)
        children.finish(proc)
        setups.append(setup_s)
    proc, setup_s = children.start_worker(argv, env, setup_only=False)
    setups.append(setup_s)
    lines = children.finish(proc)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    lat = result["latencies"]
    tail, pct, beyond = tail_latency(lat)
    print(f"{args.workload}: {result['attempted']} ops, "
          f"{result['elapsed']:.3f} s; op_tail_s is p{pct:.1f} of {len(lat)} ops ({beyond} beyond it); "
          f"setup samples {', '.join(f'{s:.4f}' for s in setups)} s")
    ok = result["attempted"] - result["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok / result["elapsed"],
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "ok_frac": ok / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result, metrics


def trace(args, env, argv, children) -> tuple[dict, dict]:
    proc, _ = children.start_worker(argv, env, setup_only=False)
    result = json.loads(children.finish(proc)[-1])
    metrics = dict(result["per_layer"])
    metrics.update(import_metrics(env))
    print(f"{args.workload}: traced round covers {metrics['trace.covered_frac']:.3f} of its wall time "
          f"in package self time; tracing overhead {metrics['trace.overhead_frac']:+.3f}")
    return result, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "triphot", "__init__.py")):
        print("perfbench: no triphot package under src/ next to perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    argv = [args.workload, str(args.seed), str(args.seconds), str(args.trace),
            workdir, os.path.join(work_root, "trace")]
    children = Children()
    try:
        # Compile bytecode and warm the file cache once, untimed.
        subprocess.run([sys.executable, "-c", "import triphot.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60, capture_output=True)
        result, metrics = (trace if args.trace else measure)(args, env, argv, children)
    except (BenchError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        children.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for error in result["errors"]:
        print(f"failed op: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

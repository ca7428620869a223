"""Workload process: make the inputs, say "ready", run, print one JSON line.

Usage (run.py starts it; PYTHONPATH must name the package's src directory):

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR TRACEDIR [--setup-only]

With TRACE 0 the loop runs whole rounds of ops for about SECONDS (see
`schedule`), timing each op.  With TRACE 1 it runs one round untraced and the
same round traced, so the two wall times give the tracing overhead.  Outputs
are checked after the loop, outside every timed region.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from workloads import WORKLOADS, Rng

MIN_ROUNDS = 3


class Ledger:
    """Status of every op run, and the outputs to check (each job's first
    output; every output when ops are checked one by one)."""

    def __init__(self, workload):
        self.w = workload
        self.errors: list[str] = []
        self.status: list[tuple[int, bool]] = []  # (job index, ok so far)
        self.digests: dict[int, bytes] = {}
        self.checked: list[tuple[int, object]] = []

    def add(self, j: int, output, error: str | None) -> None:
        if error is not None:
            self.errors.append(error)
            self.status.append((j, False))
            return
        digest = self.w.digest(self.w.jobs[j], output)
        first_run = j not in self.digests
        if first_run:
            self.digests[j] = digest
        elif digest != self.digests[j]:
            self.errors.append(f"job {j}: output differs from its first run")
            self.status.append((j, False))
            return
        if self.w.ops_in_children or first_run:
            self.checked.append((len(self.status), output))
        self.status.append((j, True))

    def check(self) -> None:
        """Check kept outputs; a failed check fails every identical run of that job."""
        bad_jobs = set()
        for index, output in self.checked:
            j = self.status[index][0]
            try:
                self.w.check(self.w.jobs[j], output)
            except Exception as exc:  # any check or reader error is a failed op
                self.errors.append(f"job {j}: {type(exc).__name__}: {exc}")
                if self.w.ops_in_children:
                    self.status[index] = (j, False)
                else:
                    bad_jobs.add(j)
        self.status = [(j, ok and j not in bad_jobs) for j, ok in self.status]

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.status if not ok)


def _run(job, runner):
    try:
        return runner(job), None
    except Exception as exc:  # an op that raises is a failed op
        return None, f"{type(exc).__name__}: {exc}"


def schedule(w, seconds: float):
    """Yield the job indices of one run, a round at a time (a round is one
    command for cli_session), until one more round at the mean round time so
    far would end past `seconds`; at least MIN_ROUNDS rounds (every command
    once for cli_session).  Each of the workload's `once` jobs runs once, when
    the rounds have used half of the time left to them.

    Every run ends on a round boundary, so the job mix is the same in every
    run and only the number of rounds depends on the machine's speed.
    """
    n = len(w.jobs)
    once = list(getattr(w, "once", []))
    if w.ops_in_children:
        rounds, min_rounds = [[j] for j in range(n)], n
    else:
        rounds, min_rounds = [[j for j in range(n) if j not in once]], MIN_ROUNDS
    start = time.perf_counter()
    spent, count = 0.0, 0  # time in rounds (once jobs excluded), rounds run
    while True:
        if once and spent >= (seconds - getattr(w, "once_s", 0.0)) / 2:
            yield from once
            once = []
        elapsed = time.perf_counter() - start
        if count >= min_rounds and elapsed + spent / count > seconds:
            yield from once
            return
        t0 = time.perf_counter()
        yield from rounds[count % len(rounds)]
        spent += time.perf_counter() - t0
        count += 1


def timed_loop(w, seconds: float) -> dict:
    ledger = Ledger(w)
    latencies = []
    start = time.perf_counter()
    for j in schedule(w, seconds):
        t0 = time.perf_counter()
        output, error = _run(w.jobs[j], w.run)
        latencies.append(time.perf_counter() - t0)
        ledger.add(j, output, error)
    elapsed = time.perf_counter() - start
    if w.ops_in_children:  # the largest command process's peak
        peak_kib = max((out[3] for _, out in ledger.checked), default=0)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ledger.check()
    for probe in getattr(w, "probes", []):
        code, _, err, _ = w.run(probe)
        tail = err.strip().splitlines()[-1:] or [""]
        print(f"probe (not an op): triphot {probe['argv'][0]} on a config file: exit {code} {tail[0]}", flush=True)
    return {
        "latencies": latencies,
        "elapsed": elapsed,
        "peak_rss_mb": peak_kib / 1024.0,
        "attempted": len(ledger.status),
        "failed": ledger.failed,
        "errors": ledger.errors[:20],
    }


def traced_round(w, trace_dir: str, seed: int) -> dict:
    """One untraced round, then the same round traced; per-layer metrics."""
    import spans

    jobs = list(enumerate(w.jobs)) + [(None, p) for p in getattr(w, "probes", [])]
    ledger = Ledger(w)
    walls = []
    nonzero = 0
    tracer = spans.Tracer()
    w.trace_dir = os.path.join(trace_dir, f"{w.name}-seed{seed}")
    os.makedirs(w.trace_dir, exist_ok=True)
    for traced in (False, True):
        if traced and not w.ops_in_children:
            tracer.install()
        runner = w.run_traced if traced and w.ops_in_children else w.run
        t0 = time.perf_counter()
        for j, job in jobs:
            tracer.op_id = len(ledger.status)
            sid = tracer.open("bench.op") if traced and not w.ops_in_children else None
            output, error = _run(job, runner)
            if sid is not None:
                tracer.close(sid)
            if traced and w.ops_in_children and output is not None and output[0] != 0:
                nonzero += 1
            if j is None:
                continue
            ledger.add(j, output, error)
        walls.append(time.perf_counter() - t0)
        tracer.uninstall()
    ledger.check()
    if w.ops_in_children:
        summaries = [spans.summarize(path) for path in w.trace_paths]
    else:
        path = os.path.join(w.trace_dir, "spans.npz")
        tracer.save(path)
        summaries = [spans.summarize(path)]
    metrics = spans.layer_metrics(spans.merge(summaries), walls[1])
    metrics["cli.exit_nonzero"] = nonzero
    metrics["trace.overhead_frac"] = walls[1] / walls[0] - 1.0
    return {
        "per_layer": metrics,
        "attempted": len(ledger.status),
        "failed": ledger.failed,
        "errors": ledger.errors[:20],
    }


def main() -> None:
    name, seed, seconds, trace, workdir, trace_dir = sys.argv[1:7]
    setup_only = "--setup-only" in sys.argv[7:]
    os.makedirs(workdir, exist_ok=True)
    w = WORKLOADS[name](Rng(int(seed)), workdir)
    print("ready", flush=True)
    if setup_only:
        return
    if trace == "1":
        result = traced_round(w, trace_dir, int(seed))
    else:
        result = timed_loop(w, float(seconds))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

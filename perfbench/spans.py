"""Spans around calls into the package's public functions.

`Tracer.install` replaces functions at the module attributes their callers
look up (for example `triphot.optics.lift`, which `experiment`, `synthesis`
and `verify` all reach through `optics.lift`) with wrappers that record one
span per call: label, start, end, parent span and op id.  Spans stay in
compact arrays in memory and are written out once, at the end of a run.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import json
import os
import sys
import time

import numpy as np

# (module, attribute, span label).  `cli` imports `sweep` and
# `simulate_counts` by name, so those are wrapped in its namespace as well.
TARGETS = [
    ("triphot.optics", "lift", "optics.lift"),
    ("triphot.optics", "retarder", "optics.retarder"),
    ("triphot.optics", "apply", "optics.apply"),
    ("triphot.experiment", "predict_rate", "experiment.predict_rate"),
    ("triphot.experiment", "sweep", "experiment.sweep"),
    ("triphot.experiment", "simulate_counts", "experiment.simulate_counts"),
    ("triphot.experiment", "plate_prob_grid", "experiment.plate_prob_grid"),
    ("triphot.synthesis", "synthesize", "synthesis.synthesize"),
    ("triphot.synthesis", "minimize", "synthesis.refine"),
    ("triphot.observables", "stokes", "observables.stokes"),
    ("triphot.observables", "degree_of_polarization", "observables.degree_of_polarization"),
    ("triphot.observables", "correlators", "observables.correlators"),
    ("triphot.observables", "coincidence_probability", "observables.coincidence_probability"),
    ("triphot.verify", "run_checks", "verify.run_checks"),
    ("triphot.verify", "check_half_wave_grid", "verify.check_half_wave_grid"),
    ("triphot.verify", "check_quarter_wave_grid", "verify.check_quarter_wave_grid"),
    ("triphot.verify", "check_quarter_wave_pin", "verify.check_quarter_wave_pin"),
    ("triphot.verify", "check_lift_oracle", "verify.check_lift_oracle"),
    ("triphot.verify", "check_lift_homomorphism", "verify.check_lift_homomorphism"),
    ("triphot.verify", "check_p_invariance", "verify.check_p_invariance"),
    ("triphot.io", "load_config", "io.load_config"),
    ("triphot.io", "write_sweep_csv", "io.write_sweep_csv"),
    ("triphot.io", "write_counts_csv", "io.write_counts_csv"),
    ("triphot.cli", "main", "cli.main"),
    ("triphot.cli", "sweep", "experiment.sweep"),
    ("triphot.cli", "simulate_counts", "experiment.simulate_counts"),
]

CHECKS = [label for _, _, label in TARGETS if label.startswith("verify.check_")]


def _output_bytes(path_index):
    def count(args, kwargs, _result):
        path = kwargs.get("path", args[path_index] if len(args) > path_index else None)
        return os.path.getsize(path)
    return count


# Work counted from a wrapped call's arguments and result: label -> (counter, fn).
COUNTERS = {
    "experiment.sweep": ("experiment.sweep.points", lambda a, k, r: r.values.size),
    "experiment.simulate_counts": ("experiment.simulate_counts.bins", lambda a, k, r: len(r)),
    "synthesis.synthesize": ("synthesis.evaluations", lambda a, k, r: r.evaluations),
    "synthesis.refine": ("synthesis.refine.nfev", lambda a, k, r: r.nfev),
    "io.write_sweep_csv": ("io.bytes_written", _output_bytes(1)),
    "io.write_counts_csv": ("io.bytes_written", _output_bytes(2)),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, float] = {}
        self.failed: dict[str, int] = {}
        self.op_id = -1
        self._stack = [-1]
        self._saved: list[tuple] = []

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def open(self, label: str) -> int:
        sid = len(self.start)
        self.name.append(self._label_id(label))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def record(self, label: str, start: float, end: float) -> None:
        """Add a finished span under the current one."""
        self.close(self.open(label))
        self.start[-1], self.end[-1] = start, end

    def wrap(self, label: str, fn):
        counter = COUNTERS.get(label)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[label] = tracer.failed.get(label, 0) + 1
                raise
            finally:
                tracer.close(sid)
            if counter is not None:
                name, count = counter
                tracer.counters[name] = tracer.counters.get(name, 0) + count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target whose module is already imported (imports nothing)."""
        for module_name, attr, label in TARGETS:
            module = sys.modules.get(module_name)
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(label, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def save(self, path: str) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            labels=np.array(self.labels, dtype=str),
            counters=np.array(json.dumps(self.counters)),
            failed=np.array(json.dumps(self.failed)),
        )


def summarize(path: str) -> dict:
    """Per-label calls, self and inclusive seconds, plus counters, from a saved trace."""
    with np.load(path) as data:
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        labels = [str(x) for x in data["labels"]]
        counters = json.loads(str(data["counters"]))
        failed = json.loads(str(data["failed"]))
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    self_s = np.bincount(name, weights=dur - child, minlength=len(labels))
    incl_s = np.bincount(name, weights=dur, minlength=len(labels))
    calls = np.bincount(name, minlength=len(labels))
    return {
        "spans": {
            label: [int(calls[i]), float(self_s[i]), float(incl_s[i])]
            for i, label in enumerate(labels)
        },
        "counters": counters,
        "failed": failed,
    }


def merge(summaries: list[dict]) -> dict:
    out = {"spans": {}, "counters": {}, "failed": {}}
    for summary in summaries:
        for label, row in summary["spans"].items():
            acc = out["spans"].setdefault(label, [0, 0.0, 0.0])
            for i, value in enumerate(row):
                acc[i] += value
        for key in ("counters", "failed"):
            for name, value in summary[key].items():
                out[key][name] = out[key].get(name, 0) + value
    return out


MODULES = ("import", "optics", "experiment", "synthesis", "verify", "io", "observables", "cli")


def layer_metrics(summary: dict, traced_wall_s: float) -> dict:
    """Per-layer metric values (name -> number) from a merged trace summary."""
    spans, counters, failed = summary["spans"], summary["counters"], summary["failed"]

    def calls(label):
        return spans.get(label, [0, 0.0, 0.0])[0]

    def self_s(label):
        return spans.get(label, [0, 0.0, 0.0])[1]

    def incl_s(label):
        return spans.get(label, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    evals = counters.get("synthesis.evaluations", 0)
    nfev = counters.get("synthesis.refine.nfev", 0)
    bins = counters.get("experiment.simulate_counts.bins", 0)
    m = {
        "optics.lift.calls": calls("optics.lift"),
        "optics.lift.self_s": self_s("optics.lift"),
        "optics.retarder.calls": calls("optics.retarder"),
        "optics.retarder.self_s": self_s("optics.retarder"),
        "experiment.predict_rate.calls": calls("experiment.predict_rate"),
        "experiment.predict_rate.self_s": self_s("experiment.predict_rate"),
        "experiment.sweep.self_s": self_s("experiment.sweep"),
        "experiment.sweep.points": counters.get("experiment.sweep.points", 0),
        "experiment.simulate_counts.self_s": self_s("experiment.simulate_counts"),
        "experiment.simulate_counts.bins": bins,
        "experiment.simulate_counts.us_per_bin": 1e6 * ratio(incl_s("experiment.simulate_counts"), bins),
        "experiment.plate_prob_grid.self_s": self_s("experiment.plate_prob_grid"),
        "synthesis.synthesize.self_s": self_s("synthesis.synthesize"),
        "synthesis.evaluations": evals,
        "synthesis.grid_evals": evals - nfev,
        "synthesis.refine.calls": calls("synthesis.refine"),
        "synthesis.refine.nfev": nfev,
        "synthesis.refine.s": incl_s("synthesis.refine"),
        "synthesis.us_per_eval": 1e6 * ratio(incl_s("synthesis.synthesize"), evals),
        "synthesis.evals_per_solve": ratio(evals, calls("synthesis.synthesize")),
        "verify.run_checks.self_s": self_s("verify.run_checks"),
        "io.write_sweep_csv.s": incl_s("io.write_sweep_csv"),
        "io.write_counts_csv.s": incl_s("io.write_counts_csv"),
        "io.bytes_written": counters.get("io.bytes_written", 0),
        "io.load_config.calls": calls("io.load_config"),
        "io.load_config.failed": failed.get("io.load_config", 0),
        "cli.main.self_s": self_s("cli.main"),
    }
    for label in CHECKS:
        m[label + ".s"] = incl_s(label)
    module_self = {mod: 0.0 for mod in MODULES}
    for label, row in spans.items():
        mod = label.split(".")[0]
        if mod in module_self:
            module_self[mod] += row[1]
    for mod, value in module_self.items():
        m[mod + ".self_s"] = value
    m["trace.covered_frac"] = ratio(sum(module_self.values()), traced_wall_s)
    return m

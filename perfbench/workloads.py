"""The four workloads: inputs made from the seed, one op each, output checks.

Every workload is a closed loop with one caller.  A round is a fixed list of
jobs whose parameters come from the seed; a run repeats the same round for
about --seconds (worker.py), so each round after the first is also a determinism
check (its outputs must equal the first round's bit for bit).  The mix is
fixed by cost class, not drawn at random, so that throughput and latency
percentiles do not depend on the seed: a middle class of jobs that cost about
the same, dearer jobs above it and cheaper jobs below.  Jobs listed in a
workload's `once` run once per run, in its middle, instead of once per round;
`once_s` is their time on the reference machine (2-vCPU Xeon VM, Python 3.11,
numpy 2.4).  The median and the 11th-slowest op (the tail, see run.py) then
fall inside the middle class, at positions that do not depend on the seed:
its middle for fringe_scan and counting_run, its bottom for trit_synthesis,
its top for the tail.  The shared reference host runs about 1.6 times slower
for stretches of seconds to minutes, and a quantile of a class moves with the
share of a run spent slow; near the top of a class it moves least.

Package modules are imported inside the in-process workloads' set-up and
called through module attributes (`experiment.sweep`, not a name bound at
import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys

TWO_PI = 2.0 * math.pi
TRITS = ("plus", "minus", "zero")


class Rng(random.Random):
    """Seeded generator for inputs; stdlib only, so making inputs imports nothing heavy."""

    def integers(self, n: int) -> int:
        return self.randrange(n)

    def permutation(self, n: int) -> list[int]:
        order = list(range(n))
        self.shuffle(order)
        return order


class CheckFailed(Exception):
    """An op's output did not match its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _angle_near(value: float, target: float, period: float, tol: float = 1e-6) -> bool:
    d = (value - target) % period
    return min(d, period - d) < tol


class FringeScan:
    """`experiment.sweep` jobs from 201 to 100001 points, each written with
    `io.write_sweep_csv`.  The 201-point jobs run once per run."""

    name = "fringe_scan"
    ops_in_children = False

    def __init__(self, rng, workdir: str):
        import numpy as np
        from triphot import experiment, io, observables, optics
        from triphot.experiment import ExperimentConfig, SourceSpec

        self.np, self.experiment, self.io = np, experiment, io
        self.observables = observables
        # Middle-class sizes give each job type about the same cost (~0.12 s).
        middle = [(3201, "phi", "none"), (2601, "chi", "none")]
        middle += [(1401, p, a) for p in ("phi", "chi") for a in ("x", "y")]
        shapes = [(100001, "phi", "none")] + middle * 2
        shapes += [(201, p, a) for p in ("phi", "chi") for a in ("none", "x", "y")]
        self.jobs = []
        for i, (steps, param, analysis) in enumerate(shapes):
            # Every other direct job has an ideal source and a half- or
            # quarter-wave plate, so the closed-form laws apply to it.
            ideal = analysis == "none" and i % 2 == 0
            kinds = ("half", "quarter") if ideal else ("half", "quarter", "arbitrary")
            kind = kinds[int(rng.integers(len(kinds)))]
            retardance = {"half": math.pi, "quarter": math.pi / 2}.get(kind) or rng.uniform(0.3, TWO_PI - 0.3)
            lossy = {} if ideal else {
                "t20": rng.uniform(0.6, 1.0),
                "t02": rng.uniform(0.3, 1.0),
                "phase_jitter": rng.uniform(0.0, 0.8),
            }
            source = SourceSpec(phase=rng.uniform(0.0, TWO_PI), pair_rate=rng.uniform(100.0, 1000.0), **lossy)
            cfg = ExperimentConfig(
                source=source,
                plate=optics.PlateSpec(retardance, rng.uniform(0.0, math.pi)),
                analysis=analysis,
                eta1=rng.uniform(0.5, 1.0),
                eta2=rng.uniform(0.5, 1.0),
                accidental_rate=rng.uniform(0.0, 2.0),
            )
            stop = TWO_PI if param == "phi" else math.pi
            path = os.path.join(workdir, f"sweep{i:02d}.csv")
            self.jobs.append({"cfg": cfg, "param": param, "stop": stop, "steps": steps,
                              "ideal": ideal, "path": path})
        self.jobs = [self.jobs[k] for k in rng.permutation(len(self.jobs))]
        self.once = [k for k, job in enumerate(self.jobs) if job["steps"] == 201]

    def run(self, job):
        table = self.experiment.sweep(job["cfg"], job["param"], 0.0, job["stop"], job["steps"])
        self.io.write_sweep_csv(table, job["path"])
        return table

    def digest(self, job, table) -> bytes:
        return hashlib.blake2b(table.values.tobytes() + table.rates.tobytes()).digest()

    def check(self, job, table) -> None:
        import reference

        np, cfg = self.np, job["cfg"]
        values, rates = table.values, table.rates
        _require(values.size == job["steps"] and values[0] == 0.0 and values[-1] == job["stop"],
                 "sweep grid has the wrong size or end points")
        if cfg.analysis == "none" and job["ideal"]:
            ref = reference.law_rates(cfg, job["param"], values, self.experiment.hwp_law, self.experiment.qwp_law)
            idx = np.arange(values.size)
        elif cfg.analysis == "none":
            ref = reference.direct_rates(cfg, job["param"], values)
            idx = np.arange(values.size)
        else:
            idx = np.linspace(0, values.size - 1, 16).astype(int)
            ref = reference.analysis_rates(cfg, job["param"], values[idx],
                                           self.observables.coincidence_probability)
        tol = 1e-9 * (cfg.source.pair_rate + cfg.accidental_rate)
        worst = float(np.max(np.abs(rates[idx] - ref)))
        _require(worst <= tol, f"rates differ from reference by {worst:.3e} (tol {tol:.1e})")
        config, _, rows = reference.read_csv(job["path"], "sweep", "param,value,rate")
        expected = json.loads(json.dumps(self.io.config_to_mapping(cfg)))
        _require(config == expected, "written config differs from the job's config")
        _require(len(rows) == values.size, "written row count differs")
        for row, value, rate in zip(rows, values.tolist(), rates.tolist()):
            _require(row[0] == job["param"] and float(row[1]) == value and float(row[2]) == rate,
                     "written row does not round-trip")


class CountingRun:
    """`experiment.simulate_counts` runs with jitter and accidentals, each
    written with `io.write_counts_csv`: many short bins (cost per bin) and few
    long bins of tens of thousands of pairs (cost per pair)."""

    name = "counting_run"
    ops_in_children = False
    Z_MAX = 6.0

    def __init__(self, rng, workdir: str):
        import numpy as np
        from triphot import experiment, io, optics
        from triphot.experiment import ExperimentConfig, SourceSpec

        self.np, self.experiment, self.io = np, experiment, io
        # (bins, bin width, pair rate); the middle class pairs 2000 short bins
        # with 40 bins of 30000 pairs each, which cost about the same.
        shapes = [(40000, 1.0, 300.0)] + [(2000, 1.0, 300.0), (40, 100.0, 300.0)] * 4 + [(200, 1.0, 300.0)]
        self.jobs = []
        for i, (bins, width, pair_rate) in enumerate(shapes):
            retardance = (math.pi, math.pi / 2, rng.uniform(0.3, TWO_PI - 0.3))[int(rng.integers(3))]
            source = SourceSpec(
                phase=rng.uniform(0.0, TWO_PI),
                t20=rng.uniform(0.6, 1.0),
                t02=rng.uniform(0.3, 1.0),
                phase_jitter=rng.uniform(0.1, 0.8),
                pair_rate=pair_rate,
            )
            cfg = ExperimentConfig(
                source=source,
                plate=optics.PlateSpec(retardance, rng.uniform(0.0, math.pi)),
                analysis=("none", "x", "y")[i % 3],
                eta1=rng.uniform(0.7, 1.0),
                eta2=rng.uniform(0.7, 1.0),
                # at least 20 expected accidentals per run keeps the z-test near-normal
                accidental_rate=rng.uniform(0.1, 0.5),
            )
            self.jobs.append({"cfg": cfg, "seed": int(rng.integers(2**31)), "bins": bins, "width": width,
                              "path": os.path.join(workdir, f"counts{i:02d}.csv")})
        self.jobs = [self.jobs[k] for k in rng.permutation(len(self.jobs))]

    def run(self, job):
        duration = job["bins"] * job["width"]
        records = self.experiment.simulate_counts(job["cfg"], job["seed"], duration, job["width"])
        meta = {"seed": job["seed"], "duration": duration, "bin": job["width"]}
        self.io.write_counts_csv(records, job["cfg"], job["path"], meta)
        return records

    def digest(self, job, records) -> bytes:
        return hashlib.blake2b(repr([(r.t_start, r.coincidences) for r in records]).encode()).digest()

    def check(self, job, records) -> None:
        import reference

        np = self.np
        counts = np.array([r.coincidences for r in records], dtype=float)
        _require(len(records) == job["bins"], "wrong number of bins")
        _require(all(r.t_start == i * job["width"] for i, r in enumerate(records)), "wrong bin start times")
        mu = self.experiment.predict_rate(job["cfg"]) * job["width"]
        # Each bin is Poisson: pairs thinned by iid marks, plus Poisson accidentals.
        z = (counts.mean() - mu) / math.sqrt(mu / counts.size)
        _require(abs(z) < self.Z_MAX, f"mean count {counts.mean():.6g} vs predicted {mu:.6g}: z = {z:.2f}")
        _, run, rows = reference.read_csv(job["path"], "counts", "t_start,coincidences")
        _require(run == {"seed": job["seed"], "duration": job["bins"] * job["width"], "bin": job["width"]},
                 "written run metadata differs")
        _require(len(rows) == len(records), "written row count differs")
        for row, rec in zip(rows, records):
            _require(float(row[0]) == rec.t_start and int(row[1]) == rec.coincidences,
                     "written row does not round-trip")


class TritSynthesis:
    """`synthesis.synthesize` on the README transitions, plate {hwp, qwp}
    problems, one free-retardance problem with phase retuning and one problem
    that no plate sequence can solve.

    The free-retardance problem costs as much as five rounds of the others,
    so it runs once per run (`once`, `once_s`) and rounds of the rest fill the
    remaining time.  The three README transitions in each round put the
    median near the bottom of the plate problems (about their 12th
    percentile) and the tail near their top, both among ops spread over the
    whole run; on the reference machine these two quantiles vary less from
    run to run than the plate problems' own median.
    """

    name = "trit_synthesis"
    ops_in_children = False
    once_s = 5.0

    def __init__(self, rng, workdir: str):
        import numpy as np
        from triphot import optics, qutrit, synthesis

        self.np, self.optics, self.synthesis = np, optics, synthesis
        hwp, qwp = math.pi, math.pi / 2
        trit = qutrit.trit_basis

        def pick(options):
            return options[int(rng.integers(len(options)))]

        # (input, target, budget, retardances, retune phase, grid density, expectation)
        specs = [
            ("minus", "zero", 1, (hwp,), False, 24, "chi=pi/8 mod pi/4"),
            ("plus", "zero", 1, (qwp,), False, 24, "chi=pi/4 mod pi/2"),
            ("minus", "plus", 1, (hwp,), True, 24, "phase=0 mod 2pi"),
        ]
        # One trit cycle, either way round: the two orientations cost the
        # same within 1% of evaluations, so the seed does not move the mix.
        cycle = pick([TRITS, TRITS[::-1]])
        for k, source in enumerate(cycle):
            specs.append((source, cycle[(k + 1) % 3], 2, (hwp, qwp), False, 16, None))
        # A trit state has P = 0 and a Fock end state P = 1; plates keep P.
        specs.append((pick(TRITS), pick([0, 2]), 2, (hwp, qwp), False, 16, "approximate"))
        free_in = pick(["plus", "minus"])
        specs.append((free_in, pick([t for t in TRITS if t != free_in]), 2, ("free",), True, 9, "reachable"))
        self.jobs = []
        for inp, tgt, budget, rets, retune, density, expect in specs:
            target = qutrit.fock_basis(tgt) if isinstance(tgt, int) else trit(tgt)
            problem = synthesis.SynthesisProblem(trit(inp), target, budget, rets, retune)
            self.jobs.append({"problem": problem, "density": density, "expect": expect,
                              "seed": int(rng.integers(2**31))})
        self.jobs = [self.jobs[k] for k in rng.permutation(len(self.jobs))]
        self.once = [k for k, job in enumerate(self.jobs) if job["problem"].retardances == ("free",)]

    def run(self, job):
        return self.synthesis.synthesize(job["problem"], job["density"], 1e-8, job["seed"])

    def digest(self, job, result) -> bytes:
        key = ([(p.retardance, p.angle) for p in result.plates], result.source_phase,
               result.fidelity, result.evaluations)
        return hashlib.blake2b(repr(key).encode()).digest()

    def check(self, job, result) -> None:
        import reference

        problem, expect = job["problem"], job["expect"]
        start = problem.input_state
        if result.source_phase is not None:
            start = reference.source_states(1.0, 1.0, self.np.float64(result.source_phase))
        fid = reference.plate_fidelity(self.optics.apply, start, problem.target, result.plates)
        _require(abs(fid - result.fidelity) < 1e-12,
                 f"reported fidelity {result.fidelity!r} vs recomputed {fid!r}")
        report = self.synthesis.reachability_report(problem, result)
        if expect == "approximate":
            _require(report == "approximate", f"unsolvable problem reported {report}")
        elif expect is not None:
            _require(report == "reachable", f"solvable problem reported {report}")
        if expect == "chi=pi/8 mod pi/4":
            _require(_angle_near(result.plates[0].angle, math.pi / 8, math.pi / 4), "minus->zero angle")
        elif expect == "chi=pi/4 mod pi/2":
            _require(_angle_near(result.plates[0].angle, math.pi / 4, math.pi / 2), "plus->zero angle")
        elif expect == "phase=0 mod 2pi":
            _require(_angle_near(result.source_phase, 0.0, TWO_PI), "minus->plus source phase")


_P_LINE = re.compile(r"^degree of polarization P = (\S+)$", re.M)
_CORR_LINE = re.compile(r"^correlators: gxy=(\S+) gxx=(\S+) gyy=(\S+)$", re.M)
_PLATE_LINE = re.compile(r"^  plate 1: \S+ at chi = (\S+) rad$", re.M)
_PHASE_LINE = re.compile(r"^  source phase phi = (\S+) rad$", re.M)


class CliSession:
    """CLI commands as a user types them, each in a fresh interpreter.

    Every command costs about the same (interpreter start and imports
    dominate), so a run cycles through the list one command at a time.
    `sweep` and `mc` on a config file are not ops: they exit 1 at this
    commit (the missing `io._parse_retardance`), so they run once per run as
    a probe whose outcome is printed and, in the traced run, counted by the
    `io.load_config.failed` and `cli.exit_nonzero` layer metrics.
    """

    name = "cli_session"
    ops_in_children = True

    def __init__(self, rng, workdir: str):
        self.workdir = workdir
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.tracer_script = os.path.join(root, "perfbench", "cli_trace.py")
        label = ("psi_plus", "psi_minus", "psi_zero", "plus", "minus", "zero")[int(rng.integers(6))]
        fock = ("2,0", "1,1", "0,2")[int(rng.integers(3))]
        # The first real part is kept >= 0: argparse reads an argument that
        # starts with '-' as an option (a user would type `stokes -- -0.5,...`).
        amps = [complex(round(rng.uniform(0 if i == 0 else -1, 1), 3), round(rng.uniform(-1, 1), 3))
                for i in range(3)]
        amp_text = ",".join(f"{a.real}{a.imag:+}j" for a in amps)
        fock_amps = {"2,0": (1, 0, 0), "1,1": (0, 1, 0), "0,2": (0, 0, 1)}[fock]
        s2 = math.sqrt(0.5)
        label_amps = {"plus": (s2, 0, s2), "minus": (s2, 0, -s2), "zero": (0, 1, 0)}[label.removeprefix("psi_")]
        self.jobs = [
            {"argv": ["info"], "expect": "info"},
            {"argv": ["stokes", label], "expect": ("stokes", label_amps, "P = 0")},
            {"argv": ["stokes", fock], "expect": ("stokes", fock_amps, "P = 0" if fock == "1,1" else "P = 1")},
            {"argv": ["stokes", amp_text], "expect": ("stokes", amps, None)},
            {"argv": ["verify", "--seed", str(int(rng.integers(100000)))], "expect": "verify"},
            {"argv": ["synth", "minus->zero", "--plates", "hwp", "--phi", "pi"], "expect": ("synth", math.pi / 8, math.pi / 4)},
            {"argv": ["synth", "plus->zero", "--plates", "qwp", "--phi", "0"], "expect": ("synth", math.pi / 4, math.pi / 2)},
            {"argv": ["synth", "minus->plus", "--plates", "hwp"], "expect": ("synth-phase", 0.0, TWO_PI)},
        ]
        config = os.path.join(workdir, "cfg.yaml")
        with open(config, "w") as handle:
            handle.write(
                "source:\n"
                f"  phase: {rng.uniform(0.0, TWO_PI)!r}\n"
                f"  t02: {rng.uniform(0.5, 1.0)!r}\n"
                f"  phase_jitter: {rng.uniform(0.0, 0.5)!r}\n"
                "  pair_rate: 300.0\n"
                "plate:\n"
                f"  retardance: {('half', 'quarter')[int(rng.integers(2))]}\n"
                f"  angle: {rng.uniform(0.0, math.pi)!r}\n"
                "accidental_rate: 0.1\n"
            )
        self.probes = [
            {"argv": ["sweep", config, "--param", "phi", "-o", "sweep.csv"]},
            {"argv": ["mc", config, "--seed", str(int(rng.integers(100000))), "--duration", "10000",
                      "--bin", "1", "-o", "counts.csv"]},
        ]
        self.trace_dir = workdir
        self.trace_paths: list[str] = []

    def _spawn(self, argv):
        """Run one command; returns (exit code, stdout, stderr, peak RSS in KiB)."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.workdir, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as out, open(err_path) as err:
            return proc.returncode, out.read(), err.read(), usage.ru_maxrss

    def run(self, job):
        return self._spawn([sys.executable, "-m", "triphot.cli", *job["argv"]])

    def run_traced(self, job):
        path = os.path.join(self.trace_dir, f"command{len(self.trace_paths):02d}.npz")
        self.trace_paths.append(path)
        return self._spawn([sys.executable, self.tracer_script, path, *job["argv"]])

    def digest(self, job, output) -> bytes:
        return b""  # each command is checked on its own

    def check(self, job, output) -> None:
        import reference

        code, out, err, _ = output
        _require(code == 0, f"exit {code}: {err.strip().splitlines()[-1:]}")
        expect = job["expect"]
        if expect == "info":
            _require(out.startswith("triphot ") and "basis: |2,0>, |1,1>, |0,2>" in out, "info output")
        elif expect == "verify":
            _require(out.count("  PASS\n") == 6 and out.endswith("verification PASSED\n"), "verify output")
        elif expect[0] == "stokes":
            _, amps, exact = expect
            p, gxy, gxx, gyy = reference.stokes_expectation(amps)
            p_line, corr = _P_LINE.search(out), _CORR_LINE.search(out)
            _require(p_line is not None and corr is not None, "stokes output lines missing")
            if exact is not None:
                _require(f"degree of polarization {exact}\n" in out, f"expected '{exact}'")
            got = [float(p_line.group(1))] + [float(g) for g in corr.groups()]
            _require(max(abs(a - b) for a, b in zip(got, (p, gxy, gxx, gyy))) < 1e-9, "stokes values")
        else:
            kind, target, period = expect
            _require("reachability: reachable\n" in out, "synth did not reach its target")
            line = (_PHASE_LINE if kind == "synth-phase" else _PLATE_LINE).search(out)
            _require(line is not None and _angle_near(float(line.group(1)), target, period),
                     "synth angle or phase off the known solution")


WORKLOADS = {w.name: w for w in (FringeScan, CountingRun, TritSynthesis, CliSession)}

"""Tests for the command line interface."""

import ast
import hashlib
import json
import os
import shlex
import subprocess
import sys

import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import triphot
from triphot import cli, io, optics, synthesis, verify
from triphot.cli import main, parse_angle

PI = np.pi

FIG2_CONFIG = """
source:
  phase: 3.141592653589793
  pair_rate: 300.0
plate:
  retardance: half
  angle: 0.39269908169872414
analysis: none
eta1: 0.1
eta2: 0.1
accidental_rate: 0.1
"""


@pytest.fixture
def fig2_config(tmp_path):
    path = tmp_path / "fig2.yaml"
    path.write_text(FIG2_CONFIG)
    return str(path)


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,expected",
        [("pi", PI), ("-pi/2", -PI / 2), ("3pi/8", 3 * PI / 8), ("2pi", 2 * PI), ("0.5", 0.5)],
    )
    def test_forms(self, text, expected):
        assert abs(parse_angle(text) - expected) < 1e-15

    def test_degrees(self):
        assert abs(parse_angle("45", degrees=True) - PI / 4) < 1e-15
        assert abs(parse_angle("pi/4", degrees=True) - PI / 4) < 1e-15  # pi forms stay radians

    def test_garbage(self):
        from triphot.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_angle("fast")
        for text in ("pi/0", "pi/0.0"):
            with pytest.raises(ConfigError):
                parse_angle(text)
        for text in ("nan", "inf", "-inf", "NaN", "1e400"):
            for degrees in (False, True):
                with pytest.raises(ConfigError, match=repr(text.lower())):
                    parse_angle(text, degrees)


class TestVerify:
    def test_passes_on_correct_build(self, capsys):
        rc = main(["verify", "--grid", "21", "--samples", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification PASSED" in out
        assert out.count("PASS") >= 6

    def test_flipped_sign_fails_quarter_wave_grid(self, capsys, monkeypatch):
        frozen = optics.retarder

        def flipped(delta, chi):
            return frozen(-delta, chi)

        monkeypatch.setattr(optics, "retarder", flipped)
        rc = main(["verify", "--grid", "21", "--samples", "60"])
        out = capsys.readouterr().out
        assert rc == 1
        quarter_lines = [l for l in out.splitlines() if "quarter-wave" in l]
        assert quarter_lines and all("FAIL" in l for l in quarter_lines)
        half_lines = [l for l in out.splitlines() if "half-wave" in l]
        assert half_lines and all("PASS" in l for l in half_lines)

    def test_shifted_analysis_half_wave_fails_half_wave_grid(self, capsys, monkeypatch):
        # the suites read predict_rate, so they check the analysis block too
        frozen = optics.half_wave
        monkeypatch.setattr(optics, "half_wave", lambda chi: frozen(chi + 0.05))
        rc = main(["verify", "--grid", "21", "--samples", "60"])
        out = capsys.readouterr().out
        assert rc == 1
        half_lines = [l for l in out.splitlines() if "half-wave closed form grid" in l]
        assert half_lines and all("FAIL" in l for l in half_lines)

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--grid", "1"),
            ("--grid", "0"),
            ("--samples", "0"),
            ("--samples", "-3"),
            ("--grid", str(verify.MAX_GRID + 1)),
            ("--grid", "20001"),
            ("--samples", str(verify.MAX_SAMPLES + 1)),
            ("--samples", str(10**9)),
        ],
    )
    def test_too_small_grid_or_samples_is_usage_error(self, capsys, monkeypatch, flag, value):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(verify, "haar_unitaries", refuse)
        assert main(["verify", flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""

    def test_run_checks_guards_library_callers(self):
        with pytest.raises(ValueError, match="--grid"):
            verify.run_checks(grid=1)
        with pytest.raises(ValueError, match="--samples"):
            verify.run_checks(samples=0)

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert captured.out == ""


_SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

def yaml_modules():
    return [m for m in sys.modules if m.split(".")[0] == "yaml"]

loaded, yaml_loaded = {}, {}
import triphot.cli
loaded["import triphot.cli"] = scipy_modules()
import triphot
loaded["import triphot"] = scipy_modules()
rc = triphot.cli.main(["verify", "--grid", "11", "--samples", "20"])
loaded["verify"] = scipy_modules()
# commands that read and write no YAML file
for argv in (["info"], ["stokes", "plus"], ["synth", "minus->zero"],
             ["synth", "plus->zero", "--plates", "hwp,qwp"],
             ["verify", "--grid", "11", "--samples", "20"]):
    rc |= triphot.cli.main(argv)
    yaml_loaded[" ".join(argv)] = yaml_modules()
minus, zero = triphot.trit_basis("minus"), triphot.trit_basis("zero")
for name, budget, retardances in [
    ("one plate", 1, (3.141592653589793,)),
    ("two plates", 2, (3.141592653589793,)),
    ("free plate", 1, ("free",)),
    ("five plates", 5, (1.5707963267948966,)),
]:
    problem = triphot.SynthesisProblem(minus, zero, budget, retardances)
    triphot.synthesize(problem, grid_density=8)
    loaded[name] = scipy_modules()
print(json.dumps({"rc": rc, "loaded": loaded, "yaml_loaded": yaml_loaded}))
"""

# Runs one command in a fresh interpreter and reports numpy and the package's
# modules it loaded.
_MODULES_PROBE = """
import json, sys
import triphot.cli
rc = triphot.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "loaded": [m for m in sys.modules if m == "numpy" or m.startswith("triphot")]}))
"""


def _run_probe(code, *argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(triphot.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyImports:
    def test_cli_and_verify_load_no_scipy(self):
        report = _run_probe(_SCIPY_PROBE)
        assert report["rc"] == 0
        stages = ["import triphot.cli", "import triphot", "verify", "one plate", "two plates",
                  "free plate", "five plates"]
        assert report["loaded"] == {stage: [] for stage in stages}
        # PyYAML loads only where a YAML file is read or written
        assert {cmd.split()[0] for cmd in report["yaml_loaded"]} == {"info", "stokes", "synth", "verify"}
        assert all(modules == [] for modules in report["yaml_loaded"].values())

    @pytest.mark.parametrize(
        "argv,runs,skips",
        [
            (["info"], [], ["numpy", "triphot.qutrit"]),
            (["stokes", "plus"], ["triphot.observables"],
             ["triphot.experiment", "triphot.synthesis", "triphot.io", "triphot.verify"]),
            (["synth", "minus->zero"], ["triphot.synthesis"], ["triphot.io", "triphot.verify"]),
            (["verify", "--grid", "11", "--samples", "20"], ["triphot.verify"],
             ["triphot.synthesis", "triphot.io"]),
        ],
        ids=["info", "stokes", "synth", "verify"],
    )
    def test_each_command_loads_only_what_it_runs(self, argv, runs, skips):
        report = _run_probe(_MODULES_PROBE, *argv)
        assert report["rc"] == 0
        assert [m for m in runs if m not in report["loaded"]] == []
        assert [m for m in skips if m in report["loaded"]] == []

    def test_package_names_resolve_on_first_use(self):
        code = (
            "import json, sys, triphot\n"
            "before = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('triphot'))\n"
            "sweep = triphot.sweep\n"
            "print(json.dumps({'before': before, 'after': 'triphot.synthesis' in sys.modules,\n"
            "                  'same': sweep is sys.modules['triphot.experiment'].sweep,\n"
            "                  'module': triphot.optics is sys.modules['triphot.optics']}))\n"
        )
        report = _run_probe(code)
        assert report == {"before": ["triphot", "triphot.errors"], "after": False,
                          "same": True, "module": True}

    def test_package_source_imports_no_scipy(self):
        # scipy is a test dependency only; a docstring may still name it
        package = Path(triphot.__file__).parent
        importers = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    roots = [node.module.split(".")[0]]
                else:
                    continue
                if "scipy" in roots:
                    importers.append(f"{path.name}:{node.lineno}")
        assert len(list(package.rglob("*.py"))) >= 9
        assert importers == []

    def test_synthesis_names_resolve_from_package(self):
        from triphot import SynthesisProblem, synthesize

        assert synthesize is synthesis.synthesize
        assert SynthesisProblem is synthesis.SynthesisProblem
        for name in triphot.__all__:
            assert getattr(triphot, name) is not None, name
        with pytest.raises(AttributeError):
            triphot.no_such_name  # noqa: B018

    def test_free_plate_name_matches_synthesis(self):
        assert cli._PLATE_NAMES["free"] == synthesis.FREE

    @pytest.mark.parametrize("seed", [12345, 2024])
    def test_haar_sampler_matches_scipy(self, seed):
        from scipy.stats import unitary_group

        for n in (1, 2, 500):
            ours = verify.haar_unitaries(np.random.default_rng(seed), n)
            theirs = unitary_group.rvs(2, size=n, random_state=np.random.default_rng(seed))
            assert ours.shape == (n, 2, 2)
            assert np.max(np.abs(ours - np.reshape(theirs, (n, 2, 2)))) <= 1e-12
            gram = np.conj(np.swapaxes(ours, -1, -2)) @ ours
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


class TestSweepCommand:
    def test_fig2_maxima_at_odd_pi(self, fig2_config, tmp_path, capsys):
        out_path = str(tmp_path / "fig2.csv")
        rc = main(["sweep", fig2_config, "--param", "phi", "--steps", "201", "-o", out_path])
        assert rc == 0
        assert "resolved_config" in capsys.readouterr().out
        table = io.read_sweep_csv(out_path)
        step = table.values[1] - table.values[0]
        peak = table.values[np.argmax(table.rates)]
        assert min(abs(peak - PI), abs(peak - 3 * PI)) <= step + 1e-12

    def test_fig3a_maxima_at_conversion_angles(self, fig2_config, tmp_path):
        out_path = str(tmp_path / "fig3a.csv")
        rc = main(["sweep", fig2_config, "--param", "chi", "--steps", "161", "-o", out_path])
        assert rc == 0
        table = io.read_sweep_csv(out_path)
        step = table.values[1] - table.values[0]
        peak = table.values[np.argmax(table.rates)]
        assert min(abs(peak - (PI / 8 + k * PI / 4)) for k in range(4)) <= step + 1e-12

    def test_fig3b_minima_where_fig3a_peaks(self, fig2_config, tmp_path):
        a_path = str(tmp_path / "a.csv")
        b_path = str(tmp_path / "b.csv")
        main(["sweep", fig2_config, "--param", "chi", "--steps", "161", "-o", a_path])
        main(
            ["sweep", fig2_config, "--param", "chi", "--steps", "161", "-o", b_path,
             "--analysis", "x"]
        )
        direct = io.read_sweep_csv(a_path)
        analysis = io.read_sweep_csv(b_path)
        peak_idx = int(np.argmax(direct.rates))
        floor = analysis.config.accidental_rate
        assert analysis.rates[peak_idx] - floor < 1e-10
        assert analysis.rates[0] - floor > 0.1 * np.max(analysis.rates - floor)

    def test_yaml_output(self, fig2_config, tmp_path):
        out_path = str(tmp_path / "fig2.yaml")
        rc = main(["sweep", fig2_config, "--param", "phi", "--steps", "11", "-o", out_path])
        assert rc == 0
        with open(out_path) as handle:
            doc = yaml.safe_load(handle)
        assert doc["kind"] == "sweep" and len(doc["points"]) == 11

    def test_override_flags(self, fig2_config, tmp_path, capsys):
        out_path = str(tmp_path / "s.csv")
        rc = main(
            ["sweep", fig2_config, "--param", "phi", "--steps", "11", "-o", out_path,
             "--phi", "0", "--retardance", "quarter", "--chi", "pi/4", "--eta1", "1",
             "--eta2", "1", "--pair-rate", "1", "--accidental-rate", "0"]
        )
        assert rc == 0
        table = io.read_sweep_csv(out_path)
        assert abs(table.config.plate.retardance - PI / 2) < 1e-12
        assert abs(np.max(table.rates) - 1.0) < 1e-12  # ideal quarter-wave fringe

    def test_overflowing_rate_is_usage_error(self, fig2_config, tmp_path, capsys):
        # used to write a row with rate inf after a RuntimeWarning
        out_path = tmp_path / "s.csv"
        rc = main(["sweep", fig2_config, "--param", "phi", "-o", str(out_path), "--eta1", "1",
                   "--eta2", "1", "--pair-rate", "1e308", "--accidental-rate", "1e308"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "source.pair_rate * eta1 * eta2 + accidental_rate overflows" in err
        assert not out_path.exists()

    def test_retardance_flag_accepts_radians_and_pi_forms(self, fig2_config, tmp_path):
        out_path = str(tmp_path / "r.csv")
        base = ["sweep", fig2_config, "--param", "phi", "--steps", "5", "-o", out_path]
        assert main(base + ["--retardance", "1.25"]) == 0
        assert io.read_sweep_csv(out_path).config.plate.retardance == 1.25
        assert main(base + ["--retardance", "pi/2"]) == 0
        assert abs(io.read_sweep_csv(out_path).config.plate.retardance - PI / 2) < 1e-12
        assert main(base + ["--retardance", "third"]) == 2
        assert main(base + ["--retardance", "nan"]) == 2

    @pytest.mark.parametrize(
        "flag,value",
        [("--accidental-rate", "nan"), ("--pair-rate", "inf"), ("--jitter", "nan"),
         ("--stop", "pi/0")],
    )
    def test_bad_number_is_usage_error(self, fig2_config, tmp_path, flag, value):
        out_path = tmp_path / "n.csv"
        rc = main(["sweep", fig2_config, "--param", "phi", "--steps", "5", "-o", str(out_path),
                   flag, value])
        assert rc == 2
        assert not out_path.exists()

    def test_too_many_steps_is_usage_error(self, fig2_config, tmp_path, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated before the step count was checked")

        monkeypatch.setattr(np, "linspace", no_grid)
        out_path = tmp_path / "big.csv"
        rc = main(["sweep", fig2_config, "--param", "phi", "--steps", str(10**9),
                   "-o", str(out_path)])
        assert rc == 2
        assert "steps" in capsys.readouterr().err
        assert not out_path.exists()

    def test_missing_config_is_io_error(self, tmp_path):
        rc = main(["sweep", str(tmp_path / "nope.yaml"), "--param", "phi", "-o", "x.csv"])
        assert rc == 3

    def test_bad_config_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("plate: {retardance: third, angle: 0}\n")
        rc = main(["sweep", str(path), "--param", "phi", "-o", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_flag_rejected(self, fig2_config):
        with pytest.raises(SystemExit) as err:
            main(["sweep", fig2_config, "--param", "phi", "-o", "x.csv", "--wibble", "3"])
        assert err.value.code == 2

    def test_config_typo_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "typo.yaml"
        config.write_text(
            "source: {phas: 3.0, pair_rat: 500}\n"
            "plate: {retardance: half, angle: 0.3, angel: 1.0}\n"
        )
        out_path = tmp_path / "t.csv"
        rc = main(["sweep", str(config), "--param", "chi", "--steps", "3", "-o", str(out_path)])
        assert rc == 2
        assert "source.phas" in capsys.readouterr().err
        assert not out_path.exists()


class TestMcCommand:
    def test_seeded_runs_byte_identical(self, fig2_config, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["mc", fig2_config, "--seed", "42", "--duration", "50", "-o", p1]) == 0
        assert main(["mc", fig2_config, "--seed", "42", "--duration", "50", "-o", p2]) == 0
        with open(p1, "rb") as a, open(p2, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize(
        "ext,sha256",
        [
            ("csv", "afe89be77d40591e719978eb2748efdda687ccb54c948959683c9fe282338432"),
            ("yaml", "2b5d7a2123791a793d79d2a3da53323f38504423bb966beb23f342e5021a4819"),
        ],
    )
    def test_seeded_run_matches_golden(self, fig2_config, tmp_path, capsys, ext, sha256):
        # stdout and file bytes written by the per-record implementation;
        # bins of 0.3 s give start times such as 0.8999999999999999
        out = tmp_path / f"golden.{ext}"
        rc = main(["mc", fig2_config, "--seed", "42", "--duration", "30", "--bin", "0.3",
                   "-o", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == (
            "resolved_config:\n  source:\n    phase: 3.141592653589793\n    t20: 1.0\n"
            "    t02: 1.0\n    phase_jitter: 0.0\n    pair_rate: 300.0\n  plate:\n"
            "    retardance: 3.141592653589793\n    angle: 0.39269908169872414\n"
            "  analysis: none\n  eta1: 0.1\n  eta2: 0.1\n  accidental_rate: 0.1\n"
            "mc: 100 bins, run {'seed': 42, 'duration': 30.0, 'bin': 0.3}\n"
            "total coincidences: 96 (mean rate 3.2/s)\n"
            f"wrote {out}\n"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_total_is_exact_beyond_int64(self, fig2_config, tmp_path, capsys):
        # about 5e18 coincidences per bin: ten bins overflow an int64 sum
        out = str(tmp_path / "big.csv")
        rc = main(["mc", fig2_config, "--seed", "3", "--duration", "10", "--pair-rate", "5e20",
                   "-o", out])
        assert rc == 0
        table, _, _ = io.read_counts_csv(out)
        total = sum(r.coincidences for r in table)
        assert total > 2**63
        assert f"total coincidences: {total} " in capsys.readouterr().out

    def test_infinite_duration_is_usage_error(self, fig2_config, tmp_path, capsys):
        out_path = tmp_path / "inf.csv"
        rc = main(["mc", fig2_config, "--duration", "inf", "-o", str(out_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out_path.exists()

    def test_negative_seed_is_usage_error(self, fig2_config, tmp_path, capsys):
        out_path = tmp_path / "neg.csv"
        rc = main(["mc", fig2_config, "--seed", "-1", "--duration", "5", "-o", str(out_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out_path.exists()

    def test_mean_past_poisson_limit_is_usage_error(self, fig2_config, tmp_path, capsys):
        out_path = tmp_path / "big.csv"
        rc = main(["mc", fig2_config, "--duration", "5", "--pair-rate", "1e300",
                   "-o", str(out_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "source.pair_rate" in err and "Poisson limit 9.22337e+18" in err
        assert not out_path.exists()

    def test_accidentals_only(self, fig2_config, tmp_path):
        out = str(tmp_path / "acc.csv")
        rc = main(
            ["mc", fig2_config, "--seed", "7", "--duration", "4000", "-o", out,
             "--eta1", "0", "--eta2", "0"]
        )
        assert rc == 0
        records, cfg, meta = io.read_counts_csv(out)
        mean = np.mean([r.coincidences for r in records])
        assert abs(mean - 0.1) < 5 * np.sqrt(0.1 / 4000)
        assert meta["seed"] == 7

    def test_fig2_maximum_rate(self, fig2_config, tmp_path):
        out = str(tmp_path / "mc.csv")
        rc = main(
            ["mc", fig2_config, "--seed", "11", "--duration", "2000", "-o", out,
             "--accidental-rate", "0"]
        )
        assert rc == 0
        records, _, _ = io.read_counts_csv(out)
        mean = np.mean([r.coincidences for r in records])
        # R * eta1 * eta2 * |c2|^2 = 300 * 0.01 * 1 = 3/s
        assert abs(mean - 3.0) < 4 * np.sqrt(3.0 / 2000)


class TestStokesCommand:
    def test_trit_label(self, capsys):
        assert main(["stokes", "psi_plus"]) == 0
        out = capsys.readouterr().out
        assert "P = 0" in out

    def test_fock_label(self, capsys):
        assert main(["stokes", "2,0"]) == 0
        out = capsys.readouterr().out
        assert "P = 1" in out
        assert "gxx=2" in out

    def test_amplitudes_normalized(self, capsys):
        assert main(["stokes", "1,0,1"]) == 0
        out = capsys.readouterr().out
        assert "+0.707107" in out
        assert "P = 0" in out

    def test_bad_state(self, capsys):
        assert main(["stokes", "psi_sideways"]) == 2

    def test_overflowing_amplitudes_named(self, capsys):
        assert main(["stokes", "1e308,1e308,0"]) == 2
        err = capsys.readouterr().err
        assert "squared norm of the amplitude triple overflows" in err

    def test_negative_first_amplitude(self, capsys):
        # read as amplitudes, not as an option, with or without '--'
        outputs = []
        for argv in (["stokes", "-0.5,0.5,0.7"], ["stokes", "--", "-0.5,0.5,0.7"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].err == ""
        assert outputs[0].out.startswith("state amplitudes (c1, c2, c3): [-0.502519+0.000000j")


class TestSynthCommand:
    def test_minus_to_zero(self, capsys):
        rc = main(["synth", "minus->zero", "--plates", "hwp", "--phi", "pi"])
        out = capsys.readouterr().out
        assert rc == 0
        chi = float(out.split("chi = ")[1].split(" rad")[0])
        assert abs(chi - 0.3927) < 1e-3
        assert "reachable" in out

    def test_plus_to_zero(self, capsys):
        rc = main(["synth", "plus->zero", "--plates", "qwp", "--phi", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        chi = float(out.split("chi = ")[1].split(" rad")[0])
        assert abs(chi - 0.7854) < 1e-3

    def test_minus_to_plus(self, capsys):
        rc = main(["synth", "minus->plus", "--plates", "hwp"])
        out = capsys.readouterr().out
        assert rc == 0
        chi = float(out.split("chi = ")[1].split(" rad")[0])
        assert abs(chi) < 1e-3
        assert "source phase phi = 0.0" in out
        assert "reachable" in out

    def test_readme_lines_print_exact_solutions(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        lines = [line.split("#")[0] for line in readme.splitlines()]
        argvs = [shlex.split(line)[1:] for line in lines if line.startswith("triphot synth ")]
        expected = ["chi = 0.392699082 rad", "chi = 0.785398163 rad", "phi = 0.000000000 rad"]
        assert len(argvs) == len(expected)
        for argv, text in zip(argvs, expected):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert text in out, out
            assert "reachability: reachable" in out

    def test_unicode_arrow(self, capsys):
        assert main(["synth", "minus→zero", "--plates", "hwp", "--phi", "pi"]) == 0

    def test_inconsistent_phi(self, capsys):
        assert main(["synth", "minus->zero", "--plates", "hwp", "--phi", "0"]) == 2

    def test_unreachable_reported(self, capsys):
        rc = main(["synth", "plus->zero", "--plates", "hwp", "--phi", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "approximate" in out

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        rc = main(["synth", "minus->zero", "--plates", "hwp", "--phi", "pi", "--tol", tol])
        assert rc == 2
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("plates", ["hwp", "hwp,qwp"])
    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_is_usage_error(self, capsys, plates, seed):
        # one plate takes the closed form, two the search: both check the seed
        assert main(["synth", "plus->zero", "--plates", plates, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must be a non-negative integer, got {seed}\n"
        assert captured.out == ""

    def test_tiny_tolerance_ends_at_step_cap(self, monkeypatch, capsys):
        # no step gets to 1e-300 rad, so the refinement stops at its step cap
        rounds = []
        refine, derivatives = synthesis._refine, synthesis._derivatives

        def counted_refine(*args):
            rounds.append(0)
            return refine(*args)

        def counted_derivatives(*args):
            rounds[-1] += 1
            return derivatives(*args)

        monkeypatch.setattr(synthesis, "_refine", counted_refine)
        monkeypatch.setattr(synthesis, "_derivatives", counted_derivatives)
        rc = main(["synth", "plus->zero", "--plates", "hwp,qwp", "--tol", "1e-300"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reachability: reachable" in out
        assert rounds and rounds == [synthesis._MAX_STEPS] * len(rounds)

    def test_huge_grid_density_is_usage_error(self, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated before the density was checked")

        monkeypatch.setattr(np, "linspace", no_grid)
        rc = main(["synth", "minus->zero", "--plates", "hwp", "--phi", "pi",
                   "--grid-density", str(10**9)])
        assert rc == 2
        assert "grid density" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--plates", ",", "--plates: empty plate kind in ','"),
        ("--plates", "hwp,xwp", "--plates: unknown plate kind(s) ['xwp']"),
        ("--plates", ",".join(["hwp"] * 9), "--plates: plate budget must be in 1..8, got 9"),
        ("--grid-density", "7", "--grid-density: grid density must be >= 8, got 7"),
        ("--tol", "0", "--tol: refinement tolerance must be finite and > 0, got 0.0"),
    ])
    def test_bad_setting_names_its_flag(self, capsys, flag, value, message):
        assert main(["synth", "plus->zero", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    def test_bad_transition(self, capsys):
        assert main(["synth", "minus-to-zero"]) == 2
        assert main(["synth", "up->down"]) == 2

    def test_bound_follows_reachability(self, capsys):
        assert main(["synth", "plus->zero", "--plates", "hwp", "--phi", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("reachability: approximate")
        assert lines[at + 1] == "bound: F_max = 1.000000000000000 (any plate sequence)"

    def test_any_state_target(self, capsys):
        assert main(["synth", "zero->2,0", "--plates", "hwp,qwp"]) == 0
        out = capsys.readouterr().out
        assert "transition: zero -> 2,0 (budget 2" in out
        assert "reachability: approximate" in out
        assert "bound: F_max = 0.500000000000000 (any plate sequence)" in out
        fidelity = float(out.split("fidelity: ")[1].split()[0])
        assert abs(fidelity - 0.5) <= 1e-12

    @pytest.mark.parametrize("transition", [
        "zero->sideways", "zero->1,2", "zero->0,0,0", "zero->nan,0,0", "zero->1,x,0",
        "zero->", "zero->plus->minus", "2,0->zero",
    ])
    def test_bad_state_is_config_error(self, capsys, transition):
        args = cli.build_parser().parse_args(["synth", transition, "--plates", "hwp,qwp"])
        with pytest.raises(triphot.ConfigError):
            args.func(args)
        assert main(["synth", transition, "--plates", "hwp,qwp"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["minus->zero", "--plates", "qwp,hwp,qwp"],
        ["plus->zero", "--plates", "hwp,qwp,hwp,qwp,hwp,qwp"],
    ])
    def test_search_stops_at_the_bound(self, capsys, argv):
        # each assignment scores a random grid of _MAX_GRID_POINTS; the first
        # one reaches the bound, so the other 7 (63) are never searched
        assert main(["synth", *argv]) == 0
        out = capsys.readouterr().out
        assert "reachability: reachable" in out
        evaluations = int(out.split("objective evaluations: ")[1])
        assert evaluations < 2 * synthesis._MAX_GRID_POINTS


class TestNegativeValues:
    """A flag value or argument that starts with '-' but reads as a number or
    'pi' form is a value, as it is after '='."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "minus->zero", "--phi", "-pi"],  # angle, 'pi' form
            ["synth", "minus->zero", "--deg", "--phi", "-180"],  # angle, degrees
            ["sweep", "CFG", "--param", "phi", "--steps", "5", "--start", "-pi/2"],
            ["sweep", "CFG", "--param", "chi", "--steps", "5", "--stop", "-3PI/8"],
            ["sweep", "CFG", "--param", "phi", "--steps", "5", "--chi", "-pi/8"],  # override angle
            ["mc", "CFG", "--duration", "3", "--phi", "-pi"],
            ["sweep", "CFG", "--param", "phi", "--steps", "5", "--retardance", "-pi/2"],
            ["sweep", "CFG", "--param", "phi", "--steps", "5", "--eta1", "-1e-3"],  # float
        ],
        ids=lambda argv: " ".join(argv[i] for i in (0, -2, -1)),
    )
    def test_value_reads_as_after_equals(self, fig2_config, tmp_path, capsys, argv):
        # the last two words are the flag and its value
        out_path = tmp_path / "out.csv"
        head = [fig2_config if a == "CFG" else a for a in argv[:-2]]
        if head[0] in ("sweep", "mc"):
            head += ["-o", str(out_path)]
        flag, value = argv[-2:]
        results = []
        for words in (head + [flag, value], head + [f"{flag}={value}"]):
            rc = main(words)
            results.append((rc, capsys.readouterr(), out_path.read_bytes() if out_path.exists() else None))
            out_path.unlink(missing_ok=True)
        assert results[0] == results[1]
        assert "expected one argument" not in results[0][1].err


class TestInfoCommand:
    def test_prints_conventions(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "plus -> 0, minus -> 1, zero -> 2" in out
        assert "quarter-wave interference law" in out


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestOverridesShareConfigParser:
    @pytest.mark.parametrize("ext", ["csv", "yaml"])
    @pytest.mark.parametrize(
        "command", [["sweep", "--param", "chi", "--steps", "5"], ["mc", "--duration", "3"]],
        ids=["sweep", "mc"],
    )
    def test_degree_phase_writes(self, fig2_config, tmp_path, capsys, command, ext):
        out_path = tmp_path / f"out.{ext}"
        argv = [command[0], fig2_config, *command[1:], "--deg", "--phi", "90", "-o", str(out_path)]
        assert main(argv) == 0
        assert "  phase: 1.5707963267948966\n" in capsys.readouterr().out
        assert out_path.exists()

    def test_flags_checked_together_on_final_config(self, tmp_path):
        config = tmp_path / "t02.yaml"
        config.write_text("source: {t02: 0}\nplate: {retardance: half, angle: 0}\n")
        out_path = str(tmp_path / "s.csv")
        rc = main(["sweep", str(config), "--param", "phi", "--steps", "3", "-o", out_path,
                   "--t20", "0", "--t02", "1"])
        assert rc == 0
        source = io.read_sweep_csv(out_path).config.source
        assert (source.t20, source.t02) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "flag,value,path",
        [("--t20", "2", "source: t20"), ("--eta1", "1.5", "eta1"),
         ("--pair-rate", "0", "source: pair_rate")],
    )
    def test_flag_error_names_field(self, fig2_config, tmp_path, capsys, flag, value, path):
        rc = main(["sweep", fig2_config, "--param", "phi", "-o", str(tmp_path / "x.csv"),
                   flag, value])
        assert rc == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize(
        "section,field",
        [("source", "phase"), ("source", "t20"), ("source", "t02"),
         ("source", "phase_jitter"), ("source", "pair_rate"), ("plate", "retardance"),
         ("plate", "angle"), (None, "eta1"), (None, "eta2"), (None, "accidental_rate")],
    )
    def test_non_finite_field_named(self, tmp_path, capsys, section, field, value):
        mapping = yaml.safe_load(FIG2_CONFIG)
        (mapping[section] if section else mapping)[field] = yaml.safe_load(value)
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump(mapping))
        assert value in config.read_text()
        out_path = tmp_path / "x.csv"
        rc = main(["sweep", str(config), "--param", "phi", "-o", str(out_path)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("flag", ["--phi", "--chi", "--retardance", "--start", "--stop"])
    def test_bad_angle_names_its_flag(self, fig2_config, tmp_path, capsys, flag):
        angles = {"--phi": "0.1", "--chi": "0.3", "--retardance": "half", "--start": "1",
                  "--stop": "2", flag: "nan"}
        out_path = tmp_path / "x.csv"
        argv = ["sweep", fig2_config, "--param", "phi", "-o", str(out_path)]
        rc = main(argv + [item for pair in angles.items() for item in pair])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{flag}: " in err and "'nan'" in err
        assert [other for other in angles if other in err] == [flag]
        assert not out_path.exists()


angle_texts = st.one_of(
    st.text(), st.from_regex(r"[+-]?[\d.]*\s*pi\s*(/\s*[\d.]*)?", fullmatch=True)
)
state_texts = st.lists(
    st.one_of(st.text(), st.text(alphabet="0123456789.+-jeinf ", max_size=8)),
    min_size=1, max_size=4,
).map(",".join)


class TestParserFuzz:
    @given(angle_texts, st.booleans())
    def test_parse_angle_value_or_value_error(self, text, degrees):
        try:
            value = parse_angle(text, degrees)
        except ValueError:
            return
        assert math.isfinite(value)

    @given(state_texts)
    def test_parse_state_value_or_value_error(self, text):
        try:
            state = cli.parse_state(text)
        except ValueError:
            return
        assert state.shape == (3,)

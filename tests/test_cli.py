"""Tests for the command line interface."""

import json
import os
import subprocess
import sys

import math

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


_SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

loaded = {}
import triphot.cli
loaded["import triphot.cli"] = scipy_modules()
with_cli = sorted(m for m in ("triphot.synthesis", "triphot.verify") if m in sys.modules)
import triphot
loaded["import triphot"] = scipy_modules()
rc = triphot.cli.main(["verify", "--grid", "11", "--samples", "20"])
loaded["verify"] = scipy_modules()
problem = triphot.SynthesisProblem(triphot.trit_basis("minus"), triphot.trit_basis("zero"))
triphot.synthesize(problem, grid_density=8)
refined = "scipy.optimize" in sys.modules
print(json.dumps({"rc": rc, "loaded": loaded, "with_cli": with_cli, "refined": refined}))
"""


class TestLazyImports:
    def test_cli_and_verify_load_no_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(triphot.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True, env=env, check=True
        )
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["rc"] == 0
        assert report["loaded"] == {"import triphot.cli": [], "import triphot": [], "verify": []}
        # the CLI loads synthesis and verify up front; scipy waits for refinement
        assert report["with_cli"] == ["triphot.synthesis", "triphot.verify"]
        assert report["refined"]

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

    def test_infinite_duration_is_usage_error(self, fig2_config, tmp_path, capsys):
        out_path = tmp_path / "inf.csv"
        rc = main(["mc", fig2_config, "--duration", "inf", "-o", str(out_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
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

    def test_huge_grid_density_is_usage_error(self, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated before the density was checked")

        monkeypatch.setattr(np, "linspace", no_grid)
        rc = main(["synth", "minus->zero", "--plates", "hwp", "--phi", "pi",
                   "--grid-density", str(10**9)])
        assert rc == 2
        assert "grid density" in capsys.readouterr().err

    def test_bad_transition(self, capsys):
        assert main(["synth", "minus-to-zero"]) == 2
        assert main(["synth", "up->down"]) == 2


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

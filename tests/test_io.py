"""Tests for config files and result serialization."""

import dataclasses
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triphot import io
from triphot.errors import ConfigError
from triphot.experiment import (
    ANALYSIS_CHOICES,
    CountRecord,
    CountTable,
    ExperimentConfig,
    SourceSpec,
    SweepTable,
    predict_rate,
    simulate_counts,
    sweep,
)
from triphot.optics import PlateSpec

GOOD_CONFIG = """
source:
  phase: 3.141592653589793
  t20: 1.0
  t02: 0.8
  phase_jitter: 0.05
  pair_rate: 300.0
plate:
  retardance: half
  angle: 0.39269908169872414
analysis: x
eta1: 0.1
eta2: 0.2
accidental_rate: 0.1
"""


def write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_full_config(self, tmp_path):
        cfg = io.load_config(write(tmp_path, GOOD_CONFIG))
        assert abs(cfg.source.phase - np.pi) < 1e-15
        assert cfg.source.t02 == 0.8
        assert abs(cfg.plate.retardance - np.pi) < 1e-15
        assert cfg.analysis == "x"
        assert cfg.eta2 == 0.2

    def test_defaults(self, tmp_path):
        cfg = io.load_config(write(tmp_path, "plate: {retardance: quarter, angle: 0.0}\n"))
        assert cfg.source.phase == 0.0
        assert cfg.source.pair_rate == 1.0
        assert cfg.analysis == "none"
        assert cfg.accidental_rate == 0.0

    def test_numeric_retardance(self, tmp_path):
        cfg = io.load_config(write(tmp_path, "plate: {retardance: 1.25, angle: 0.5}\n"))
        assert cfg.plate.retardance == 1.25

    def test_missing_plate_angle_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="plate.angle"):
            io.load_config(write(tmp_path, "plate: {retardance: half}\n"))

    def test_bad_field_type_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="source.pair_rate"):
            io.load_config(
                write(tmp_path, "source: {pair_rate: fast}\nplate: {retardance: half, angle: 0}\n")
            )

    @pytest.mark.parametrize(
        "text,value",
        [("1e3", 1000.0), ("1.0e3", 1000.0), ("+2E-1", 0.2), (".5e1", 5.0), ("1.5e+3", 1500.0)],
    )
    def test_yaml_1_2_exponent_floats(self, tmp_path, text, value):
        # PyYAML reads YAML 1.1, where `1e3` and `1.0e3` are strings
        body = f"source: {{pair_rate: {text}}}\neta1: 5e-1\nplate: {{retardance: 15e-1, angle: 1e-1}}\n"
        cfg = io.load_config(write(tmp_path, body))
        assert cfg.source.pair_rate == value
        assert (cfg.eta1, cfg.plate.retardance, cfg.plate.angle) == (0.5, 1.5, 0.1)

    @pytest.mark.parametrize(
        "field,text",
        [("source.pair_rate", "1e3x"), ("source.pair_rate", "e3"), ("eta1", "1e"),
         ("accidental_rate", "'0x10'"), ("source.phase", "1e3 pi")],
    )
    def test_other_strings_still_name_field(self, tmp_path, field, text):
        section, _, name = field.rpartition(".")
        body = f"{section}: {{{name}: {text}}}\n" if section else f"{name}: {text}\n"
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            io.load_config(write(tmp_path, body + "plate: {retardance: half, angle: 0}\n"))

    def test_bad_retardance_string(self, tmp_path):
        with pytest.raises(ConfigError, match="plate.retardance"):
            io.load_config(write(tmp_path, "plate: {retardance: third, angle: 0}\n"))

    @pytest.mark.parametrize(
        "text,path",
        [
            ("detector: 3\nplate: {retardance: half, angle: 0}\n", "detector"),
            ("source: {phas: 3.0}\nplate: {retardance: half, angle: 0}\n", "source.phas"),
            ("plate: {retardance: half, angle: 0.3, angel: 1.0}\n", "plate.angel"),
            ("source: 3\nplate: {retardance: half, angle: 0}\n", "source"),
        ],
        ids=["detector", "source.phas", "plate.angel", "source-not-mapping"],
    )
    def test_unknown_field(self, tmp_path, text, path):
        with pytest.raises(ConfigError, match=path):
            io.load_config(write(tmp_path, text))

    def test_yaml_syntax_error_has_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line"):
            io.load_config(write(tmp_path, "plate: {retardance: half\n  angle: 0\n"))

    def test_semantic_error_propagates(self, tmp_path):
        with pytest.raises(ConfigError, match="eta1"):
            io.load_config(
                write(tmp_path, "eta1: 1.5\nplate: {retardance: half, angle: 0}\n")
            )

    def test_empty_file(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            io.load_config(write(tmp_path, ""))


def sample_config():
    return ExperimentConfig(
        source=SourceSpec(phase=np.pi / 3, t20=1.0, t02=0.8, phase_jitter=0.01, pair_rate=123.456),
        plate=PlateSpec.half(np.pi / 8),
        analysis="x",
        eta1=0.15,
        eta2=0.25,
        accidental_rate=0.1,
    )


class TestRoundTrips:
    def test_config_mapping_round_trip(self):
        cfg = sample_config()
        assert io.config_from_mapping(io.config_to_mapping(cfg)) == cfg

    def test_sweep_csv_round_trip(self, tmp_path):
        cfg = sample_config()
        table = sweep(cfg, "phi", 0.0, 2 * np.pi, 37)
        path = str(tmp_path / "table.csv")
        io.write_sweep_csv(table, path)
        back = io.read_sweep_csv(path)
        assert back.parameter == table.parameter
        assert np.array_equal(back.values, table.values)
        assert np.array_equal(back.rates, table.rates)
        assert back.config == table.config

    def test_counts_csv_round_trip(self, tmp_path):
        cfg = sample_config()
        records = CountTable([0.0, 1.0, 2.0], [3, 0, 17])
        path = str(tmp_path / "counts.csv")
        io.write_counts_csv(records, cfg, path, {"seed": 42, "duration": 3.0, "bin": 1.0})
        back, back_cfg, meta = io.read_counts_csv(path)
        assert back == records
        assert back_cfg == cfg
        assert meta == {"seed": 42, "duration": 3.0, "bin": 1.0}

    def test_csv_header_magic(self, tmp_path):
        cfg = sample_config()
        table = sweep(cfg, "phi", 0.0, 2 * np.pi, 5)
        path = str(tmp_path / "table.csv")
        io.write_sweep_csv(table, path)
        first = Path(path).read_text().splitlines()[0].strip()
        assert first == "# triphot v1"

    def test_reject_foreign_file(self, tmp_path):
        path = str(tmp_path / "foreign.csv")
        with open(path, "w") as handle:
            handle.write("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="triphot"):
            io.read_sweep_csv(path)

    def test_kind_mismatch(self, tmp_path):
        cfg = sample_config()
        path = str(tmp_path / "counts.csv")
        io.write_counts_csv(CountTable([0.0], [1]), cfg, path)
        with pytest.raises(ValueError, match="kind"):
            io.read_sweep_csv(path)

    @pytest.mark.parametrize("kind", ["sweep", "counts"])
    def test_header_only_file_names_missing_column_line(self, tmp_path, kind):
        cfg = sample_config()
        path = str(tmp_path / f"{kind}.csv")
        if kind == "sweep":
            io.write_sweep_csv(sweep(cfg, "phi", 0.0, 2 * np.pi, 5), path)
            reader = io.read_sweep_csv
        else:
            io.write_counts_csv(CountTable([0.0], [1]), cfg, path)
            reader = io.read_counts_csv
        with open(path) as handle:
            header = [line for line in handle if line.startswith("#")]
        with open(path, "w") as handle:
            handle.writelines(header)
        with pytest.raises(ValueError, match="missing column header line"):
            reader(path)

    def test_sweep_yaml_document(self, tmp_path):
        cfg = sample_config()
        table = sweep(cfg, "chi", 0.0, np.pi, 9)
        path = str(tmp_path / "table.yaml")
        io.write_sweep_yaml(table, path)
        doc = yaml.safe_load(Path(path).read_text())
        assert doc["triphot"] == "v1"
        assert doc["kind"] == "sweep"
        assert doc["parameter"] == "chi"
        assert len(doc["points"]) == 9
        assert doc["points"][0]["value"] == 0.0
        assert io.config_from_mapping(doc["config"]) == cfg

    @pytest.mark.parametrize(
        "row",
        ["1.0", "1.0,2,3", "x,1", "1.0,1.5", "1.0,-1", "1.0," + "9" * 20],
    )
    def test_malformed_count_row_rejected(self, tmp_path, row):
        path = str(tmp_path / "counts.csv")
        io.write_counts_csv(CountTable([0.0], [1]), sample_config(), path)
        with open(path, "a") as handle:
            handle.write(row + "\n")
        with pytest.raises(ValueError):
            io.read_counts_csv(path)

    def test_counts_yaml_document(self, tmp_path):
        cfg = sample_config()
        path = str(tmp_path / "counts.yaml")
        io.write_counts_yaml(CountTable([0.0], [2]), cfg, path, {"seed": 1})
        doc = yaml.safe_load(Path(path).read_text())
        assert doc["kind"] == "counts"
        assert doc["bins"] == [{"t_start": 0.0, "coincidences": 2}]


class TestCountsMatchRecordPath:
    """simulate_counts and the count writers against the per-record code
    they replaced, rebuilt here: one CountRecord(i * bin_width, hits) per bin,
    written one row or one mapping per record."""

    @staticmethod
    def record_path(cfg, seed, n_bins, bin_width):
        counts = np.random.default_rng(seed).poisson(predict_rate(cfg) * bin_width, n_bins)
        return [CountRecord(i * bin_width, hits) for i, hits in enumerate(counts.tolist())]

    @staticmethod
    def record_csv(records, cfg, run_meta):
        lines = io._meta_lines("counts", cfg, run_meta)
        lines.append("t_start,coincidences")
        for rec in records:
            lines.append(f"{repr(float(rec.t_start))},{rec.coincidences}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def record_yaml(records, cfg, run_meta):
        doc = {
            "triphot": "v1",
            "kind": "counts",
            "config": io.config_to_mapping(cfg),
            "run": run_meta or {},
            "bins": [
                {"t_start": float(r.t_start), "coincidences": int(r.coincidences)}
                for r in records
            ],
        }
        return yaml.safe_dump(doc, sort_keys=False)

    # the non-integer widths pin np.arange(n) * w against i * w; YAML stops at
    # 2000 bins, where PyYAML's emitter still takes well under a second
    @pytest.mark.parametrize("n_bins", [1, 2000, 40000])
    @pytest.mark.parametrize("bin_width", [1.0, 0.1, 1 / 3, 100.0])
    @pytest.mark.parametrize("seed", [7, 2026])
    def test_same_records_and_bytes(self, tmp_path, seed, bin_width, n_bins):
        cfg = sample_config()
        duration = n_bins * bin_width
        run_meta = {"seed": seed, "duration": duration, "bin": bin_width}
        table = simulate_counts(cfg, seed, duration, bin_width)
        records = self.record_path(cfg, seed, n_bins, bin_width)
        assert len(table) == n_bins
        assert list(table) == records
        # bytes compared as lists of lines: equal exactly when the bytes are,
        # and a mismatch reports its first line instead of a diff of all
        csv_path = tmp_path / "c.csv"
        io.write_counts_csv(table, cfg, str(csv_path), run_meta)
        want = self.record_csv(records, cfg, run_meta)
        assert csv_path.read_bytes().split(b"\n") == want.encode().split(b"\n")
        if n_bins <= 2000:
            yaml_path = tmp_path / "c.yaml"
            io.write_counts_yaml(table, cfg, str(yaml_path), run_meta)
            want = self.record_yaml(records, cfg, run_meta)
            assert yaml_path.read_bytes().split(b"\n") == want.encode().split(b"\n")


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path):
        path = str(tmp_path / "out.csv")
        io.atomic_write_text(path, "hello\n")
        assert Path(path).read_text() == "hello\n"
        leftovers = [n for n in os.listdir(tmp_path) if n != "out.csv"]
        assert leftovers == []

    def test_overwrite_is_complete(self, tmp_path):
        path = str(tmp_path / "out.csv")
        io.atomic_write_text(path, "first\n")
        io.atomic_write_text(path, "second\n")
        assert Path(path).read_text() == "second\n"

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        path = str(tmp_path / "out.csv")
        old = os.umask(umask)
        try:
            io.atomic_write_text(path, "hello\n")
        finally:
            os.umask(old)
        assert os.stat(path).st_mode & 0o777 == mode


class TestSweepTableValidation:
    def test_non_increasing_rejected(self):
        cfg = sample_config()
        with pytest.raises(ValueError):
            SweepTable("phi", np.array([0.0, 0.0, 1.0]), np.zeros(3), cfg)

    def test_bad_parameter_name(self):
        cfg = sample_config()
        with pytest.raises(ValueError):
            SweepTable("delta", np.array([0.0, 1.0]), np.zeros(2), cfg)


class TestNumpyScalars:
    def test_numpy_scalar_fields_write_and_read_back(self, tmp_path):
        cfg = ExperimentConfig(
            source=SourceSpec(
                phase=np.float64(np.pi / 2), t20=np.float32(0.5), t02=np.float64(1.0),
                phase_jitter=np.float32(0.01), pair_rate=np.float32(2),
            ),
            plate=PlateSpec(np.float32(np.pi), np.float64(np.pi / 8)),
            eta1=np.float32(0.5),
            eta2=np.float64(0.25),
            accidental_rate=np.float32(0.1),
        )
        table = SweepTable("phi", np.array([0.0, 1.0]), np.array([0.5, 0.25]), cfg)
        records = CountTable([0.0], [3])
        io.write_sweep_csv(table, str(tmp_path / "s.csv"))
        io.write_counts_csv(records, cfg, str(tmp_path / "c.csv"))
        io.write_sweep_yaml(table, str(tmp_path / "s.yaml"))
        io.write_counts_yaml(records, cfg, str(tmp_path / "c.yaml"))
        assert io.read_sweep_csv(str(tmp_path / "s.csv")).config == cfg
        assert io.read_counts_csv(str(tmp_path / "c.csv"))[1] == cfg
        for name in ("s.yaml", "c.yaml"):
            doc = yaml.safe_load((tmp_path / name).read_text())
            assert io.config_from_mapping(doc["config"]) == cfg


finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)
nonnegative = st.floats(0.0, allow_infinity=False)


@st.composite
def configs(draw):
    t20, t02 = draw(st.tuples(unit, unit).filter(any))
    pair_rate = draw(st.floats(0.0, exclude_min=True, allow_infinity=False))
    eta1, eta2, accidental_rate = draw(unit), draw(unit), draw(nonnegative)
    # a config whose largest rate overflows a float is rejected
    assume(pair_rate * eta1 * eta2 + accidental_rate < float("inf"))
    return ExperimentConfig(
        source=SourceSpec(
            phase=draw(finite), t20=t20, t02=t02, phase_jitter=draw(nonnegative),
            pair_rate=pair_rate,
        ),
        plate=PlateSpec(draw(finite), draw(finite)),
        analysis=draw(st.sampled_from(ANALYSIS_CHOICES)),
        eta1=eta1,
        eta2=eta2,
        accidental_rate=accidental_rate,
    )


class TestRoundTripProperties:
    @given(configs())
    def test_mapping(self, cfg):
        assert io.config_from_mapping(io.config_to_mapping(cfg)) == cfg

    @settings(deadline=None)
    @given(configs())
    def test_sweep_csv(self, cfg):
        table = SweepTable("phi", np.array([0.0]), np.array([1.0]), cfg)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            io.write_sweep_csv(table, path)
            assert io.read_sweep_csv(path).config == cfg

    @settings(deadline=None)
    @given(configs())
    def test_counts_yaml(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.yaml")
            io.write_counts_yaml(CountTable([0.0], [1]), cfg, path)
            doc = yaml.safe_load(Path(path).read_text())
            assert io.config_from_mapping(doc["config"]) == cfg


def test_readme_config_schema_matches_dataclasses():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    doc = yaml.safe_load(block)
    cfg = io.config_from_mapping(doc)
    defaults = io.config_to_mapping(ExperimentConfig(source=SourceSpec(), plate=cfg.plate))

    def keys(node):
        return {k: keys(v) for k, v in node.items()} if isinstance(node, dict) else None

    assert keys(doc) == keys(defaults)
    # The plate fields are required, so the README shows an example, not a default.
    doc.pop("plate")
    defaults.pop("plate")
    assert doc == defaults

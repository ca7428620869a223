"""Tests for config files and result serialization."""

import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from triphot import io
from triphot.errors import ConfigError
from triphot.experiment import CountRecord, ExperimentConfig, SourceSpec, SweepTable, sweep
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
        records = [CountRecord(0.0, 3), CountRecord(1.0, 0), CountRecord(2.0, 17)]
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
        io.write_counts_csv([CountRecord(0.0, 1)], cfg, path)
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
            io.write_counts_csv([CountRecord(0.0, 1)], cfg, path)
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

    def test_counts_yaml_document(self, tmp_path):
        cfg = sample_config()
        path = str(tmp_path / "counts.yaml")
        io.write_counts_yaml([CountRecord(0.0, 2)], cfg, path, {"seed": 1})
        doc = yaml.safe_load(Path(path).read_text())
        assert doc["kind"] == "counts"
        assert doc["bins"] == [{"t_start": 0.0, "coincidences": 2}]


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

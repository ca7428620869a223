"""Config files and result serialization.

Experiment configs are YAML documents (schema in the README).  Sweep tables
and count records are written as CSV with the `# triphot v1` header line and
the resolved config echoed as one-line JSON comments, or as an equivalent
YAML document.  All writes are atomic (temp file then rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np
import yaml

from .errors import ConfigError
from .experiment import CountRecord, ExperimentConfig, SourceSpec, SweepTable
from .optics import PlateSpec

CSV_MAGIC = "# triphot v1"

RETARDANCE_NAMES = {"half": math.pi, "quarter": math.pi / 2}


def atomic_write_text(path: str, text: str) -> None:
    """Write text so that the target never exists half-written."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".triphot-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode a plain open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _get(mapping, path, typ, default=None, required=False):
    node = mapping
    for key in path.split(".")[:-1]:
        node = node.get(key, {}) if isinstance(node, dict) else {}
    leaf = path.split(".")[-1]
    if not isinstance(node, dict) or leaf not in node:
        if required:
            raise ConfigError(f"{path}: missing required field")
        return default
    value = node[leaf]
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    return value


def parse_retardance(value) -> float:
    """Plate retardance in radians from 'half', 'quarter' or a number."""
    if isinstance(value, str):
        if value in RETARDANCE_NAMES:
            return RETARDANCE_NAMES[value]
        raise ConfigError(
            f"plate.retardance: expected 'half', 'quarter' or radians, got {value!r}"
        )
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"plate.retardance: expected 'half', 'quarter' or radians, got {value!r}")
    return float(value)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a nested mapping, with field diagnostics."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config root must be a mapping, got {type(mapping).__name__}")
    known = {"source", "plate", "analysis", "eta1", "eta2", "accidental_rate"}
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"unknown top-level field(s): {', '.join(sorted(unknown))}")
    try:
        source = SourceSpec(
            phase=_get(mapping, "source.phase", float, 0.0),
            t20=_get(mapping, "source.t20", float, 1.0),
            t02=_get(mapping, "source.t02", float, 1.0),
            phase_jitter=_get(mapping, "source.phase_jitter", float, 0.0),
            pair_rate=_get(mapping, "source.pair_rate", float, 1.0),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"source: {exc}") from exc
    retardance = parse_retardance(_get(mapping, "plate.retardance", object, required=True))
    angle = _get(mapping, "plate.angle", float, required=True)
    try:
        config = ExperimentConfig(
            source=source,
            plate=PlateSpec(retardance, angle),
            analysis=_get(mapping, "analysis", str, "none"),
            eta1=_get(mapping, "eta1", float, 1.0),
            eta2=_get(mapping, "eta2", float, 1.0),
            accidental_rate=_get(mapping, "accidental_rate", float, 0.0),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return config


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    return {
        "source": {
            "phase": cfg.source.phase,
            "t20": cfg.source.t20,
            "t02": cfg.source.t02,
            "phase_jitter": cfg.source.phase_jitter,
            "pair_rate": cfg.source.pair_rate,
        },
        "plate": {"retardance": cfg.plate.retardance, "angle": cfg.plate.angle},
        "analysis": cfg.analysis,
        "eta1": cfg.eta1,
        "eta2": cfg.eta2,
        "accidental_rate": cfg.accidental_rate,
    }


def load_config(path: str) -> ExperimentConfig:
    """Read an experiment config from a YAML file."""
    with open(path) as handle:
        text = handle.read()
    try:
        mapping = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"{path}: invalid YAML{where}: {exc}") from exc
    if mapping is None:
        raise ConfigError(f"{path}: empty config")
    return config_from_mapping(mapping)


def _fmt(x: float) -> str:
    return repr(float(x))


def _meta_lines(kind: str, config: ExperimentConfig, extra: dict | None = None) -> list[str]:
    lines = [
        CSV_MAGIC,
        f"# kind: {kind}",
        "# config: " + json.dumps(config_to_mapping(config), sort_keys=True),
    ]
    if extra:
        lines.append("# run: " + json.dumps(extra, sort_keys=True))
    return lines


def write_sweep_csv(table: SweepTable, path: str) -> None:
    lines = _meta_lines("sweep", table.config)
    lines.append("param,value,rate")
    for value, rate in zip(table.values, table.rates):
        lines.append(f"{table.parameter},{_fmt(value)},{_fmt(rate)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_counts_csv(
    records: list[CountRecord], config: ExperimentConfig, path: str, run_meta: dict | None = None
) -> None:
    lines = _meta_lines("counts", config, run_meta)
    lines.append("t_start,coincidences")
    for rec in records:
        lines.append(f"{_fmt(rec.t_start)},{rec.coincidences}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_header(lines: list[str], want_kind: str, columns: str):
    """Check the metadata and column header; returns (config, run_meta, first row index)."""
    if not lines or lines[0].strip() != CSV_MAGIC:
        raise ValueError(f"not a triphot file (missing '{CSV_MAGIC}' header)")
    kind = None
    config = None
    run_meta = None
    body_start = len(lines)
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        if line.startswith("# kind: "):
            kind = line[len("# kind: "):].strip()
        elif line.startswith("# config: "):
            config = config_from_mapping(json.loads(line[len("# config: "):]))
        elif line.startswith("# run: "):
            run_meta = json.loads(line[len("# run: "):])
    if kind != want_kind:
        raise ValueError(f"expected kind {want_kind!r}, found {kind!r}")
    if config is None:
        raise ValueError("missing '# config:' metadata line")
    if body_start == len(lines):
        raise ValueError(f"missing column header line {columns!r}")
    if lines[body_start] != columns:
        raise ValueError(f"unexpected column header {lines[body_start]!r}")
    return config, run_meta, body_start + 1


def read_sweep_csv(path: str) -> SweepTable:
    with open(path) as handle:
        lines = handle.read().splitlines()
    config, _, start = _read_header(lines, "sweep", "param,value,rate")
    params, values, rates = [], [], []
    for line in lines[start:]:
        if not line:
            continue
        name, value, rate = line.split(",")
        params.append(name)
        values.append(float(value))
        rates.append(float(rate))
    if not params or any(p != params[0] for p in params):
        raise ValueError("sweep rows must share one parameter name")
    return SweepTable(
        parameter=params[0], values=np.array(values), rates=np.array(rates), config=config
    )


def read_counts_csv(path: str):
    """Returns (records, config, run_meta)."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    config, run_meta, start = _read_header(lines, "counts", "t_start,coincidences")
    records = []
    for line in lines[start:]:
        if not line:
            continue
        t_start, hits = line.split(",")
        records.append(CountRecord(t_start=float(t_start), coincidences=int(hits)))
    return records, config, run_meta


def write_sweep_yaml(table: SweepTable, path: str) -> None:
    doc = {
        "triphot": "v1",
        "kind": "sweep",
        "config": config_to_mapping(table.config),
        "parameter": table.parameter,
        "points": [
            {"value": float(v), "rate": float(r)}
            for v, r in zip(table.values, table.rates)
        ],
    }
    atomic_write_text(path, yaml.safe_dump(doc, sort_keys=False))


def write_counts_yaml(
    records: list[CountRecord], config: ExperimentConfig, path: str, run_meta: dict | None = None
) -> None:
    doc = {
        "triphot": "v1",
        "kind": "counts",
        "config": config_to_mapping(config),
        "run": run_meta or {},
        "bins": [
            {"t_start": float(r.t_start), "coincidences": int(r.coincidences)}
            for r in records
        ],
    }
    atomic_write_text(path, yaml.safe_dump(doc, sort_keys=False))

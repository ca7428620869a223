"""Config files and result serialization.

Experiment configs are YAML documents whose schema is the config
dataclasses (documented in the README).  Sweep tables and count tables are
written as CSV with the `# triphot v1` header line and the resolved config
echoed as one-line JSON comments, or as an equivalent YAML document.  All writes are atomic (temp file then rename).
PyYAML loads only where a YAML file is read or written.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import tempfile
import typing

import numpy as np

from .errors import ConfigError
from .experiment import CountTable, ExperimentConfig, SweepTable

CSV_MAGIC = "# triphot v1"

RETARDANCE_NAMES = {"half": math.pi, "quarter": math.pi / 2}
# A float in YAML 1.2's core schema.  PyYAML resolves YAML 1.1, which leaves
# `1e3` (no dot) and `1.0e3` (unsigned exponent) as strings.
_YAML12_FLOAT = r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?"


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


def parse_retardance(value) -> float:
    """Plate retardance in radians from 'half', 'quarter' or a number."""
    if isinstance(value, str) and value in RETARDANCE_NAMES:
        return RETARDANCE_NAMES[value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"plate.retardance: expected 'half', 'quarter' or radians, got {value!r}")
    return float(value)


def _build(cls, node, section: str = ""):
    """Instantiate config dataclass `cls` from a mapping.

    The dataclass is the schema: its fields are the allowed keys, a field
    without a default is required, a dataclass-typed field is a nested
    section (an absent one takes its own defaults), and the annotation is
    the type each value is checked against.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{section}: expected a mapping, got {node!r}")
    prefix = f"{section}." if section else ""
    hints = typing.get_type_hints(cls)
    # Any other key is a typo that would otherwise leave its field at the default.
    unknown = sorted(f"{prefix}{key}" for key in node if key not in hints)
    if unknown:
        raise ConfigError(f"unknown field(s): {', '.join(unknown)}")
    kwargs = {}
    for field in dataclasses.fields(cls):
        path, typ, value = prefix + field.name, hints[field.name], node.get(field.name)
        if typ is float and isinstance(value, str) and re.fullmatch(_YAML12_FLOAT, value):
            value = float(value)
        if dataclasses.is_dataclass(typ):
            kwargs[field.name] = _build(typ, node.get(field.name, {}), path)
        elif field.name not in node:
            if field.default is dataclasses.MISSING:
                raise ConfigError(f"{path}: missing required field")
        elif path == "plate.retardance":
            kwargs[field.name] = parse_retardance(value)
        elif typ is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{path}: expected a number, got {value!r}")
            kwargs[field.name] = float(value)
        elif isinstance(value, typ):
            kwargs[field.name] = value
        else:
            raise ConfigError(f"{path}: expected {typ.__name__}, got {value!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}" if section else str(exc)) from exc


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a nested mapping, with field diagnostics."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config root must be a mapping, got {type(mapping).__name__}")
    return _build(ExperimentConfig, mapping)


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    """The nested mapping `config_from_mapping` reads back into `cfg`."""
    return dataclasses.asdict(cfg)


def load_config(path: str) -> ExperimentConfig:
    """Read an experiment config from a YAML file."""
    import yaml
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
    table: CountTable, config: ExperimentConfig, path: str, run_meta: dict | None = None
) -> None:
    lines = _meta_lines("counts", config, run_meta)
    lines.append("t_start,coincidences")
    # repr of a Python float is what _fmt writes
    lines += [f"{t!r},{c}" for t, c in zip(table.t_start.tolist(), table.counts.tolist())]
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


def read_counts_csv(path: str) -> tuple[CountTable, ExperimentConfig, dict | None]:
    """Returns (table, config, run_meta)."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    config, run_meta, start = _read_header(lines, "counts", "t_start,coincidences")
    t_starts, counts = [], []
    for line in lines[start:]:
        if not line:
            continue
        t_start, hits = line.split(",")
        t_starts.append(float(t_start))
        counts.append(int(hits))
    try:
        counts = np.array(counts, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"coincidence count out of range: {exc}") from exc
    return CountTable(np.array(t_starts, dtype=float), counts), config, run_meta


def write_sweep_yaml(table: SweepTable, path: str) -> None:
    import yaml
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
    table: CountTable, config: ExperimentConfig, path: str, run_meta: dict | None = None
) -> None:
    import yaml
    doc = {
        "triphot": "v1",
        "kind": "counts",
        "config": config_to_mapping(config),
        "run": run_meta or {},
        "bins": [
            {"t_start": t, "coincidences": c}
            for t, c in zip(table.t_start.tolist(), table.counts.tolist())
        ],
    }
    atomic_write_text(path, yaml.safe_dump(doc, sort_keys=False))

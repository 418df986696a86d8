"""Config files: JSON documents mirroring the simulation dataclasses.

A config document has the same shape as ``dataclasses.asdict(SimConfig)``:
top-level simulation fields plus a ``chain`` section whose sub-sections map
one-to-one onto the parameter records in :mod:`photonlink.chain`.  Missing
fields fall back to the dataclass defaults; unknown fields are rejected
with the offending section named, so typos fail loudly.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from . import chain as ch
from .events import InvalidConfigError, SimConfig

__all__ = [
    "chain_from_dict",
    "sim_config_from_dict",
    "sim_config_to_dict",
    "load_config",
    "dump_config",
]


def _build(cls, data: dict, section: str):
    if not isinstance(data, dict):
        raise InvalidConfigError(f"section {section!r} must be an object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise InvalidConfigError(f"unknown field(s) {', '.join(unknown)} in section {section!r}")
    for name, value in data.items():
        # NaN, +-Infinity and integers beyond the float range
        if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
            raise InvalidConfigError(
                f"field {name} in section {section!r} must be a finite number"
            )
    try:
        return cls(**data)
    except InvalidConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"section {section!r}: {exc}") from exc


def chain_from_dict(data: dict) -> ch.ChainConfig:
    data = dict(data)
    converted: dict = {}
    sections = {
        "source": ch.SourceParams,
        "alice_interferometer": ch.InterferometerParams,
        "bob_interferometer": ch.InterferometerParams,
        "alice_detector": ch.DetectorParams,
        "bob_detector": ch.DetectorParams,
    }
    for name, cls in sections.items():
        if name in data:
            converted[name] = _build(cls, data.pop(name), f"chain.{name}")
    if "sfg" in data:
        raw = data.pop("sfg")
        converted["sfg"] = None if raw is None else _build(ch.SfgParams, raw, "chain.sfg")
    converted.update(data)
    return _build(ch.ChainConfig, converted, "chain")


def sim_config_from_dict(data: dict) -> SimConfig:
    data = dict(data)
    converted: dict = {}
    if "chain" in data:
        converted["chain"] = chain_from_dict(data.pop("chain"))
    converted.update(data)
    return _build(SimConfig, converted, "simulation")


def sim_config_to_dict(config: SimConfig) -> dict:
    return dataclasses.asdict(config)


def load_config(path) -> SimConfig:
    """Read a JSON config file into a validated SimConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer literal beyond the digit limit
        raise InvalidConfigError(f"config {path} cannot be parsed: {exc}") from exc
    if not isinstance(document, dict):
        raise InvalidConfigError(f"config {path} must contain a JSON object at top level")
    return sim_config_from_dict(document)


def dump_config(config: SimConfig, path) -> None:
    """Write a config as sorted, indented JSON (round-trips via load_config)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sim_config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")

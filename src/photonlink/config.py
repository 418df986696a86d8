"""Simulation configuration: the SimConfig record and its JSON documents.

A config document has the same shape as ``dataclasses.asdict(SimConfig)``:
top-level simulation fields plus a ``chain`` section whose sub-sections map
one-to-one onto the parameter records in :mod:`photonlink.chain`.  A
document, like a preset, states only what differs from the defaults: each
section starts from its slot's default in ``SimConfig()`` (a null ``sfg``
from ``SfgParams()``), so ``{"chain": {"alice_detector": {"dark_prob_per_ns":
2e-5}}}`` keeps Alice's quantum efficiency of 0.14.  Unknown fields, and
values whose type does not match the field's default, are rejected with the
offending field and section named, so typos fail loudly.  Each run's
``manifest.json`` holds the fully resolved config.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import chain as ch

__all__ = [
    "MAX_EXPECTED_EVENTS",
    "MAX_HISTOGRAM_BINS",
    "InvalidConfigError",
    "SimConfig",
    "sim_config_from_dict",
    "load_config",
    "read_document",
]


# Largest expected duration_s x (pair rate + Alice singles + Bob singles) one
# simulate() call may draw.  The dense criterion-09 source peaks at about 4
# bytes per expected event, one 8-byte click per two, above the interpreter's
# 35 MB (97 MB for 16 M, 128 MB for 24 M): a run near 0.15 GB at the cap.  The
# estimate still counts every expected single, also the start detector's darks
# that simulate only counts and does not draw: unchanged on purpose, so a
# document refused before is refused still.
MAX_EXPECTED_EVENTS = 3.0e7

# Most bins one histogram grid, 2 x histogram_half_range_ns / histogram_bin_ns,
# may have.  A sweep keeps one int64 histogram per point, so a sweep of
# cli.MAX_PHASES = 10,000 points holds at most 10,000 x 1,000 x 8 B = 80 MB of
# counts.  The defaults use 120 bins.
MAX_HISTOGRAM_BINS = 1_000


class InvalidConfigError(ValueError):
    """Simulation configuration is internally inconsistent."""


@dataclass(frozen=True)
class SimConfig:
    """Everything simulate() needs: the chain, the state, and the run window."""

    chain: ch.ChainConfig = field(default_factory=ch.ChainConfig)
    visibility: float = 0.97
    duration_s: float = 1.0
    seed: int = 0
    phase_averaged: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise InvalidConfigError(f"visibility must lie in [0, 1], got {self.visibility!r}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0.0):
            raise InvalidConfigError(
                f"duration_s must be positive and finite, got {self.duration_s!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise InvalidConfigError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfigError(f"seed must fit an unsigned 64-bit integer, got {self.seed!r}")
        n_bins = 2.0 * self.chain.histogram_half_range_ns / self.chain.histogram_bin_ns
        if not n_bins <= MAX_HISTOGRAM_BINS:
            raise InvalidConfigError(
                f"2 x chain.histogram_half_range_ns / chain.histogram_bin_ns = {n_bins:.3g} bins "
                f"exceeds MAX_HISTOGRAM_BINS = {MAX_HISTOGRAM_BINS}"
            )
        with warnings.catch_warnings():  # the budget warns on its own, not at config load
            warnings.simplefilter("ignore", ch.SaturationWarning)
            rates = ch.expected_rates(self.chain)
        singles = rates.alice_singles_per_s + rates.bob_singles_per_s
        estimate = self.duration_s * (self.chain.source.pair_rate_per_s + singles)
        if not estimate <= MAX_EXPECTED_EVENTS:  # also refuses NaN, e.g. inf x 0 gated darks
            raise InvalidConfigError(
                f"duration_s x (chain.source.pair_rate_per_s + expected singles) = "
                f"{estimate:.3g} events exceeds MAX_EXPECTED_EVENTS = {MAX_EXPECTED_EVENTS:.3g}; "
                "lower duration_s, pair_rate_per_s, the detectors' dark_prob_per_ns "
                "or chain.gate_width_ns"
            )


def _field_error(default, value) -> str | None:
    """What a supplied value must be, judged by its field's default; None when it is."""
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "a boolean"
    if isinstance(default, (int, float)):
        # rejects bools and strings, and NaN, +-Infinity and integers beyond the float range
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return None if number and abs(value) <= sys.float_info.max else "a finite number"
    return None  # nested sections are built and checked on their own


# Every nested section of a config document and the record it builds, in
# the order they are built; the section of a field that defaults to None
# (chain.sfg) may also be null, and otherwise starts from the record's
# class defaults.
_SECTIONS = {
    "chain": ch.ChainConfig,
    "chain.source": ch.SourceParams,
    "chain.alice_interferometer": ch.InterferometerParams,
    "chain.bob_interferometer": ch.InterferometerParams,
    "chain.alice_detector": ch.DetectorParams,
    "chain.bob_detector": ch.DetectorParams,
    "chain.sfg": ch.SfgParams,
}


def _build(base, data: dict, path: str = ""):
    """``base`` with the document section at ``path`` applied, nested sections first."""
    section = path or "simulation"
    if not isinstance(data, dict):
        raise InvalidConfigError(f"section {section!r} must be an object, got {type(data).__name__}")
    defaults = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    data = dict(data)
    for sub_path, sub_cls in _SECTIONS.items():
        parent, _, name = sub_path.rpartition(".")
        if parent == path and name in data and not (data[name] is None and defaults[name] is None):
            data[name] = _build(defaults[name] or sub_cls(), data[name], sub_path)
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        raise InvalidConfigError(f"unknown field(s) {', '.join(unknown)} in section {section!r}")
    for name, value in data.items():
        expected = _field_error(defaults[name], value)
        if expected is not None:
            raise InvalidConfigError(f"field {name} in section {section!r} must be {expected}")
    try:
        return dataclasses.replace(base, **data)
    except InvalidConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"section {section!r}: {exc}") from exc


def sim_config_from_dict(data: dict) -> SimConfig:
    return _build(SimConfig(), data)


def read_document(path, what: str) -> dict:
    """The JSON object in the file at ``path``; a failure names ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidConfigError(f"cannot read {what} {path}: it does not exist") from exc
    except OSError as exc:  # a directory, or no permission
        raise InvalidConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(
            f"{what} {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer literal beyond the digit limit
        raise InvalidConfigError(f"{what} {path} cannot be parsed: {exc}") from exc
    if not isinstance(document, dict):
        raise InvalidConfigError(f"{what} {path} must hold a JSON object at top level")
    return document


def load_config(path) -> SimConfig:
    """Read a JSON config file into a validated SimConfig."""
    return sim_config_from_dict(read_document(path, "config"))

"""Simulation configuration: the SimConfig record and its JSON documents.

A config document has the same shape as ``dataclasses.asdict(SimConfig)``:
top-level simulation fields plus a ``chain`` section whose sub-sections map
one-to-one onto the parameter records in :mod:`photonlink.chain`.  A
document, like a preset, states only what differs from the defaults: each
section starts from its slot's default in ``SimConfig()`` (a null ``sfg``
from ``SfgParams()``), so ``{"chain": {"alice_detector": {"dark_prob_per_ns":
2e-5}}}`` keeps Alice's quantum efficiency of 0.14.  Unknown fields are
rejected here; each value is judged by its record, by the kind its field is
annotated with (:func:`photonlink.chain.check_kinds`: type, finiteness,
bound), the same rule a library caller meets.  Either refusal names the
offending field and section, so typos fail loudly.  Each run's
``manifest.json`` holds the fully resolved config.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from . import chain as ch
from .chain import Fraction, Positive, Seed

__all__ = [
    "MAX_EXPECTED_EVENTS",
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


class InvalidConfigError(ValueError):
    """Simulation configuration is internally inconsistent."""


@dataclass(frozen=True)
class SimConfig:
    """Everything simulate() needs: the chain, the state, and the run window."""

    chain: ch.ChainConfig = field(default_factory=ch.ChainConfig)
    visibility: Fraction = 0.97
    duration_s: Positive = 1.0
    seed: Seed = 0
    phase_averaged: bool = False

    def __post_init__(self) -> None:
        try:
            ch.check_kinds(self)
        except ValueError as exc:
            raise InvalidConfigError(str(exc)) from exc
        rates = ch.expected_rates(self.chain)
        singles = rates.alice_singles_per_s + rates.bob_singles_per_s
        estimate = self.duration_s * (self.chain.source.pair_rate_per_s + singles)
        if not estimate <= MAX_EXPECTED_EVENTS:  # also refuses NaN, e.g. inf x 0 gated darks
            raise InvalidConfigError(
                f"duration_s x (chain.source.pair_rate_per_s + expected singles) = "
                f"{estimate!r} events exceeds MAX_EXPECTED_EVENTS = {MAX_EXPECTED_EVENTS:.3g}; "
                "lower duration_s, pair_rate_per_s, the detectors' dark_prob_per_ns "
                "or chain.gate_width_ns"
            )
        # Click times are float64 ns on [0, duration): a difference of two is
        # off by up to one ulp at duration_ns, which may cost 1/64 of a bin.
        ulp, bound = math.ulp(self.duration_s * 1e9), self.chain.histogram_bin_ns / 64
        if ulp > bound:
            raise InvalidConfigError(
                f"duration_s = {self.duration_s!r} leaves float64 timestamps a resolution of "
                f"{ulp:.3g} ns, above chain.histogram_bin_ns / 64 = {bound:.3g} ns; "
                "lower duration_s and add the histograms of shorter runs"
            )


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
    try:
        return dataclasses.replace(base, **data)
    except ValueError as exc:
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

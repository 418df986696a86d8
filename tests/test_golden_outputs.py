"""Byte-identity guard for the reported outputs.

Runs the CLI in-process on both presets at their default seeds (budget,
sweep and histogram) and on the criterion-09 document at seed 5 (budget,
and histogram for 10 s), and compares what they write with ``golden_outputs.json``: the sha256 of
``budget.json``, ``fringe.csv``, ``histogram.csv`` and ``peaks.json``, and
``fit.json`` field by field with floats at rel 1e-12, since the least-squares
solver's last bits can vary by CPU.  ``manifest.json`` is left out: it
records the wall clock.  Every JSON output is also read strictly
(``read_json``), so a NaN or Infinity in one fails here.

A change that alters these outputs on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden_outputs.py`` and says so.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from photonlink import cli

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")
DIGESTED = ("budget.json", "fringe.csv", "histogram.csv", "peaks.json")
# The criterion-09 document: phase-averaged, lossless, 200 k pairs/s, no darks.
DENSE_DOCUMENT = {
    "visibility": 1.0,
    "duration_s": 10.0,
    "seed": 5,
    "phase_averaged": True,
    "chain": {
        "source": {"pair_rate_per_s": 200_000.0},
        "alice_interferometer": {"transmission": 1.0},
        "bob_interferometer": {"transmission": 1.0},
        "alice_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 0.0},
        "bob_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 0.0},
        "jitter_ns": 0.1,
    },
}
CASES = {
    "fig2-baseline": ("budget", "sweep", "histogram"),
    "fig3-transfer": ("budget", "sweep", "histogram"),
    "criterion-09-seed5": ("budget", "histogram"),
}


def numpy_version() -> str:
    return ".".join(np.__version__.split(".")[:2])


def _refuse_constant(name: str):
    raise ValueError(f"{name} in a written JSON output; strict parsers reject it")


def read_json(path: Path):
    """The JSON document at ``path``, read strictly: NaN, Infinity and -Infinity raise."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


def record(name: str, work: Path) -> dict:
    """Run one case's commands into ``work``; return its digests and fit."""
    work.mkdir(parents=True, exist_ok=True)
    if name in ("fig2-baseline", "fig3-transfer"):
        source = ["--preset", name]
    else:
        path = work / "document.json"
        path.write_text(json.dumps(DENSE_DOCUMENT))
        source = ["--config", str(path)]
    out = {}
    for command in CASES[name]:
        out_dir = work / command
        assert cli.main([command, *source, "--out", str(out_dir)]) == 0, (name, command)
        out.update({p.name: p for p in out_dir.iterdir()})
    for path in out.values():
        if path.suffix == ".json":
            read_json(path)
    result = {
        "sha256": {f: hashlib.sha256(out[f].read_bytes()).hexdigest() for f in DIGESTED if f in out}
    }
    if "fit.json" in out:
        result["fit"] = read_json(out["fit.json"])
    return result


def leaves(doc, path=""):
    """(path, value) of every scalar in a nested JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN_PATH.read_text())
    if numpy_version() != doc["numpy"]:
        pytest.skip(f"outputs recorded with numpy {doc['numpy']}; its sampler streams may differ")
    return doc["cases"]


@pytest.fixture(scope="module")
def recorded(golden, tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        for var in ("PHOTONLINK_PRESET", "PHOTONLINK_CONFIG", "PHOTONLINK_SEED",
                    "PHOTONLINK_DURATION", "PHOTONLINK_OUT"):
            mp.delenv(var, raising=False)
        return {name: record(name, tmp_path_factory.mktemp(name)) for name in CASES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_recorded_ones(golden, recorded, name):
    got, want = recorded[name], golden[name]
    assert got["sha256"] == want["sha256"]
    assert got.keys() == want.keys()
    if "fit" in want:
        got_fit, want_fit = dict(leaves(got["fit"])), dict(leaves(want["fit"]))
        assert got_fit.keys() == want_fit.keys()
        for key, value in want_fit.items():
            if isinstance(value, float):
                assert got_fit[key] == pytest.approx(value, rel=1e-12), key
            else:
                assert got_fit[key] == value, key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: record(name, Path(tmp) / name) for name in CASES}
    GOLDEN_PATH.write_text(json.dumps({"numpy": numpy_version(), "cases": cases}, indent=2) + "\n")

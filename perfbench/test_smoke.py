"""Smoke test of the benchmark harness at tiny durations.

    python3 -m pytest perfbench/test_smoke.py

Each case makes the minimum number of runs (--seconds 0) of a workload
shrunk to a fraction of a second of simulated time per point.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY_DURATION_S = {"fig2-sweep": 4.0, "fig3-sweep": 2.0, "dense-histogram": 0.5}


@pytest.fixture
def tiny(monkeypatch):
    for name, duration in TINY_DURATION_S.items():
        shrunk = dataclasses.replace(run.WORKLOADS[name], duration_s=duration)
        monkeypatch.setitem(run.WORKLOADS, name, shrunk)


def invoke(capsys, workload: str, trace: int) -> tuple[int, list[str], dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_DURATION_S))
def test_every_metric_prints_with_its_unit(tiny, capsys, workload, trace):
    code, lines, result = invoke(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_RUNS

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer"] if trace else declared["end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == (run.PER_LAYER if trace else run.END_TO_END)
    assert list(result["metrics"]) == [m["name"] for m in section]
    for name, entry in result["metrics"].items():
        assert entry["unit"] == (run.PER_LAYER if trace else run.END_TO_END)[name]
        assert isinstance(entry["value"], (int, float))
        assert any(line.split()[:1] == [name] and entry["unit"] in line.split() for line in lines)
    assert any(line.split()[:1] == ["error_rate"] for line in lines)
    if trace:
        metrics = result["metrics"]
        assert metrics["events.n_events"]["value"] == (
            metrics["events.n_dark"]["value"] + metrics["events.n_photon"]["value"]
        )
        if workload == "dense-histogram":
            assert metrics["events.n_dark"]["value"] == 0


def test_sweep_out_of_tolerance_counts_as_failed(tiny, capsys, monkeypatch):
    wrong = dataclasses.replace(run.WORKLOADS["fig2-sweep"], visibility=0.2)
    monkeypatch.setitem(run.WORKLOADS, "fig2-sweep", wrong)
    code, _, result = invoke(capsys, "fig2-sweep", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_RUNS


def test_histogram_misplaced_peaks_count_as_failed(tiny, capsys, monkeypatch):
    monkeypatch.setattr(run, "DELAY_NS", 2.0 * run.DELAY_NS)
    code, _, result = invoke(capsys, "dense-histogram", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_refuses_without_sources(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "fig2-sweep", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""

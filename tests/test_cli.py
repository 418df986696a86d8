"""CLI behaviour: exit codes, output files, determinism, env overrides.

Commands run in-process through cli.main(argv) with small configurations,
so the suite stays fast; the heavy preset sweeps belong to the acceptance
tests.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from photonlink import analysis as an
from photonlink import chain as ch
from photonlink import cli
from photonlink import events as ev
from photonlink.config import sim_config_from_dict
from test_golden_outputs import read_json


def fast_chain(pair_rate=20_000.0, visibility=0.95, phase_averaged=False, darks=False):
    """Small, clean config document for quick CLI runs."""
    return {
        "visibility": visibility,
        "duration_s": 0.5,
        "seed": 404,
        "phase_averaged": phase_averaged,
        "chain": {
            "source": {"pair_rate_per_s": pair_rate},
            "alice_interferometer": {"transmission": 1.0},
            "bob_interferometer": {"transmission": 1.0},
            "alice_detector": {
                "quantum_efficiency": 1.0,
                "dark_prob_per_ns": 1e-5 if darks else 0.0,
            },
            "bob_detector": {
                "quantum_efficiency": 1.0,
                "dark_prob_per_ns": 3e-5 if darks else 0.0,
            },
            "jitter_ns": 0.1,
        },
    }


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ("PHOTONLINK_PRESET", "PHOTONLINK_CONFIG", "PHOTONLINK_SEED",
                "PHOTONLINK_DURATION", "PHOTONLINK_OUT"):
        monkeypatch.delenv(var, raising=False)


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------


def test_budget_baseline_preset_passes(tmp_path, capsys):
    code = cli.main(["budget", "--preset", "fig2-baseline", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 3
    doc = read_json(tmp_path / "budget.json")
    assert doc["transfer_probability"] is None
    assert doc["franson_passed"] is True
    # Matched analyzers leave the margin unbounded: inf on the console, null in the file.
    assert "(margin inf)" in out
    assert [c["margin"] for c in doc["franson"] if c["name"] == "analyzers_matched"] == [None]


def test_budget_transfer_preset_reports_conversion(tmp_path):
    code = cli.main(["budget", "--preset", "fig3-transfer", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "budget.json")
    assert doc["transfer_probability"] == pytest.approx(0.0486, abs=1e-4)
    assert doc["reservoir"]["ok"] is True


def test_budget_short_pump_coherence_fails_validity(tmp_path, capsys):
    doc = fast_chain()
    doc["chain"]["source"]["pump_coherence_length_m"] = 1.0
    code = cli.main(["budget", "--config", write_config(tmp_path, doc)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_budget_requires_some_configuration(capsys):
    assert cli.main(["budget"]) == 2
    assert "config" in capsys.readouterr().err


def test_budget_rejects_config_plus_preset(tmp_path):
    path = write_config(tmp_path, fast_chain())
    assert cli.main(["budget", "--config", path, "--preset", "fig2-baseline"]) == 2


def test_budget_unknown_preset(capsys):
    assert cli.main(["budget", "--preset", "bogus"]) == 2
    assert "available" in capsys.readouterr().err


def test_budget_preset_from_environment(monkeypatch):
    monkeypatch.setenv("PHOTONLINK_PRESET", "fig2-baseline")
    assert cli.main(["budget"]) == 0


@pytest.mark.parametrize("under", [False, True])
def test_budget_out_naming_a_file_is_a_usage_error(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert cli.main(["budget", "--preset", "fig2-baseline", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and str(out) in err


def test_out_from_environment_naming_a_file_is_a_usage_error(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    monkeypatch.setenv("PHOTONLINK_OUT", str(blocker))
    assert cli.main(["budget", "--preset", "fig2-baseline"]) == 2
    assert str(blocker) in capsys.readouterr().err


def test_bad_seed_environment_variable(monkeypatch, capsys):
    monkeypatch.setenv("PHOTONLINK_SEED", "not-a-number")
    assert cli.main(["budget", "--preset", "fig2-baseline"]) == 2
    assert "PHOTONLINK_SEED" in capsys.readouterr().err


def test_budget_ignores_the_duration_environment_variable(tmp_path, monkeypatch):
    # budget takes no --duration and draws nothing, so the variable has no flag to default.
    monkeypatch.setenv("PHOTONLINK_DURATION", "1e9")
    assert cli.main(["budget", "--preset", "fig2-baseline", "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "manifest.json")["duration_s"] == 240.0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_fringe_and_fit(tmp_path, capsys):
    cfg = write_config(tmp_path, fast_chain())
    out = tmp_path / "run"
    code = cli.main(["sweep", "--config", cfg, "--phases", "9", "--out", str(out)])
    assert code == 0
    lines = (out / "fringe.csv").read_text().splitlines()
    assert lines[0] == "phase_rad,coincidences,duration_s"
    assert len(lines) == 10
    doc = read_json(out / "fit.json")
    assert doc["fit"]["v_net"] == pytest.approx(0.95, abs=0.05)
    assert doc["n_phases"] == 9
    manifest = read_json(out / "manifest.json")
    assert sorted(manifest["outputs"]) == ["fit.json", "fringe.csv", "manifest.json"]
    assert manifest["seed"] == 404
    assert "v_net" in capsys.readouterr().out


def test_sweep_is_reproducible_byte_for_byte(tmp_path):
    cfg = write_config(tmp_path, fast_chain())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--phases", "7", "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--phases", "7", "--out", str(out2)]) == 0
    for name in ("fringe.csv", "fit.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = read_json(out1 / "manifest.json")
    m2 = read_json(out2 / "manifest.json")
    m1.pop("wall_clock_s")
    m2.pop("wall_clock_s")
    assert m1 == m2


def test_sweep_seed_flag_changes_outputs(tmp_path):
    cfg = write_config(tmp_path, fast_chain())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["sweep", "--config", cfg, "--phases", "7", "--out", str(out1)])
    cli.main(["sweep", "--config", cfg, "--phases", "7", "--seed", "9", "--out", str(out2)])
    assert (out1 / "fringe.csv").read_bytes() != (out2 / "fringe.csv").read_bytes()
    assert read_json(out2 / "manifest.json")["seed"] == 9


def test_sweep_flat_fringe_for_zero_visibility(tmp_path):
    cfg = write_config(tmp_path, fast_chain(visibility=0.0))
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--phases", "9", "--out", str(out)]) == 0
    doc = read_json(out / "fit.json")
    assert doc["fit"]["v_raw"] < 0.05


def test_sweep_needs_five_phase_points(tmp_path, monkeypatch, capsys):
    def never(cfg):
        raise AssertionError("simulate ran on a refused phase count")

    monkeypatch.setattr(an, "simulate", never)  # the binding measure calls
    cfg = write_config(tmp_path, fast_chain())
    assert cli.main(["sweep", "--config", cfg, "--phases", "4"]) == 2
    # An unbounded count would reach np.linspace and SeedSequence.spawn.
    assert cli.main(["sweep", "--preset", "fig2-baseline", "--phases", "1000000000"]) == 2
    assert "--phases" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_phase_averaged_ratio(tmp_path, capsys):
    doc = fast_chain(pair_rate=200_000.0, visibility=1.0, phase_averaged=True)
    doc["duration_s"] = 1.0
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    code = cli.main(["histogram", "--config", cfg, "--out", str(out)])
    assert code == 0
    peaks = read_json(out / "peaks.json")
    assert peaks["area_ratio_central_to_side"] == pytest.approx(2.0, rel=0.05)
    header, *rows = (out / "histogram.csv").read_text().splitlines()
    assert header == "bin_center_ns,counts"
    assert len(rows) == 120


def test_histogram_pure_darks_exits_with_physics_code(tmp_path, capsys):
    doc = fast_chain(darks=True)
    doc["chain"]["source"]["pair_rate_per_s"] = 0.0
    doc["duration_s"] = 0.05
    cfg = write_config(tmp_path, doc)
    code = cli.main(["histogram", "--config", cfg])
    assert code == 3
    assert "physics" in capsys.readouterr().err


def test_unwritable_output_is_a_usage_error_and_leaves_no_temp_file(tmp_path, capsys):
    doc = fast_chain(pair_rate=200_000.0, visibility=1.0, phase_averaged=True)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    (out / "peaks.json").mkdir(parents=True)
    assert cli.main(["histogram", "--config", cfg, "--out", str(out)]) == 2
    assert str(out / "peaks.json") in capsys.readouterr().err
    assert (out / "peaks.json").is_dir()
    assert not (out / "peaks.json.tmp").exists()


def test_histogram_duration_flag_is_applied(tmp_path):
    cfg = write_config(tmp_path, fast_chain(pair_rate=200_000.0, phase_averaged=True))
    out = tmp_path / "run"
    code = cli.main(
        ["histogram", "--config", cfg, "--duration", "0.25", "--out", str(out)]
    )
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["duration_s"] == 0.25


# Under the event cap, yet float64 ns timestamps resolve only 16, 0.125 and
# 0.016 ns at these lengths against 0.05 ns bins: histograms that alias.
@pytest.mark.parametrize("duration_s, pair_rate", [(1e8, 0.2), (1e6, 20.0), (1e5, 200.0)])
def test_histogram_refuses_a_run_too_long_for_its_timestamps(
    tmp_path, capsys, duration_s, pair_rate
):
    doc = {
        "duration_s": duration_s,
        "chain": {
            "source": {"pair_rate_per_s": pair_rate},
            "alice_detector": {"dark_prob_per_ns": 0.0},
            "bob_detector": {"dark_prob_per_ns": 0.0},
        },
    }
    out = tmp_path / "run"
    assert cli.main(["histogram", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert "duration_s" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# bad inputs: exit 2 naming the field, never a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["budget", "histogram", "sweep"])
def test_transfer_probability_above_one_is_a_config_error(tmp_path, capsys, command):
    doc = fast_chain()
    doc["chain"]["sfg"] = {"reservoir_power_w": 20.0}  # budget 1.39
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert "chain.sfg" in capsys.readouterr().err


def test_saturation_warns_only_where_the_budget_is_reported(tmp_path):
    doc = fast_chain()
    doc["chain"]["sfg"] = {"reservoir_power_w": 8.0}  # budget 0.556: warns, yet accepted
    cfg = sim_config_from_dict(doc)
    # Running the chain reports no budget: no warning, which the suite would turn into an error.
    ev.simulate(cfg)
    an.measure(cfg.chain, [cfg])
    path = write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", path, "--phases", "5"]) == 0
    for argv in (["budget", "--config", path],
                 ["sweep", "--config", path, "--phases", "5", "--out", str(tmp_path / "run")]):
        with pytest.warns(ch.SaturationWarning) as record:
            assert cli.main(argv) == 0
        assert len(record) == 1, argv


@pytest.mark.parametrize(
    "keys, value",
    [
        (("duration_s",), float("nan")),
        (("duration_s",), float("inf")),
        (("chain", "source", "pair_rate_per_s"), float("nan")),
        (("chain", "source", "pair_rate_per_s"), 10**400),  # beyond the float range
        (("chain", "jitter_ns"), float("nan")),
        (("seed",), 1.5),
        (("chain", "histogram_bin_ns"), 0.07),  # +-3 ns is off a 0.07 ns grid
        (("duration_s",), "abc"),
        (("chain", "jitter_ns"), "abc"),
        (("chain", "source", "pair_rate_per_s"), [1]),
        (("phase_averaged",), "yes"),
        (("visibility",), True),
        (("chain", "gate_width_ns"), "5"),
        # expected event counts beyond MAX_EXPECTED_EVENTS, refused before any draw
        (("duration_s",), 1e300),
        (("chain", "source", "pair_rate_per_s"), 1e300),
        (("chain", "gate_width_ns"), 1e300),
        (("chain", "histogram_bin_ns"), 1e-320),  # 3 / 1e-320 overflows to inf
        # coherence lengths beyond the float range, or rounded to zero
        (("chain", "source", "signal_wavelength_nm"), 1e300),
        (("chain", "source", "idler_wavelength_nm"), 1e200),
        (("chain", "source", "signal_wavelength_nm"), 5e-324),
        (("chain", "source", "idler_wavelength_nm"), 5e-324),
    ],
)
def test_bad_field_is_a_config_error(tmp_path, capsys, keys, value):
    doc = fast_chain(darks=True)  # so gate_width_ns sets a dark rate
    section = doc
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    for command in ("budget", "histogram"):
        assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 2, command
        assert keys[-1] in capsys.readouterr().err, command


def test_non_finite_duration_flag_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, fast_chain())
    assert cli.main(["histogram", "--config", cfg, "--duration", "nan"]) == 2
    assert "duration_s" in capsys.readouterr().err


def test_hour_long_sweep_is_refused_before_simulating(monkeypatch, capsys):
    def never(cfg):
        raise AssertionError("simulate ran on an oversized config")

    monkeypatch.setattr(an, "simulate", never)  # the binding measure calls
    assert cli.main(["sweep", "--preset", "fig2-baseline", "--duration", "3600"]) == 2
    err = capsys.readouterr().err
    assert "duration_s" in err and "MAX_EXPECTED_EVENTS" in err


def test_event_cap_message_shows_the_estimate_above_the_cap(capsys):
    # 933 s of fig2 expects 30,014,988 events: 3 significant digits would
    # round that onto the cap it exceeds.
    assert cli.main(["histogram", "--preset", "fig2-baseline", "--duration", "933"]) == 2
    estimate = re.search(r"= (\S+) events exceeds MAX_EXPECTED_EVENTS", capsys.readouterr().err)
    assert float(estimate.group(1)) > 3e7


def test_histogram_grid_beyond_the_bin_cap_is_refused_before_simulating(
    tmp_path, monkeypatch, capsys
):
    def never(cfg):
        raise AssertionError("simulate ran on an oversized histogram grid")

    monkeypatch.setattr(an, "simulate", never)  # the binding measure calls
    # 6e9 bins: the counts alone would need 45 GiB.
    cfg = write_config(tmp_path, {"chain": {"histogram_bin_ns": 1e-9}})
    assert cli.main(["histogram", "--config", cfg, "--duration", "0.01"]) == 2
    err = capsys.readouterr().err
    assert "histogram_bin_ns" in err and "histogram_half_range_ns" in err
    assert "MAX_HISTOGRAM_BINS" in err


@pytest.mark.parametrize(
    "section, fields",
    [
        ("chain", {"start_detector": "alice", "stop_detector": "bob"}),
        ("chain.alice_detector", {"role": "free_running"}),
        ("chain.bob_detector", {"role": "gated"}),
        ("chain.alice_detector", {"gate_width_ns": 8.0}),
        ("chain.bob_detector", {"gate_width_ns": 8.0}),
    ],
    ids=["start-stop", "alice-role", "bob-role", "alice-gate", "bob-gate"],
)
def test_converter_role_fields_are_refused_before_simulating(
    tmp_path, monkeypatch, capsys, section, fields
):
    # Bob's detector always runs free and starts the converter; Alice's
    # stops it, gated by his clicks, with one chain.gate_width_ns.
    def never(cfg):
        raise AssertionError("simulate ran on a document with retired fields")

    monkeypatch.setattr(an, "simulate", never)  # the binding measure calls
    doc = target = {}
    for key in section.split("."):
        target = target.setdefault(key, {})
    target.update(fields)
    assert cli.main(["histogram", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in fields) and f"'{section}'" in err


@pytest.mark.parametrize("command", ["histogram", "sweep"])
def test_range_short_of_the_side_peaks_is_refused_before_simulating(
    tmp_path, monkeypatch, capsys, command
):
    def never(cfg):
        raise AssertionError("simulate ran on a grid that cannot hold or resolve the side peaks")

    monkeypatch.setattr(an, "simulate", never)  # the binding measure calls
    # +-0.5 ns cannot reach the side peaks at +-0.667 ns, and bins of a
    # quarter of that delay or more cannot resolve them.
    refused = [("histogram_half_range_ns", 0.5)]
    refused += [("histogram_bin_ns", width) for width in (0.375, 0.5, 0.6, 1.0 / 3.0)]
    for field, value in refused:
        doc = {"chain": {field: value}, "duration_s": 2.0}
        assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"chain.{field}" in err and "0.6671 ns" in err
        assert "physics" not in err
        # The budget needs no histogram and still runs on the same document.
        assert cli.main(["budget", "--config", write_config(tmp_path, doc)]) == 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def run_small_pipeline(tmp_path):
    cfg = write_config(tmp_path, fast_chain())
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--phases", "9", "--out", str(out)]) == 0
    return out


def test_report_passes_on_consistent_outputs(tmp_path, capsys):
    out = run_small_pipeline(tmp_path)
    code = cli.main(["report", str(out / "fit.json"), "--out", str(out)])
    output = capsys.readouterr().out
    assert code == 0
    assert "PASS" in output and "FAIL" not in output
    doc = read_json(out / "report.json")
    assert doc["passed"] is True


def test_report_fails_on_doctored_visibility(tmp_path, capsys):
    out = run_small_pipeline(tmp_path)
    doc = read_json(out / "fit.json")
    doc["fit"]["v_net"] = 0.5
    doc["fidelity"] = 0.75
    (out / "fit.json").write_text(json.dumps(doc))
    code = cli.main(["report", str(out / "fit.json")])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out


def test_report_refuses_a_nan_measurement(tmp_path, capsys):
    # A NaN is no Fraction, so it is a usage error, not a failing row; sweep
    # never writes one (FringeFit bounds v_net, and the writer writes null).
    out = run_small_pipeline(tmp_path)
    doc = read_json(out / "fit.json")
    doc["fit"]["v_net"] = float("nan")
    (out / "fit.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["report", str(out / "fit.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / "fit.json") in err and "fit.v_net" in err
    assert not (out / "report.json").exists()


def test_report_reads_budget_and_peaks_documents(tmp_path):
    budget_dir = tmp_path / "budget"
    assert cli.main(["budget", "--preset", "fig3-transfer", "--out", str(budget_dir)]) == 0
    hist_doc = fast_chain(pair_rate=200_000.0, visibility=1.0, phase_averaged=True)
    hist_doc["duration_s"] = 1.0
    hist_dir = tmp_path / "hist"
    cfg = write_config(tmp_path, hist_doc)
    assert cli.main(["histogram", "--config", cfg, "--out", str(hist_dir)]) == 0
    code = cli.main(
        ["report", str(budget_dir / "budget.json"), str(hist_dir / "peaks.json")]
    )
    assert code == 0


def test_report_missing_input(capsys):
    assert cli.main(["report", "/nonexistent/fit.json"]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_report_unreadable_input_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path)]) == 2  # a directory
    err = capsys.readouterr().err
    assert "report input" in err and str(tmp_path) in err


def test_report_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["budget", "--preset", "fig3-transfer", "--out", str(tmp_path)]) == 0
    blocker = tmp_path / "taken"
    blocker.write_text("")
    code = cli.main(["report", str(tmp_path / "budget.json"), "--out", str(blocker)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--out" in err and str(blocker) in err


def test_report_on_a_zero_visibility_sweep(tmp_path, capsys):
    # The v_net band around a configured visibility of 0 is clamped to [0, 0.02].
    cfg = write_config(tmp_path, fast_chain(visibility=0.0))
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--phases", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["report", str(out / "fit.json")]) in (0, 4)
    assert "[0, 0.02]" in capsys.readouterr().out


@pytest.mark.parametrize("visibility", [5.0, -1.0, float("nan")])
def test_report_refuses_a_configured_visibility_outside_0_1(tmp_path, capsys, visibility):
    path = tmp_path / "fit.json"
    doc = {"fit": {"v_net": 0.9}, "configured_visibility": visibility, "fidelity": 0.95}
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "configured_visibility" in err


def test_report_unrecognized_document(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"x": 1}')
    assert cli.main(["report", str(path)]) == 2


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"fit": {}, "configured_visibility": 0.9}, "fit.v_net"),
        ({"franson": []}, "franson_passed"),
        ({"area_ratio_central_to_side": "x"}, "area_ratio_central_to_side"),
        ({"fit": {"v_net": "a"}, "configured_visibility": 0.9, "fidelity": 1}, "fit.v_net"),
        ({"area_ratio_central_to_side": 10**400}, "area_ratio_central_to_side"),
        # A value outside the kind its writer declares, or not finite, is no failing row.
        ({"fit": {"v_net": 1.5}, "configured_visibility": 0.9, "fidelity": 0.95}, "fit.v_net"),
        ({"area_ratio_central_to_side": float("nan")}, "area_ratio_central_to_side"),
        (
            {"label": "fig3-transfer", "franson": [], "franson_passed": True,
             "transfer_probability": 2.0},
            "transfer_probability",
        ),
    ],
)
def test_report_incomplete_document_is_a_usage_error(tmp_path, capsys, doc, field):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and field in err


def test_report_integer_beyond_digit_limit_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"area_ratio_central_to_side": ' + "1" * 5000 + "}")
    assert cli.main(["report", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_report_requires_inputs():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["report"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# dependencies
# ---------------------------------------------------------------------------


def test_cli_never_imports_scipy(tmp_path):
    """scipy is a test dependency: importing the CLI and running it load none of it."""
    cfg = write_config(tmp_path, fast_chain())
    runs = [
        ["budget", "--preset", "fig2-baseline", "--out", str(tmp_path / "budget")],
        ["sweep", "--config", cfg, "--phases", "9", "--out", str(tmp_path / "sweep")],
        ["report", str(tmp_path / "budget" / "budget.json"), str(tmp_path / "sweep" / "fit.json")],
    ]
    script = textwrap.dedent(
        f"""
        import sys
        import photonlink.cli as cli
        assert "scipy" not in sys.modules, "import photonlink.cli"
        for argv in {runs!r}:
            assert cli.main(argv) == 0, argv
            assert "scipy" not in sys.modules, argv
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr

"""Tests for JSON config loading and the shipped presets."""

import dataclasses
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlink import analysis as an
from photonlink import chain as ch
from photonlink import config as pc
from photonlink.config import InvalidConfigError, SimConfig
from photonlink.events import simulate
from photonlink.presets import PRESETS, preset_config, preset_names


def test_empty_document_gives_all_defaults():
    cfg = pc.sim_config_from_dict({})
    assert cfg == SimConfig(chain=ch.ChainConfig())


def test_round_trip_through_dict():
    for name in preset_names():
        cfg = preset_config(name)
        again = pc.sim_config_from_dict(dataclasses.asdict(cfg))
        assert again == cfg


def test_round_trip_through_file(tmp_path):
    cfg = preset_config("fig3-transfer")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert pc.load_config(path) == cfg


def test_unknown_field_names_the_section():
    doc = {"chain": {"source": {"pair_rate_per_s": 100.0, "pare_rate": 1.0}}}
    with pytest.raises(InvalidConfigError, match="chain.source"):
        pc.sim_config_from_dict(doc)
    with pytest.raises(InvalidConfigError, match="simulation"):
        pc.sim_config_from_dict({"visibilty": 0.9})


def test_invalid_value_names_the_section():
    doc = {"chain": {"source": {"pair_rate_per_s": -5.0}}}
    with pytest.raises(InvalidConfigError, match="chain.source"):
        pc.sim_config_from_dict(doc)


def test_section_starts_from_its_slot_default():
    # Alice's slot default is not DetectorParams(): a section that sets her
    # dark probability keeps her quantum efficiency of 0.14.
    cfg = pc.sim_config_from_dict({"chain": {"alice_detector": {"dark_prob_per_ns": 2e-5}}})
    assert cfg.chain.alice_detector == ch.DetectorParams(
        quantum_efficiency=0.14, dark_prob_per_ns=2e-5
    )
    assert cfg.chain.bob_detector == ch.ChainConfig().bob_detector


def test_both_detectors_gated_is_a_config_error(tmp_path):
    # Alice's detector is always the gated one: a document naming roles is refused.
    path = tmp_path / "gated.json"
    roles = {"alice_detector": {"role": "gated"}, "bob_detector": {"role": "gated"}}
    path.write_text(json.dumps({"chain": roles}))
    with pytest.raises(InvalidConfigError, match="role"):
        pc.load_config(path)


def test_hour_long_fig2_run_exceeds_the_event_cap():
    cfg = preset_config("fig2-baseline")
    with pytest.raises(InvalidConfigError, match="MAX_EXPECTED_EVENTS"):
        dataclasses.replace(cfg, duration_s=3600.0)


def test_undefined_event_estimate_is_refused():
    # Bob's dark rate overflows to inf; Alice's gated darks are then inf x 0 = NaN.
    doc = {
        "chain": {
            "alice_detector": {"dark_prob_per_ns": 0.0},
            "bob_detector": {"dark_prob_per_ns": 1e300},
        }
    }
    with pytest.raises(InvalidConfigError, match="nan events"):
        pc.sim_config_from_dict(doc)


def test_preset_points_fit_the_event_cap_twice_over():
    for name in preset_names():
        cfg = preset_config(name)
        dataclasses.replace(cfg, duration_s=2.0 * cfg.duration_s)


def test_event_estimate_does_not_warn_at_load():
    # transfer probability ~0.70: the budget warns, loading the config must not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pc.sim_config_from_dict({"chain": {"sfg": {"reservoir_power_w": 10.0}}})


def test_sfg_section_optional_and_nullable():
    assert pc.sim_config_from_dict({"chain": {"sfg": None}}).chain.sfg is None
    cfg = pc.sim_config_from_dict({"chain": {"sfg": {"reservoir_power_w": 0.5}}})
    assert cfg.chain.sfg is not None
    assert cfg.chain.sfg.reservoir_power_w == 0.5


def test_load_config_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"visibility": 0.9,\n  "duration_s": }\n')
    with pytest.raises(InvalidConfigError, match="line 2"):
        pc.load_config(path)


def test_load_config_missing_file():
    with pytest.raises(InvalidConfigError, match="cannot read"):
        pc.load_config("/nonexistent/config.json")


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(InvalidConfigError, match="object"):
        pc.load_config(path)


def test_load_config_rejects_integer_beyond_digit_limit(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"duration_s": 1' + "0" * 5000 + "}\n")
    with pytest.raises(InvalidConfigError, match="cannot be parsed"):
        pc.load_config(path)


def test_preset_names_and_unknown_preset():
    assert preset_names() == ("fig2-baseline", "fig3-transfer")
    with pytest.raises(KeyError, match="available"):
        preset_config("no-such-preset")


def test_preset_documents_are_pure_json():
    # The embedded preset dicts must survive a JSON round trip unchanged,
    # so that writing one to a file and loading it back is lossless.
    for name, doc in PRESETS.items():
        assert json.loads(json.dumps(doc)) == doc


def test_baseline_preset_operating_point():
    cfg = preset_config("fig2-baseline")
    assert cfg.visibility == 0.970
    assert cfg.chain.sfg is None
    assert cfg.chain.alice_detector == ch.ChainConfig().alice_detector
    assert cfg.chain.gate_width_ns == 8.0
    assert cfg.chain.source.pair_rate_per_s == 2000.0


def test_transfer_preset_operating_point():
    cfg = preset_config("fig3-transfer")
    assert cfg.visibility == 0.962
    assert cfg.chain.sfg is not None
    assert cfg.chain.transfer_probability() == pytest.approx(0.0486, abs=1e-4)
    assert cfg.chain.source.alice_filter_bandwidth_nm == 1.5
    assert cfg.chain.bob_detector.quantum_efficiency == 0.60


# ---------------------------------------------------------------------------
# property: every document is rejected at the boundary or runs cleanly
# ---------------------------------------------------------------------------


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Valid-looking values, bounded so that one run stays tiny: at most 1e5
# pairs/s, 1e-3 darks/ns and 1 ms of acquisition.
SIM_FIELDS = {
    "visibility": _floats(0.0, 1.0),
    "duration_s": _floats(1e-9, 1e-3),
    "seed": st.integers(0, 2**64 - 1),
    "phase_averaged": st.booleans(),
}
CHAIN_FIELDS = {
    "jitter_ns": _floats(0.0, 1.0),
    "gate_width_ns": _floats(0.1, 10.0),
    "coincidence_window_ns": _floats(0.01, 2.0),
    "histogram_bin_ns": st.sampled_from([0.05, 0.07, 0.1]),
    "histogram_half_range_ns": st.sampled_from([1.0, 2.0, 3.0]),
}
SOURCE_FIELDS = {
    "pair_rate_per_s": _floats(0.0, 1e5),
    "raw_bandwidth_nm": _floats(0.1, 50.0),
    "alice_filter_bandwidth_nm": _floats(0.1, 50.0),
}
INTERFEROMETER_FIELDS = {
    "path_imbalance_m": _floats(0.01, 1.0),
    "phase_rad": _floats(-10.0, 10.0),
    "transmission": _floats(0.01, 1.0),
}
DETECTOR_FIELDS = {
    "quantum_efficiency": _floats(0.01, 1.0),
    "dark_prob_per_ns": _floats(0.0, 1e-3),
}
SFG_FIELDS = {
    "reservoir_power_w": _floats(0.0, 2.0),
    "efficiency_per_watt": _floats(0.01, 1.0),
    "coupling_qubit": _floats(0.01, 1.0),
}
CHAIN_SECTIONS = {
    "source": SOURCE_FIELDS,
    "alice_interferometer": INTERFEROMETER_FIELDS,
    "bob_interferometer": INTERFEROMETER_FIELDS,
    "alice_detector": DETECTOR_FIELDS,
    "bob_detector": DETECTOR_FIELDS,
    "sfg": SFG_FIELDS,
}
GARBAGE = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -1.0, 10**400, "abc", True, None, [1], {}]
)


def _sections(doc: dict):
    yield doc
    for value in doc.values():
        if isinstance(value, dict):
            yield from _sections(value)


# Valid documents that expect more events than MAX_EXPECTED_EVENTS: at least
# 1e8 pairs, or at least 1 s of gated Alice darks at 1e9/s and up (gates of
# 1e10 ns and up behind Bob's free-running darks at 1e4/s and up).
PAST_CAP = (
    st.fixed_dictionaries(
        {
            "duration_s": _floats(100.0, 1e6),
            "chain": st.fixed_dictionaries(
                {"source": st.fixed_dictionaries({"pair_rate_per_s": _floats(1e6, 1e300)})}
            ),
        }
    ),
    st.fixed_dictionaries(
        {
            "duration_s": _floats(1.0, 1e3),
            "chain": st.fixed_dictionaries(
                {
                    "alice_detector": st.fixed_dictionaries(
                        {"dark_prob_per_ns": _floats(1e-5, 1e-3)}
                    ),
                    "bob_detector": st.fixed_dictionaries(
                        {"dark_prob_per_ns": _floats(1e-5, 1e-3)}
                    ),
                    "gate_width_ns": _floats(1e10, 1e300),
                }
            )
        }
    ),
)


@st.composite
def config_documents(draw):
    """(document, past_cap): either a valid document past the event cap, or a
    bounded document, then at most one wrong value or unknown key."""
    if draw(st.integers(0, 3)) == 0:
        doc = draw(st.fixed_dictionaries({}, optional=SIM_FIELDS))
        doc.update(draw(PAST_CAP[draw(st.integers(0, 1))]))
        return json.loads(json.dumps(doc)), True
    doc = draw(st.fixed_dictionaries({}, optional=SIM_FIELDS))
    if draw(st.booleans()):
        chain = draw(st.fixed_dictionaries({}, optional=CHAIN_FIELDS))
        for name, fields in CHAIN_SECTIONS.items():
            if draw(st.booleans()):
                chain[name] = draw(st.fixed_dictionaries({}, optional=fields))
        doc["chain"] = chain
    mutation = draw(st.sampled_from(["none", "value", "unknown"]))
    if mutation != "none":
        section = draw(st.sampled_from(list(_sections(doc))))
        if mutation == "unknown" or not section:
            section["bogus"] = 1.0
        else:
            section[draw(st.sampled_from(sorted(section)))] = draw(GARBAGE)
    return json.loads(json.dumps(doc)), False


@settings(max_examples=135, deadline=None, derandomize=True, database=None)
@given(config_documents())
def test_any_document_is_rejected_or_runs(drawn):
    doc, past_cap = drawn
    if past_cap:  # refused at load, so it never reaches simulate
        with pytest.raises(InvalidConfigError, match="MAX_EXPECTED_EVENTS"):
            pc.sim_config_from_dict(doc)
        return
    try:
        cfg = pc.sim_config_from_dict(doc)
    except InvalidConfigError:
        return
    an.build_histogram(simulate(cfg), chain=cfg.chain)

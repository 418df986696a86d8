"""Tests for JSON config loading and the shipped presets."""

import json

import pytest

from photonlink import chain as ch
from photonlink import config as pc
from photonlink.events import InvalidConfigError, SimConfig
from photonlink.presets import PRESETS, preset_config, preset_names


def test_empty_document_gives_all_defaults():
    cfg = pc.sim_config_from_dict({})
    assert cfg == SimConfig(chain=ch.ChainConfig())


def test_round_trip_through_dict():
    for name in preset_names():
        cfg = preset_config(name)
        again = pc.sim_config_from_dict(pc.sim_config_to_dict(cfg))
        assert again == cfg


def test_round_trip_through_file(tmp_path):
    cfg = preset_config("fig3-transfer")
    path = tmp_path / "cfg.json"
    pc.dump_config(cfg, path)
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
    assert cfg.chain.alice_detector.role == "gated"
    assert cfg.chain.bob_detector.role == "free_running"
    assert cfg.chain.source.pair_rate_per_s == 2000.0


def test_transfer_preset_operating_point():
    cfg = preset_config("fig3-transfer")
    assert cfg.visibility == 0.962
    assert cfg.chain.sfg is not None
    assert cfg.chain.transfer_probability() == pytest.approx(0.0486, abs=1e-4)
    assert cfg.chain.source.alice_filter_bandwidth_nm == 1.5
    assert cfg.chain.bob_detector.quantum_efficiency == 0.60

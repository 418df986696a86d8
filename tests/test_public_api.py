"""The public name lists stay honest: every exported name exists."""

import importlib

import pytest

# Deleted from photonlink.events: long acquisitions add histograms instead.
SHARD_API = ("ConfigMismatchError", "config_hash", "merge", "read_events", "write_events")
# Deleted wrappers: config documents resolve through config.sim_config_from_dict
# alone, records become dicts through dataclasses.asdict, and a histogram is
# counted over its peak windows by analysis.tally_windows alone.
RETIRED = (
    "chain_from_dict", "fit_to_dict", "sim_config_to_dict", "count_window", "estimate_accidentals"
)


@pytest.mark.parametrize("name", ["quantum", "chain", "config", "events", "analysis", "presets"])
def test_all_lists_only_existing_names(name):
    module = importlib.import_module(f"photonlink.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert [n for n in SHARD_API + RETIRED if n in module.__all__ or hasattr(module, n)] == []

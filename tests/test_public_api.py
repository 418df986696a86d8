"""The public name lists stay honest: every exported name exists."""

import importlib

import pytest

# Deleted from photonlink.events: long acquisitions add histograms instead.
SHARD_API = ("ConfigMismatchError", "config_hash", "merge", "read_events", "write_events")


@pytest.mark.parametrize("name", ["quantum", "chain", "config", "events", "analysis", "presets"])
def test_all_lists_only_existing_names(name):
    module = importlib.import_module(f"photonlink.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert [n for n in SHARD_API if n in module.__all__ or hasattr(module, n)] == []

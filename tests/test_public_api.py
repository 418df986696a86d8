"""The public name lists stay honest, and the product path leaves the transfer algebra unloaded."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import photonlink

# Deleted from photonlink.events: long acquisitions add histograms instead.
SHARD_API = ("ConfigMismatchError", "config_hash", "merge", "read_events", "write_events")
# Deleted wrappers: config documents resolve through config.sim_config_from_dict
# alone, records become dicts through dataclasses.asdict, and a histogram is
# counted over its peak windows by analysis.tally_windows alone.  The
# two-photon helpers had no reader in the product; tests/test_chain.py
# checks chain.OUTCOME_CLASSES against the port amplitudes instead.
RETIRED = (
    "chain_from_dict", "fit_to_dict", "sim_config_to_dict", "count_window", "estimate_accidentals",
    "TimeBinPairState", "post_selected_timebin_state", "coincidence_probability", "visibility",
    "DegenerateError",
)


@pytest.mark.parametrize("name", ["quantum", "chain", "config", "events", "analysis", "presets"])
def test_all_lists_only_existing_names(name):
    module = importlib.import_module(f"photonlink.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert [n for n in SHARD_API + RETIRED if n in module.__all__ or hasattr(module, n)] == []


def test_the_product_does_not_import_the_transfer_algebra():
    # The sampler and the budget read the outcome model from chain; quantum.py
    # holds only the 1310 -> 710 nm transfer algebra, read by its own tests.
    script = textwrap.dedent(
        """
        import dataclasses
        import sys
        import photonlink.cli
        from photonlink import events, presets
        config = dataclasses.replace(presets.preset_config("fig3-transfer"), duration_s=0.01)
        events.simulate(config)
        assert "photonlink.quantum" not in sys.modules, "photonlink.quantum was imported"
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(photonlink.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert not hasattr(importlib.import_module("photonlink.quantum"), "OUTCOME_CLASSES")

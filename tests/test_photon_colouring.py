"""simulate's cell-by-cell photon sampler against the per-pair reference.

``events._photon_times`` draws one Poisson count per outcome cell (class,
path bit, clicking sides) and times only for clicks (colouring);
``reference_sampler.reference_photon_times`` draws every pair and thins it.
The two must agree in distribution over a seed ensemble, on the thresholds
of ``test_dark_restriction``, fixed before the first run.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from photonlink import analysis as an
from photonlink import events as ev
from photonlink.config import SimConfig, sim_config_from_dict
from photonlink.presets import preset_config
from reference_sampler import reference_photon_times
from test_dark_restriction import P_MIN, Z_MAX, z_of_means
from test_events import DENSE_DOCUMENT, phases

SEEDS = range(200)
FIG3 = preset_config("fig3-transfer")
DENSE = sim_config_from_dict(DENSE_DOCUMENT)
CONFIGS = {
    # Both sides thinned, Bob's by the transfer stage too, off the fringe extrema.
    "fig3-phase-1.3": dataclasses.replace(FIG3, chain=phases(FIG3.chain, 1.3), duration_s=5.0),
    # Lossless: every reached side clicks, so the one-side cells of the
    # two-sided classes are empty.
    "lossless-v0.9": dataclasses.replace(
        DENSE, chain=phases(DENSE.chain, 0.7), visibility=0.9, phase_averaged=False, duration_s=0.01
    ),
    "dense-averaged": dataclasses.replace(DENSE, duration_s=0.01),
}


def photon_stream(config: SimConfig, photon_times) -> ev.EventStream:
    """The photon clicks of one run, sorted and cut to the run as simulate does."""
    clicks = photon_times(config, np.random.default_rng(config.seed))
    duration_ns = config.duration_s * 1e9
    groups = {(name, "photon"): ev._inside(t, duration_ns) for name, t in zip(ev.DETECTORS, clicks)}
    return ev.EventStream(groups, duration_ns=duration_ns)


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def ensemble(request):
    """Per-seed photon counts and histograms of both samplers on one config."""
    base = CONFIGS[request.param]
    records = {}
    samplers = {"colouring": ev._photon_times, "reference": reference_photon_times}
    for key, photon_times in samplers.items():
        counts, hists = [], []
        for seed in SEEDS:
            stream = photon_stream(dataclasses.replace(base, seed=seed), photon_times)
            counts.append([stream.n_clicks(name) for name in ev.DETECTORS])
            hists.append(an.build_histogram(stream, chain=base.chain).counts)
        records[key] = (np.array(counts), np.array(hists))
    return records


def test_photon_counts_per_detector_match_reference(ensemble):
    mine, ref = ensemble["colouring"][0], ensemble["reference"][0]
    assert ref.sum(axis=0).min() > 20_000
    for side in range(len(ev.DETECTORS)):
        assert abs(z_of_means(mine[:, side], ref[:, side])) <= Z_MAX, ev.DETECTORS[side]


def test_first_stop_histograms_match_reference(ensemble):
    mine, ref = ensemble["colouring"][1], ensemble["reference"][1]
    # Pooled over seeds in 0.5 ns bins: same shape (chi-square homogeneity).
    table = np.stack([mine.sum(axis=0), ref.sum(axis=0)]).reshape(2, -1, 10).sum(axis=2)
    table = table[:, table.sum(axis=0) > 0]
    assert table.sum() > 2_000
    _, p, _, _ = stats.chi2_contingency(table)
    assert p >= P_MIN, table

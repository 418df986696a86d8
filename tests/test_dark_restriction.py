"""simulate's restricted start-detector darks against the reference sampler.

``events.simulate`` draws the start detector's free-running darks only where
they can pair (marking and restriction of a Poisson process) and counts the
rest; ``reference_sampler.reference_simulate`` draws every one.  Here the
reference runs on simulate's photon sampler, so at one seed their photon
groups and the start detector's dark count agree exactly; everything else must agree in
distribution over a seed ensemble.  The thresholds were fixed before the
first run: chi-square and Kolmogorov-Smirnov p >= 1e-3, and |z| <= 4 for
differences of ensemble sums or means.
"""

import functools
import math

import numpy as np
import pytest
from scipy import stats

from photonlink import analysis as an
from photonlink import chain as ch
from photonlink import events as ev
from photonlink.config import SimConfig
from reference_sampler import reference_simulate

P_MIN = 1e-3
Z_MAX = 4.0
SEEDS = range(200)
BOB = ch.DetectorParams(quantum_efficiency=0.5, dark_prob_per_ns=1e-3)
CHAINS = {
    # ~100 Bob darks per run open a gate that holds an Alice dark and are
    # drawn as parents, within half a gate (1.25 ns) of it.
    "gated-stop": ch.ChainConfig(
        source=ch.SourceParams(pair_rate_per_s=50_000.0),
        alice_detector=ch.DetectorParams(quantum_efficiency=0.5, dark_prob_per_ns=2e-3),
        bob_detector=BOB,
        gate_width_ns=2.5,
    ),
    # The presets' 8 ns gates reach past the histogram range: ~30 parents
    # per run, some farther than half-range plus one bin from every stop.
    "wide-gate": ch.ChainConfig(
        source=ch.SourceParams(pair_rate_per_s=50_000.0),
        alice_detector=ch.DetectorParams(quantum_efficiency=0.5, dark_prob_per_ns=2e-4),
        bob_detector=BOB,
        gate_width_ns=8.0,
    ),
}
DURATION_S = 0.02


def reach(chain: ch.ChainConfig) -> float:
    return chain.histogram_half_range_ns + chain.histogram_bin_ns


def distance_to_nearest(times: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Signed distance from each time to its nearest stop (stops ascending, not empty)."""
    i = np.clip(np.searchsorted(stops, times), 1, stops.size - 1)
    left, right = times - stops[i - 1], times - stops[i]
    return np.where(np.abs(left) <= np.abs(right), left, right)


@pytest.fixture(scope="module", params=sorted(CHAINS))
def ensemble(request):
    """Per-seed summaries of both samplers on one chain."""
    chain = CHAINS[request.param]
    records = {"name": request.param, "restricted": [], "reference": []}
    reference = functools.partial(reference_simulate, photon_times=ev._photon_times)
    for seed in SEEDS:
        cfg = SimConfig(chain=chain, duration_s=DURATION_S, seed=seed)
        for key, sampler in (("restricted", ev.simulate), ("reference", reference)):
            stream = sampler(cfg)
            stops = stream.detector_times("alice")
            darks = stream.detector_times("bob", "dark")
            near = np.abs(distance_to_nearest(darks, stops)) <= reach(chain)
            # The run's ends stand in for gated darks cut from the stream.
            gated = np.concatenate(([0.0], stream.groups["alice", "dark"], [stream.duration_ns]))
            records[key].append(
                {
                    "photons": [stream.groups[name, "photon"] for name in ev.DETECTORS],
                    "complete_for": stream.complete_for,
                    "counts": an.build_histogram(stream, chain=chain).counts,
                    "start_darks": stream.n_clicks("bob", "dark"),
                    "stop_darks": stream.n_clicks("alice", "dark"),
                    "near": distance_to_nearest(darks[near], stops),
                    "far_to_gated": np.abs(distance_to_nearest(darks[~near], gated)),
                }
            )
    return records


def z_of_means(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    se = math.hypot(a.std(ddof=1) / math.sqrt(a.size), b.std(ddof=1) / math.sqrt(b.size))
    return (a.mean() - b.mean()) / se


def test_photons_and_start_dark_count_match_reference_seed_by_seed(ensemble):
    for mine, ref in zip(ensemble["restricted"], ensemble["reference"]):
        for photons, ref_photons in zip(mine["photons"], ref["photons"]):
            np.testing.assert_array_equal(photons, ref_photons)
        assert mine["start_darks"] == ref["start_darks"]
        assert mine["complete_for"] == 3.0
        assert ref["complete_for"] is None
        # Only parents lie out of reach of every stop, each within half a
        # gate of the Alice dark its gate holds.
        half_gate = CHAINS[ensemble["name"]].gate_width_ns / 2.0
        assert np.all(mine["far_to_gated"] <= half_gate + 1e-9)


def test_histograms_match_reference_in_distribution(ensemble):
    mine = np.array([r["counts"] for r in ensemble["restricted"]])
    ref = np.array([r["counts"] for r in ensemble["reference"]])
    # Pooled over seeds in 0.5 ns bins: same shape (chi-square homogeneity) ...
    table = np.stack([mine.sum(axis=0), ref.sum(axis=0)]).reshape(2, -1, 10).sum(axis=2)
    table = table[:, table.sum(axis=0) > 0]
    assert table.sum() > 20_000
    _, p, _, _ = stats.chi2_contingency(table)
    assert p >= P_MIN, table
    # ... and the same per-seed total.
    assert abs(z_of_means(mine.sum(axis=1), ref.sum(axis=1))) <= Z_MAX


def test_stop_dark_counts_match_reference_in_distribution(ensemble):
    mine = [r["stop_darks"] for r in ensemble["restricted"]]
    ref = [r["stop_darks"] for r in ensemble["reference"]]
    assert sum(ref) > 1000
    assert abs(z_of_means(mine, ref)) <= Z_MAX


def test_start_darks_near_stops_match_reference(ensemble):
    mine = np.concatenate([r["near"] for r in ensemble["restricted"]])
    ref = np.concatenate([r["near"] for r in ensemble["reference"]])
    # How many fall within reach of a stop: Poisson-like sums over the seeds.
    assert ref.size > 2000
    assert abs(mine.size - ref.size) <= Z_MAX * math.sqrt(mine.size + ref.size)
    # Where they fall relative to their nearest stop.
    assert stats.ks_2samp(mine, ref).pvalue >= P_MIN


def test_near_stop_times_fill_the_merged_windows_uniformly():
    # Stops at 1 and 3 give one window cut at 0; 99.5 one cut at the end.
    stops = np.array([1.0, 3.0, 50.0, 99.5])
    windows = np.array([[0.0, 4.5], [48.5, 51.5], [98.0, 100.0]])
    length = windows[:, 1] - windows[:, 0]
    n = 200_000
    times = ev._near_stop_times(np.random.default_rng(17), stops, n, 1.5, 100.0)
    p_in = length.sum() / 100.0
    assert abs(times.size - n * p_in) <= Z_MAX * math.sqrt(n * p_in * (1.0 - p_in))
    which = np.searchsorted(windows[:, 0], times, side="right") - 1
    assert np.all((times >= windows[which, 0]) & (times <= windows[which, 1]))
    # Uniform over the union: map each time onto [0, L) and compare with U(0, 1).
    before = np.concatenate(([0.0], np.cumsum(length)[:-1]))
    position = (times - windows[which, 0] + before[which]) / length.sum()
    assert stats.kstest(position, "uniform").pvalue >= P_MIN


def test_near_stop_times_without_stops_draw_nothing():
    rng = np.random.default_rng(5)
    assert ev._near_stop_times(rng, np.empty(0), 1000, 3.05, 1e6).size == 0
    assert rng.random() == np.random.default_rng(5).random()

"""Tests for the Monte Carlo click-stream simulator.

Statistical assertions run on fixed seeds with wide (>= 3 sigma) windows,
so they are deterministic once verified.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from photonlink import analysis as an
from photonlink import chain as ch
from photonlink import events as ev
from photonlink.config import InvalidConfigError, SimConfig, sim_config_from_dict
from photonlink.presets import PRESETS, preset_config
from reference_sampler import (
    concatenated_photon_times,
    gathered_near_stop_times,
    reference_simulate,
)


def ideal_chain(**kw) -> ch.ChainConfig:
    """Lossless, dark-free, jitter-free chain for clean statistics."""
    defaults = dict(
        source=ch.SourceParams(pair_rate_per_s=kw.pop("pair_rate", 50_000.0)),
        alice_interferometer=ch.InterferometerParams(transmission=1.0),
        bob_interferometer=ch.InterferometerParams(transmission=1.0),
        alice_detector=ch.DetectorParams(quantum_efficiency=1.0, dark_prob_per_ns=0.0),
        bob_detector=ch.DetectorParams(quantum_efficiency=1.0, dark_prob_per_ns=0.0),
        jitter_ns=0.0,
    )
    defaults.update(kw)
    return ch.ChainConfig(**defaults)


def phases(chain_cfg: ch.ChainConfig, phi_sum: float) -> ch.ChainConfig:
    import dataclasses

    return dataclasses.replace(
        chain_cfg,
        alice_interferometer=dataclasses.replace(
            chain_cfg.alice_interferometer, phase_rad=phi_sum
        ),
    )


def count_near(sorted_times: np.ndarray, targets: np.ndarray, tol: float = 1e-6) -> int:
    """How many targets have a partner in sorted_times within +-tol."""
    lo = np.searchsorted(sorted_times, targets - tol)
    hi = np.searchsorted(sorted_times, targets + tol)
    return int(np.sum(hi > lo))


# ---------------------------------------------------------------------------
# determinism and stream integrity
# ---------------------------------------------------------------------------


def test_simulate_is_deterministic():
    cfg = SimConfig(chain=ch.ChainConfig(), duration_s=0.5, seed=42)
    a = ev.simulate(cfg)
    b = ev.simulate(cfg)
    assert a == b
    assert len(a) > 0


def test_different_seeds_differ():
    cfg1 = SimConfig(chain=ideal_chain(), duration_s=0.1, seed=1)
    cfg2 = SimConfig(chain=ideal_chain(), duration_s=0.1, seed=2)
    assert ev.simulate(cfg1) != ev.simulate(cfg2)


def test_stream_is_sorted_and_bounded():
    # The fig2 chain gives every group clicks in 0.3 s (Alice darks: 2).
    cfg = SimConfig(chain=preset_config("fig2-baseline").chain, duration_s=0.3, seed=7)
    stream = ev.simulate(cfg)
    assert set(stream.groups) == set(ev.GROUPS)
    for key, times in stream.groups.items():
        assert times.size, key
        assert np.all(np.diff(times) >= 0.0), key
        assert times[0] >= 0.0, key
        assert times[-1] < cfg.duration_s * 1e9, key


def test_empty_stream_is_allowed():
    cfg = SimConfig(
        chain=ideal_chain(pair_rate=0.0),
        duration_s=0.01,
        seed=3,
    )
    stream = ev.simulate(cfg)
    assert len(stream) == 0


def test_photon_events_independent_of_dark_rates():
    # Dark draws happen strictly after photon draws, so cranking dark rates
    # up or down must leave the photon record untouched bit for bit.
    import dataclasses

    quiet = ch.ChainConfig()
    noisy = dataclasses.replace(
        quiet,
        alice_detector=dataclasses.replace(quiet.alice_detector, dark_prob_per_ns=5e-5),
        bob_detector=dataclasses.replace(quiet.bob_detector, dark_prob_per_ns=9e-5),
    )
    s_quiet = ev.simulate(SimConfig(chain=quiet, duration_s=0.2, seed=11))
    s_noisy = ev.simulate(SimConfig(chain=noisy, duration_s=0.2, seed=11))
    for name in ("alice", "bob"):
        np.testing.assert_array_equal(
            s_quiet.detector_times(name, "photon"),
            s_noisy.detector_times(name, "photon"),
        )
    # Drawn start darks are only those near a stop; count the undrawn rest too.
    assert s_noisy.n_clicks("bob", "dark") > s_quiet.n_clicks("bob", "dark")


# ---------------------------------------------------------------------------
# joint outcome statistics
# ---------------------------------------------------------------------------


def test_central_peak_fraction_at_zero_phase():
    # V = 1, phi = 0: a quarter of all pairs coincide in the central class.
    cfg = SimConfig(chain=ideal_chain(), visibility=1.0, duration_s=2.0, seed=101)
    stream = ev.simulate(cfg)
    alice = stream.detector_times("alice")
    bob = stream.detector_times("bob")
    n_pairs_est = cfg.chain.source.pair_rate_per_s * cfg.duration_s
    central = count_near(alice, bob)
    assert central == pytest.approx(0.25 * n_pairs_est, rel=0.02)


def test_central_peak_suppressed_at_pi():
    cfg = SimConfig(
        chain=phases(ideal_chain(), math.pi), visibility=1.0, duration_s=1.0, seed=102
    )
    stream = ev.simulate(cfg)
    alice = stream.detector_times("alice")
    bob = stream.detector_times("bob")
    central = count_near(alice, bob)
    n_pairs_est = cfg.chain.source.pair_rate_per_s * cfg.duration_s
    # Fully destructive: only numerically accidental matches remain.
    assert central < 0.001 * n_pairs_est


def test_side_peaks_sit_at_the_imbalance_delay():
    cfg = SimConfig(chain=ideal_chain(), visibility=1.0, duration_s=2.0, seed=103)
    stream = ev.simulate(cfg)
    alice = stream.detector_times("alice")
    bob = stream.detector_times("bob")
    delta = cfg.chain.bob_interferometer.delay_ns()
    assert delta == pytest.approx(0.66713, abs=1e-4)
    n_pairs_est = cfg.chain.source.pair_rate_per_s * cfg.duration_s
    early = count_near(alice, bob - delta)  # Alice clicked before Bob
    late = count_near(alice, bob + delta)
    assert early == pytest.approx(n_pairs_est / 16.0, rel=0.05)
    assert late == pytest.approx(n_pairs_est / 16.0, rel=0.05)
    # nothing between the peaks
    assert count_near(alice, bob - 0.5 * delta) < 0.001 * n_pairs_est


def test_singles_carry_no_phase_information():
    # The one-sided marginals are exactly 1/2 for any phase: the click counts
    # at phases 0 and pi differ only by Poisson noise.
    cfg0 = SimConfig(chain=phases(ideal_chain(), 0.0), visibility=1.0, duration_s=1.0, seed=104)
    cfg_pi = SimConfig(
        chain=phases(ideal_chain(), math.pi), visibility=1.0, duration_s=1.0, seed=104
    )
    s0 = ev.simulate(cfg0)
    s_pi = ev.simulate(cfg_pi)
    n_a0 = s0.detector_times("alice").size
    n_api = s_pi.detector_times("alice").size
    assert abs(n_a0 - n_api) < 5.0 * math.sqrt(n_a0)
    n_b0 = s0.detector_times("bob").size
    n_bpi = s_pi.detector_times("bob").size
    assert abs(n_b0 - n_bpi) < 5.0 * math.sqrt(n_b0)
    n_pairs_est = cfg0.chain.source.pair_rate_per_s * cfg0.duration_s
    assert n_a0 == pytest.approx(0.5 * n_pairs_est, rel=0.02)
    assert n_b0 == pytest.approx(0.5 * n_pairs_est, rel=0.02)


def test_phase_averaged_one_two_one_law():
    # Uniform per-pair phases wash out the fringe: the central class holds
    # 1/8 of pairs, twice each side class.
    cfg = SimConfig(
        chain=ideal_chain(pair_rate=100_000.0),
        visibility=1.0,
        duration_s=2.0,
        seed=105,
        phase_averaged=True,
    )
    stream = ev.simulate(cfg)
    alice = stream.detector_times("alice")
    bob = stream.detector_times("bob")
    delta = cfg.chain.bob_interferometer.delay_ns()
    central = count_near(alice, bob)
    early = count_near(alice, bob - delta)
    late = count_near(alice, bob + delta)
    assert central >= 10_000
    assert central / early == pytest.approx(2.0, rel=0.05)
    assert central / late == pytest.approx(2.0, rel=0.05)


def test_event_stream_validates_each_group():
    ok = {("alice", "photon"): [1.0, 2.0]}
    assert len(ev.EventStream(ok, duration_ns=10.0)) == 2
    bad = (
        {("alice", "photon"): [2.0, 1.0]},  # not ascending
        {("bob", "dark"): [-1.0, 2.0]},  # before the run
        {("bob", "photon"): [1.0, 10.0]},  # at the end of the run
        {("alice", "photon"): [[1.0, 2.0]]},  # not 1-d
        {("carol", "photon"): [1.0]},  # unknown detector
    )
    for groups in bad:
        with pytest.raises(ValueError):
            ev.EventStream(groups, duration_ns=10.0)


def test_event_stream_refuses_nan_inside_a_group():
    # NaN compares false both ways, so an "any descent" check let it pass.
    with pytest.raises(ValueError, match=re.escape("group ('bob', 'dark')")):
        ev.EventStream({("bob", "dark"): [1.0, math.nan, 2.0]}, duration_ns=10.0)


def test_event_stream_counts_undrawn_clicks():
    groups = {("bob", "dark"): [1.0, 2.0], ("alice", "photon"): [3.0]}
    stream = ev.EventStream(
        groups, duration_ns=10.0, undrawn={("bob", "dark"): 40}, complete_for=("bob", "alice", 3.0)
    )
    assert len(stream) == 3  # drawn clicks only
    assert stream.n_clicks("bob", "dark") == 42
    assert stream.n_clicks("bob") == 42
    assert stream.n_clicks("alice") == 1
    assert stream != ev.EventStream(groups, duration_ns=10.0)  # same clicks, fewer singles
    for undrawn in ({("bob", "dark"): -1}, {("bob", "dark"): 1.5}, {("carol", "dark"): 1}):
        with pytest.raises(ValueError):
            ev.EventStream(groups, duration_ns=10.0, undrawn=undrawn)


def test_detector_times_merges_the_two_origins():
    photons = np.array([1.0, 4.0, 4.0])
    stream = ev.EventStream(
        {("bob", "photon"): photons, ("bob", "dark"): [0.5, 4.0, 9.0], ("alice", "dark"): [3.0]},
        duration_ns=10.0,
    )
    np.testing.assert_array_equal(stream.detector_times("bob"), [0.5, 1.0, 4.0, 4.0, 4.0, 9.0])
    np.testing.assert_array_equal(stream.detector_times("bob", "photon"), photons)
    assert stream.detector_times("alice").tolist() == [3.0]
    assert stream.detector_times("alice", "photon").size == 0
    # One empty origin: the other group itself, shared and read-only.
    alice = stream.detector_times("alice")
    assert np.shares_memory(alice, stream.detector_times("alice", "dark"))
    assert not alice.flags.writeable
    assert photons.flags.writeable  # the caller's array is left as it was
    # One code per click in group order: Alice/Bob photons, Alice/Bob darks.
    assert stream.origins.tolist() == [0, 0, 0, 1, 1, 1, 1]
    assert len(stream) == 7


def test_visibility_scales_the_fringe_not_the_sides():
    import dataclasses

    base = ideal_chain(pair_rate=100_000.0)
    n_pairs_est = 100_000.0
    for v in (0.0, 0.5):
        cfg = SimConfig(chain=base, visibility=v, duration_s=1.0, seed=106)
        stream = ev.simulate(cfg)
        alice = stream.detector_times("alice")
        bob = stream.detector_times("bob")
        delta = base.bob_interferometer.delay_ns()
        central = count_near(alice, bob)
        early = count_near(alice, bob - delta)
        assert central == pytest.approx(0.125 * (1 + v) * n_pairs_est, rel=0.05)
        assert early == pytest.approx(n_pairs_est / 16.0, rel=0.08)
    with pytest.raises(InvalidConfigError):
        SimConfig(chain=base, visibility=1.5)
    del dataclasses


# ---------------------------------------------------------------------------
# thinning
# ---------------------------------------------------------------------------


def test_transfer_stage_thins_bob_only():
    # With and without the transfer stage: Bob's photon clicks thin by the
    # transfer probability, Alice's keep their rate.  The two runs draw
    # independently, so each difference carries both runs' Poisson noise.
    base_chain = ideal_chain(pair_rate=100_000.0)
    import dataclasses

    sfg_chain = dataclasses.replace(base_chain, sfg=ch.SfgParams())
    p = ch.sfg_transfer_probability(ch.SfgParams())
    base = ev.simulate(SimConfig(chain=base_chain, duration_s=1.0, seed=107))
    thinned = ev.simulate(SimConfig(chain=sfg_chain, duration_s=1.0, seed=107))
    n_alice = [s.detector_times("alice", "photon").size for s in (base, thinned)]
    assert abs(n_alice[0] - n_alice[1]) < 4.0 * math.sqrt(sum(n_alice))
    n_base = base.detector_times("bob", "photon").size
    n_thin = thinned.detector_times("bob", "photon").size
    assert abs(n_thin - n_base * p) < 4.0 * math.sqrt(n_thin + p * p * n_base)


def test_zero_transfer_probability_empties_bob(monkeypatch):
    chain_cfg = ideal_chain()
    monkeypatch.setattr(ch.ChainConfig, "transfer_probability", lambda self: 0.0)
    stream = ev.simulate(SimConfig(chain=chain_cfg, duration_s=0.1, seed=108))
    assert stream.detector_times("bob", "photon").size == 0
    assert stream.detector_times("alice", "photon").size > 0


# ---------------------------------------------------------------------------
# dark counts
# ---------------------------------------------------------------------------


def test_free_running_dark_rate():
    cfg = SimConfig(
        chain=ch.ChainConfig(source=ch.SourceParams(pair_rate_per_s=0.0)),
        duration_s=0.2,
        seed=109,
    )
    stream = ev.simulate(cfg)
    lam = 3.0e-5 * 0.2e9  # bob, free running
    n_bob = stream.n_clicks("bob", "dark")  # drawn plus counted
    assert abs(n_bob - lam) < 4.0 * math.sqrt(lam)
    assert stream.detector_times("bob", "photon").size == 0


def test_gated_darks_stay_inside_gates():
    import dataclasses

    chain_cfg = ch.ChainConfig(source=ch.SourceParams(pair_rate_per_s=0.0))
    chain_cfg = dataclasses.replace(
        chain_cfg,
        alice_detector=dataclasses.replace(
            chain_cfg.alice_detector, dark_prob_per_ns=1e-2, gate_width_ns=4.0
        ),
    )
    stream = ev.simulate(SimConfig(chain=chain_cfg, duration_s=0.1, seed=110))
    alice_darks = stream.detector_times("alice", "dark")
    bob_clicks = np.sort(stream.detector_times("bob"))
    assert alice_darks.size > 50
    # every gated dark lies within half a gate width of some trigger
    idx = np.clip(np.searchsorted(bob_clicks, alice_darks), 1, bob_clicks.size - 1)
    nearest = np.minimum(
        np.abs(alice_darks - bob_clicks[idx - 1]), np.abs(alice_darks - bob_clicks[idx])
    )
    assert np.max(nearest) <= 2.0 + 1e-9


def test_gated_detector_without_triggers_stays_silent():
    import dataclasses

    chain_cfg = ch.ChainConfig(source=ch.SourceParams(pair_rate_per_s=0.0))
    chain_cfg = dataclasses.replace(
        chain_cfg,
        bob_detector=dataclasses.replace(chain_cfg.bob_detector, dark_prob_per_ns=0.0),
        alice_detector=dataclasses.replace(chain_cfg.alice_detector, dark_prob_per_ns=1e-3),
    )
    stream = ev.simulate(SimConfig(chain=chain_cfg, duration_s=0.05, seed=111))
    assert len(stream) == 0



# ---------------------------------------------------------------------------
# golden counts and memory
# ---------------------------------------------------------------------------


def _preset_one_second(name: str, seed: int) -> dict:
    doc = json.loads(json.dumps(PRESETS[name]))
    doc.update(duration_s=1.0, seed=seed)
    return doc


LOSSLESS = {"alice_interferometer": {"transmission": 1.0}, "bob_interferometer": {"transmission": 1.0}}
DENSE_DOCUMENT = {  # the criterion-09 source: phase-averaged, lossless, dark-free
    "visibility": 1.0,
    "duration_s": 0.25,
    "seed": 271828,
    "phase_averaged": True,
    "chain": {
        "source": {"pair_rate_per_s": 200_000.0},
        **LOSSLESS,
        "alice_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 0.0},
        "bob_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 0.0},
        "jitter_ns": 0.1,
    },
}
GOLDEN_DOCUMENTS = {
    "fig2-baseline": _preset_one_second("fig2-baseline", 3),
    "fig3-transfer": _preset_one_second("fig3-transfer", 5),
    "dense": DENSE_DOCUMENT,
    "gated-bob": {  # Bob gated by Alice's photons and free-running darks
        "visibility": 0.95,
        "duration_s": 0.5,
        "seed": 404,
        "chain": {
            "source": {"pair_rate_per_s": 20_000.0},
            **LOSSLESS,
            "alice_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 1e-5},
            "bob_detector": {
                "quantum_efficiency": 1.0,
                "dark_prob_per_ns": 5e-3,
                "role": "gated",
                "gate_width_ns": 4.0,
            },
            "jitter_ns": 0.1,
        },
    },
    "jitter-free-ties": {  # central-class photons tie exactly across detectors
        "visibility": 0.97,
        "duration_s": 0.05,
        "seed": 113,
        "chain": {
            "source": {"pair_rate_per_s": 50_000.0},
            **LOSSLESS,
            "alice_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 1e-3},
            "bob_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 1e-3},
            "jitter_ns": 0.0,
        },
    },
}
# Recorded with the sampler of commit 7ec642c, before simulate folded each
# draw into running buffers; it pins the reference sampler, which draws every
# dark.  Integer counts, unlike raw float bytes, do not move with last-ulp
# differences of np.cos between machines.
GOLDEN = json.loads(Path(__file__).with_name("golden_counts.json").read_text())
# The same documents under simulate, which draws the start detector's
# free-running darks only where they can pair; "undrawn" holds the counted rest.
GOLDEN_RESTRICTED = json.loads(
    Path(__file__).with_name("golden_counts_restricted.json").read_text()
)


def golden_record(stream: ev.EventStream, chain: ch.ChainConfig) -> dict:
    """Drawn and undrawn clicks per group and the chain's histogram of a stream."""
    keys = [(det, origin) for det in ev.DETECTORS for origin in ev.ORIGINS]
    half = chain.histogram_half_range_ns
    hist = an.build_histogram(
        stream,
        start_detector=chain.start_detector,
        stop_detector=chain.stop_detector,
        bin_width_ns=chain.histogram_bin_ns,
        range_ns=(-half, half),
    )
    return {
        "clicks": {f"{d}/{o}": int(stream.detector_times(d, o).size) for d, o in keys},
        "undrawn": {f"{d}/{o}": stream.undrawn[d, o] for d, o in keys},
        "counts": hist.counts.tolist(),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCUMENTS))
def test_golden_counts(name):
    cfg = sim_config_from_dict(GOLDEN_DOCUMENTS[name])
    record = golden_record(reference_simulate(cfg), cfg.chain)
    assert record["clicks"] == GOLDEN[name]["clicks"]
    assert record["counts"] == GOLDEN[name]["counts"]


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCUMENTS))
def test_golden_counts_restricted(name):
    cfg = sim_config_from_dict(GOLDEN_DOCUMENTS[name])
    assert golden_record(ev.simulate(cfg), cfg.chain) == GOLDEN_RESTRICTED[name]


@pytest.mark.parametrize("name", ["dense", "gated-bob"])
def test_golden_counts_agree_without_start_darks_to_restrict(name):
    # A dark-free source and a gated start detector leave simulate nothing
    # to restrict: on simulate's photon draws the reference dark section
    # gives the same stream, and no click is undrawn.
    cfg = sim_config_from_dict(GOLDEN_DOCUMENTS[name])
    assert ev.simulate(cfg) == reference_simulate(cfg, photon_times=ev._photon_times)
    assert set(GOLDEN_RESTRICTED[name]["undrawn"].values()) == {0}


# Both samplers run in one process here, so their floats compare exactly.
SAME_DRAWS = {
    **GOLDEN_DOCUMENTS,
    "fig3-minute": {**_preset_one_second("fig3-transfer", 5), "duration_s": 60.0},
}


@pytest.mark.parametrize("name", sorted(SAME_DRAWS))
def test_photon_times_equal_the_concatenating_loop(name):
    # Growing each side in place keeps every draw, its order and its arithmetic.
    cfg = sim_config_from_dict(SAME_DRAWS[name])
    grown = ev._photon_times(cfg, np.random.default_rng(cfg.seed))
    concatenated = concatenated_photon_times(cfg, np.random.default_rng(cfg.seed))
    assert all(np.array_equal(a, b) for a, b in zip(grown, concatenated, strict=True))


@pytest.mark.parametrize("name", sorted(SAME_DRAWS))
def test_simulate_equals_the_concatenating_sampler(name, monkeypatch):
    # The fig3 minute restricts Bob's darks to about 74 k windows.
    cfg = sim_config_from_dict(SAME_DRAWS[name])
    stream = ev.simulate(cfg)
    monkeypatch.setattr(ev, "_photon_times", concatenated_photon_times)
    monkeypatch.setattr(ev, "_near_stop_times", gathered_near_stop_times)
    assert stream == ev.simulate(cfg)


@pytest.mark.parametrize(
    "stops",
    [[50.0], [10.0, 20.0, 30.0], [1.0, 2.0, 99.5], [0.0, 5.9, 6.1, 12.5, 99.99]],
    ids=["one", "apart", "clipped-and-merged", "mixed"],
)
def test_near_stop_times_equal_the_gathered_windows(stops):
    args = (np.array(stops), 10_000, 3.0, 100.0)
    near = ev._near_stop_times(np.random.default_rng(1), *args)
    assert near.size > 0
    assert np.array_equal(near, gathered_near_stop_times(np.random.default_rng(1), *args))


def test_simulate_peak_memory_per_event(traced_peak):
    # A dozen live pair-sized temporaries cost 178 bytes per event on the
    # dense source.  Drawing one outcome cell at a time into each side's one
    # growing array holds each click once, plus one cell's emission times:
    # about 9.  Holding the cells and their concatenation at once cost 17.
    cfg = sim_config_from_dict({**DENSE_DOCUMENT, "duration_s": 1.0})
    stream, peak = traced_peak(ev.simulate, cfg)
    assert len(stream) > 150_000
    assert peak <= 12 * len(stream)


def test_simulate_peak_memory_on_five_dense_seconds(traced_peak):
    # Each click is held once, 8 bytes, plus the largest cell's emission
    # times: about 9 bytes per event, the same as on one second.
    cfg = sim_config_from_dict({**DENSE_DOCUMENT, "duration_s": 5.0})
    stream, peak = traced_peak(ev.simulate, cfg)
    assert len(stream) > 900_000
    assert peak <= 12 * len(stream)


def test_simulate_peak_memory_on_a_long_fig3_point(traced_peak):
    # Nine in ten drawn clicks are Alice's, the stops around which Bob's
    # darks are restricted, and nearly each stop is its own window.  The
    # clicks (8 bytes), the merged stops (7) and a mask plus three float64
    # arrays per window (23) make about 38 bytes per drawn click.  Gathering
    # the windows through break indices cost 59.
    cfg = sim_config_from_dict({**_preset_one_second("fig3-transfer", 5), "duration_s": 120.0})
    stream, peak = traced_peak(ev.simulate, cfg)
    assert len(stream) > 150_000
    assert peak <= 42 * len(stream)

"""Tests for the Monte Carlo click-stream simulator.

Statistical assertions run on fixed seeds with wide (>= 3 sigma) windows,
so they are deterministic once verified.
"""

import cProfile
import dataclasses
import json
import math
import re
import sys
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
    # Only integer and float arrays are times: at True, at "1.0", or with an imaginary part, no click is.
    for times in (np.array([False, True]), np.array(["1.0", "2.5"]), np.array([1.0, 2.5], dtype=complex)):
        with pytest.raises(ValueError, match=re.escape("group ('alice', 'photon') must be a 1-d real")):
            ev.EventStream({("alice", "photon"): times}, duration_ns=10.0)
    for times in ([1, 2], np.array([1, 2], dtype=np.uint16), np.array([1.0, 2.5], dtype=np.float32)):
        assert len(ev.EventStream({("alice", "photon"): times}, duration_ns=10.0)) == 2


def test_event_stream_refuses_nan_inside_a_group():
    # NaN compares false both ways, so an "any descent" check let it pass.
    with pytest.raises(ValueError, match=re.escape("group ('bob', 'dark')")):
        ev.EventStream({("bob", "dark"): [1.0, math.nan, 2.0]}, duration_ns=10.0)


@pytest.mark.parametrize("block", [1, 2, 3, ev.BLOCK])
def test_event_stream_checks_the_order_across_block_edges(block, monkeypatch):
    # A descent or a NaN at any place, block edges included, is refused;
    # equal neighbours are not a descent.
    monkeypatch.setattr(ev, "BLOCK", block)
    ascending = [1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert len(ev.EventStream({("bob", "dark"): ascending}, duration_ns=10.0)) == 7
    for i in range(1, len(ascending) - 1):
        swapped, nan = list(ascending), list(ascending)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        nan[i] = math.nan
        for times in (swapped, nan):
            if times != ascending:
                with pytest.raises(ValueError, match="sorted ascending"):
                    ev.EventStream({("bob", "dark"): times}, duration_ns=10.0)


def test_event_stream_counts_undrawn_clicks():
    groups = {("bob", "dark"): [1.0, 2.0], ("alice", "photon"): [3.0]}
    stream = ev.EventStream(
        groups, duration_ns=10.0, undrawn={("bob", "dark"): 40}, complete_for=3.0
    )
    assert len(stream) == 3  # drawn clicks only
    assert stream.n_clicks("bob", "dark") == 42
    assert stream.n_clicks("bob") == 42
    assert stream.n_clicks("alice") == 1
    assert stream != ev.EventStream(groups, duration_ns=10.0)  # same clicks, fewer singles
    with pytest.raises(ValueError, match="group keys"):
        ev.EventStream(groups, duration_ns=10.0, undrawn={("carol", "dark"): 1})
    # One count rule (chain.check_kind, kind Count): an integer but a bool, >= 0.
    for n in (-1, np.int64(-1), 1.5, np.float64(2.0), True, np.True_, "1", None):
        with pytest.raises(ValueError, match=r"undrawn count of group \('alice', 'dark'\)"):
            ev.EventStream(groups, duration_ns=10.0, undrawn={("alice", "dark"): n})
    for n in (0, 7, np.int64(7), np.uint8(7)):
        stream = ev.EventStream(groups, duration_ns=10.0, undrawn={("alice", "dark"): n})
        assert stream.n_clicks("alice", "dark") == n and type(stream.undrawn["alice", "dark"]) is int
    # A NaN half-range would turn off build_histogram's refusal of wider grids.
    for complete_for in (math.nan, math.inf, 0.0, -1.0, "3", True):
        with pytest.raises(ValueError, match="complete_for"):
            ev.EventStream(groups, duration_ns=10.0, complete_for=complete_for)
    # One number rule (chain.check_kind): any real number but a bool.
    for complete_for in (np.float32(3.0), np.int64(3), np.float64(3.0), 3):
        assert ev.EventStream(groups, duration_ns=10.0, complete_for=complete_for).complete_for == 3
    # An empty stream has no click time to betray a bad duration.
    for duration_ns in (math.nan, math.inf, -5.0, 0.0, True, "10"):
        with pytest.raises(ValueError, match="duration_ns"):
            ev.EventStream({}, duration_ns=duration_ns)


def test_sweep_points_step_bobs_phase_and_spawn_one_child_each():
    cfg = preset_config("fig2-baseline")
    points = ev.sweep_points(cfg, 7)
    first = next(points)  # drawn one at a time: no list of seeds up front
    points = [first, *points]
    children = np.random.SeedSequence(cfg.seed).spawn(7)
    assert [p.seed for p in points] == [int(c.generate_state(1, np.uint64)[0]) for c in children]
    phases = [p.chain.bob_interferometer.phase_rad for p in points]
    assert phases == np.linspace(0.0, 2.0 * math.pi, 7).tolist()
    for p in points:  # nothing else changes
        chain = dataclasses.replace(p.chain, bob_interferometer=cfg.chain.bob_interferometer)
        assert dataclasses.replace(p, chain=chain, seed=cfg.seed) == cfg


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

    chain_cfg = ch.ChainConfig(source=ch.SourceParams(pair_rate_per_s=0.0), gate_width_ns=4.0)
    chain_cfg = dataclasses.replace(
        chain_cfg,
        alice_detector=dataclasses.replace(chain_cfg.alice_detector, dark_prob_per_ns=1e-2),
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


@pytest.mark.parametrize(
    "n_photons, n_hidden, dark_prob",
    [(0, 0, 1e-3), (100, 1_000, 0.0)],
    ids=["no-gates", "no-darks"],
)
def test_gated_dark_times_with_nothing_to_draw_leave_the_generator(n_photons, n_hidden, dark_prob):
    # simulate relies on an empty draw not advancing the generator: the
    # dark draws carry no zero-count early-out.
    alice = dataclasses.replace(ch.ChainConfig().alice_detector, dark_prob_per_ns=dark_prob)
    chain_cfg = ch.ChainConfig(alice_detector=alice)
    rng = np.random.default_rng(112)
    state = rng.bit_generator.state
    bob_photons = np.linspace(0.0, 1e6, n_photons)
    darks, parents = ev._gated_dark_times(rng, bob_photons, n_hidden, chain_cfg, 2e6)
    assert darks.dtype == parents.dtype == np.float64
    assert darks.size == parents.size == 0
    assert rng.bit_generator.state == state



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
# dark.  The jitter-free-ties entries were re-recorded once Alice's detector
# was always gated, as its Alice darks became gated darks.  Integer counts,
# unlike raw float bytes, do not move with last-ulp differences of np.cos
# between machines.
GOLDEN = json.loads(Path(__file__).with_name("golden_counts.json").read_text())
# The same documents under simulate, which draws the start detector's
# free-running darks only where they can pair; "undrawn" holds the counted rest.
GOLDEN_RESTRICTED = json.loads(
    Path(__file__).with_name("golden_counts_restricted.json").read_text()
)


def golden_record(stream: ev.EventStream, chain: ch.ChainConfig) -> dict:
    """Drawn and undrawn clicks per group and the chain's histogram of a stream."""
    keys = [(det, origin) for det in ev.DETECTORS for origin in ev.ORIGINS]
    hist = an.build_histogram(stream, chain=chain)
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


# Bob's darks off, Alice's gated darks on (39 of them): were Bob's
# zero-rate dark count to advance the generator, Alice's darks would shift.
BOB_DARK_FREE_DOCUMENT = json.loads(json.dumps(GOLDEN_DOCUMENTS["jitter-free-ties"]))
BOB_DARK_FREE_DOCUMENT["chain"]["alice_detector"]["dark_prob_per_ns"] = 1e-2
BOB_DARK_FREE_DOCUMENT["chain"]["bob_detector"]["dark_prob_per_ns"] = 0.0
START_DARK_FREE = {"dense": GOLDEN_DOCUMENTS["dense"], "bob-dark-free": BOB_DARK_FREE_DOCUMENT}


@pytest.mark.parametrize("name", sorted(START_DARK_FREE))
def test_golden_counts_agree_without_start_darks_to_restrict(name):
    # A source without start darks leaves simulate nothing to restrict: on
    # simulate's photon draws the reference dark section gives the same
    # stream, and no click is undrawn.
    cfg = sim_config_from_dict(START_DARK_FREE[name])
    stream = ev.simulate(cfg)
    assert stream == reference_simulate(cfg, photon_times=ev._photon_times)
    assert set(stream.undrawn.values()) == {0}
    assert name == "dense" or stream.n_clicks("alice", "dark") >= 10


# Both samplers run in one process here, so their floats compare exactly.
SAME_DRAWS = {
    **GOLDEN_DOCUMENTS,
    "fig3-minute": {**_preset_one_second("fig3-transfer", 5), "duration_s": 60.0},
}


@pytest.mark.parametrize("name", sorted(SAME_DRAWS))
def test_photon_times_equal_the_concatenating_loop(name):
    # Filling each side's one array keeps every draw, its order and its arithmetic.
    cfg = sim_config_from_dict(SAME_DRAWS[name])
    filled = ev._photon_times(cfg, np.random.default_rng(cfg.seed))
    concatenated = concatenated_photon_times(cfg, np.random.default_rng(cfg.seed))
    assert all(np.array_equal(a, b) for a, b in zip(filled, concatenated, strict=True))


@pytest.mark.parametrize("name", ["dense", "fig2-baseline", "fig3-transfer"])
def test_photon_times_survive_every_cell_overflowing(name, monkeypatch):
    # With no slot to spare, every cell that clicks copies its side into a
    # larger array: the clicks and the generator's state stay the same.
    cfg = sim_config_from_dict(GOLDEN_DOCUMENTS[name])
    rng = np.random.default_rng(cfg.seed)
    clicks = ev._photon_times(cfg, rng)
    monkeypatch.setattr(ev, "_capacity", lambda mean: 0)
    copied = np.random.default_rng(cfg.seed)
    overflowed = ev._photon_times(cfg, copied)
    assert all(np.array_equal(a, b) for a, b in zip(overflowed, clicks, strict=True))
    assert copied.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize(
    "document",
    [{**GOLDEN_DOCUMENTS["fig2-baseline"], "duration_s": 2.0}, {**DENSE_DOCUMENT, "duration_s": 1.0}],
    ids=["fig2", "dense"],
)
def test_simulate_runs_under_profilers(document):
    # A profile hook holds one more reference to the frames' arrays; the
    # sampler must not depend on how many references an array has.
    cfg = sim_config_from_dict(document)
    stream = ev.simulate(cfg)
    assert cProfile.Profile().runcall(ev.simulate, cfg) == stream
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        hooked = ev.simulate(cfg)
    finally:
        sys.setprofile(previous)
    assert hooked == stream


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


@pytest.mark.parametrize(
    "document",
    [{**DENSE_DOCUMENT, "duration_s": 1.0}, _preset_one_second("fig3-transfer", 5)],
    ids=["criterion-09", "fig3"],
)
def test_simulate_does_not_depend_on_the_block_size(document, monkeypatch):
    # Blocks of one and of seven items put block edges inside the jitter
    # draws of one-sided and two-sided cells and inside the order check.
    cfg = sim_config_from_dict(document)
    stream = ev.simulate(cfg)
    for block in (1, 7):
        monkeypatch.setattr(ev, "BLOCK", block)
        assert ev.simulate(cfg) == stream, block


def test_simulate_peak_memory_per_event(traced_peak):
    # A dozen live pair-sized temporaries cost 178 bytes per event on the
    # dense source.  Drawing one outcome cell at a time into each side's one
    # array holds each click once, plus the few spare slots of each side and
    # one BLOCK of normals: about 8.6.  Holding one cell's emission times
    # beside them cost 10, and the cells and their concatenation at once 17.
    cfg = sim_config_from_dict({**DENSE_DOCUMENT, "duration_s": 1.0})
    stream, peak = traced_peak(ev.simulate, cfg)
    assert len(stream) > 150_000
    assert peak <= 9 * len(stream)


def test_simulate_peak_memory_on_five_dense_seconds(traced_peak):
    # Each click is held once, 8 bytes, and nothing run-sized beside it:
    # tracemalloc counts each side's whole array from the start, about 8.2
    # bytes per event (10.1 while one cell's emission times sat beside it).
    cfg = sim_config_from_dict({**DENSE_DOCUMENT, "duration_s": 5.0})
    stream, peak = traced_peak(ev.simulate, cfg)
    assert len(stream) > 900_000
    assert peak <= 9 * len(stream)


def test_simulate_peak_memory_on_a_long_fig3_point(traced_peak):
    # Nine in ten drawn clicks are Alice's, the stops around which Bob's
    # darks are restricted, and nearly each stop is its own window.  The
    # clicks (8 bytes), the merged stops (7) and a mask plus three float64
    # arrays per window (23) make about 38 bytes per drawn click.  Gathering
    # the windows through break indices cost 59.  Pairing reads the stops
    # per origin in place and merges at most BLOCK items at a time: about
    # 1.7 bytes per drawn click, half of it Bob's photons and darks merged
    # into one start record and half one merge's fixed-size arrays, where a
    # merged copy of the stops and one block spanning them cost 25.
    cfg = sim_config_from_dict({**_preset_one_second("fig3-transfer", 5), "duration_s": 120.0})
    stream, peak = traced_peak(ev.simulate, cfg)
    assert len(stream) > 150_000
    assert peak <= 42 * len(stream)
    hist, peak = traced_peak(an.build_histogram, stream, chain=cfg.chain)
    assert hist.total > 0
    assert peak <= 2 * len(stream)

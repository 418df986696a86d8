"""Monte Carlo click-stream simulator for the two-analyzer coincidence setup.

Pairs are emitted as a Poisson process.  Each pair is sampled *jointly* from
the quantum outcome distribution of the two analyzers rather than as two
independent classical photons: the phase-dependent interference lives only
in the both-detected central class, the side classes are flat, and the
single-sided marginals stay phase-independent (no single-photon fringes).
Per emitted pair the six outcome classes carry

    central coincidence      1/8 (1 + V cos phi)     shared ss/ll path label
    side, Alice early        1/16                    Alice short, Bob long
    side, Alice late         1/16                    Alice long, Bob short
    Alice-side only          1/8 (2 - V cos phi)     Bob photon unmonitored
    Bob-side only            1/8 (2 - V cos phi)     Alice photon unmonitored
    neither                  1/8 (2 + V cos phi)

which sums to one and reproduces the 1/2 monitored-port marginal on each
side for every phi.  Arm transmission, the transfer-stage success, and
detector quantum efficiency are applied as independent Bernoulli thinning
per photon; dark counts are added per detector, uniformly for free-running
detectors and inside partner-triggered gates for gated ones.

Everything is drawn from one numpy PCG64 generator in a fixed documented
order, so a stream is a deterministic function of (config, seed), and all
photon-related draws happen before any dark-count draws: changing dark
rates never perturbs the photon events.
"""

from __future__ import annotations

import math

import numpy as np

from .config import SimConfig

__all__ = ["DETECTORS", "ORIGINS", "EventStream", "simulate"]

DETECTORS = ("alice", "bob")
ORIGINS = ("photon", "dark")


class EventStream:
    """Time-ordered click record held as columnar numpy arrays.

    ``times_ns`` is float64, ``detectors`` and ``origins`` are uint8 codes
    into DETECTORS / ORIGINS.  The origin tag (photon or dark) exists for
    simulation diagnostics only; analysis code never reads it, exactly like
    a real counter card.
    """

    def __init__(
        self,
        times_ns: np.ndarray,
        detectors: np.ndarray,
        origins: np.ndarray,
        *,
        duration_ns: float,
    ) -> None:
        times = np.asarray(times_ns, dtype=np.float64)
        dets = np.asarray(detectors, dtype=np.uint8)
        origs = np.asarray(origins, dtype=np.uint8)
        if not (times.shape == dets.shape == origs.shape) or times.ndim != 1:
            raise ValueError("times, detectors, and origins must be equal-length 1-d arrays")
        if times.size and (times[0] < 0.0 or times[-1] >= duration_ns):
            raise ValueError("event times must lie in [0, duration)")
        if times.size and np.any(np.diff(times) < 0.0):
            raise ValueError("event times must be sorted ascending")
        if dets.size and dets.max() >= len(DETECTORS):
            raise ValueError("detector code out of range")
        if origs.size and origs.max() >= len(ORIGINS):
            raise ValueError("origin code out of range")
        self.times_ns = times
        self.detectors = dets
        self.origins = origs
        self.duration_ns = float(duration_ns)

    def __len__(self) -> int:
        return int(self.times_ns.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            np.array_equal(self.times_ns, other.times_ns)
            and np.array_equal(self.detectors, other.detectors)
            and np.array_equal(self.origins, other.origins)
            and self.duration_ns == other.duration_ns
        )

    def detector_times(self, name: str, origin: str | None = None) -> np.ndarray:
        """Timestamps of one detector, optionally restricted to one origin."""
        mask = self.detectors == DETECTORS.index(name)
        if origin is not None:
            mask &= self.origins == ORIGINS.index(origin)
        return self.times_ns[mask]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _gated_dark_times(
    rng: np.random.Generator,
    trigger_times: np.ndarray,
    dark_prob_per_ns: float,
    gate_width_ns: float,
) -> np.ndarray:
    """Dark clicks of a gated detector, uniform inside partner-centered gates.

    The gate is centered on the trigger click (the cable delays of the real
    setup align the gate with the coincidence window), so gated darks form
    a flat background across the time-difference range the gate covers.
    """
    n_gates = trigger_times.size
    if n_gates == 0 or dark_prob_per_ns <= 0.0:
        return np.empty(0, dtype=np.float64)
    n_darks = rng.poisson(dark_prob_per_ns * gate_width_ns * n_gates)
    if n_darks == 0:
        return np.empty(0, dtype=np.float64)
    gate_idx = rng.integers(0, n_gates, size=n_darks)
    offsets = (rng.random(n_darks) - 0.5) * gate_width_ns
    return trigger_times[gate_idx] + offsets


def simulate(config: SimConfig) -> EventStream:
    """Generate the click stream for one run.

    Draw order is fixed: pair count, emission times, per-pair phases (only
    when phase-averaging), outcome class, shared path bit, Alice thinning,
    Bob thinning, Alice jitter, Bob jitter, then free-running darks (Alice
    before Bob) and finally gated darks.  Photon draws are consumed
    unconditionally so the photon record depends only on the source,
    analyzer, transfer, and detector-efficiency parameters.

    Assembly: the four source groups (Alice photons, Bob photons, Alice
    darks, Bob darks) each carry one (detector, origin) code pair.  Each
    group's times are sorted on their own, then one stable merge orders the
    stream, so equal times from different groups keep that group order.
    Within a group equal times carry equal codes, so the in-group sort
    cannot change a byte of the stream.
    """
    chain = config.chain
    rng = np.random.default_rng(config.seed)
    duration_ns = config.duration_s * 1e9

    keep_alice = chain.alice_interferometer.transmission * chain.alice_detector.quantum_efficiency
    keep_bob = (
        chain.bob_interferometer.transmission
        * chain.transfer_probability()
        * chain.bob_detector.quantum_efficiency
    )
    delay_alice = chain.alice_interferometer.delay_ns()
    delay_bob = chain.bob_interferometer.delay_ns()

    n_pairs = int(rng.poisson(chain.source.pair_rate_per_s * config.duration_s))
    emission = rng.random(n_pairs) * duration_ns

    if config.phase_averaged:
        phi = rng.random(n_pairs) * (2.0 * math.pi)
    else:
        phi = np.full(
            n_pairs,
            chain.alice_interferometer.phase_rad + chain.bob_interferometer.phase_rad,
        )

    # outcome classes 0..5, cumulative thresholds per pair
    v_cos = config.visibility * np.cos(phi)
    p_central = 0.125 * (1.0 + v_cos)
    p_side = 0.0625
    p_single = 0.125 * (2.0 - v_cos)  # same weight for Alice-only and Bob-only
    u = rng.random(n_pairs)
    c0 = p_central
    c1 = c0 + p_side
    c2 = c1 + p_side
    c3 = c2 + p_single
    c4 = c3 + p_single
    category = (
        (u >= c0).astype(np.int8)
        + (u >= c1)
        + (u >= c2)
        + (u >= c3)
        + (u >= c4)
    )

    # Shared path bit: ss/ll label for central-class pairs (the two paths
    # are indistinguishable, the label only places absolute timestamps) and
    # the unobservable short/long choice for one-sided classes.
    path_bit = rng.integers(0, 2, size=n_pairs)

    thin_a = rng.random(n_pairs)
    thin_b = rng.random(n_pairs)
    jitter_a = rng.normal(0.0, 1.0, n_pairs)
    jitter_b = rng.normal(0.0, 1.0, n_pairs)

    # Per-class lookup tables over outcome classes 0..5: which detectors the
    # pair reaches, and each arrival offset as path_bit * scale + shift.
    reach_a = np.array([True, True, True, True, False, False])
    reach_b = np.array([True, True, True, False, True, False])
    scale_a = np.array([delay_alice, 0.0, 0.0, delay_alice, 0.0, 0.0])
    shift_a = np.array([0.0, 0.0, delay_alice, 0.0, 0.0, 0.0])
    scale_b = np.array([delay_bob, 0.0, 0.0, 0.0, delay_bob, 0.0])
    shift_b = np.array([0.0, delay_bob, 0.0, 0.0, 0.0, 0.0])

    alice_kept = reach_a[category] & (thin_a < keep_alice)
    bob_kept = reach_b[category] & (thin_b < keep_bob)

    sigma = chain.jitter_ns
    cat_a = category[alice_kept]
    alice_offset = path_bit[alice_kept] * scale_a[cat_a] + shift_a[cat_a]
    alice_photon_times = emission[alice_kept] + alice_offset
    alice_photon_times = alice_photon_times + jitter_a[alice_kept] * sigma
    cat_b = category[bob_kept]
    bob_offset = path_bit[bob_kept] * scale_b[cat_b] + shift_b[cat_b]
    bob_photon_times = emission[bob_kept] + bob_offset
    bob_photon_times = bob_photon_times + jitter_b[bob_kept] * sigma

    # ---- dark counts -------------------------------------------------
    dark_times: dict[str, np.ndarray] = {}
    for name in DETECTORS:  # free-running first, fixed alice -> bob order
        det = chain.detector(name)
        if det.role == "free_running" and det.dark_prob_per_ns > 0.0:
            n_dark = rng.poisson(det.dark_prob_per_ns * duration_ns)
            dark_times[name] = rng.random(n_dark) * duration_ns
        elif det.role == "free_running":
            dark_times[name] = np.empty(0, dtype=np.float64)

    photon_times = {"alice": alice_photon_times, "bob": bob_photon_times}
    for name, partner in (("alice", "bob"), ("bob", "alice")):
        det = chain.detector(name)
        if det.role != "gated":
            continue
        triggers = np.concatenate([photon_times[partner], dark_times[partner]])
        dark_times[name] = _gated_dark_times(
            rng, triggers, det.dark_prob_per_ns, det.gate_width_ns
        )

    # ---- assemble the stream -----------------------------------------
    # One (detector, origin) code pair per group; each group is sorted on
    # its own, so the stable argsort below only merges four sorted runs.
    groups = (alice_photon_times, bob_photon_times, dark_times["alice"], dark_times["bob"])
    for part in groups:
        part.sort()
    sizes = [part.size for part in groups]
    times = np.concatenate(groups)
    dets = np.repeat(np.array([0, 1, 0, 1], dtype=np.uint8), sizes)
    origs = np.repeat(np.array([0, 0, 1, 1], dtype=np.uint8), sizes)

    inside = (times >= 0.0) & (times < duration_ns)
    times, dets, origs = times[inside], dets[inside], origs[inside]
    order = np.argsort(times, kind="stable")
    return EventStream(times[order], dets[order], origs[order], duration_ns=duration_ns)

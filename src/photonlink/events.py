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
import numpy.random  # numpy loads it lazily; load it here, not in the first simulate

from .config import SimConfig

__all__ = ["DETECTORS", "ORIGINS", "GROUPS", "EventStream", "simulate"]

DETECTORS = ("alice", "bob")
ORIGINS = ("photon", "dark")
# The four click groups of a stream, in the order simulate assembles them.
GROUPS = tuple((name, origin) for origin in ORIGINS for name in DETECTORS)
# Items per block of the per-pair walk in _photon_times and of the start
# walk in analysis.build_histogram: it bounds their temporaries and changes
# no draw and no count.
BLOCK = 1 << 16


def blocks(n: int) -> list[slice]:
    """Consecutive slices of at most BLOCK items that cover range(n) in order."""
    return [slice(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)]


class EventStream:
    """Click record of one run: four ascending float64 time arrays.

    ``groups`` maps each (detector, origin) key of GROUPS to its click
    times, sorted and inside [0, duration); a missing key is an empty
    group.  The origin tag (photon or dark) exists for simulation
    diagnostics only; analysis code never needs it, exactly like a real
    counter card.  The arrays are read-only views.
    """

    def __init__(self, groups: dict, *, duration_ns: float) -> None:
        if not set(groups) <= set(GROUPS):
            raise ValueError(f"group keys must be among {GROUPS}")
        self.duration_ns = float(duration_ns)
        self.groups = {}
        for key in GROUPS:
            times = np.asarray(groups.get(key, ()), dtype=np.float64).view()
            if times.ndim != 1:
                raise ValueError(f"group {key} must be a 1-d array")
            if times.size and not (0.0 <= times[0] and times[-1] < self.duration_ns):
                raise ValueError(f"group {key}: event times must lie in [0, duration)")
            if not np.all(times[1:] >= times[:-1]):  # also false at any NaN
                raise ValueError(f"group {key}: event times must be sorted ascending, without NaN")
            times.flags.writeable = False
            self.groups[key] = times

    def __len__(self) -> int:
        return sum(times.size for times in self.groups.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return self.duration_ns == other.duration_ns and all(
            np.array_equal(self.groups[key], other.groups[key]) for key in GROUPS
        )

    @property
    def origins(self) -> np.ndarray:
        """uint8 code into ORIGINS of every click, in group order."""
        codes = [ORIGINS.index(origin) for _, origin in GROUPS]
        return np.repeat(np.array(codes, dtype=np.uint8), [t.size for t in self.groups.values()])

    def detector_times(self, name: str, origin: str | None = None) -> np.ndarray:
        """Ascending timestamps of one detector, optionally of one origin only."""
        if origin is not None:
            return self.groups[name, origin]
        photons, darks = (self.groups[name, origin] for origin in ORIGINS)
        if not photons.size:
            return darks
        if not darks.size:
            return photons
        merged = np.concatenate((photons, darks))
        merged.sort(kind="stable")  # merges two sorted runs
        return merged


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _gated_dark_times(
    rng: np.random.Generator,
    partner_photons: np.ndarray,
    partner_darks: np.ndarray,
    dark_prob_per_ns: float,
    gate_width_ns: float,
) -> np.ndarray:
    """Dark clicks of a gated detector, uniform inside partner-centered gates.

    Every partner click opens one gate, photons first: gate ``i`` is
    ``partner_darks[i - partner_photons.size]`` past the photons.  The gate
    is centered on the trigger click (the cable delays of the real setup
    align the gate with the coincidence window), so gated darks form a flat
    background across the time-difference range the gate covers.
    """
    n_photons = partner_photons.size
    n_gates = n_photons + partner_darks.size
    if n_gates == 0 or dark_prob_per_ns <= 0.0:
        return np.empty(0, dtype=np.float64)
    n_darks = rng.poisson(dark_prob_per_ns * gate_width_ns * n_gates)
    if n_darks == 0:
        return np.empty(0, dtype=np.float64)
    gate_idx = rng.integers(0, n_gates, size=n_darks)
    offsets = (rng.random(n_darks) - 0.5) * gate_width_ns
    on_photon = gate_idx < n_photons
    triggers = np.empty(n_darks)
    triggers[on_photon] = partner_photons[gate_idx[on_photon]]
    triggers[~on_photon] = partner_darks[gate_idx[~on_photon] - n_photons]
    return triggers + offsets


def _outcome_classes(rng: np.random.Generator, v_cos: np.ndarray, n_pairs: int) -> np.ndarray:
    """Outcome class 0..5 of each pair: how many cumulative thresholds its u passes.

    ``v_cos`` is V cos(phi) of every pair, or one value that serves them all.
    """
    code = np.empty(n_pairs, dtype=np.int8)
    for part in blocks(n_pairs):
        u = rng.random(part.stop - part.start)
        pair_v_cos = v_cos if v_cos.size == 1 else v_cos[part]
        threshold = 1.0 + pair_v_cos
        threshold *= 0.125  # central coincidence
        p_single = 2.0 - pair_v_cos
        p_single *= 0.125  # same weight for Alice-only and Bob-only
        np.greater_equal(u, threshold, out=code[part])
        for p in (0.0625, 0.0625, p_single, p_single):  # two sides, two singles
            threshold += p
            code[part] += u >= threshold
    return code


def _photon_times(config: SimConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Alice's and Bob's photon clicks, unsorted, in pair order.

    The emission times (and, when phase-averaging, the phases) are drawn
    whole; every later per-pair segment is walked in blocks of BLOCK pairs
    and folded at once into compact per-pair state (a one-byte code per pair
    and the two kept masks) or, for the jitter, into each side's click
    array, gathering the kept pairs of a block by their indices.  On numpy's
    PCG64 ``random``, ``integers(0, 2)`` and ``standard_normal`` drawn block
    by block give the same values, and leave the generator in the same
    state, as one whole-array call, so blocks do not change the draws;
    ``standard_normal(n)`` gives the bytes of ``normal(0.0, 1.0, n)``.
    """
    chain = config.chain
    alice_arm, bob_arm = chain.alice_interferometer, chain.bob_interferometer
    n_pairs = int(rng.poisson(chain.source.pair_rate_per_s * config.duration_s))
    emission = rng.random(n_pairs)
    emission *= config.duration_s * 1e9

    if config.phase_averaged:
        v_cos = rng.random(n_pairs)
        v_cos *= 2.0 * math.pi
    else:  # one value serves every pair
        v_cos = np.full(1, alice_arm.phase_rad + bob_arm.phase_rad)
    np.cos(v_cos, out=v_cos)
    v_cos *= config.visibility

    code = _outcome_classes(rng, v_cos, n_pairs)
    del v_cos

    # Shared path bit: ss/ll label for central-class pairs (the two paths
    # are indistinguishable, the label only places absolute timestamps) and
    # the unobservable short/long choice for one-sided classes.
    code *= 2
    for part in blocks(n_pairs):
        code[part] += rng.integers(0, 2, size=part.stop - part.start)

    # Lookup tables over code = 2 * class + path bit (classes in the order of
    # the module docstring), one row per detector (Alice, Bob): whether the
    # pair reaches it, and the arrival offset path_bit * scale + shift.
    delay = np.array([[alice_arm.delay_ns()], [bob_arm.delay_ns()]])
    reach = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 0, 1, 0]], dtype=bool).repeat(2, axis=1)
    scale = delay * [[1, 0, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0]]
    shift = delay * [[0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0]]
    offset = (scale[..., None] * [0.0, 1.0] + shift[..., None]).reshape(2, 12)

    keep = (
        alice_arm.transmission * chain.alice_detector.quantum_efficiency,
        bob_arm.transmission * chain.transfer_probability() * chain.bob_detector.quantum_efficiency,
    )
    kept = [np.empty(n_pairs, dtype=bool) for _ in keep]
    for side_reach, side_keep, mask in zip(reach, keep, kept):
        for part in blocks(n_pairs):
            side_reach.take(code[part], out=mask[part])
            mask[part] &= rng.random(part.stop - part.start) < side_keep

    # Each side's clicks: offset, then + emission, then + jitter, gathered by
    # index block by block into one array of the kept pairs.
    clicks = []
    for side_offset, mask in zip(offset, kept):
        times = np.empty(np.count_nonzero(mask))
        end = 0
        for part in blocks(n_pairs):
            index = np.flatnonzero(mask[part])
            jitter = rng.standard_normal(part.stop - part.start).take(index)
            jitter *= chain.jitter_ns
            out = times[end : end + index.size]
            end += index.size
            side_offset.take(code[part].take(index), out=out)
            out += emission[part].take(index)
            out += jitter
        clicks.append(times)
    return clicks


def simulate(config: SimConfig) -> EventStream:
    """Generate the click stream for one run.

    Draw order is fixed: pair count, emission times, per-pair phases (only
    when phase-averaging), outcome class, shared path bit, Alice thinning,
    Bob thinning, Alice jitter, Bob jitter, then free-running darks (Alice
    before Bob) and finally gated darks.  Photon draws are consumed
    unconditionally so the photon record depends only on the source,
    analyzer, transfer, and detector-efficiency parameters.  Each per-pair
    segment after the emission times is drawn in blocks of BLOCK pairs; a
    segment drawn block by block equals its whole-array draw, so the blocks
    change no click and no later draw.

    Assembly: the four source groups (Alice photons, Bob photons, Alice
    darks, Bob darks) are kept apart, one per (detector, origin) key of
    GROUPS.  Each is sorted in place and its clicks outside [0, duration)
    are cut from its two ends; no group is merged with another.
    """
    chain = config.chain
    rng = np.random.default_rng(config.seed)
    duration_ns = config.duration_s * 1e9
    photon = dict(zip(DETECTORS, _photon_times(config, rng)))

    # ---- dark counts -------------------------------------------------
    dark: dict[str, np.ndarray] = {}
    for name in DETECTORS:  # free-running first, fixed alice -> bob order
        det = chain.detector(name)
        if det.role == "free_running":
            rate = det.dark_prob_per_ns
            dark[name] = rng.random(rng.poisson(rate * duration_ns) if rate > 0.0 else 0)
            dark[name] *= duration_ns
    for name, partner in (("alice", "bob"), ("bob", "alice")):
        det = chain.detector(name)
        if det.role == "gated":
            dark[name] = _gated_dark_times(
                rng, photon[partner], dark[partner], det.dark_prob_per_ns, det.gate_width_ns
            )

    # ---- assemble the stream -----------------------------------------
    groups = {}
    for name, origin in GROUPS:
        times = (photon if origin == "photon" else dark)[name]
        times.sort()
        lo, hi = np.searchsorted(times, [0.0, duration_ns])
        groups[name, origin] = times[lo:hi]
    return EventStream(groups, duration_ns=duration_ns)

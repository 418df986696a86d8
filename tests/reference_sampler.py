"""The reference sampler: every pair drawn, and every dark click of every detector.

``photonlink.events.simulate`` draws photon clicks one outcome cell at a
time (colouring) and the start detector's free-running darks only where
they can pair, counting the rest.  This module keeps the per-pair photon
sampler and the dark section that draws every dark.  Photon draw order:
pair count, emission times, per-pair phases (only when phase-averaging),
outcome class, shared path bit, Alice and Bob thinning, Alice and Bob
jitter.  Then the darks: free-running ones, Alice before Bob (count, then
uniform times); then gated ones, Alice before Bob (count, gate indices,
offsets).  The tests use it as the sampler the production one must equal in
distribution, and ``golden_counts.json`` pins it.

It also keeps ``events._photon_times`` and ``events._near_stop_times`` as
they were before they stopped holding each click twice, for tests that
check the two stay equal draw for draw.
"""

from __future__ import annotations

import math

import numpy as np

from photonlink import events as ev
from photonlink.config import SimConfig
from photonlink.quantum import OUTCOME_CLASSES


def gated_dark_times(
    rng: np.random.Generator,
    partner_photons: np.ndarray,
    partner_darks: np.ndarray,
    dark_prob_per_ns: float,
    gate_width_ns: float,
) -> np.ndarray:
    """Dark clicks of a gated detector, uniform inside partner-centered gates.

    Every partner click opens one gate, photons first: gate ``i`` is
    ``partner_darks[i - partner_photons.size]`` past the photons.
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


def reference_photon_times(config: SimConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Alice's and Bob's photon clicks, unsorted, in pair order: every pair drawn.

    Each pair draws its emission time, (when phase-averaging) its phase, a
    uniform u that picks its outcome class against cumulative weights, its
    path bit, one thinning uniform per side and one jitter per side, each
    segment in one whole-array call.
    """
    chain = config.chain
    alice_arm, bob_arm = chain.alice_interferometer, chain.bob_interferometer
    n_pairs = int(rng.poisson(chain.source.pair_rate_per_s * config.duration_s))
    emission = rng.random(n_pairs)
    emission *= config.duration_s * 1e9

    if config.phase_averaged:
        v_cos = rng.random(n_pairs)
        v_cos *= 2.0 * math.pi
    else:
        v_cos = np.full(n_pairs, alice_arm.phase_rad + bob_arm.phase_rad)
    np.cos(v_cos, out=v_cos)
    v_cos *= config.visibility

    u = rng.random(n_pairs)
    threshold = 1.0 + v_cos
    threshold *= 0.125
    p_single = np.subtract(2.0, v_cos, out=v_cos)
    p_single *= 0.125
    code = (u >= threshold).astype(np.int8)
    for p in (0.0625, 0.0625, p_single, p_single):
        threshold += p
        code += u >= threshold
    code *= 2
    code += rng.integers(0, 2, size=n_pairs)

    delay = np.array([[alice_arm.delay_ns()], [bob_arm.delay_ns()]])
    reach = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 0, 1, 0]], dtype=bool).repeat(2, axis=1)
    scale = delay * [[1, 0, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0]]
    shift = delay * [[0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0]]
    offset = (scale[..., None] * [0.0, 1.0] + shift[..., None]).reshape(2, 12)
    keep = (
        alice_arm.transmission * chain.alice_detector.quantum_efficiency,
        bob_arm.transmission * chain.transfer_probability() * chain.bob_detector.quantum_efficiency,
    )
    kept = [reach[side][code] & (rng.random(n_pairs) < keep[side]) for side in (0, 1)]
    jitter = [rng.normal(0.0, 1.0, n_pairs)[mask] * chain.jitter_ns for mask in kept]
    clicks = []
    for side_offset, mask, side_jitter in zip(offset, kept, jitter):
        times = side_offset[code[mask]]
        times += emission[mask]
        times += side_jitter
        clicks.append(times)
    return clicks


def concatenated_photon_times(config: SimConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """``events._photon_times`` as it drew before growing each side in place.

    The same outcome cells, draws and arithmetic; each cell's jitter is a
    new array, and each side's cells are concatenated at the end.
    """
    chain = config.chain
    arms = (chain.alice_interferometer, chain.bob_interferometer)
    keep = (
        arms[0].transmission * chain.alice_detector.quantum_efficiency,
        arms[1].transmission * chain.transfer_probability() * chain.bob_detector.quantum_efficiency,
    )
    delay = [arm.delay_ns() for arm in arms]
    phi = arms[0].phase_rad + arms[1].phase_rad
    v_cos = 0.0 if config.phase_averaged else config.visibility * math.cos(phi)
    mean_pairs = chain.source.pair_rate_per_s * config.duration_s
    duration_ns = config.duration_s * 1e9
    clicks: tuple[list, list] = ([], [])
    for _, (c, s), arrival in OUTCOME_CLASSES:
        reached = [side for side in (0, 1) if arrival[side] is not None]
        if not reached:
            continue
        clicking_sets = [[0], [1], [0, 1]] if len(reached) == 2 else [reached]
        for bit in (0, 1):
            for clicking in clicking_sets:
                p = 0.5 * (c + s * v_cos)
                for side in reached:
                    p *= keep[side] if side in clicking else 1.0 - keep[side]
                n = rng.poisson(mean_pairs * p)
                emission = rng.random(n)
                emission *= duration_ns
                for side in clicking:
                    t = rng.standard_normal(n)
                    t *= chain.jitter_ns
                    t += emission
                    t += delay[side] * arrival[side][bit]
                    clicks[side].append(t)
    return [np.concatenate(side) for side in clicks]


def gathered_near_stop_times(
    rng: np.random.Generator, stops: np.ndarray, n_free: int, reach_ns: float, duration_ns: float
) -> np.ndarray:
    """``events._near_stop_times`` with its windows gathered through break indices.

    The same draws and arithmetic, with every window-sized temporary kept
    as its own array.
    """
    if not stops.size:
        return np.empty(0, dtype=np.float64)
    breaks = np.flatnonzero(np.diff(stops) > 2.0 * reach_ns)
    first = stops[np.concatenate(([0], breaks + 1))] - reach_ns
    last = stops[np.concatenate((breaks, [stops.size - 1]))] + reach_ns
    np.clip(first, 0.0, duration_ns, out=first)
    np.clip(last, 0.0, duration_ns, out=last)
    length = last - first
    end = np.cumsum(length)
    near = rng.random(rng.binomial(n_free, min(end[-1] / duration_ns, 1.0)))
    near *= end[-1]
    window = np.searchsorted(end, near, side="right")
    np.minimum(window, end.size - 1, out=window)
    near += (first - end + length).take(window)
    return near


def reference_simulate(
    config: SimConfig, photon_times=reference_photon_times
) -> ev.EventStream:
    """The click stream of one run with every dark drawn; complete for every geometry.

    ``photon_times(config, rng)`` draws the photon half first; pass
    ``events._photon_times`` to share ``events.simulate``'s photon draws.
    """
    chain = config.chain
    rng = np.random.default_rng(config.seed)
    duration_ns = config.duration_s * 1e9
    photon = dict(zip(ev.DETECTORS, photon_times(config, rng)))

    dark: dict[str, np.ndarray] = {}
    for name in ev.DETECTORS:  # free-running first, fixed alice -> bob order
        det = chain.detector(name)
        if det.role == "free_running":
            rate = det.dark_prob_per_ns
            dark[name] = rng.random(rng.poisson(rate * duration_ns) if rate > 0.0 else 0)
            dark[name] *= duration_ns
    for name, partner in (("alice", "bob"), ("bob", "alice")):
        det = chain.detector(name)
        if det.role == "gated":
            dark[name] = gated_dark_times(
                rng, photon[partner], dark[partner], det.dark_prob_per_ns, det.gate_width_ns
            )

    groups = {}
    for name, origin in ev.GROUPS:
        times = (photon if origin == "photon" else dark)[name]
        times.sort()
        lo, hi = np.searchsorted(times, [0.0, duration_ns])
        groups[name, origin] = times[lo:hi]
    return ev.EventStream(groups, duration_ns=duration_ns)

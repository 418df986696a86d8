"""The reference sampler: every dark click of every detector gets a time.

``photonlink.events.simulate`` draws the start detector's free-running
darks only where they can pair and counts the rest.  This module keeps the
dark section that draws them all, on the same photon draws
(``events._photon_times``).  Its draw order after the photons: free-running
darks, Alice before Bob (count, then uniform times); then gated darks, Alice
before Bob (count, gate indices, offsets).  The tests use it as the sampler
the production one must equal in distribution, and ``golden_counts.json``
pins it.
"""

from __future__ import annotations

import numpy as np

from photonlink import events as ev
from photonlink.config import SimConfig


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


def reference_simulate(config: SimConfig) -> ev.EventStream:
    """The click stream of one run with every dark drawn; complete for every geometry."""
    chain = config.chain
    rng = np.random.default_rng(config.seed)
    duration_ns = config.duration_s * 1e9
    photon = dict(zip(ev.DETECTORS, ev._photon_times(config, rng)))

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

"""Monte Carlo click-stream simulator for the two-analyzer coincidence setup.

Pairs are emitted as a Poisson process.  Each pair falls *jointly* into one
outcome class of the two analyzers rather than being two independent
classical photons: the phase-dependent interference lives only in the
both-detected central class, the side classes are flat, and the
single-sided marginals stay phase-independent (no single-photon fringes).
The six outcome classes, their weights and each side's arrival are
``quantum.OUTCOME_CLASSES``; they sum to one and give the 1/2 monitored-port
marginal on each side for every phi.  Arm transmission, the transfer-stage
success, and detector quantum efficiency thin each photon independently.
Every (class, path bit, clicking sides) cell of the thinned pair process is
then an independent Poisson process, so the photon clicks are drawn one
cell at a time, with times only for clicks (colouring).  Dark counts are
added per detector, uniformly for free-running detectors and inside
partner-triggered gates for gated ones.

Everything is drawn from one numpy PCG64 generator in a fixed documented
order, so a stream is a deterministic function of (config, seed), and all
photon-related draws happen before any dark-count draws: changing dark
rates never perturbs the photon events.

The start detector's free-running darks are drawn only where they can
pair.  Its dark count is drawn whole; the darks that open a gate of a gated
partner get times (marking), and of the rest only those within the
histogram half-range plus one bin of some stop click get times
(restriction).  The others are counted, not drawn: the stream keeps the
start-stop histogram of the chain's geometry and every detector's click
count exact in distribution, and records both.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not in the first simulate

from .chain import DetectorParams
from .config import SimConfig
from .quantum import OUTCOME_CLASSES

__all__ = ["DETECTORS", "ORIGINS", "GROUPS", "EventStream", "simulate"]

DETECTORS = ("alice", "bob")
ORIGINS = ("photon", "dark")
# The four click groups of a stream, in the order simulate assembles them.
GROUPS = tuple((name, origin) for origin in ORIGINS for name in DETECTORS)
# Starts per block of the start walk in analysis.build_histogram: it bounds
# the walk's temporaries and changes no count.
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

    ``undrawn`` maps a group key to the clicks it had but that were only
    counted, because none of them can pair; ``n_clicks`` adds them back.
    ``complete_for`` is the (start detector, stop detector, half-range ns)
    geometry whose histogram the stream still gives in full, or None when
    every click is drawn and every geometry is served.
    """

    def __init__(
        self,
        groups: dict,
        *,
        duration_ns: float,
        undrawn: dict | None = None,
        complete_for: tuple[str, str, float] | None = None,
    ) -> None:
        undrawn = dict(undrawn or {})
        if not set(groups) | set(undrawn) <= set(GROUPS):
            raise ValueError(f"group keys must be among {GROUPS}")
        if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in undrawn.values()):
            raise ValueError("undrawn click counts must be non-negative integers")
        self.duration_ns = float(duration_ns)
        self.undrawn = {key: int(undrawn.get(key, 0)) for key in GROUPS}
        self.complete_for = complete_for
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
        return (
            self.duration_ns == other.duration_ns
            and self.undrawn == other.undrawn
            and self.complete_for == other.complete_for
            and all(np.array_equal(self.groups[key], other.groups[key]) for key in GROUPS)
        )

    @property
    def origins(self) -> np.ndarray:
        """uint8 code into ORIGINS of every click, in group order."""
        codes = [ORIGINS.index(origin) for _, origin in GROUPS]
        return np.repeat(np.array(codes, dtype=np.uint8), [t.size for t in self.groups.values()])

    def n_clicks(self, name: str, origin: str | None = None) -> int:
        """Clicks of one detector, optionally of one origin only, undrawn ones included."""
        origins = ORIGINS if origin is None else (origin,)
        return sum(self.groups[name, o].size + self.undrawn[name, o] for o in origins)

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
    n_hidden: int,
    detector: DetectorParams,
    duration_ns: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Dark clicks of a gated detector, uniform inside partner-centered gates.

    Every partner click opens one gate, photons first: gate ``i`` is
    ``partner_darks[i - partner_photons.size]`` past the photons, and the
    last ``n_hidden`` gates belong to partner darks that are only counted.
    The gate is centered on the trigger click (the cable delays of the real
    setup align the gate with the coincidence window), so gated darks form a
    flat background across the time-difference range the gate covers.

    Hidden darks are iid uniform on [0, duration), so only the distinct
    hidden gates that hold a dark get a time, one uniform draw each
    (marking).  Returns the gated darks and those hidden-gate times.
    """
    gate_width_ns = detector.gate_width_ns
    n_photons = partner_photons.size
    n_shown = n_photons + partner_darks.size
    n_gates = n_shown + n_hidden
    if n_gates == 0 or detector.dark_prob_per_ns <= 0.0:
        return np.empty(0), np.empty(0)
    n_darks = rng.poisson(detector.dark_prob_per_ns * gate_width_ns * n_gates)
    if n_darks == 0:
        return np.empty(0), np.empty(0)
    gate_idx = rng.integers(0, n_gates, size=n_darks)
    offsets = (rng.random(n_darks) - 0.5) * gate_width_ns
    on_photon = gate_idx < n_photons
    on_hidden = gate_idx >= n_shown
    on_dark = ~(on_photon | on_hidden)
    triggers = np.empty(n_darks)
    triggers[on_photon] = partner_photons[gate_idx[on_photon]]
    triggers[on_dark] = partner_darks[gate_idx[on_dark] - n_photons]
    hit, gate_of_dark = np.unique(gate_idx[on_hidden], return_inverse=True)
    parents = rng.random(hit.size)
    parents *= duration_ns
    triggers[on_hidden] = parents[gate_of_dark]
    return triggers + offsets, parents


def _near_stop_times(
    rng: np.random.Generator, stops: np.ndarray, n_free: int, reach_ns: float, duration_ns: float
) -> np.ndarray:
    """The ones of ``n_free`` uniform darks on [0, duration) within reach of a stop.

    ``stops`` ascend.  The windows [t - reach, t + reach] around them, merged
    and cut to [0, duration), have total length L.  Of n iid uniform darks,
    binomial(n, L / duration) fall inside, uniform over the windows
    (restriction); each is placed by one uniform draw on [0, L) through the
    cumulative window lengths.  The rest lie farther than reach from every
    stop.
    """
    if not stops.size:
        return np.empty(0, dtype=np.float64)
    edge = np.empty(stops.size, dtype=bool)  # the stops that open a window
    edge[0] = True
    np.greater(np.diff(stops), 2.0 * reach_ns, out=edge[1:])
    first = stops[edge] - reach_ns
    np.clip(first, 0.0, duration_ns, out=first)
    length = stops[np.append(edge[1:], True)] + reach_ns  # the stops that close one
    np.clip(length, 0.0, duration_ns, out=length)
    length -= first  # last - first
    end = np.cumsum(length)
    first -= end  # first - end + length, in that order: a draw on [0, L) to its time
    first += length
    del length
    near = rng.random(rng.binomial(n_free, min(end[-1] / duration_ns, 1.0)))
    near *= end[-1]
    window = np.searchsorted(end, near, side="right")
    np.minimum(window, end.size - 1, out=window)  # a draw rounded up onto L
    near += first.take(window)
    return near


def _photon_times(config: SimConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Alice's and Bob's photon clicks, unsorted, drawn one outcome cell at a time.

    A pair falls into one class of OUTCOME_CLASSES, one path bit, and one
    set of reached sides that click after independent thinning; each such
    cell of the Poisson pair process is an independent Poisson process
    (colouring).  A cell draws its click count, then one emission time per
    click and a jitter per clicking side, Alice first, into the grown tail
    of that side's one array.  Cells go in table order, path bit 0 before
    1, and the clicking sides as Alice, Bob, then both.  Phase-averaging
    uses V cos(phi) = 0, the mean over a uniform per-pair phase, which no
    click records.
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
    clicks = [np.empty(0), np.empty(0)]
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
                    clicks[side].resize(clicks[side].size + n)  # raises while a view is held
                    t = clicks[side][clicks[side].size - n :]
                    rng.standard_normal(out=t)
                    t *= chain.jitter_ns
                    t += emission
                    t += delay[side] * arrival[side][bit]
                    del t
    return clicks


def simulate(config: SimConfig) -> EventStream:
    """Generate the click stream for one run.

    Draw order is fixed: the photon cells of ``_photon_times``, each its
    click count, emission times, then Alice's and Bob's jitters for the
    sides that click; then the darks:

    1. Free-running darks, Alice before Bob: a detector with a positive rate
       draws its count N, then N uniform times, except the start detector,
       which keeps only N.
    2. Gated darks, Alice before Bob: count, gate indices, offsets, and
       when the gate-opening partner is the start detector, one time for
       each distinct start-detector dark gate that holds a dark.  These
       times (the parents) are start-detector darks.
    3. When N exceeds the parents P: windows reaching histogram half-range
       plus one bin around every stop click (photon or dark), merged and cut
       to [0, duration), of total length L; binomial(N - P, L / duration)
       start-detector darks drawn uniformly inside them.  The remaining
       darks are counted in ``EventStream.undrawn``.

    A start dark outside the windows has no stop within the histogram range
    and pairs with nothing, and given N the darks that opened no gate are iid
    uniform, so the stream gives the histogram of the fully drawn stream in
    distribution; it records that it is complete only for the chain's
    roles and half-range.  A gated start detector, or one without darks,
    leaves nothing undrawn.  Photon draws are consumed unconditionally so
    the photon record depends only on the source, analyzer, transfer, and
    detector-efficiency parameters.

    Assembly: the four source groups (Alice photons, Bob photons, Alice
    darks, Bob darks) are kept apart, one per (detector, origin) key of
    GROUPS.  Each is sorted and its clicks outside [0, duration) are cut
    from its two ends; no group is merged with another.
    """
    chain = config.chain
    start, stop = chain.start_detector, chain.stop_detector
    rng = np.random.default_rng(config.seed)
    duration_ns = config.duration_s * 1e9
    photon = dict(zip(DETECTORS, _photon_times(config, rng)))

    # ---- dark counts -------------------------------------------------
    dark: dict[str, np.ndarray] = {}
    n_hidden = 0  # start-detector darks counted but not drawn
    complete_for = None  # every geometry, unless the start detector's darks are restricted
    for name in DETECTORS:  # free-running first, fixed alice -> bob order
        det = chain.detector(name)
        if det.role == "free_running":
            rate = det.dark_prob_per_ns
            n = rng.poisson(rate * duration_ns) if rate > 0.0 else 0
            if name == start and rate > 0.0:
                n_hidden, dark[name] = n, np.empty(0, dtype=np.float64)
                complete_for = (start, stop, chain.histogram_half_range_ns)
            else:
                dark[name] = rng.random(n)
                dark[name] *= duration_ns
    for name, partner in (("alice", "bob"), ("bob", "alice")):
        det = chain.detector(name)
        if det.role == "gated":
            hidden = n_hidden if partner == start else 0
            dark[name], parents = _gated_dark_times(
                rng, photon[partner], dark[partner], hidden, det, duration_ns
            )
            if hidden:
                dark[partner] = parents
                n_hidden -= parents.size

    # ---- assemble the stream -----------------------------------------
    groups = {}
    for name, origin in GROUPS:
        groups[name, origin] = _inside((photon if origin == "photon" else dark)[name], duration_ns)
    undrawn = {}
    if n_hidden:  # no window build when every start dark is drawn
        stops = np.sort(np.concatenate((groups[stop, "photon"], groups[stop, "dark"])))
        reach = chain.histogram_half_range_ns + chain.histogram_bin_ns
        near = _near_stop_times(rng, stops, n_hidden, reach, duration_ns)
        groups[start, "dark"] = _inside(np.concatenate((groups[start, "dark"], near)), duration_ns)
        undrawn[start, "dark"] = n_hidden - near.size
    return EventStream(groups, duration_ns=duration_ns, undrawn=undrawn, complete_for=complete_for)


def _inside(times: np.ndarray, duration_ns: float) -> np.ndarray:
    """``times`` sorted in place, cut to the ones in [0, duration)."""
    times.sort()
    lo, hi = np.searchsorted(times, [0.0, duration_ns])
    return times[lo:hi]

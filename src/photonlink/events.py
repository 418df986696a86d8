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
cell of ``chain.outcome_cells`` at a time, with times only for clicks
(colouring).  The rate budget reads the same cells.  Dark counts are
added per detector: Bob's detector runs free, and Alice's is gated, with
one gate centred on each of Bob's clicks.

Everything is drawn from one numpy PCG64 generator in a fixed documented
order, so a stream is a deterministic function of (config, seed), and all
photon-related draws happen before any dark-count draws: changing dark
rates never perturbs the photon events.

Bob's darks, the starts, are drawn only where they can pair.  Their count
is drawn whole; the darks that open a gate holding an Alice dark get times
(marking), and of the rest only those within the histogram half-range plus
one bin of some Alice click get times (restriction).  The others are
counted, not drawn: the stream keeps the start-stop histogram on the
chain's grid and every detector's click count exact in distribution, and
records both.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not in the first simulate

from .chain import START_DETECTOR, STOP_DETECTOR, ChainConfig, check_kind, outcome_cells
from .config import SimConfig

__all__ = ["DETECTORS", "ORIGINS", "GROUPS", "EventStream", "simulate", "sweep_points"]

DETECTORS = ("alice", "bob")
ORIGINS = ("photon", "dark")
# The four click groups of a stream, in the order simulate assembles them.
GROUPS = tuple((name, origin) for origin in ORIGINS for name in DETECTORS)
BLOCK = 1 << 13  # items per block of each block walk: bounds its temporaries, changes no value


class EventStream:
    """Click record of one run: four ascending float64 time arrays.

    ``groups`` maps each (detector, origin) key of GROUPS to its click
    times, sorted and inside [0, duration); a missing key is an empty
    group.  The origin tag (photon or dark) exists for simulation
    diagnostics only; analysis code never needs it, exactly like a real
    counter card.  The arrays are read-only views, their order checked by block.

    ``undrawn`` maps a group key to the clicks it had but that were only
    counted, because none of them can pair; ``n_clicks`` adds them back.
    ``complete_for`` is the histogram half-range (ns) up to which the stream
    still gives the start-stop histogram in full, or None when every click
    is drawn and every half-range is served.
    """

    def __init__(
        self,
        groups: dict,
        *,
        duration_ns: float,
        undrawn: dict | None = None,
        complete_for: float | None = None,
    ) -> None:
        undrawn = dict(undrawn or {})
        if not set(groups) | set(undrawn) <= set(GROUPS):
            raise ValueError(f"group keys must be among {GROUPS}")
        for key, n in undrawn.items():
            check_kind(f"undrawn count of group {key}", n, "Count")
        check_kind("duration_ns", duration_ns, "Positive")
        if complete_for is not None:
            check_kind("complete_for", complete_for, "Positive")
        self.duration_ns = float(duration_ns)
        self.undrawn = {key: int(undrawn.get(key, 0)) for key in GROUPS}
        self.complete_for = complete_for
        self.groups = {}
        for key in GROUPS:
            times = np.asarray(groups.get(key, ()))
            if times.ndim != 1 or times.dtype.kind not in "iuf":  # not bool, string, object or complex
                raise ValueError(f"group {key} must be a 1-d real array, got {times.dtype} {times.shape}")
            times = times.astype(np.float64, copy=False).view()
            if times.size and not (0.0 <= times[0] and times[-1] < self.duration_ns):
                raise ValueError(f"group {key}: event times must lie in [0, duration)")
            parts = (times[start : start + BLOCK + 1] for start in range(0, times.size, BLOCK))
            if any(np.count_nonzero(p[1:] >= p[:-1]) < p.size - 1 for p in parts):  # NaN: not >=
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
        return _merged(*(self.groups[name, origin] for origin in ORIGINS))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _gated_dark_times(
    rng: np.random.Generator,
    bob_photons: np.ndarray,
    n_hidden: int,
    chain: ChainConfig,
    duration_ns: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Alice's dark clicks, uniform inside gates centred on Bob's clicks.

    Every Bob click opens one gate, photons first: the last ``n_hidden``
    gates belong to Bob's darks, which are only counted.  The gate is
    centered on the trigger click (the cable delays of the real setup align
    the gate with the coincidence window), so gated darks form a flat
    background across the time-difference range the gate covers.

    Hidden darks are iid uniform on [0, duration), so only the distinct
    hidden gates that hold a dark get a time, one uniform draw each
    (marking).  Returns the gated darks and those hidden-gate times.  With
    no gate or a zero dark probability every draw is empty, and an empty
    draw leaves the generator as it was.
    """
    gate_width_ns = chain.gate_width_ns
    dark_prob_per_ns = chain.alice_detector.dark_prob_per_ns
    n_photons = bob_photons.size
    n_gates = n_photons + n_hidden
    n_darks = rng.poisson(dark_prob_per_ns * gate_width_ns * n_gates)
    gate_idx = rng.integers(0, n_gates, size=n_darks)
    offsets = (rng.random(n_darks) - 0.5) * gate_width_ns
    on_photon = gate_idx < n_photons
    on_hidden = ~on_photon
    triggers = np.empty(n_darks)
    triggers[on_photon] = bob_photons[gate_idx[on_photon]]
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


def _capacity(mean: float) -> int:
    """Slots for a Poisson count of this mean; it needs more with P below 1e-15."""
    return int(mean + 8.0 * math.sqrt(mean) + 64.0)


def _photon_times(config: SimConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Alice's and Bob's photon clicks, unsorted, drawn one outcome cell at a time.

    A pair falls into one class of OUTCOME_CLASSES, one path bit, and one
    set of reached sides that click after independent thinning; each such
    cell of the Poisson pair process is an independent Poisson process
    (colouring).  The cells, in order, are ``chain.outcome_cells``'s, each of
    mean ``mean_pairs * p``.  Each side's array is allocated once, with
    ``_capacity`` slots for its cells' mean clicks, and copied into a larger
    one only if a cell overflows it.  Each cell then draws its click count,
    one emission time per click into the next slice of its last clicking
    side, and a jitter per clicking side, Alice first, in one loop: BLOCK
    normals at a time into one reused buffer, each block written to its
    side's slice as z j + e + offset, as whole-array draws give.  The last
    side's slice holds e, so it is visited last.
    Phase-averaging uses V cos(phi) = 0, the mean over a uniform per-pair
    phase, which no click records.
    """
    chain = config.chain
    phi = chain.alice_interferometer.phase_rad + chain.bob_interferometer.phase_rad
    v_cos = 0.0 if config.phase_averaged else config.visibility * math.cos(phi)
    mean_pairs = chain.source.pair_rate_per_s * config.duration_s
    duration_ns = config.duration_s * 1e9
    cells = [(mean_pairs * p, offsets) for _, p, offsets in outcome_cells(chain, v_cos)]
    clicks = [np.empty(_capacity(sum(m for m, at in cells if side in at))) for side in (0, 1)]
    filled = [0, 0]
    normals = np.empty(BLOCK)
    for mean, offsets in cells:
        n = rng.poisson(mean)
        t = {}
        for side in offsets:
            start, end = filled[side], filled[side] + n
            if end > clicks[side].size:
                clicks[side] = np.concatenate((clicks[side][:start], np.empty(n)))
            t[side], filled[side] = clicks[side][start:end], end
        *_, last = offsets
        emission = rng.random(out=t[last])
        emission *= duration_ns
        for side, offset in offsets.items():  # the last side, whose slice holds e, goes last
            for start in range(0, n, BLOCK):
                e = emission[start : start + BLOCK]
                z = rng.standard_normal(out=normals[: e.size])
                z *= chain.jitter_ns
                z += e
                np.add(z, offset, out=t[side][start : start + BLOCK])
    return [times[:n] for times, n in zip(clicks, filled)]


def simulate(config: SimConfig) -> EventStream:
    """Generate the click stream for one run.

    Draw order is fixed: the photon cells of ``_photon_times``, each its
    click count, emission times, then Alice's and Bob's jitters for the
    sides that click; then the darks:

    1. Bob's free-running darks: their count N only; a zero rate draws
       nothing.
    2. Alice's gated darks: count, gate indices, offsets, then one time for
       each distinct Bob-dark gate that holds a dark.  These times (the
       parents) are Bob's darks.
    3. When N exceeds the parents P: windows reaching histogram half-range
       plus one bin around every Alice click (photon or dark), merged and
       cut to [0, duration), of total length L; binomial(N - P, L / duration)
       Bob darks drawn uniformly inside them.  The remaining darks are
       counted in ``EventStream.undrawn``.

    A Bob dark outside the windows has no Alice click within the histogram
    range and pairs with nothing, and given N the darks that opened no gate
    are iid uniform, so the stream gives the histogram of the fully drawn
    stream in distribution; it records that it is complete only up to the
    chain's half-range.  Without Bob darks nothing is left undrawn.  Photon
    draws are consumed unconditionally so the photon record depends only on
    the source, analyzer, transfer, and detector-efficiency parameters.

    Assembly: the four source groups (Alice photons, Bob photons, Alice
    darks, Bob darks) are kept apart, one per (detector, origin) key of
    GROUPS.  Each is sorted and its clicks outside [0, duration) are cut
    from its two ends; no group is merged with another.
    """
    chain = config.chain
    start, stop = START_DETECTOR, STOP_DETECTOR
    rng = np.random.default_rng(config.seed)
    duration_ns = config.duration_s * 1e9
    photon = dict(zip(DETECTORS, _photon_times(config, rng)))

    # ---- dark counts -------------------------------------------------
    rate = chain.bob_detector.dark_prob_per_ns
    n_hidden = rng.poisson(rate * duration_ns)  # counted, not drawn
    dark = {}
    dark[stop], dark[start] = _gated_dark_times(rng, photon[start], n_hidden, chain, duration_ns)
    n_hidden -= dark[start].size

    # ---- assemble the stream -----------------------------------------
    groups = {}
    for name, origin in GROUPS:
        groups[name, origin] = _inside((photon if origin == "photon" else dark)[name], duration_ns)
    undrawn = {}
    if n_hidden:  # no window build when every start dark is drawn
        stops = _merged(groups[stop, "photon"], groups[stop, "dark"])
        reach = chain.histogram_half_range_ns + chain.histogram_bin_ns
        near = _near_stop_times(rng, stops, n_hidden, reach, duration_ns)
        groups[start, "dark"] = _inside(np.concatenate((groups[start, "dark"], near)), duration_ns)
        undrawn[start, "dark"] = n_hidden - near.size
    # Restricted Bob darks serve the chain's half-range; without them, every one.
    complete_for = chain.histogram_half_range_ns if rate > 0.0 else None
    return EventStream(groups, duration_ns=duration_ns, undrawn=undrawn, complete_for=complete_for)


def sweep_points(config: SimConfig, n: int):
    """The ``n`` configs of a Bob-phase sweep over ``np.linspace(0, 2 pi, n)``, each its own seed."""
    chain, root = config.chain, np.random.SeedSequence(config.seed)
    for phi in np.linspace(0.0, 2.0 * math.pi, n):
        bob = replace(chain.bob_interferometer, phase_rad=float(phi))
        seed = int(root.spawn(1)[0].generate_state(1, np.uint64)[0])  # SeedSequence children, lazily
        yield replace(config, chain=replace(chain, bob_interferometer=bob), seed=seed)


def _inside(times: np.ndarray, duration_ns: float) -> np.ndarray:
    """``times`` sorted in place, cut to the ones in [0, duration)."""
    times.sort()
    lo, hi = np.searchsorted(times, [0.0, duration_ns])
    return times[lo:hi]


def _merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two ascending arrays merged into one; either one itself when the other is empty."""
    if not a.size:
        return b
    if not b.size:
        return a
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")  # merges two sorted runs
    return merged

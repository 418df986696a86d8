"""Tests for histogramming, peak windows, accidentals, and fringe fitting."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from photonlink import analysis as an
from photonlink import chain as ch
from photonlink import events as ev
from photonlink.analysis import VisibilityRangeError
from photonlink.config import SimConfig
from photonlink.presets import preset_config


def hand_stream(clicks, duration_ns=1e6):
    """Build a stream from (time_ns, detector) tuples, photons only."""
    groups = {
        (name, "photon"): sorted(t for t, d in clicks if d == name) for name in ev.DETECTORS
    }
    return ev.EventStream(groups, duration_ns=duration_ns)


# Bob starts and Alice stops, 0.05 ns bins over +-3 ns.
CHAIN = ch.ChainConfig()


def dense_config(duration_s: float, seed: int) -> SimConfig:
    """The criterion-09 source: phase-averaged, lossless, dark-free, 200 k pairs/s."""
    chain_cfg = ch.ChainConfig(
        source=ch.SourceParams(pair_rate_per_s=200_000.0),
        alice_interferometer=ch.InterferometerParams(transmission=1.0),
        bob_interferometer=ch.InterferometerParams(transmission=1.0),
        alice_detector=ch.DetectorParams(quantum_efficiency=1.0, dark_prob_per_ns=0.0),
        bob_detector=ch.DetectorParams(quantum_efficiency=1.0, dark_prob_per_ns=0.0),
        jitter_ns=0.1,
    )
    return SimConfig(
        chain=chain_cfg, visibility=1.0, duration_s=duration_s, seed=seed, phase_averaged=True
    )


def synthetic_three_peak(
    side=10_000, central=20_000, background_per_bin=5, sigma_ns=0.1414, spacing=0.66713
):
    """Histogram with Gaussian peaks at 0 and +-spacing over a flat floor."""
    bw = 0.05
    edges = np.arange(-60, 61) * bw
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = np.zeros_like(centers)
    for area, mu in ((side, -spacing), (central, 0.0), (side, spacing)):
        density += area * np.exp(-0.5 * ((centers - mu) / sigma_ns) ** 2) * (
            bw / (sigma_ns * math.sqrt(2 * math.pi))
        )
    counts = np.round(density).astype(np.int64) + background_per_bin
    return an.CoincidenceHistogram(
        bin_width_ns=bw,
        half_range_ns=3.0,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# histogram construction
# ---------------------------------------------------------------------------


def test_single_pair_lands_in_correct_bin():
    stream = hand_stream([(10.0, "bob"), (10.5, "alice")])
    hist = an.build_histogram(stream, chain=CHAIN)
    assert hist.total == 1
    index = int(np.flatnonzero(hist.counts)[0])
    lo = -hist.half_range_ns + index * hist.bin_width_ns
    hi = lo + hist.bin_width_ns
    assert lo <= 0.5 < hi


def test_empty_stream_gives_zero_histogram():
    hist = an.build_histogram(hand_stream([]), chain=CHAIN)
    assert hist.total == 0
    assert hist.n_bins == 120


def test_first_stop_pairing_takes_earliest_in_range():
    # Two stops follow one start: only the earlier one within range counts.
    stream = hand_stream([(100.0, "bob"), (100.2, "alice"), (100.4, "alice")])
    hist = an.build_histogram(stream, chain=CHAIN)
    assert hist.total == 1
    center = float(hist.centers_ns[np.flatnonzero(hist.counts)[0]])
    assert center == pytest.approx(0.225, abs=1e-9)
    # A stop before -half-range is skipped, not paired.
    stream2 = hand_stream([(100.0, "bob"), (90.0, "alice"), (100.2, "alice")])
    hist2 = an.build_histogram(stream2, chain=CHAIN)
    assert hist2.total == 1
    center2 = float(hist2.centers_ns[np.flatnonzero(hist2.counts)[0]])
    assert center2 == pytest.approx(0.225, abs=1e-9)


def test_stop_beyond_range_records_nothing():
    stream = hand_stream([(100.0, "bob"), (104.0, "alice")])
    assert an.build_histogram(stream, chain=CHAIN).total == 0


def restricted_stream():
    """A fig2 stream whose start darks were drawn only where they can pair, and its chain."""
    cfg = SimConfig(chain=preset_config("fig2-baseline").chain, duration_s=2.0, seed=3)
    stream = ev.simulate(cfg)
    assert stream.complete_for == 3.0
    assert stream.undrawn["bob", "dark"] > 0
    return stream, cfg.chain


@pytest.mark.parametrize(
    "kwargs, argument",
    [
        # One ulp past the half-range the stream was drawn for.
        ({"histogram_half_range_ns": math.nextafter(3.0, 4.0)}, "range_ns"),
        ({"histogram_half_range_ns": 3.05}, "range_ns"),
        ({"histogram_bin_ns": 0.01, "histogram_half_range_ns": 3.01}, "range_ns"),
        ({"histogram_half_range_ns": 10.0}, "range_ns"),
    ],
)
def test_histogram_refuses_what_a_restricted_stream_cannot_serve(kwargs, argument):
    stream, chain = restricted_stream()
    chain = dataclasses.replace(chain, **kwargs)
    # build_histogram reads the starts and each origin's stops through
    # detector_times and pairs them in _pair_block: any look at the clicks
    # would raise AssertionError instead.
    with mock.patch.object(ev.EventStream, "detector_times", side_effect=AssertionError):
        with mock.patch.object(an, "_pair_block", side_effect=AssertionError):
            with pytest.raises(ValueError, match=argument):
                an.build_histogram(stream, chain=chain)


def test_restricted_stream_serves_its_range_and_any_narrower_one():
    stream, chain = restricted_stream()
    assert an.build_histogram(stream, chain=chain).total > 0
    narrow = dataclasses.replace(chain, histogram_half_range_ns=1.0)
    assert an.build_histogram(stream, chain=narrow).total > 0
    assert stream.n_clicks("bob", "dark") > 100 * stream.detector_times("bob", "dark").size


def test_hand_built_stream_serves_every_geometry():
    stream = hand_stream([(1.0, "bob"), (1.2, "alice"), (20.0, "alice"), (30.0, "bob")])
    assert stream.complete_for is None
    # The Bob start at 30 ns pairs only over +-50 ns, with the stop at 1.2 ns.
    for half, total in ((3.0, 1), (50.0, 2)):
        chain = ch.ChainConfig(histogram_bin_ns=0.1, histogram_half_range_ns=half)  # <= 1,000 bins
        assert an.build_histogram(stream, chain=chain).total == total


def test_histogram_addition_matches_union_for_disjoint_streams():
    # Click sets occupying disjoint time spans cannot steal each other's
    # first stop, so the histogram of their union equals the bin-wise sum.
    rng = np.random.default_rng(9)

    def clicks(offset_ns):
        out = []
        for k in range(200):
            t = offset_ns + 1000.0 * k + rng.uniform(0, 500)
            out.append((t, "bob"))
            out.append((t + rng.uniform(-2.5, 2.5), "alice"))
        return out

    first = clicks(0.0)
    second = clicks(5e5)
    a = hand_stream(first, duration_ns=1e9)
    b = hand_stream(second, duration_ns=1e9)
    union = hand_stream(first + second, duration_ns=1e9)
    hists = [an.build_histogram(stream, chain=CHAIN) for stream in (union, a, b)]
    assert hists[0] == hists[1] + hists[2]


def test_histogram_addition_rejects_different_grids():
    stream = hand_stream([])
    h1 = an.build_histogram(stream, chain=CHAIN)
    h2 = an.build_histogram(stream, chain=ch.ChainConfig(histogram_bin_ns=0.1))
    with pytest.raises(ValueError):
        h1 + h2


def test_histogram_refuses_edges_off_its_grid():
    # "On the grid" is judged in bin widths: 1.4 bins is off it at any width.
    an.CoincidenceHistogram(0.05, 3.0, np.zeros(120))  # integral floats are counts
    with pytest.raises(ValueError, match="integers"):
        an.CoincidenceHistogram(0.05, 3.0, np.full(120, 1.7))
    for width, half in ((0.05, 3.01), (1e-9, 1.4e-9), (1.0, 1e-12)):  # the last is zero bins
        with pytest.raises(ValueError, match="integer multiple"):
            an.CoincidenceHistogram(width, half, np.zeros(3))


def test_histogram_judges_its_numbers_by_kind():
    # The grid's numbers follow chain.check_kinds: a bool is no bin width.
    for width in (True, math.nan, math.inf, 0.0, -0.05, "0.05"):
        with pytest.raises(ValueError, match="bin_width_ns"):
            an.CoincidenceHistogram(width, 3, np.zeros(6))
    for half in (math.nan, False, 0, -3.0):
        with pytest.raises(ValueError, match="half_range_ns"):
            an.CoincidenceHistogram(1.0, half, np.zeros(6))
    # Non-finite or out-of-range counts are refused before the int64 cast,
    # so numpy warns of no invalid cast (the suite turns warnings into errors).
    for bad in (math.nan, math.inf, -math.inf, 1e30):
        counts = np.zeros(6)
        counts[2] = bad
        with pytest.raises(ValueError, match="counts must be finite integers"):
            an.CoincidenceHistogram(1.0, 3.0, counts)
    # Only integer and float arrays are counts: each True would count 1, "1" be parsed,
    # a complex array warn of its dropped imaginary part, and 2**70 overflow the cast.
    for bad in (
        np.ones(6, dtype=bool), np.array(["1"] * 6), np.ones(6, dtype=object),
        np.ones(6, dtype=complex), [2**70] * 6, np.full(6, 2**63, dtype=np.uint64),
    ):
        with pytest.raises(ValueError, match="counts must be"):
            an.CoincidenceHistogram(1.0, 3.0, bad)
    for good in (np.arange(6), np.arange(6, dtype=np.uint8), np.arange(6.0), [0, 1, 2, 3, 4, 5]):
        assert an.CoincidenceHistogram(1.0, 3.0, good).total == 15
    counts = np.zeros(6, dtype=np.int64)
    assert not an.CoincidenceHistogram(1.0, 3.0, counts).counts.flags.writeable
    assert counts.flags.writeable  # the record's view is read-only, the caller's array is not


def reference_counts(stream, chain):
    """First-stop pairing over every start, one searchsorted per start.

    The reference build_histogram must agree with: it scans all starts
    instead of merging blocks of them with their stops.  Differences that
    round below -half-range are dropped, as in build_histogram.
    """
    starts = stream.detector_times(ch.START_DETECTOR)
    stops = stream.detector_times(ch.STOP_DETECTOR)
    width, hi = chain.histogram_bin_ns, chain.histogram_half_range_ns
    lo = -hi
    n_bins = int(round((hi - lo) / width))
    counts = np.zeros(n_bins, dtype=np.int64)
    if starts.size and stops.size:
        first = np.searchsorted(stops, starts + lo, side="left")
        valid = first < stops.size
        tau = stops[first[valid]] - starts[valid]
        tau = tau[(tau >= lo) & (tau < hi)]
        indices = np.floor((tau - lo) / width).astype(np.int64)
        indices = np.minimum(indices, n_bins - 1)
        counts = np.bincount(indices, minlength=n_bins)
    return counts


def walked_histogram(stream, chain):
    """build_histogram's histogram and block count; each block must keep the block rule."""
    walked, real = [], an._pair_block

    def pair_block(starts, lo, stops):
        delays = real(starts, lo, stops)
        walked.append((starts + lo, stops, delays.size))
        return delays

    with mock.patch.object(an, "_pair_block", pair_block):
        hist = an.build_histogram(stream, chain=chain)
    for keys, stops, n in walked:
        # A block takes at most max(BLOCK // 2, 1) keys.  Each array's room
        # stops from its first at or above key 0 fill the rest of BLOCK: the
        # block keeps every key whose first stop lies at most room places on,
        # and the next key's lies further in at least one array.
        taken = min(max(an.BLOCK // 2, 1), keys.size)
        room = an.BLOCK - taken
        assert 1 <= n <= taken
        firsts = [times.searchsorted(keys[0]) for times in stops]
        items = [n + min(room, t.size - f) for t, f in zip(stops, firsts)]
        assert max(items, default=n) <= an.BLOCK
        assert all(t.searchsorted(keys[n - 1]) - f <= room for t, f in zip(stops, firsts))
        if n < taken:
            assert any(t.searchsorted(keys[n]) - f > room for t, f in zip(stops, firsts))
    return hist, len(walked)


# (bin width, half-range): fine and coarse grids, few bins and many.
GRIDS = ((0.05, 3.0), (0.25, 2.0), (0.5, 4.0), (2.0, 32.0))
# Beyond 2**53 ns (about 9e15) one ulp of a time exceeds 1 ns.
OFFSETS = (1e3, 2.0**53, 1e17, 2.0**57, 3.3e17, 1e18)


@st.composite
def group_records(draw):
    """A start-stop stream with starts placed on and around the range edges."""
    width, hi = draw(st.sampled_from(GRIDS))
    lo = -hi
    offset = draw(st.just(0.0) | st.sampled_from(OFFSETS) | st.floats(0.0, 1e18))
    # Clicks spread over 10 ns overlap many start ranges, over 10 us few.
    # Stops on |range edge| put starts at stop - edge right next to zero,
    # where stop - start rounds although start + lo does not.
    spread = draw(st.sampled_from((10.0, 100.0, 1e4)))
    local = st.floats(0.0, spread) | st.just(hi)
    stops = [offset + t for t in draw(st.lists(local, max_size=12))]
    starts = [offset + t for t in draw(st.lists(local, max_size=6))]
    if stops:
        edges = st.tuples(
            st.sampled_from(stops),
            st.sampled_from(("tie", "hi", "lo", "inside")),
            st.sampled_from((-2, -1, 0, 0, 1, 2)),  # ulps off the edge
            st.floats(0.0, 1.0),
        )
        for stop, kind, ulps, u in draw(st.lists(edges, max_size=30)):
            t = {"tie": stop, "hi": stop - hi, "lo": stop - lo, "inside": stop - lo - u * (hi - lo)}[kind]
            for _ in range(abs(ulps)):
                t = float(np.nextafter(t, math.copysign(math.inf, ulps)))
            starts.append(t)
    starts = [t for t in starts if t >= 0.0]
    # Each click is a photon or a dark; either group may end up empty.
    groups = {}
    for name, times in ((ch.START_DETECTOR, starts), (ch.STOP_DETECTOR, stops)):
        dark = draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))
        for origin in ev.ORIGINS:
            groups[name, origin] = sorted(t for t, d in zip(times, dark) if d == (origin == "dark"))
    duration_ns = 2.0 * max(starts + stops, default=0.0) + 1.0
    stream = ev.EventStream(groups, duration_ns=duration_ns)
    chain = ch.ChainConfig(histogram_bin_ns=width, histogram_half_range_ns=hi)
    return stream, chain


# At 1e18 ns one ulp is 128 ns, so the key 1e18 - 100 ns rounds onto the
# stop at 1e18 - 128 ns: the start pairs with it at -128 ns, below the range
# minimum, and records nothing.
ROUNDED_ONTO_STOP = (
    hand_stream([(1e18, "bob"), (1e18 - 128.0, "alice")], duration_ns=2e18),
    ch.ChainConfig(histogram_bin_ns=0.5, histogram_half_range_ns=100.0),
)
# As many stops as starts, and the one that pairs is not the first.
STOPS_EQUAL_STARTS = (
    hand_stream([(1.0, "bob"), (2.5, "bob"), (1.2, "alice"), (9.0, "alice")], duration_ns=10.0),
    CHAIN,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(group_records())
@example(ROUNDED_ONTO_STOP)
@example(STOPS_EQUAL_STARTS)
def test_histogram_matches_per_start_reference(record):
    stream, chain = record
    expected = reference_counts(stream, chain)
    if record is ROUNDED_ONTO_STOP:
        assert expected.sum() == 0
    # Blocks of one, two and five items put block edges between the starts
    # of every example; a block takes at least one start, so the walk ends.
    for block in (an.BLOCK, 1, 2, 5):
        with mock.patch.object(an, "BLOCK", block):
            hist, _ = walked_histogram(stream, chain)
        assert hist.counts.tolist() == expected.tolist(), block


def counts_of(taus, chain):
    """Counts of the bins build_histogram files these differences under."""
    hi, width = chain.histogram_half_range_ns, chain.histogram_bin_ns
    n_bins = int(round(2 * hi / width))
    indices = np.floor((np.array(taus) + hi) / width).astype(np.int64)
    return np.bincount(indices, minlength=n_bins).tolist()


@pytest.mark.parametrize("block", [an.BLOCK, 1, 2])
def test_histogram_takes_the_earlier_first_stop_over_the_origins(block):
    # The start at 10 ns finds Alice's dark at 10.25 ns before her photon
    # at 11 ns; at 20.5 ns her photon and her dark share a time and count
    # once; the dark start at 30 ns finds no dark at all, only her photon.
    stream = ev.EventStream(
        {
            ("bob", "photon"): [10.0, 20.0],
            ("bob", "dark"): [30.0],
            ("alice", "photon"): [11.0, 20.5, 31.0],
            ("alice", "dark"): [10.25, 20.5],
        },
        duration_ns=100.0,
    )
    with mock.patch.object(an, "BLOCK", block):
        hist = an.build_histogram(stream, chain=CHAIN)
    assert hist.counts.tolist() == counts_of([0.25, 0.5, 1.0], CHAIN)
    assert hist.counts.tolist() == reference_counts(stream, CHAIN).tolist()


@pytest.mark.parametrize(
    "cfg, n_blocks",
    [
        (dense_config(duration_s=2.0, seed=31), 50),
        (dataclasses.replace(preset_config("fig3-transfer"), duration_s=20.0, seed=7), 4),
    ],
    ids=["criterion-09", "fig3-point"],
)
def test_histogram_equals_the_whole_array_search(cfg, n_blocks):
    # The block walk pairs each start as one searchsorted over all stops
    # does: on starts and stops that interleave, where a block holds about
    # BLOCK / 2 of each, and on a few starts among ten times as many stops,
    # where the block's share of stops cuts it after a few hundred starts.
    stream = ev.simulate(cfg)
    hist, walked = walked_histogram(stream, cfg.chain)
    assert walked == n_blocks
    assert hist.total > 200
    assert hist.counts.tolist() == reference_counts(stream, cfg.chain).tolist()


def test_histogram_memory_per_start_on_dense_stream(traced_peak):
    # About as many stops as starts, nearly all of which pair: blocks whose
    # merge holds at most BLOCK keys and stops keep the temporaries near
    # 0.5 bytes per start, against 3.3 for blocks of 2^15 starts and 24 for
    # one pass over the whole stream.
    cfg = dense_config(duration_s=5.0, seed=271828)
    stream = ev.simulate(cfg)
    n_starts = stream.detector_times("bob").size
    hist, peak = traced_peak(an.build_histogram, stream, chain=cfg.chain)
    assert n_starts > 450_000
    assert hist.total > 0.4 * n_starts
    assert peak <= 1 * n_starts


# ---------------------------------------------------------------------------
# peak location and windows
# ---------------------------------------------------------------------------


def test_locate_peaks_on_synthetic_triple():
    hist = synthetic_three_peak()
    windows = an.locate_peaks(hist, 0.66713)
    peaks = (windows.side_early, windows.central, windows.side_late)
    for (lo, hi), target in zip(peaks, (-0.66713, 0.0, 0.66713)):
        assert 0.5 * (lo + hi) == pytest.approx(target, abs=hist.bin_width_ns)
    # Wide jittered peaks hit the disjointness cap of 0.45 spacing.
    half = 0.5 * (windows.central[1] - windows.central[0])
    assert half == pytest.approx(0.45 * 0.66713, abs=0.02)
    assert windows.side_early[1] <= windows.central[0]
    assert windows.central[1] <= windows.side_late[0]
    assert len(windows.background) == 2


def single_bin_peaks(bin_width, peak_bins, floor=2, height=100):
    """A +-3 ns histogram with a flat floor and three one-bin peaks: the width is one bin."""
    counts = np.full(round(6.0 / bin_width), floor, dtype=np.int64)
    counts[list(peak_bins)] = height
    return an.CoincidenceHistogram(bin_width, 3.0, counts)


@pytest.mark.parametrize(
    "bin_width, peak_bins, spacing, background",
    [
        # Narrow peaks at -1.4375, 0.0625 and 1.5625 ns with +-0.5 ns
        # exclusion zones: both interior gaps hold bins.
        (0.125, (12, 24, 36), 1.5,
         ((-3.0, -1.9375), (-0.9375, -0.4375), (0.5625, 1.0625), (2.0625, 3.0))),
        # Peaks at -2.375, 0.125 and 2.375 ns with +-1 ns zones: both outer
        # zones run past the range ends, and the late gap (1.125, 1.375)
        # holds no whole 0.25 ns bin.
        (0.25, (2, 12, 21), 2.4, ((-1.375, -0.875),)),
    ],
)
def test_locate_peaks_background_is_the_gaps_between_exclusion_zones(
    bin_width, peak_bins, spacing, background
):
    windows = an.locate_peaks(single_bin_peaks(bin_width, peak_bins), spacing)
    assert windows.central[1] - windows.central[0] == 2 * bin_width
    assert windows.background == background


def test_locate_peaks_flat_histogram_fails():
    hist = an.CoincidenceHistogram(
        bin_width_ns=0.05,
        half_range_ns=3.0,
        counts=np.full(120, 7, dtype=np.int64),
    )
    with pytest.raises(an.PeaksNotFound):
        an.locate_peaks(hist, 0.66713)


def test_locate_peaks_empty_histogram_fails():
    hist = an.build_histogram(hand_stream([]), chain=CHAIN)
    with pytest.raises(an.PeaksNotFound):
        an.locate_peaks(hist, 0.66713)


def test_locate_peaks_needs_range_covering_sides():
    # The grid measure refuses for Bob's 0.667 ns delay: +-0.5 ns cannot reach the side peaks.
    stream = hand_stream([(10.0, "bob"), (10.1, "alice")])
    hist = an.build_histogram(stream, chain=ch.ChainConfig(histogram_half_range_ns=0.5))
    with pytest.raises(an.PeaksNotFound, match="half_range_ns = 0.5 ns"):
        an.locate_peaks(hist, 0.66713)


def test_locate_peaks_refuses_a_grid_too_coarse_for_the_spacing():
    # 1 ns bins against a 0.3 ns spacing: no bin centre within 0.075 ns of -0.3 ns.
    cases = [(an.CoincidenceHistogram(1.0, 3.0, np.array([1, 2, 9, 3, 2, 1])), 0.3)]
    # 0.05 ns bins against a 0.105 ns spacing: the maxima are found two bins
    # apart, and one-bin windows around them would overlap.
    counts = np.full(120, 2)
    counts[[57, 60, 62]] = 100
    cases.append((an.CoincidenceHistogram(0.05, 3.0, counts), 0.105))
    # The bins measure refuses for Bob's 0.667 ns delay (test_cli's
    # test_range_short_of_the_side_peaks_is_refused_before_simulating).
    for width in (0.375, 0.5, 0.6, 1.0 / 3.0):
        cases.append((an.CoincidenceHistogram(width, 3.0, np.full(round(6.0 / width), 100)), 0.66713))
    for hist, spacing in cases:
        message = f"bin_width_ns = {hist.bin_width_ns} ns .* {spacing:.4g} ns"
        with pytest.raises(an.PeaksNotFound, match=message):
            an.locate_peaks(hist, spacing)


def test_locate_peaks_judges_its_spacing_by_kind():
    hist = an.CoincidenceHistogram(1.0, 3.0, np.array([1, 2, 9, 3, 2, 1]))
    for spacing in (True, "0.667", 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="expected_spacing_ns"):
            an.locate_peaks(hist, spacing)


def test_phase_averaged_simulation_shows_one_two_one_areas():
    cfg = dense_config(duration_s=1.0, seed=77)
    hist = an.build_histogram(ev.simulate(cfg), chain=cfg.chain)
    tally = an.tally_windows(hist, an.locate_peaks(hist, cfg.chain.bob_interferometer.delay_ns()))
    assert tally.central >= 10_000
    assert tally.central / tally.side_early == pytest.approx(2.0, rel=0.05)
    assert tally.central / tally.side_late == pytest.approx(2.0, rel=0.05)


# ---------------------------------------------------------------------------
# window tally and accidentals
# ---------------------------------------------------------------------------


def flat_windows(central=(-0.25, 0.25), background=((-3.0, -2.0), (2.0, 3.0)), **peaks):
    """Peak windows at 0 and about +-0.7 ns; keywords replace any of them."""
    sides = {"side_early": (-0.95, -0.45), "side_late": (0.45, 0.95), **peaks}
    return an.PeakWindows(central=central, background=background, **sides)


def test_tally_counts_the_whole_range():
    hist = synthetic_three_peak()
    tally = an.tally_windows(
        hist, flat_windows((-1.0, 1.0), ((-3.0, 3.0),), side_early=(-3.0, -1.0), side_late=(1.0, 3.0))
    )
    assert tally.side_early + tally.central + tally.side_late == hist.total
    assert (tally.background, tally.background_bins) == (hist.total, hist.n_bins)


def test_tally_counts_only_whole_bins():
    hist = synthetic_three_peak(background_per_bin=10)
    # A window narrower than one bin, straddling no full bin, counts zero;
    # one covering exactly one full bin picks up that bin alone.
    tally = an.tally_windows(hist, flat_windows((0.02, 0.08), side_late=(2.50, 2.55)))
    assert (tally.central, tally.side_late) == (0, 10)
    # A background interval narrower than one bin adds no bin.
    tally = an.tally_windows(hist, flat_windows(background=((-3.0, -2.0), (2.501, 2.549))))
    assert (tally.background, tally.background_bins) == (200, 20)


def test_tally_refuses_peak_windows_out_of_range():
    hist = synthetic_three_peak()
    with pytest.raises(an.OutOfRange):
        an.tally_windows(hist, flat_windows(side_early=(-3.5, -0.45)))
    with pytest.raises(an.OutOfRange):
        an.tally_windows(hist, flat_windows(side_late=(0.45, 3.2)))


@pytest.mark.parametrize(
    "central, expected",
    [
        pytest.param((-0.25, 0.25), 50.0, id="on-grid"),  # ten bins wide
        pytest.param(
            (-0.2752, 0.3252),  # eleven full bins, but 0.6004 ns wide
            55.0,
            id="off-grid",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 1: the tally scales the floor by the nominal window "
                "width but counts only its full bins",
            ),
        ),
    ],
)
def test_tally_uniform_floor(central, expected):
    hist = an.CoincidenceHistogram(
        bin_width_ns=0.05,
        half_range_ns=3.0,
        counts=np.full(120, 5, dtype=np.int64),
    )
    tally = an.tally_windows(hist, flat_windows(central))
    assert tally.accidentals == pytest.approx(expected)
    assert tally.central == pytest.approx(expected)


def test_tally_floor_of_a_zero_dark_run_is_zero():
    chain_cfg = ch.ChainConfig(
        source=ch.SourceParams(pair_rate_per_s=100_000.0),
        alice_interferometer=ch.InterferometerParams(transmission=1.0),
        bob_interferometer=ch.InterferometerParams(transmission=1.0),
        alice_detector=ch.DetectorParams(quantum_efficiency=1.0, dark_prob_per_ns=0.0),
        bob_detector=ch.DetectorParams(quantum_efficiency=1.0, dark_prob_per_ns=0.0),
        jitter_ns=0.1,
    )
    cfg = SimConfig(chain=chain_cfg, visibility=1.0, duration_s=0.5, seed=78, phase_averaged=True)
    hist = an.build_histogram(ev.simulate(cfg), chain=cfg.chain)
    tally = an.tally_windows(hist, an.locate_peaks(hist, chain_cfg.bob_interferometer.delay_ns()))
    # Without darks the only background is foreign-pair pile-up, a fraction
    # of a permille of the central peak at this rate.
    assert tally.accidentals < 1e-3 * tally.central


def test_tally_requires_background_bins():
    hist = synthetic_three_peak()
    with pytest.raises(an.NoBackground):
        an.tally_windows(hist, flat_windows(background=((-2.999, -2.998),)))  # under one bin


def test_area_ratio_refuses_sides_at_the_floor():
    # A central peak alone: the side windows hold the flat floor and nothing
    # more, so there is no side area to divide by.
    tally = an.tally_windows(synthetic_three_peak(side=0, sigma_ns=0.05), flat_windows())
    assert (tally.side_early, tally.side_late, tally.accidentals) == (50, 50, pytest.approx(50.0))
    with pytest.raises(an.PeaksNotFound):
        tally.area_ratio()
    # Net central 200 over the mean net side (60 + 40) / 2.
    assert an.WindowTally(110, 250, 90, 40, 4, 50.0).area_ratio() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# fringe fitting
# ---------------------------------------------------------------------------


def synthetic_fringe(v, amplitude=100.0, phi0=0.0, n=21, accidental=0.0):
    phis = np.linspace(0.0, 2.0 * math.pi, n)
    return [
        an.FringePoint(
            combined_phase_rad=float(p),
            coincidences=float(amplitude * (1.0 + v * math.cos(p - phi0)) + accidental),
            duration_s=1.0,
        )
        for p in phis
    ]


def test_fit_oracle_noiseless_exact():
    for v in (0.0, 0.25, 0.5, 0.87, 0.97, 1.0):
        fit = an.fit_fringe(synthetic_fringe(v, phi0=0.7))
        assert abs(fit.v_raw - v) < 1e-9
        assert abs(fit.v_net - v) < 1e-9
        if v > 0.0:
            assert abs(fit.phase_offset_rad - 0.7) < 1e-9
        assert fit.residual_rms < 1e-7


def test_fit_with_flat_accidental_floor():
    # Net fringe 901(1 + 0.97 cos) over a floor of 99: raw visibility is
    # diluted to 0.97 * 901/1000 while the net fit recovers 0.97 exactly.
    points = synthetic_fringe(0.97, amplitude=901.0, accidental=99.0)
    fit = an.fit_fringe(points, accidental_rate_per_s=99.0)
    assert fit.v_raw == pytest.approx(0.87397, abs=1e-6)
    assert fit.v_net == pytest.approx(0.97, abs=1e-9)
    assert fit.v_net >= fit.v_raw
    assert fit.mean_level_per_s == pytest.approx(1000.0, rel=1e-9)
    assert fit.accidental_level_per_s == 99.0


def test_fit_zero_accidentals_net_equals_raw():
    fit = an.fit_fringe(synthetic_fringe(0.9))
    assert fit.v_net == fit.v_raw
    assert fit.v_net_err == fit.v_raw_err


def test_fit_rejects_insufficient_data():
    with pytest.raises(an.InsufficientData):
        an.fit_fringe(synthetic_fringe(0.9, n=4))
    phis = np.linspace(0.0, math.pi, 11)  # half a period
    points = [
        an.FringePoint(float(p), 100.0 * (1 + 0.9 * math.cos(p)), 1.0) for p in phis
    ]
    with pytest.raises(an.InsufficientData):
        an.fit_fringe(points)
    # A full span but only two distinct phases modulo 2 pi: three
    # parameters cannot be fitted.
    phis = (0.0, 0.0, 0.0, 2.0 * math.pi, 2.0 * math.pi)
    points = [an.FringePoint(p, 100.0 + i, 1.0) for i, p in enumerate(phis)]
    with pytest.raises(an.InsufficientData, match="fewer than three distinct"):
        an.fit_fringe(points)


def test_fit_rejects_negative_accidentals():
    for rate in (-1.0, math.nan, math.inf, True, "3"):  # a bool or a string is no rate
        with pytest.raises(ValueError, match="accidental_rate_per_s"):
            an.fit_fringe(synthetic_fringe(0.9), accidental_rate_per_s=rate)


def test_fringe_fit_validation():
    good = dict(
        v_raw=0.9, v_net=0.95, v_raw_err=0.01, v_net_err=0.01, phase_offset_rad=-0.5,
        mean_level_per_s=-1.0, accidental_level_per_s=0.0, residual_rms=0.0,
    )
    an.FringeFit(**good)  # a negative level and any finite phase are kept
    refused = [
        {"v_raw": True},
        {"v_net": 1.5},
        {"v_raw_err": math.nan},
        {"v_net_err": -1.0},
        {"accidental_level_per_s": -1.0},
        {"residual_rms": math.inf},
        {"phase_offset_rad": math.nan},
        {"mean_level_per_s": "1"},
    ]
    for fields in refused:
        with pytest.raises(ValueError, match=next(iter(fields))):
            an.FringeFit(**{**good, **fields})


def test_fit_poisson_noise_recovers_visibility():
    truth = 0.9
    phis = np.linspace(0.0, 2.0 * math.pi, 21)
    # Quarter-period offsets: a fit seeded at -phi0 stalls at v = 0 there.
    for seed, phi0 in ((5, 0.0), (0, math.pi / 2), (0, -math.pi / 2), (5, math.pi / 2), (5, -math.pi / 2)):
        rng = np.random.default_rng(seed)
        points = [
            an.FringePoint(
                float(p),
                int(rng.poisson(2000.0 * (1.0 + truth * math.cos(p - phi0)))),
                1.0,
            )
            for p in phis
        ]
        fit = an.fit_fringe(points)
        assert fit.v_raw == pytest.approx(truth, abs=5.0 * max(fit.v_raw_err, 1e-3)), (seed, phi0)
        assert fit.v_raw_err < 0.05, (seed, phi0)  # ~0.008 at 2000 counts; a stalled fit gives 0.2


def curve_fit_sinusoid(phases, rates):
    """The bounded ``curve_fit`` fringe fit photonlink used to ship, as an oracle.

    Returns (a, v, phi0, v_err) like ``analysis._fit_sinusoid``.  It seeds
    the phase at -phi0, so near quarter-period offsets it can stall far
    from the optimum; compare against it by SSR first.
    """
    a0 = float(np.mean(rates))
    if a0 <= 0.0:
        return 0.0, 0.0, 0.0, 0.0
    z = np.sum((rates - a0) * np.exp(-1j * phases))
    phi0_seed = float(np.angle(z)) if abs(z) > 0.0 else 0.0
    v_seed = float(np.clip(2.0 * abs(z) / (rates.size * a0), 1e-6, 0.999))

    def model(phi, a, v, phi0):
        return a * (1.0 + v * np.cos(phi - phi0))

    popt, pcov = curve_fit(
        model,
        phases,
        rates,
        p0=[a0, v_seed, phi0_seed],
        bounds=([0.0, 0.0, -2.0 * math.pi], [np.inf, 1.0, 2.0 * math.pi]),
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        maxfev=20000,
    )
    a, v, phi0 = (float(x) for x in popt)
    var = float(pcov[1, 1]) if np.isfinite(pcov[1, 1]) else math.inf
    return a, v, math.atan2(math.sin(phi0), math.cos(phi0)), math.sqrt(max(var, 0.0))


def fit_ssr(phases, rates, a, v, phi0):
    return float(np.sum((rates - a * (1.0 + v * np.cos(phases - phi0))) ** 2))


def noisy_scan(n, v, phi0, level, floor, seed):
    """(phases, counts, floor): n Poisson points over one period plus a flat floor."""
    phases = np.linspace(0.0, 2.0 * math.pi, n)
    mean = level * (1.0 + v * np.cos(phases - phi0)) + floor
    return phases, np.random.default_rng(seed).poisson(mean).astype(float), floor


@st.composite
def noisy_scans(draw):
    level = 10.0 ** draw(st.floats(1.0, 4.0))  # mean fringe counts per point
    return noisy_scan(
        n=draw(st.integers(5, 30)),
        v=draw(st.floats(0.0, 1.0) | st.floats(0.95, 1.0)),  # near 1: the bound
        phi0=draw(st.floats(-math.pi, math.pi)),
        level=level,
        floor=level * draw(st.floats(0.0, 0.5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


# Net fits that meet the v = 1 bound: at a quarter-period offset and not,
# and a sparse scan whose linear solution has A < 0.  There the best
# offset at v = 1 without a >= 0 has a < 0, and Newton steps from the
# linear solution's offset end at a < 0 too.
BOUND_SCANS = (
    noisy_scan(9, 1.0, 0.3, 40.0, 20.0, 2),
    noisy_scan(21, 0.99, math.pi / 2, 300.0, 100.0, 6),
    (np.linspace(0.0, 2.0 * math.pi, 7), np.array([1.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 0.56),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(noisy_scans())
@example(BOUND_SCANS[0])
@example(BOUND_SCANS[1])
@example(BOUND_SCANS[2])
def test_fit_matches_curve_fit_oracle(scan):
    """The closed form is never worse than curve_fit and agrees where both optimise.

    The fit keeps its bounds a >= 0, 0 <= v <= 1.  Thresholds fixed
    beforehand: SSR at most the oracle's times (1 + 1e-12); where the
    oracle's SSR is within 1e-6 (relative) of the closed form's, |dv| <= 1e-7
    and v_err within 1e-4 relative when above 1e-12.  At v = 0 the offset,
    and with it v_err on an uneven phase set, is arbitrary, so v_err is
    compared only for v >= 1e-6.  Below ~10 counts per point v_err nears 1,
    and curve_fit's own ftol stop leaves |dv| ~1e-7 at equal SSR.
    """
    phases, counts, floor = scan
    for rates in (counts, counts - floor):
        a, v, phi0, v_err = an._fit_sinusoid(phases, rates)
        assert a >= 0.0 and 0.0 <= v <= 1.0
        oracle = curve_fit_sinusoid(phases, rates)
        ssr = fit_ssr(phases, rates, a, v, phi0)
        oracle_ssr = fit_ssr(phases, rates, *oracle[:3])
        assert ssr <= oracle_ssr * (1.0 + 1e-12)
        if oracle_ssr <= ssr * (1.0 + 1e-6):
            assert abs(v - oracle[1]) <= 1e-7
            if v_err > 1e-12 and v >= 1e-6:
                assert v_err == pytest.approx(oracle[3], rel=1e-4)


def test_bound_scans_meet_the_bound():
    for phases, counts, floor in BOUND_SCANS:
        assert an._fit_sinusoid(phases, counts - floor)[1] == 1.0


def test_fringe_point_validation():
    refused = [
        ((0.0, -1.0, 1.0), "coincidences"),
        ((0.0, 10.0, 0.0), "duration_s"),
        ((math.nan, 10.0, 1.0), "combined_phase_rad"),  # reached LAPACK before
        ((math.inf, 10.0, 1.0), "combined_phase_rad"),
        ((0.0, True, 1.0), "coincidences"),
        ((0.0, 10.0, "1"), "duration_s"),
    ]
    for args, name in refused:
        with pytest.raises(ValueError, match=name):
            an.FringePoint(*args)
    an.FringePoint(np.float64(1.0), np.int64(10), 1)  # numpy and integer numbers are numbers


# ---------------------------------------------------------------------------
# figures of merit
# ---------------------------------------------------------------------------


def test_fidelity_from_visibility():
    assert an.fidelity_from_visibility(1.0) == 1.0
    assert an.fidelity_from_visibility(0.970) == pytest.approx(0.985)
    assert an.fidelity_from_visibility(0.962) == pytest.approx(0.981)
    with pytest.raises(ValueError):
        an.fidelity_from_visibility(1.2)
    with pytest.raises(ValueError):
        an.fidelity_from_visibility(-0.1)
    for v in (True, "0.5", math.nan):  # judged as a Fraction, not cast with float()
        with pytest.raises(VisibilityRangeError, match="visibility"):
            an.fidelity_from_visibility(v)


def test_bell_parameter_values_and_threshold():
    top = an.bell_parameter(1.0)
    assert top.s_value == pytest.approx(2.0 * math.sqrt(2.0))
    assert top.violation
    at = an.bell_parameter(an.BELL_THRESHOLD_VISIBILITY)
    assert at.s_value == pytest.approx(2.0, abs=1e-12)
    assert not at.violation  # no violation at equality
    assert not an.bell_parameter(0.70710).violation
    assert an.bell_parameter(0.70712).violation
    paper_like = an.bell_parameter(0.970)
    assert paper_like.s_value == pytest.approx(2.744, abs=1e-3)
    assert paper_like.violation
    with pytest.raises(ValueError):
        an.bell_parameter(1.01)
    for v in (True, "0.5", math.nan):
        with pytest.raises(VisibilityRangeError, match="visibility"):
            an.bell_parameter(v)


def test_monotone_functions():
    grid = np.linspace(0.0, 1.0, 11)
    fids = [an.fidelity_from_visibility(v) for v in grid]
    svals = [an.bell_parameter(v).s_value for v in grid]
    assert all(b > a for a, b in zip(fids, fids[1:]))
    assert all(b > a for a, b in zip(svals, svals[1:]))


# ---------------------------------------------------------------------------
# end-to-end degradation behaviour
# ---------------------------------------------------------------------------


def run_small_sweep(alice_dark_per_ns, seed0):
    """Nine-phase mini sweep returning the FringeFit of the pipeline."""
    chain_cfg = ch.ChainConfig(
        source=ch.SourceParams(pair_rate_per_s=50_000.0),
        alice_interferometer=ch.InterferometerParams(transmission=1.0),
        bob_interferometer=ch.InterferometerParams(transmission=1.0),
        alice_detector=ch.DetectorParams(
            quantum_efficiency=1.0, dark_prob_per_ns=alice_dark_per_ns
        ),
        bob_detector=ch.DetectorParams(quantum_efficiency=1.0, dark_prob_per_ns=0.0),
        gate_width_ns=8.0,
        jitter_ns=0.1,
    )
    phis = np.linspace(0.0, 2.0 * math.pi, 9)
    duration = 0.8
    configs = [
        SimConfig(
            chain=dataclasses.replace(
                chain_cfg,
                alice_interferometer=dataclasses.replace(
                    chain_cfg.alice_interferometer, phase_rad=float(phi)
                ),
            ),
            visibility=0.97,
            duration_s=duration,
            seed=seed0 + i,
        )
        for i, phi in enumerate(phis)
    ]
    run = an.measure(chain_cfg, configs)  # an Alice-phase sweep on the one path
    return an.fit_fringe(run.points, accidental_rate_per_s=run.accidental_rate_per_s)


def test_measure_sums_its_runs_and_tallies_each():
    cfg = dataclasses.replace(preset_config("fig3-transfer"), duration_s=40.0)
    run = an.measure(cfg.chain, ev.sweep_points(cfg, 5))
    hists = [an.build_histogram(ev.simulate(p), chain=cfg.chain) for p in ev.sweep_points(cfg, 5)]
    assert run.histogram == sum(hists[1:], hists[0])
    assert run.windows == an.locate_peaks(run.histogram, cfg.chain.bob_interferometer.delay_ns())
    assert run.tally == an.tally_windows(run.histogram, run.windows)
    assert run.accidental_rate_per_s == run.tally.accidentals / (5 * 40.0)  # per window and s
    phases = cfg.chain.alice_interferometer.phase_rad + np.linspace(0.0, 2.0 * math.pi, 5)
    assert run.points == tuple(
        an.FringePoint(float(phi), an.tally_windows(h, run.windows).central, 40.0)
        for phi, h in zip(phases, hists)
    )
    # One run: its own histogram, and one point at the configured phases.
    single = an.measure(cfg.chain, [cfg])
    assert single.histogram == an.build_histogram(ev.simulate(cfg), chain=cfg.chain)
    assert single.points[0].coincidences == single.tally.central


def test_measure_refuses_no_runs():
    cfg = preset_config("fig2-baseline")
    for configs in ([], iter(())):  # a lazy empty iterable as well
        with pytest.raises(ValueError, match="at least one run"):
            an.measure(cfg.chain, configs)


def test_dark_counts_degrade_raw_but_not_net_visibility():
    fits = [run_small_sweep(d, seed0=900 + int(d * 1e6)) for d in (0.0, 0.01, 0.04)]
    raws = [f.v_raw for f in fits]
    assert raws[0] > raws[1] > raws[2]
    assert raws[0] - raws[2] > 0.05
    for fit in fits:
        assert fit.v_net == pytest.approx(0.97, abs=0.03)


@pytest.mark.parametrize("name", ["fig2-baseline", "fig3-transfer"])
def test_central_window_accidentals_match_the_budget(name):
    # The accidental rate a default preset sweep reports against the
    # closed-form budget.  The tolerance, 3 sigma of the Poisson error of the
    # background bins the rate is measured from (a few thousand counts, so
    # about 5 %), was fixed before the first run.
    cfg = preset_config(name)
    run = an.measure(cfg.chain, ev.sweep_points(cfg, 21))
    measured, background = run.accidental_rate_per_s, run.tally.background
    sigma = measured / math.sqrt(background)
    predicted = ch.expected_rates(cfg.chain).accidental_rate_total_per_s
    assert background > 1000
    assert abs(measured - predicted) <= 3.0 * sigma, (measured, predicted, sigma)

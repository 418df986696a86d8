"""Tests for histogramming, peak windows, accidentals, and fringe fitting."""

import dataclasses
import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from photonlink import analysis as an
from photonlink import chain as ch
from photonlink import cli
from photonlink import events as ev
from photonlink.config import SimConfig
from photonlink.presets import preset_config


def hand_stream(clicks, duration_ns=1e6):
    """Build a stream from (time_ns, detector) tuples, photons only."""
    groups = {
        (name, "photon"): sorted(t for t, d in clicks if d == name) for name in ev.DETECTORS
    }
    return ev.EventStream(groups, duration_ns=duration_ns)


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
        range_min_ns=-3.0,
        range_max_ns=3.0,
        counts=counts,
        start_detector="bob",
        stop_detector="alice",
    )


# ---------------------------------------------------------------------------
# histogram construction
# ---------------------------------------------------------------------------


def test_single_pair_lands_in_correct_bin():
    stream = hand_stream([(10.0, "bob"), (10.5, "alice")])
    hist = an.build_histogram(stream)
    assert hist.total == 1
    index = int(np.flatnonzero(hist.counts)[0])
    lo = hist.range_min_ns + index * hist.bin_width_ns
    hi = lo + hist.bin_width_ns
    assert lo <= 0.5 < hi


def test_empty_stream_gives_zero_histogram():
    stream = hand_stream([])
    hist = an.build_histogram(stream)
    assert hist.total == 0
    assert hist.n_bins == 120


def test_first_stop_pairing_takes_earliest_in_range():
    # Two stops follow one start: only the earlier one within range counts.
    stream = hand_stream([(100.0, "bob"), (100.2, "alice"), (100.4, "alice")])
    hist = an.build_histogram(stream)
    assert hist.total == 1
    center = float(hist.centers_ns[np.flatnonzero(hist.counts)[0]])
    assert center == pytest.approx(0.225, abs=1e-9)
    # A stop before the range minimum is skipped, not paired.
    stream2 = hand_stream([(100.0, "bob"), (90.0, "alice"), (100.2, "alice")])
    hist2 = an.build_histogram(stream2)
    assert hist2.total == 1
    center2 = float(hist2.centers_ns[np.flatnonzero(hist2.counts)[0]])
    assert center2 == pytest.approx(0.225, abs=1e-9)


def test_stop_beyond_range_records_nothing():
    stream = hand_stream([(100.0, "bob"), (104.0, "alice")])
    assert an.build_histogram(stream).total == 0


def test_histogram_grid_must_align_with_bin_width():
    stream = hand_stream([])
    with pytest.raises(ValueError):
        an.build_histogram(stream, range_ns=(-3.01, 3.0))
    with pytest.raises(ValueError):
        an.build_histogram(stream, bin_width_ns=0.0)
    with pytest.raises(ValueError):
        an.build_histogram(stream, start_detector="bob", stop_detector="bob")


@pytest.mark.parametrize(
    "roles, argument",
    [
        (("bob", "bob"), "stop_detector"),
        (("alice", "alice"), "stop_detector"),
        (("carol", "alice"), "start_detector"),
        (("bob", "carol"), "stop_detector"),
        ((None, "alice"), "start_detector"),
    ],
)
def test_histogram_refuses_bad_detector_names_before_pairing(roles, argument):
    stream = hand_stream([(1.0, "bob"), (1.2, "alice")])
    # Any look at the clicks would raise AssertionError instead.
    with mock.patch.object(ev.EventStream, "detector_times", side_effect=AssertionError):
        with pytest.raises(ValueError, match=argument):
            an.build_histogram(stream, *roles)


def restricted_stream():
    """A simulated stream whose start darks were drawn only where they can pair."""
    cfg = SimConfig(chain=preset_config("fig2-baseline").chain, duration_s=2.0, seed=3)
    stream = ev.simulate(cfg)
    assert stream.complete_for == ("bob", "alice", 3.0)
    assert stream.undrawn["bob", "dark"] > 0
    return stream


@pytest.mark.parametrize(
    "kwargs, argument",
    [
        ({"start_detector": "alice", "stop_detector": "bob"}, "start_detector"),
        ({"range_ns": (-3.05, 3.0)}, "range_ns"),
        ({"range_ns": (-3.0, 3.05)}, "range_ns"),
        ({"range_ns": (-10.0, 10.0)}, "range_ns"),
    ],
)
def test_histogram_refuses_what_a_restricted_stream_cannot_serve(kwargs, argument):
    stream = restricted_stream()
    with mock.patch.object(ev.EventStream, "detector_times", side_effect=AssertionError):
        with pytest.raises(ValueError, match=argument):
            an.build_histogram(stream, **kwargs)


def test_restricted_stream_serves_its_range_and_any_narrower_one():
    stream = restricted_stream()
    assert an.build_histogram(stream).total > 0
    assert an.build_histogram(stream, range_ns=(-1.0, 2.0)).total > 0
    assert stream.n_clicks("bob", "dark") > 100 * stream.detector_times("bob", "dark").size


def test_histogram_defaults_are_the_chain_defaults():
    # So the default call serves any stream drawn for the default chain.
    chain = ch.ChainConfig()
    half = chain.histogram_half_range_ns
    params = inspect.signature(an.build_histogram).parameters
    names = ("start_detector", "stop_detector", "bin_width_ns", "range_ns")
    assert [params[n].default for n in names] == [
        chain.start_detector,
        chain.stop_detector,
        chain.histogram_bin_ns,
        (-half, half),
    ]


def test_hand_built_stream_serves_every_geometry():
    stream = hand_stream([(1.0, "bob"), (1.2, "alice"), (20.0, "alice"), (30.0, "bob")])
    assert stream.complete_for is None
    assert an.build_histogram(stream, "alice", "bob", range_ns=(-50.0, 50.0)).total == 2
    assert an.build_histogram(stream, "bob", "alice", range_ns=(-50.0, 50.0)).total == 2


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
    assert an.build_histogram(union) == an.build_histogram(a) + an.build_histogram(b)


def test_difference_rounded_below_range_records_nothing():
    # At 1e18 ns one ulp is 128 ns, so start + 1 ns rounds back to the start
    # and the tied stop is "paired" at a difference of 0 < range minimum.
    stream = hand_stream([(1e18, "bob"), (1e18, "alice")], duration_ns=2e18)
    assert an.build_histogram(stream, bin_width_ns=0.5, range_ns=(1.0, 4.0)).total == 0


def test_histogram_addition_rejects_different_grids():
    stream = hand_stream([])
    h1 = an.build_histogram(stream)
    h2 = an.build_histogram(stream, bin_width_ns=0.1)
    with pytest.raises(ValueError):
        h1 + h2


def reference_counts(starts, stops, bin_width_ns, range_ns):
    """First-stop pairing over every start, one searchsorted per start.

    The reference build_histogram must agree with: it scans all starts
    instead of the candidates near some stop.  Differences that round
    below the range minimum are dropped, as in build_histogram.
    """
    lo, hi = range_ns
    n_bins = max(int(round((hi - lo) / bin_width_ns)), 1)
    counts = np.zeros(n_bins, dtype=np.int64)
    if starts.size and stops.size:
        first = np.searchsorted(stops, starts + lo, side="left")
        valid = first < stops.size
        tau = stops[first[valid]] - starts[valid]
        tau = tau[(tau >= lo) & (tau < hi)]
        indices = np.floor((tau - lo) / bin_width_ns).astype(np.int64)
        indices = np.minimum(indices, n_bins - 1)
        counts = np.bincount(indices, minlength=n_bins)
    return counts


# (bin width, range min, range max): grids on both sides of zero and on one.
GRIDS = (
    (0.05, -3.0, 3.0),
    (0.25, -2.0, 1.5),
    (0.25, 0.5, 2.0),
    (0.5, 1.0, 4.0),
    (1.0, -8.0, -2.0),
    (2.0, -32.0, 32.0),
)
# Beyond 2**53 ns (about 9e15) one ulp of a time exceeds 1 ns.
OFFSETS = (1e3, 2.0**53, 1e17, 2.0**57, 3.3e17, 1e18)


@st.composite
def group_records(draw):
    """A start-stop stream with starts placed on and around the range edges."""
    width, lo, hi = draw(st.sampled_from(GRIDS))
    offset = draw(st.just(0.0) | st.sampled_from(OFFSETS) | st.floats(0.0, 1e18))
    # Clicks spread over 10 ns overlap many start ranges, over 10 us few.
    # Stops on |range edge| put starts at stop - edge right next to zero,
    # where stop - start rounds although start + lo does not.
    spread = draw(st.sampled_from((10.0, 100.0, 1e4)))
    local = st.floats(0.0, spread) | st.sampled_from((abs(lo), abs(hi)))
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
    start_detector, stop_detector = draw(st.permutations(ev.DETECTORS))
    # Each click is a photon or a dark; either group may end up empty.
    groups = {}
    for name, times in ((start_detector, starts), (stop_detector, stops)):
        dark = draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))
        for origin in ev.ORIGINS:
            groups[name, origin] = sorted(t for t, d in zip(times, dark) if d == (origin == "dark"))
    duration_ns = 2.0 * max(starts + stops, default=0.0) + 1.0
    stream = ev.EventStream(groups, duration_ns=duration_ns)
    return stream, start_detector, stop_detector, width, (lo, hi)


# Start one ulp past zero, lone stop at range minimum 1 ns: the exact
# difference lies below the minimum, but 1 - 5e-324 rounds to 1, as does
# start + lo, so the start pairs.  The second start finds no stop at all.
NEAR_ZERO = (
    ev.EventStream({("alice", "photon"): [1.0], ("bob", "dark"): [5e-324, 6.0]}, duration_ns=10.0),
    "bob",
    "alice",
    0.5,
    (1.0, 4.0),
)
# As many stops as starts, and the one that pairs is not the first.
STOPS_EQUAL_STARTS = (
    hand_stream([(1.0, "bob"), (2.5, "bob"), (1.2, "alice"), (9.0, "alice")], duration_ns=10.0),
    "bob",
    "alice",
    0.05,
    (-3.0, 3.0),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(group_records())
@example(NEAR_ZERO)
@example(STOPS_EQUAL_STARTS)
def test_histogram_matches_per_start_reference(record):
    stream, start, stop, width, range_ns = record
    expected = reference_counts(
        stream.detector_times(start), stream.detector_times(stop), width, range_ns
    )
    # Blocks of one, two and five starts put block edges between the starts
    # of every example.
    for block in (ev.BLOCK, 1, 2, 5):
        with mock.patch.object(ev, "BLOCK", block):
            hist = an.build_histogram(stream, start, stop, bin_width_ns=width, range_ns=range_ns)
        assert hist.counts.tolist() == expected.tolist(), block


@pytest.mark.parametrize(
    "range_ns", [(1.0, 1.0), (2.0, -2.0), (-math.inf, 3.0), (-3.0, math.inf), (math.nan, 3.0)]
)
def test_histogram_refuses_a_bad_range_before_pairing(range_ns):
    stream = hand_stream([(1.0, "bob"), (1.2, "alice")])
    # Any look at the clicks would raise AssertionError instead.
    with mock.patch.object(ev.EventStream, "detector_times", side_effect=AssertionError):
        with pytest.raises(ValueError, match="range_ns"):
            an.build_histogram(stream, range_ns=range_ns)


def test_histogram_memory_per_start_on_dense_stream(traced_peak):
    # About as many stops as starts, nearly all of which pair: pairing BLOCK
    # starts at a time keeps the temporaries near 4 bytes per start against
    # 24 for one pass over the whole stream.
    stream = ev.simulate(dense_config(duration_s=5.0, seed=271828))
    n_starts = stream.detector_times("bob").size
    hist, peak = traced_peak(an.build_histogram, stream)
    assert n_starts > 450_000
    assert hist.total > 0.4 * n_starts
    assert peak <= 8 * n_starts


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


def test_locate_peaks_flat_histogram_fails():
    hist = an.CoincidenceHistogram(
        bin_width_ns=0.05,
        range_min_ns=-3.0,
        range_max_ns=3.0,
        counts=np.full(120, 7, dtype=np.int64),
        start_detector="bob",
        stop_detector="alice",
    )
    with pytest.raises(an.PeaksNotFound):
        an.locate_peaks(hist, 0.66713)


def test_locate_peaks_empty_histogram_fails():
    hist = an.build_histogram(hand_stream([]))
    with pytest.raises(an.PeaksNotFound):
        an.locate_peaks(hist, 0.66713)


def test_locate_peaks_needs_range_covering_sides():
    hist = an.build_histogram(hand_stream([(10.0, "bob"), (10.1, "alice")]), range_ns=(-0.5, 0.5))
    with pytest.raises(an.PeaksNotFound):
        an.locate_peaks(hist, 0.66713)


def test_phase_averaged_simulation_shows_one_two_one_areas():
    cfg = dense_config(duration_s=1.0, seed=77)
    hist = an.build_histogram(ev.simulate(cfg))
    windows = an.locate_peaks(hist, cfg.chain.bob_interferometer.delay_ns())
    central = an.count_window(hist, windows.central)
    early = an.count_window(hist, windows.side_early)
    late = an.count_window(hist, windows.side_late)
    assert central >= 10_000
    assert central / early == pytest.approx(2.0, rel=0.05)
    assert central / late == pytest.approx(2.0, rel=0.05)


# ---------------------------------------------------------------------------
# window counting and accidentals
# ---------------------------------------------------------------------------


def test_count_window_whole_range_and_empty_window():
    hist = synthetic_three_peak()
    assert an.count_window(hist, (-3.0, 3.0)) == hist.total
    assert an.count_window(hist, (0.1, 0.1)) == 0


def test_count_window_only_full_bins():
    hist = synthetic_three_peak(background_per_bin=10)
    # A window narrower than one bin, straddling no full bin, counts zero.
    assert an.count_window(hist, (0.02, 0.08)) == 0
    # Shifting to cover exactly one full bin picks up that bin alone.
    assert an.count_window(hist, (2.50, 2.55)) == 10


def test_count_window_out_of_range():
    hist = synthetic_three_peak()
    with pytest.raises(an.OutOfRange):
        an.count_window(hist, (-3.5, 0.0))
    with pytest.raises(an.OutOfRange):
        an.count_window(hist, (0.0, 3.2))


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
                reason="ROADMAP item 1: estimate_accidentals scales by the window width, "
                "count_window counts only its full bins",
            ),
        ),
    ],
)
def test_estimate_accidentals_uniform_floor(central, expected):
    counts = np.full(120, 5, dtype=np.int64)
    hist = an.CoincidenceHistogram(
        bin_width_ns=0.05,
        range_min_ns=-3.0,
        range_max_ns=3.0,
        counts=counts,
        start_detector="bob",
        stop_detector="alice",
    )
    windows = an.PeakWindows(
        side_early=(-0.95, -0.45),
        central=central,
        side_late=(0.45, 0.95),
        background=((-3.0, -2.0), (2.0, 3.0)),
    )
    assert an.estimate_accidentals(hist, windows) == pytest.approx(expected)
    assert an.count_window(hist, central) == pytest.approx(expected)


def test_estimate_accidentals_zero_dark_run_is_zero():
    chain_cfg = ch.ChainConfig(
        source=ch.SourceParams(pair_rate_per_s=100_000.0),
        alice_interferometer=ch.InterferometerParams(transmission=1.0),
        bob_interferometer=ch.InterferometerParams(transmission=1.0),
        alice_detector=ch.DetectorParams(quantum_efficiency=1.0, dark_prob_per_ns=0.0),
        bob_detector=ch.DetectorParams(quantum_efficiency=1.0, dark_prob_per_ns=0.0),
        jitter_ns=0.1,
    )
    cfg = SimConfig(chain=chain_cfg, visibility=1.0, duration_s=0.5, seed=78, phase_averaged=True)
    hist = an.build_histogram(ev.simulate(cfg))
    windows = an.locate_peaks(hist, chain_cfg.bob_interferometer.delay_ns())
    # Without darks the only background is foreign-pair pile-up, a fraction
    # of a permille of the central peak at this rate.
    central = an.count_window(hist, windows.central)
    assert an.estimate_accidentals(hist, windows) < 1e-3 * central


def test_estimate_accidentals_requires_background_bins():
    hist = synthetic_three_peak()
    windows = an.PeakWindows(
        side_early=(-0.95, -0.45),
        central=(-0.25, 0.25),
        side_late=(0.45, 0.95),
        background=((-2.999, -2.998),),  # narrower than one bin
    )
    with pytest.raises(an.NoBackground):
        an.estimate_accidentals(hist, windows)


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
    with pytest.raises(ValueError):
        an.fit_fringe(synthetic_fringe(0.9), accidental_rate_per_s=-1.0)


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
    with pytest.raises(ValueError):
        an.FringePoint(0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        an.FringePoint(0.0, 10.0, 0.0)


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
            quantum_efficiency=1.0,
            dark_prob_per_ns=alice_dark_per_ns,
            role="gated",
            gate_width_ns=8.0,
        ),
        bob_detector=ch.DetectorParams(quantum_efficiency=1.0, dark_prob_per_ns=0.0),
        jitter_ns=0.1,
    )
    phis = np.linspace(0.0, 2.0 * math.pi, 9)
    duration = 0.8
    total = None
    per_point = []
    for i, phi in enumerate(phis):
        cfg = SimConfig(
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
        hist = an.build_histogram(ev.simulate(cfg))
        per_point.append(hist)
        total = hist if total is None else total + hist
    windows = an.locate_peaks(total, chain_cfg.bob_interferometer.delay_ns())
    acc_rate = an.estimate_accidentals(total, windows) / (len(phis) * duration)
    points = [
        an.FringePoint(float(phi), an.count_window(h, windows.central), duration)
        for phi, h in zip(phis, per_point)
    ]
    return an.fit_fringe(points, accidental_rate_per_s=acc_rate)


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
    with mock.patch.object(an, "estimate_accidentals", wraps=an.estimate_accidentals) as spy:
        *_, measured = cli._run_sweep(cfg, 21)
    total, windows = spy.call_args.args
    _, background = an._background_tally(total, windows.background)
    sigma = measured / math.sqrt(background)
    predicted = ch.expected_rates(cfg.chain).accidental_rate_total_per_s
    assert background > 1000
    assert abs(measured - predicted) <= 3.0 * sigma, (measured, predicted, sigma)

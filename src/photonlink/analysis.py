"""Coincidence analysis for start-stop click streams.

This module turns raw detector clicks into the quantities an experimenter
actually reports: a start-stop coincidence histogram, the three-peak window
structure of an unbalanced-interferometer pair measurement, an accidental
(background) estimate taken from off-peak bins, and a sinusoidal fringe fit
yielding raw and net visibilities plus the derived fidelity and Bell
parameter.

Pairing convention: for every start click we take the first stop click whose
time difference falls at or above minus the histogram half-range, exactly like
a time-to-digital converter armed by the start channel.  This choice (rather
than correlating all pairs) matters for accidental statistics at high rates
and is therefore fixed here rather than configurable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .chain import EDGE_TOL_BINS, START_DETECTOR, STOP_DETECTOR, ChainConfig
from .chain import Fraction, NonNegative, Positive, check_kind, check_kinds, on_grid
from .config import InvalidConfigError
from .events import BLOCK, ORIGINS, EventStream, simulate

__all__ = [
    "AnalysisError",
    "PeaksNotFound",
    "OutOfRange",
    "NoBackground",
    "InsufficientData",
    "VisibilityRangeError",
    "BELL_THRESHOLD_VISIBILITY",
    "PEAK_REACH",
    "CoincidenceHistogram",
    "PeakWindows",
    "WindowTally",
    "Measurement",
    "FringePoint",
    "FringeFit",
    "BellResult",
    "build_histogram",
    "locate_peaks",
    "tally_windows",
    "measure",
    "fit_fringe",
    "fidelity_from_visibility",
    "bell_parameter",
    "write_histogram_csv",
    "write_fringe_csv",
]

# A sinusoidal two-photon fringe violates the CHSH bound S = 2 exactly when
# its visibility exceeds 1/sqrt(2).
BELL_THRESHOLD_VISIBILITY = 1.0 / math.sqrt(2.0)

# locate_peaks searches a quarter spacing beyond each side peak, so the
# histogram must reach this many peak spacings on both sides of zero.
PEAK_REACH = 1.25


class AnalysisError(ValueError):
    """Base class for analysis failures."""


class PeaksNotFound(AnalysisError):
    """The histogram does not show three significant, locatable peaks."""


class OutOfRange(AnalysisError):
    """A requested window extends beyond the histogram range."""


class NoBackground(AnalysisError):
    """No off-peak bins are available to estimate accidentals from."""


class InsufficientData(AnalysisError):
    """Too few fringe points, or the phase span is under one period."""


class VisibilityRangeError(ValueError):
    """Visibility parameter outside [0, 1]."""


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoincidenceHistogram:
    """Start-stop time differences counted in bins ``bin_width_ns`` wide over +-``half_range_ns``.

    The half-range is a whole number of bins, so bin edges are exact integer
    multiples of ``bin_width_ns`` and histograms from different runs of the
    same configuration share their grid and can be added bin-wise.
    """

    bin_width_ns: Positive
    half_range_ns: Positive
    counts: np.ndarray

    def __post_init__(self) -> None:
        check_kinds(self)
        steps = self.half_range_ns / self.bin_width_ns
        if not (on_grid(steps) and round(steps) >= 1):
            raise ValueError(
                f"half_range_ns={self.half_range_ns!r} is not an integer multiple of the bin width"
            )
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iuf":  # a bool, string, object or complex array
            raise ValueError(f"counts must be an integer or float array, got dtype {counts.dtype}")
        whole = counts.dtype.kind == "i" or np.all((abs(counts) < 2.0**63) & (np.trunc(counts) == counts))
        if not whole:  # judged before the cast, which would store 1.7 as 1 and warn of NaN
            raise ValueError("counts must be finite integers")
        counts = counts.astype(np.int64, copy=False).view()  # read-only below, not the caller's
        if counts.ndim != 1 or counts.size != self.n_bins:
            raise ValueError(
                f"counts must be a 1-d array of length {self.n_bins}, got shape {counts.shape}"
            )
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def n_bins(self) -> int:
        return 2 * round(self.half_range_ns / self.bin_width_ns)

    @property
    def centers_ns(self) -> np.ndarray:
        return -self.half_range_ns + self.bin_width_ns * (np.arange(self.n_bins) + 0.5)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def _axis(self) -> tuple:
        """The grid: what two histograms must share to compare or add."""
        return (self.bin_width_ns, self.half_range_ns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoincidenceHistogram):
            return NotImplemented
        return self._axis() == other._axis() and np.array_equal(self.counts, other.counts)

    def __add__(self, other: "CoincidenceHistogram") -> "CoincidenceHistogram":
        if not isinstance(other, CoincidenceHistogram):
            return NotImplemented
        if self._axis() != other._axis():
            raise ValueError("cannot add histograms with different grids")
        return replace(self, counts=self.counts + other.counts)


def build_histogram(events: EventStream, *, chain: ChainConfig) -> CoincidenceHistogram:
    """Histogram of (stop - start) time differences on the chain's grid.

    START_DETECTOR (Bob) arms the converter and STOP_DETECTOR (Alice) stops
    it; bins ``chain.histogram_bin_ns`` wide span
    +-``chain.histogram_half_range_ns``.  For each start click the first stop
    click with difference >= -half-range is taken; it contributes one
    count if the difference is below +half-range, otherwise the start
    records nothing.  An empty stream yields an all-zero histogram.

    One pass walks the start detector's clicks in blocks (``_pair_block``)
    and pairs each with each origin's stops in place: one stable argsort
    merges a block's keys (start - half-range) with a fixed share of the
    stops, keys first, so a key's merged position less its index counts the
    stops below it.  Each start keeps the earlier of its origins' first stops.
    ``simulate`` draws the start detector's darks only within reach of a
    stop, so the record holds few starts that cannot pair; a chain whose
    half-range exceeds the one such a stream is complete for
    (``EventStream.complete_for``) is refused before any pairing.
    """
    hi, width = float(chain.histogram_half_range_ns), float(chain.histogram_bin_ns)
    lo = -hi
    half = events.complete_for
    if half is not None and hi > half:
        raise ValueError(
            f"chain.histogram_half_range_ns must be at most {half}, the half-range the "
            f"stream was drawn for, got {hi!r}"
        )
    n_bins = 2 * round(hi / width)
    counts = np.zeros(n_bins, dtype=np.int64)
    starts = events.detector_times(START_DETECTOR)
    stops = [t for o in ORIGINS if (t := events.detector_times(STOP_DETECTOR, o)).size]
    done = 0
    while done < starts.size:
        tau = _pair_block(starts[done : done + BLOCK], lo, stops)
        done += tau.size
        tau = np.compress((tau >= lo) & (tau < hi), tau)  # start + lo may round onto a stop
        indices = np.floor((tau - lo) / width).astype(np.int64)
        indices = np.minimum(indices, n_bins - 1)  # guard float roundoff at hi
        counts += np.bincount(indices, minlength=n_bins)
    return CoincidenceHistogram(width, hi, counts)


def _pair_block(starts: np.ndarray, lo: float, stops: list[np.ndarray]) -> np.ndarray:
    """One block of ascending starts: each one's delay to its first stop >= start + lo, or inf.

    Up to max(BLOCK // 2, 1) keys (start + lo) join; each array's ``room``
    stops from its first at or above key 0 fill the rest of BLOCK, and the
    block ends at the last key at or below the stop ``room`` places on.  Stops
    past the last key sort after every key; key 0 always joins.
    """
    keys = starts[: max(BLOCK // 2, 1)] + lo
    room, n = BLOCK - keys.size, keys.size
    firsts = [times.searchsorted(keys[0]) for times in stops]
    for times, first in zip(stops, firsts):
        if first + room < times.size:
            n = min(n, keys.searchsorted(times[first + room], side="right"))
    keys, first_stop = keys[:n], np.full(n, np.inf)
    for times, first in zip(stops, firsts):
        merged = np.concatenate((keys, times[first : first + room]))
        index = np.flatnonzero(merged.argsort(kind="stable") < n)  # keys first: side="left"
        del merged
        index -= np.arange(-first, n - first)  # merged position - key index + first
        n_valid = index.searchsorted(times.size)  # index ascends with the keys
        np.minimum(first_stop[:n_valid], times.take(index[:n_valid]), out=first_stop[:n_valid])
    first_stop -= starts[:n]  # the delays
    return first_stop


# ---------------------------------------------------------------------------
# peak windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeakWindows:
    """Three disjoint peak windows plus the off-peak background intervals.

    All intervals are (low, high) in ns on the histogram's time-difference
    axis.  The three peak windows share one half-width, so per-window
    background estimates are directly comparable.
    """

    side_early: tuple[float, float]
    central: tuple[float, float]
    side_late: tuple[float, float]
    background: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ordered = (self.side_early, self.central, self.side_late)
        for lo, hi in ordered + tuple(self.background):
            if not lo < hi:
                raise ValueError(f"degenerate interval ({lo!r}, {hi!r})")
        if not (self.side_early[1] <= self.central[0] and self.central[1] <= self.side_late[0]):
            raise ValueError("peak windows must be disjoint and time-ordered")


def _bin_slice(hist: CoincidenceHistogram, lo: float, hi: float) -> tuple[int, int]:
    """Index range [i, j) of bins lying fully inside [lo, hi]."""
    i = math.ceil((lo + hist.half_range_ns) / hist.bin_width_ns - EDGE_TOL_BINS)
    j = math.floor((hi + hist.half_range_ns) / hist.bin_width_ns + EDGE_TOL_BINS)
    i = max(i, 0)
    j = min(j, hist.n_bins)
    return i, max(j, i)


@dataclass(frozen=True)
class WindowTally:
    """Whole-bin counts of one histogram over one ``PeakWindows``.

    ``accidentals`` is the floor expected in each peak window: the
    background counts per ns times the nominal shared width
    ``central[1] - central[0]``, not the width of the whole bins counted
    (ROADMAP item 1).
    """

    side_early: int
    central: int
    side_late: int
    background: int
    background_bins: int
    accidentals: float

    def area_ratio(self) -> float:
        """Central over mean side area, each less the accidental floor."""
        side_net = 0.5 * (self.side_early + self.side_late - 2.0 * self.accidentals)
        if side_net <= 0.0:
            raise PeaksNotFound("side windows hold no counts beyond the background level")
        return (self.central - self.accidentals) / side_net


def tally_windows(hist: CoincidenceHistogram, windows: PeakWindows) -> WindowTally:
    """Count the bins lying fully inside each peak window and background interval."""
    peaks = (windows.side_early, windows.central, windows.side_late)
    reach = hist.half_range_ns + EDGE_TOL_BINS * hist.bin_width_ns
    for lo, hi in peaks:
        if lo < -reach or hi > reach:
            raise OutOfRange(f"window ({lo}, {hi}) ns exceeds histogram range +-{hist.half_range_ns} ns")
    bins = [_bin_slice(hist, lo, hi) for lo, hi in (*peaks, *windows.background)]
    counts = [int(hist.counts[i:j].sum()) for i, j in bins]
    n_bins, background = sum(j - i for i, j in bins[3:]), sum(counts[3:])
    if n_bins == 0:
        raise NoBackground("background intervals contain no complete bins")
    accidentals = background / (n_bins * hist.bin_width_ns) * (windows.central[1] - windows.central[0])
    return WindowTally(*counts[:3], background, n_bins, accidentals)


def _check_peak_grid(half, width, spacing, error, names=("half_range_ns", "bin_width_ns")) -> None:
    """Refuse with ``error``, naming its field by ``names``, a grid too short or coarse for the peaks.

    ``locate_peaks`` searches a quarter spacing around the peaks at 0 and
    +-``spacing``: the grid must reach PEAK_REACH spacings both ways, and
    bins narrower than a quarter spacing leave more than two bin centres in each search window.
    """
    if half < PEAK_REACH * spacing:
        raise error(f"{names[0]} = {half} ns is below {PEAK_REACH} peak spacings of {spacing:.4g} ns")
    if width >= 0.25 * spacing:
        raise error(f"{names[1]} = {width} ns is not below a quarter peak spacing of {spacing:.4g} ns")


def locate_peaks(hist: CoincidenceHistogram, expected_spacing_ns: float) -> PeakWindows:
    """Find the three coincidence peaks near 0 and +-expected_spacing_ns.

    A grid that cannot hold or resolve them is refused first, by the rule
    ``measure`` applies to a chain's grid (``_check_peak_grid``).  Each peak
    is the largest bin within a quarter spacing of its expected position.
    The shared window half-width is 3 sigma of the central peak (second
    moment above baseline), capped at 0.45 spacing so the three windows stay
    disjoint even for wide peaks.  Background
    intervals are everything at least two window-widths away from every
    peak center.  A peak counts as significant when its maximum bin holds
    at least five times the mean background bin content (and at least five
    counts when the background is empty of counts).
    """
    check_kind("expected_spacing_ns", expected_spacing_ns, "Positive")
    spacing = float(expected_spacing_ns)
    _check_peak_grid(hist.half_range_ns, hist.bin_width_ns, spacing, PeaksNotFound)
    if hist.total == 0:
        raise PeaksNotFound("histogram is empty")

    centers = hist.centers_ns
    counts = hist.counts
    peak_centers: list[float] = []
    peak_heights: list[int] = []
    for target in (-spacing, 0.0, spacing):
        # The grid rule puts more than two bin centres in this window.
        local = np.flatnonzero(np.abs(centers - target) <= 0.25 * spacing)
        best = local[np.argmax(counts[local])]
        peak_centers.append(float(centers[best]))
        peak_heights.append(int(counts[best]))

    # The found maxima can sit a bin or two off the nominal positions, so
    # disjointness is judged against the actual gap between neighbours: at
    # least half a spacing, so more than two bins, and 0.49 gap exceeds a bin.
    gap = min(peak_centers[1] - peak_centers[0], peak_centers[2] - peak_centers[1])
    # Width of the central peak from its background-subtracted second
    # moment; the baseline is the median bin, which sits in the flat
    # background for any peaked histogram.
    c0 = peak_centers[1]
    sel = np.abs(centers - c0) <= 0.45 * spacing
    weights = counts[sel].astype(float) - float(np.median(counts))
    weights = np.clip(weights, 0.0, None)
    if weights.sum() > 0.0:
        mu = np.average(centers[sel], weights=weights)
        sigma = math.sqrt(float(np.average((centers[sel] - mu) ** 2, weights=weights)))
    else:
        sigma = hist.bin_width_ns
    half = min(3.0 * sigma, 0.45 * spacing, 0.49 * gap)
    half = max(half, hist.bin_width_ns)

    edge = hist.half_range_ns
    windows = [(max(c - half, -edge), min(c + half, edge)) for c in peak_centers]

    # Background: the gaps between the range ends and the +-(2 window widths)
    # = +-(4 half) exclusion zones around the ascending peak centers that hold
    # a whole bin, which no gap between overlapping zones or beyond a range end does.
    exclusion = 4.0 * half
    edges = [-edge]
    for c in peak_centers:
        edges += [c - exclusion, c + exclusion]
    edges.append(edge)
    background = [
        (lo, hi) for lo, hi in zip(edges[::2], edges[1::2]) if range(*_bin_slice(hist, lo, hi))
    ]
    if not background:
        raise PeaksNotFound(
            "no off-peak background bins remain to judge peak significance; "
            "widen the histogram range or narrow the windows"
        )

    found = PeakWindows(*windows, background=tuple(background))
    tally = tally_windows(hist, found)
    bg_mean = tally.background / tally.background_bins
    threshold = max(5.0 * bg_mean, 5.0)
    weak = [
        f"peak near {target:+.3f} ns: max bin {height} < {threshold:.1f}"
        for target, height in zip((-spacing, 0.0, spacing), peak_heights)
        if height < threshold
    ]
    if weak:
        raise PeaksNotFound(
            "fewer than three significant peaks (background mean "
            f"{bg_mean:.2f}/bin): " + "; ".join(weak)
        )
    return found


# ---------------------------------------------------------------------------
# fringe fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FringePoint:
    """One phase setting of a fringe scan: counts collected over a duration.

    The count is real-valued so that exact synthetic fringes (fit oracles)
    can be represented; measured scans put integers here.
    """

    combined_phase_rad: float
    coincidences: NonNegative
    duration_s: Positive

    __post_init__ = check_kinds


@dataclass(frozen=True)
class FringeFit:
    """Result of fitting R(phi) = A (1 + v cos(phi - phi0)) to a scan.

    Levels are rates in counts per second so that points of unequal
    duration combine consistently.  ``v_net`` comes from refitting after
    the accidental rate is subtracted from every point; uncertainties are
    square roots of the fit covariance diagonal.
    """

    v_raw: Fraction
    v_net: Fraction
    v_raw_err: NonNegative
    v_net_err: NonNegative
    phase_offset_rad: float
    mean_level_per_s: float
    accidental_level_per_s: NonNegative
    residual_rms: NonNegative

    __post_init__ = check_kinds


@dataclass(frozen=True)
class BellResult:
    """CHSH parameter implied by a fringe visibility."""

    s_value: float
    violation: bool


def _fit_sinusoid(phases: np.ndarray, rates: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares A(1 + v cos(phi - phi0)) with a >= 0 and 0 <= v <= 1.

    The model is the linear A + B cos(phi) + C sin(phi), so one linear
    solve gives the exact optimum v = hypot(B, C)/A, phi0 = atan2(C, B).
    Where that v exceeds 1 the bound is active and (a, phi0) are refitted
    at v = 1.  ``v_err`` follows a bounded ``curve_fit``: the
    pseudo-inverse of the Jacobian in (a, v, phi0), dropping singular
    values below eps * max(shape) times the largest, scaled by
    SSR / (n - 3).  Returns (a, v, phi0, v_err), phi0 on the principal branch.
    """
    basis = np.column_stack((np.ones_like(phases), np.cos(phases), np.sin(phases)))
    (a, b, c), _, rank, _ = np.linalg.lstsq(basis, rates, rcond=None)
    if rank < 3:
        raise InsufficientData(
            f"the {phases.size} phases hold fewer than three distinct values "
            "modulo 2 pi, too few to fit a fringe"
        )
    if np.mean(rates) <= 0.0:
        # An all-zero (or negative after subtraction) scan carries no fringe.
        return 0.0, 0.0, 0.0, 0.0
    a = float(a)
    if a > 0.0 and math.hypot(b, c) <= a:
        v, phi0 = math.hypot(b, c) / a, math.atan2(c, b)
    else:
        # At v = 1 an offset t sets a = P/N, with g = 1 + cos(phi - t),
        # P = <r, g> and N = <g, g>.  The best t maximises P^2/N, so it
        # solves 2 P' N = P N': in z = exp(i t), with P and N held as their
        # coefficients of z^-1..z and z^-2..z^2, a polynomial of degree 6.
        # Of its root angles, plus the linear offset in case it vanishes,
        # the best with a > 0 is the optimum.
        e = np.exp(1j * phases)
        p = np.array([rates @ e / 2, rates.sum(), rates @ e.conj() / 2])
        n = np.array([(e * e).sum() / 4, e.sum(), 1.5 * e.size, e.conj().sum(), (e * e).conj().sum() / 4])
        q = np.convolve(2j * np.arange(-1, 2) * p, n) - np.convolve(p, 1j * np.arange(-2, 3) * n)
        t = np.append(np.angle(np.roots(q[::-1])), math.atan2(c, b))
        g = 1.0 + np.cos(phases - t[:, None])
        proj, norm = g @ rates, np.einsum("ij,ij->i", g, g)
        best = int(np.argmax(np.where(proj > 0.0, proj * proj / norm, -np.inf)))
        a, v, phi0 = float(proj[best] / norm[best]), 1.0, float(t[best])
    delta = phases - phi0
    shape = 1.0 + v * np.cos(delta)
    jac = np.column_stack((shape, a * np.cos(delta), a * v * np.sin(delta)))
    pinv = np.linalg.pinv(jac, rcond=np.finfo(float).eps * max(jac.shape))
    ssr = float(np.sum((rates - a * shape) ** 2))
    v_err = math.sqrt(ssr / (rates.size - 3) * float(pinv[1] @ pinv[1]))
    return a, v, math.atan2(math.sin(phi0), math.cos(phi0)), v_err


def fit_fringe(points, accidental_rate_per_s: float = 0.0) -> FringeFit:
    """Fit raw and net visibilities to a phase scan.

    Needs at least five points spanning a full period at no fewer than
    three distinct phases modulo 2 pi.  Each fit is the least-squares
    optimum under 0 <= v <= 1 from ``_fit_sinusoid``: a closed-form linear
    solve, refitted at v = 1 where the bound is active.  The net fit
    subtracts the flat accidental rate from every point before refitting;
    with a zero accidental rate the two fits are identical by construction.
    """
    pts = list(points)
    if len(pts) < 5:
        raise InsufficientData(f"need at least 5 fringe points, got {len(pts)}")
    phases = np.array([p.combined_phase_rad for p in pts], dtype=float)
    span = float(phases.max() - phases.min())
    if span < 2.0 * math.pi - 1e-9:
        raise InsufficientData(
            f"phase span {span:.4f} rad is less than one full period"
        )
    check_kind("accidental_rate_per_s", accidental_rate_per_s, "NonNegative")
    acc = float(accidental_rate_per_s)
    rates = np.array([p.coincidences / p.duration_s for p in pts], dtype=float)

    a_raw, v_raw, phi0, v_raw_err = _fit_sinusoid(phases, rates)
    _, v_net, _, v_net_err = _fit_sinusoid(phases, rates - acc)
    residual = float(np.sqrt(np.mean((rates - a_raw * (1.0 + v_raw * np.cos(phases - phi0))) ** 2)))
    return FringeFit(
        v_raw=v_raw,
        v_net=v_net,
        v_raw_err=v_raw_err,
        v_net_err=v_net_err,
        phase_offset_rad=phi0,
        mean_level_per_s=a_raw,
        accidental_level_per_s=acc,
        residual_rms=residual,
    )


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Measurement:
    """A measurement's summed histogram, its windows and tally, and each run's FringePoint."""

    histogram: CoincidenceHistogram
    windows: PeakWindows
    tally: WindowTally
    points: tuple[FringePoint, ...]
    accidental_rate_per_s: float  # the tally's accidentals per window over the summed run time


def measure(chain: ChainConfig, configs) -> Measurement:
    """Simulate each config, histogram it on ``chain``'s grid, then locate and tally the sum.

    ``locate_peaks``'s grid rule refuses a chain's grid before the first draw.
    ``configs`` may be lazy; each run's stream dies before the next.
    """
    delay = chain.bob_interferometer.delay_ns()
    names = ("chain.histogram_half_range_ns", "chain.histogram_bin_ns")
    _check_peak_grid(chain.histogram_half_range_ns, chain.histogram_bin_ns, delay, InvalidConfigError, names)
    histograms, settings = [], []
    for cfg in configs:
        histograms.append(build_histogram(simulate(cfg), chain=chain))
        alice, bob = cfg.chain.alice_interferometer, cfg.chain.bob_interferometer
        settings.append((alice.phase_rad + bob.phase_rad, cfg.duration_s))
    if not histograms:
        raise ValueError("a measurement needs at least one run; configs is empty")
    total = sum(histograms[1:], histograms[0])
    windows = locate_peaks(total, delay)
    points = tuple(
        FringePoint(phase, tally_windows(h, windows).central, duration)
        for h, (phase, duration) in zip(histograms, settings)
    )
    tally, seconds = tally_windows(total, windows), math.fsum(d for _, d in settings)
    return Measurement(total, windows, tally, points, tally.accidentals / seconds)


# ---------------------------------------------------------------------------
# derived figures of merit
# ---------------------------------------------------------------------------


def _visibility(v) -> float:
    """``v`` as a float; anything but a ``Fraction`` raises VisibilityRangeError, naming it."""
    try:
        check_kind("visibility", v, "Fraction")
    except ValueError as exc:
        raise VisibilityRangeError(str(exc)) from None
    return float(v)


def fidelity_from_visibility(v_net: float) -> float:
    """Entanglement fidelity (1 + v) / 2 implied by a net visibility."""
    return 0.5 * (1.0 + _visibility(v_net))


def bell_parameter(v: float) -> BellResult:
    """CHSH S = 2 sqrt(2) v; a violation needs v above 1/sqrt(2)."""
    value = _visibility(v)
    s = 2.0 * math.sqrt(2.0) * value
    return BellResult(s_value=s, violation=value > BELL_THRESHOLD_VISIBILITY)


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------


def write_text(path, text: str) -> None:
    """Write a whole output file at once: a failed write leaves no file of its own behind."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:  # a directory at the path, or no permission
        if tmp.is_file():
            tmp.unlink()
        raise InvalidConfigError(f"cannot write {path}: {exc.strerror}") from exc


def write_histogram_csv(hist: CoincidenceHistogram, path) -> None:
    lines = ["bin_center_ns,counts"]
    for center, count in zip(hist.centers_ns, hist.counts):
        lines.append(f"{center!r},{int(count)}")
    write_text(path, "\n".join(lines) + "\n")


def write_fringe_csv(points, path) -> None:
    lines = ["phase_rad,coincidences,duration_s"]
    for p in points:
        lines.append(f"{p.combined_phase_rad!r},{p.coincidences},{p.duration_s!r}")
    write_text(path, "\n".join(lines) + "\n")

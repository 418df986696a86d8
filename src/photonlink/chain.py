"""Analytic optics-chain calculus: coherence budgets, transfer budget, rates.

This module holds the classical bookkeeping around the quantum algebra: the
experimental parameter records, the coherence-length arithmetic that decides
whether two-photon interference is observable at all, the power budget of
the sum-frequency transfer stage, and back-of-envelope singles/coincidence
rates used to sanity-check simulation output.

Wavelengths and bandwidths are in nanometers, lengths in meters, rates in
inverse seconds, and time windows in nanoseconds throughout.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field, fields
from typing import Annotated

from .quantum import OUTCOME_CLASSES

__all__ = [
    "EDGE_TOL_BINS",
    "MAX_HISTOGRAM_BINS",
    "SPEED_OF_LIGHT_M_PER_S",
    "START_DETECTOR",
    "STOP_DETECTOR",
    "ChainConfig",
    "DetectorParams",
    "FransonCheck",
    "FransonReport",
    "InterferometerParams",
    "RateReport",
    "ReservoirCheck",
    "SaturationWarning",
    "SfgParams",
    "SourceParams",
    "ZeroBandwidthError",
    "check_kind",
    "check_kinds",
    "coherence_length",
    "expected_rates",
    "franson_validity",
    "on_grid",
    "outcome_cells",
    "reservoir_coherence_ok",
    "sfg_transfer_probability",
]

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

# How far, in bin widths, a histogram edge may sit from the bin grid and
# still count as on it.
EDGE_TOL_BINS = 1e-9

# Most bins one histogram grid, 2 x histogram_half_range_ns / histogram_bin_ns,
# may have.  A sweep keeps one int64 histogram per point, so a sweep of
# cli.MAX_PHASES = 10,000 points holds at most 10,000 x 1,000 x 8 B = 80 MB of
# counts.  The defaults use 120 bins.
MAX_HISTOGRAM_BINS = 1_000

# The time-to-digital converter's wiring: Bob's detector runs free and starts
# it; Alice's stops it and is gated, one gate centred on each of Bob's clicks.
START_DETECTOR, STOP_DETECTOR = "bob", "alice"


class ZeroBandwidthError(ValueError):
    """Coherence length requested for a non-positive bandwidth."""


class SaturationWarning(UserWarning):
    """Transfer probability left the small-coupling regime sin^2|g| ~ |g|^2."""


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

# A record field's kind is named by its annotation, which ``check_kinds`` reads as a
# string (``from __future__ import annotations``): its type, then, for a number, that
# it is finite, then the kind's bound.  A plain ``float`` need only be a finite number.
Positive = Annotated[float, "> 0"]
NonNegative = Annotated[float, ">= 0"]
Efficiency = Annotated[float, "in (0, 1]"]
Fraction = Annotated[float, "in [0, 1]"]
Seed = Annotated[int, "in [0, 2**64)"]
_TYPE_NAMES = {bool: "a boolean", numbers.Integral: "an integer", numbers.Real: "a number"}
_KINDS = {
    "bool": (bool, lambda x: True, ""),
    "Seed": (numbers.Integral, lambda x: 0 <= x < 2**64, "fit an unsigned 64-bit integer"),
    "Count": (numbers.Integral, lambda x: x >= 0, "be >= 0"),  # e.g. an undrawn click count
    "float": (numbers.Real, lambda x: True, ""),
    "Positive": (numbers.Real, lambda x: x > 0.0, "be positive"),
    "NonNegative": (numbers.Real, lambda x: x >= 0.0, "be >= 0"),
    "Efficiency": (numbers.Real, lambda x: 0.0 < x <= 1.0, "lie in (0, 1]"),
    "Fraction": (numbers.Real, lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]"),
}


def check_kind(name: str, value, kind: str) -> None:
    """Refuse, naming it, a ``value`` not of ``kind``, a key of _KINDS; a bool is no number."""
    cls, within, rule = _KINDS[kind]
    if isinstance(value, bool) != (cls is bool) or not isinstance(value, cls):
        raise ValueError(f"{name} must be {_TYPE_NAMES[cls]}, got {value!r}")
    # A float32 would overflow in a compare with the float max, an int past it in math.isfinite.
    finite = abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)
    if cls is numbers.Real and not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not within(value):
        raise ValueError(f"{name} must {rule}, got {value!r}")


def check_kinds(record) -> None:
    """Refuse, naming it, the first field of ``record`` not of the kind its annotation names."""
    for f in fields(record):
        if f.type in _KINDS:
            check_kind(f.name, getattr(record, f.name), f.type)


def on_grid(steps: float) -> bool:
    """Whether ``steps``, a length over a bin width, is whole to within EDGE_TOL_BINS."""
    return math.isfinite(steps) and abs(round(steps) - steps) <= EDGE_TOL_BINS  # round(inf) raises


@dataclass(frozen=True)
class SourceParams:
    """Down-conversion source emitting wavelength-correlated photon pairs.

    ``pair_rate_per_s`` is the effective pair rate entering the analyzers,
    i.e. already folded with filter and fiber-coupling losses upstream of
    the interferometers.
    """

    pump_coherence_length_m: Positive = 300.0
    signal_wavelength_nm: Positive = 1555.0  # travels to Alice
    idler_wavelength_nm: Positive = 1312.0  # travels to Bob / the transfer stage
    raw_bandwidth_nm: Positive = 15.0
    alice_filter_bandwidth_nm: Positive = 15.0
    pair_rate_per_s: NonNegative = 2000.0

    def __post_init__(self) -> None:
        check_kinds(self)
        if self.alice_filter_bandwidth_nm > self.raw_bandwidth_nm:
            raise ValueError("alice_filter_bandwidth_nm cannot exceed raw_bandwidth_nm")
        for name, length in (
            ("signal_wavelength_nm", self.alice_coherence_length_m()),
            ("idler_wavelength_nm", self.bob_coherence_length_m()),
        ):
            if not 0.0 < length < math.inf:  # lambda^2 past the float range, or rounded to 0
                raise ValueError(f"{name} gives a coherence length of {length!r} m; need (0, inf)")

    def alice_coherence_length_m(self) -> float:
        """Single-photon coherence length on Alice's (possibly filtered) arm."""
        return coherence_length(self.signal_wavelength_nm, self.alice_filter_bandwidth_nm)

    def bob_coherence_length_m(self) -> float:
        return coherence_length(self.idler_wavelength_nm, self.raw_bandwidth_nm)


@dataclass(frozen=True)
class InterferometerParams:
    """Unbalanced analyzer; the imbalance is the optical path difference."""

    path_imbalance_m: Positive = 0.20
    phase_rad: float = 0.0
    transmission: Efficiency = 0.7  # excess transmission, port splitting excluded

    __post_init__ = check_kinds

    def delay_ns(self) -> float:
        """Long-minus-short arrival-time difference in nanoseconds."""
        return self.path_imbalance_m / SPEED_OF_LIGHT_M_PER_S * 1e9


@dataclass(frozen=True)
class SfgParams:
    """Sum-frequency transfer stage pumped by a strong coherent reservoir."""

    efficiency_per_watt: Positive = 0.80
    reservoir_power_w: Positive = 0.7
    coupling_qubit: Efficiency = 0.4
    coupling_reservoir: Efficiency = 0.4
    input_wavelength_nm: Positive = 1312.0
    output_wavelength_nm: Positive = 712.4
    reservoir_coherence_length_m: Positive = 1000.0

    __post_init__ = check_kinds


@dataclass(frozen=True)
class DetectorParams:
    """Single-photon detector: efficiency and dark-click probability per ns.

    Bob's detector runs free, so ``dark_prob_per_ns`` is its dark rate.
    Alice's is gated: it opens a gate of ``ChainConfig.gate_width_ns``
    centred on each of Bob's clicks (the trigger wiring of the real setup),
    and its darks occur only inside gates, while photon detection itself is
    not gated, standing in for an electronics delay that keeps the gate
    aligned with the photon.
    """

    quantum_efficiency: Efficiency = 0.10
    dark_prob_per_ns: NonNegative = 3.0e-5

    __post_init__ = check_kinds


@dataclass(frozen=True)
class ChainConfig:
    """Full experimental parameter set from source to detectors.

    ``sfg`` is None for the direct (no transfer) configuration.  The timing
    fields below the detector records are shared by the rate budget and by
    the event simulator: the width of Alice's gates, one Gaussian timestamp
    jitter sigma, the nominal central coincidence window used for budgeting,
    and the histogram grid.
    """

    source: SourceParams = field(default_factory=SourceParams)
    alice_interferometer: InterferometerParams = field(default_factory=InterferometerParams)
    bob_interferometer: InterferometerParams = field(default_factory=InterferometerParams)
    alice_detector: DetectorParams = field(
        default_factory=lambda: DetectorParams(quantum_efficiency=0.14, dark_prob_per_ns=1.0e-5)
    )
    bob_detector: DetectorParams = field(default_factory=DetectorParams)
    sfg: SfgParams | None = None
    gate_width_ns: Positive = 2.5
    jitter_ns: NonNegative = 0.1
    coincidence_window_ns: Positive = 0.6
    histogram_bin_ns: Positive = 0.05
    histogram_half_range_ns: Positive = 3.0

    def __post_init__(self) -> None:
        check_kinds(self)
        half, width = self.histogram_half_range_ns, self.histogram_bin_ns
        steps = half / width
        if not 2.0 * steps <= MAX_HISTOGRAM_BINS:  # inf for a subnormal width
            raise ValueError(
                f"2 x histogram_half_range_ns / histogram_bin_ns = {2.0 * steps:.3g} bins "
                f"exceeds MAX_HISTOGRAM_BINS = {MAX_HISTOGRAM_BINS}"
            )
        if not (on_grid(steps) and round(steps) >= 1):
            raise ValueError(
                f"histogram_half_range_ns={half!r} is not a positive integer multiple of "
                f"histogram_bin_ns={width!r}"
            )
        prob = self.transfer_probability()
        if not prob <= 1.0:
            raise ValueError(
                f"chain.sfg gives a transfer probability of {prob:.4g}; it must not exceed 1"
            )

    def transfer_probability(self) -> float:
        """Per-photon SFG transfer probability, 1.0 when absent; silent (see sfg_transfer_probability)."""
        return 1.0 if self.sfg is None else _sfg_budget(self.sfg)


# ---------------------------------------------------------------------------
# coherence-length calculus
# ---------------------------------------------------------------------------


def coherence_length(wavelength_nm: float, bandwidth_nm: float) -> float:
    """Coherence length lambda^2 / (delta lambda) in meters.

    For the pair photons at 1555 nm with the raw 15 nm bandwidth this gives
    about 161 micrometers, the scale every imbalance comparison runs against.
    """
    if not bandwidth_nm > 0.0:  # also NaN
        raise ZeroBandwidthError(f"bandwidth must be positive, got {bandwidth_nm!r}")
    if not wavelength_nm > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm!r}")
    try:
        return wavelength_nm**2 / bandwidth_nm * 1e-9
    except OverflowError:  # lambda^2 beyond the float range
        return math.inf


@dataclass(frozen=True)
class FransonCheck:
    """One named validity condition with its pass margin.

    ``margin`` is the ratio of the actual quantity to the threshold it must
    clear, so ``passed``, set from it, is margin >= 1: it passes with that factor to spare.
    A margin of infinity (perfectly matched analyzers) is reported as-is;
    the JSON outputs write it as null.
    """

    name: str
    passed: bool = field(init=False)
    margin: float
    detail: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.margin >= 1.0)


@dataclass(frozen=True)
class FransonReport:
    no_single_photon_interference: FransonCheck
    analyzers_matched: FransonCheck
    within_pump_coherence: FransonCheck

    @property
    def checks(self) -> tuple[FransonCheck, FransonCheck, FransonCheck]:
        return (
            self.no_single_photon_interference,
            self.analyzers_matched,
            self.within_pump_coherence,
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def franson_validity(
    source: SourceParams,
    alice: InterferometerParams,
    bob: InterferometerParams,
) -> FransonReport:
    """Check the three imbalance hierarchies required for two-photon fringes.

    (i)   Each analyzer imbalance exceeds 10x its photon's coherence length,
          killing single-photon interference.
    (ii)  The two imbalances agree within the shorter single-photon
          coherence length, so short-short and long-long stay unresolvable.
    (iii) The larger imbalance stays below a tenth of the pump coherence
          length, so the pair inherits a well-defined emission-time
          superposition.
    """
    l_alice = source.alice_coherence_length_m()
    l_bob = source.bob_coherence_length_m()

    margin_a = alice.path_imbalance_m / (10.0 * l_alice)
    margin_b = bob.path_imbalance_m / (10.0 * l_bob)
    margin_i = min(margin_a, margin_b)
    check_i = FransonCheck(
        name="no_single_photon_interference",
        margin=margin_i,
        detail=(
            f"imbalances ({alice.path_imbalance_m:.4g} m, {bob.path_imbalance_m:.4g} m) vs "
            f"10x coherence lengths ({10 * l_alice:.4g} m, {10 * l_bob:.4g} m)"
        ),
    )

    mismatch = abs(alice.path_imbalance_m - bob.path_imbalance_m)
    l_short = min(l_alice, l_bob)
    margin_ii = math.inf if mismatch == 0.0 else l_short / mismatch
    check_ii = FransonCheck(
        name="analyzers_matched",
        margin=margin_ii,
        detail=f"|dL_A - dL_B| = {mismatch:.4g} m vs coherence length {l_short:.4g} m",
    )

    biggest = max(alice.path_imbalance_m, bob.path_imbalance_m)
    margin_iii = (source.pump_coherence_length_m / 10.0) / biggest
    check_iii = FransonCheck(
        name="within_pump_coherence",
        margin=margin_iii,
        detail=(
            f"max imbalance {biggest:.4g} m vs pump coherence / 10 = "
            f"{source.pump_coherence_length_m / 10.0:.4g} m"
        ),
    )

    return FransonReport(check_i, check_ii, check_iii)


# ---------------------------------------------------------------------------
# transfer-stage budget
# ---------------------------------------------------------------------------


def _sfg_budget(p: SfgParams) -> float:
    return (
        p.efficiency_per_watt
        * p.reservoir_power_w
        * p.coupling_qubit
        * p.coupling_reservoir
        * (p.output_wavelength_nm / p.input_wavelength_nm)
    )


def sfg_transfer_probability(p: SfgParams) -> float:
    """Success probability of the wavelength transfer from the power budget.

    efficiency/W x reservoir power x both coupling efficiencies x the
    photon-number-to-energy conversion ratio lambda_out / lambda_in.  The
    nominal numbers (0.80/W, 0.7 W, 0.4, 0.4, 1312 -> 712 nm) land at about
    0.0486, the few-percent operating point.  Beyond 0.5 the linear budget
    stops being trustworthy (sin^2 saturates), so that region warns: here,
    where a command reports it, not in ChainConfig.transfer_probability.
    """
    prob = _sfg_budget(p)
    if prob > 0.5:
        warnings.warn(
            f"transfer probability {prob:.3f} exceeds 0.5; the linear power "
            "budget is outside its validity range",
            SaturationWarning,
            stacklevel=2,
        )
    return prob


@dataclass(frozen=True)
class ReservoirCheck:
    ok: bool
    margin: float
    detail: str


def reservoir_coherence_ok(p: SfgParams, bob: InterferometerParams) -> ReservoirCheck:
    """Require the reservoir coherence length to dwarf Bob's imbalance.

    The transferred photon keeps the pair coherence only if the reservoir
    is phase-stable over both analyzer arms; the criterion used here is a
    factor 10 over the imbalance, reported with the actual ratio as margin.
    """
    margin = p.reservoir_coherence_length_m / bob.path_imbalance_m
    return ReservoirCheck(
        ok=margin >= 10.0,
        margin=margin,
        detail=(
            f"reservoir coherence {p.reservoir_coherence_length_m:.4g} m vs "
            f"imbalance {bob.path_imbalance_m:.4g} m (need >= 10x)"
        ),
    )


# ---------------------------------------------------------------------------
# expected rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """Analytic singles, coincidence, and accidental rates (all per second).

    ``accidental_rate_uncorrelated`` is the textbook R_start x R_stop x
    window product; ``accidental_rate_gated_darks`` adds the dark counts
    Alice's gated detector fires inside the very gates Bob's clicks opened,
    which land flat across the coincidence window and dominate when Bob's
    free-running detector is dark-count heavy.  The predicted raw/net
    visibility ratio is 1 - accidental fraction.
    """

    alice_singles_per_s: float
    bob_singles_per_s: float
    alice_photon_rate_per_s: float
    bob_photon_rate_per_s: float
    alice_dark_rate_per_s: float
    bob_dark_rate_per_s: float
    true_coincidence_rate_per_s: float
    accidental_rate_uncorrelated_per_s: float
    accidental_rate_gated_darks_per_s: float
    accidental_fraction: float
    predicted_raw_over_net: float

    @property
    def accidental_rate_total_per_s(self) -> float:
        return self.accidental_rate_uncorrelated_per_s + self.accidental_rate_gated_darks_per_s


def outcome_cells(chain: ChainConfig, v_cos: float) -> list[tuple[str, float, dict]]:
    """Every (class, path bit, clicking sides) cell of OUTCOME_CLASSES at V cos(phi) = v_cos.

    A cell is (class name, probability per emitted pair, {clicking side, 0
    Alice or 1 Bob: arrival offset in ns}).  Each photon is kept with its
    side's factor, arm transmission x detector efficiency (x transfer for
    Bob).  Sampler order: table order, path bit 0 then 1, Alice, Bob, both.
    """
    arms = (chain.alice_interferometer, chain.bob_interferometer)
    keep = (
        arms[0].transmission * chain.alice_detector.quantum_efficiency,
        arms[1].transmission * chain.transfer_probability() * chain.bob_detector.quantum_efficiency,
    )
    delay = [arm.delay_ns() for arm in arms]
    cells = []
    for name, (c, s), arrival in OUTCOME_CLASSES:
        reached = [side for side in (0, 1) if arrival[side] is not None]
        if not reached:
            continue
        clicking_sets = [[0], [1], [0, 1]] if len(reached) == 2 else [reached]
        for bit in (0, 1):
            for clicking in clicking_sets:
                p = 0.5 * (c + s * v_cos)
                for side in reached:
                    p *= keep[side] if side in clicking else 1.0 - keep[side]
                cells.append((name, p, {i: delay[i] * arrival[i][bit] for i in clicking}))
    return cells


def expected_rates(chain: ChainConfig) -> RateReport:
    """Rate budget for the configured chain from its phase-averaged outcome_cells.

    Photon singles are the pair rate times the cells a side clicks in, true
    coincidences times the central class's cells where both click.
    Accidentals combine the uncorrelated start/stop product over the
    coincidence window with the gated-dark floor.  These are design-level
    estimates, the event simulator is the ground truth.
    """
    pair_rate, cells = chain.source.pair_rate_per_s, outcome_cells(chain, 0.0)
    alice_photon, bob_photon = (pair_rate * sum(p for _, p, at in cells if i in at) for i in (0, 1))
    true_rate = pair_rate * sum(p for name, p, at in cells if name == "central" and len(at) == 2)
    bob_dark = chain.bob_detector.dark_prob_per_ns * 1e9  # free-running
    bob_singles = bob_photon + bob_dark
    alice_dark_prob = chain.alice_detector.dark_prob_per_ns
    alice_dark = bob_singles * alice_dark_prob * chain.gate_width_ns  # one gate per Bob click
    alice_singles = alice_photon + alice_dark

    window_ns = chain.coincidence_window_ns
    accidental_uncorr = bob_singles * alice_singles * window_ns * 1e-9
    # Alice's darks inside the gate opened by the start click itself: flat in
    # the time difference, so the central window collects its share.
    accidental_gated = bob_singles * alice_dark_prob * window_ns

    accidental_total = accidental_uncorr + accidental_gated
    denominator = accidental_total + true_rate
    fraction = accidental_total / denominator if denominator > 0.0 else 0.0

    return RateReport(
        alice_singles_per_s=alice_singles,
        bob_singles_per_s=bob_singles,
        alice_photon_rate_per_s=alice_photon,
        bob_photon_rate_per_s=bob_photon,
        alice_dark_rate_per_s=alice_dark,
        bob_dark_rate_per_s=bob_dark,
        true_coincidence_rate_per_s=true_rate,
        accidental_rate_uncorrelated_per_s=accidental_uncorr,
        accidental_rate_gated_darks_per_s=accidental_gated,
        accidental_fraction=fraction,
        predicted_raw_over_net=1.0 - fraction,
    )

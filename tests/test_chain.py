"""Tests for the analytic optics-chain calculus."""

import dataclasses
import math
import numbers

import numpy as np
import pytest

from photonlink import analysis as an
from photonlink import chain as ch
from photonlink.config import InvalidConfigError, SimConfig, sim_config_from_dict
from photonlink.presets import preset_config
from photonlink.quantum import OUTCOME_CLASSES
from test_golden_outputs import DENSE_DOCUMENT


# ---------------------------------------------------------------------------
# coherence length
# ---------------------------------------------------------------------------


def test_coherence_length_signal_band():
    # 1555 nm with 15 nm bandwidth: 1555^2/15 nm = 161.2 um
    assert ch.coherence_length(1555.0, 15.0) == pytest.approx(1.612e-4, rel=1e-3)


def test_coherence_length_idler_band():
    assert ch.coherence_length(1312.0, 15.0) == pytest.approx(1.148e-4, rel=1e-3)


def test_coherence_length_filtered_signal_scales_inversely():
    wide = ch.coherence_length(1555.0, 15.0)
    narrow = ch.coherence_length(1555.0, 1.5)
    assert narrow == pytest.approx(10.0 * wide, rel=1e-12)


def test_coherence_length_rejects_bad_bandwidth():
    with pytest.raises(ch.ZeroBandwidthError):
        ch.coherence_length(1555.0, 0.0)
    with pytest.raises(ch.ZeroBandwidthError):
        ch.coherence_length(1555.0, -1.0)
    with pytest.raises(ch.ZeroBandwidthError):
        ch.coherence_length(1555.0, math.nan)
    with pytest.raises(ValueError, match="wavelength"):
        ch.coherence_length(-5.0, 1.0)
    with pytest.raises(ValueError, match="wavelength"):
        ch.coherence_length(math.nan, 15.0)


# ---------------------------------------------------------------------------
# Franson validity
# ---------------------------------------------------------------------------


def default_source(**kw) -> ch.SourceParams:
    return ch.SourceParams(**kw)


def test_franson_validity_nominal_passes():
    source = default_source()
    ifo = ch.InterferometerParams(path_imbalance_m=0.20)
    report = ch.franson_validity(source, ifo, ifo)
    assert report.passed
    assert report.no_single_photon_interference.passed
    # 0.20 m against 10 x 161.2 um: margin ~ 124
    assert report.no_single_photon_interference.margin == pytest.approx(124.0, rel=0.01)
    assert report.analyzers_matched.passed
    assert math.isinf(report.analyzers_matched.margin)
    assert report.within_pump_coherence.passed
    # (300 m / 10) / 0.20 m = 150
    assert report.within_pump_coherence.margin == pytest.approx(150.0, rel=1e-9)


def test_franson_validity_small_imbalance_fails_first_check():
    source = default_source()
    ifo = ch.InterferometerParams(path_imbalance_m=1.0e-4)
    report = ch.franson_validity(source, ifo, ifo)
    assert not report.no_single_photon_interference.passed
    assert not report.passed


def test_franson_validity_mismatched_analyzers_fail_second_check():
    source = default_source()
    alice = ch.InterferometerParams(path_imbalance_m=0.200)
    bob = ch.InterferometerParams(path_imbalance_m=0.201)  # 1 mm off
    report = ch.franson_validity(source, alice, bob)
    assert not report.analyzers_matched.passed
    assert report.analyzers_matched.margin < 1.0
    assert report.no_single_photon_interference.passed
    # A check passes at margin >= 1; here l / m >= 1 exactly when m <= l, so a
    # mismatch of one coherence length passes and one ulp more fails.
    l_short = min(source.alice_coherence_length_m(), source.bob_coherence_length_m())
    for mismatch, passed in (
        (math.nextafter(l_short, 0.0), True), (l_short, True), (math.nextafter(l_short, 1.0), False)
    ):
        alice = ch.InterferometerParams(path_imbalance_m=2.0 * l_short)
        bob = ch.InterferometerParams(path_imbalance_m=2.0 * l_short - mismatch)  # both differences exact
        check = ch.franson_validity(source, alice, bob).analyzers_matched
        assert (check.passed, check.margin >= 1.0) == (passed, passed)


def test_franson_validity_short_pump_coherence_fails_third_check():
    source = default_source(pump_coherence_length_m=1.0)
    ifo = ch.InterferometerParams(path_imbalance_m=0.20)
    report = ch.franson_validity(source, ifo, ifo)
    assert not report.within_pump_coherence.passed
    assert report.within_pump_coherence.margin == pytest.approx(0.5, rel=1e-9)


def test_franson_validity_uses_filtered_alice_bandwidth():
    # A 1.5 nm filter on Alice makes her photon 10x longer; the matched
    # check must then compare against Bob's (shorter) coherence length.
    source = default_source(alice_filter_bandwidth_nm=1.5)
    alice = ch.InterferometerParams(path_imbalance_m=0.2000)
    bob = ch.InterferometerParams(path_imbalance_m=0.2000 + 1.2e-4)
    report = ch.franson_validity(source, alice, bob)
    # mismatch 120 um < Bob's 114.8 um fails; against Alice's 1.6 mm it
    # would have passed, so the conservative choice matters.
    assert not report.analyzers_matched.passed


# ---------------------------------------------------------------------------
# SFG budget
# ---------------------------------------------------------------------------


def test_sfg_transfer_probability_nominal_budget():
    p = ch.SfgParams(
        efficiency_per_watt=0.80,
        reservoir_power_w=0.7,
        coupling_qubit=0.4,
        coupling_reservoir=0.4,
        input_wavelength_nm=1312.0,
        output_wavelength_nm=712.0,
    )
    assert ch.sfg_transfer_probability(p) == pytest.approx(0.04862, abs=5e-6)


def test_sfg_transfer_probability_scales_linearly_with_power():
    base = ch.SfgParams()
    doubled = ch.SfgParams(reservoir_power_w=base.reservoir_power_w * 2.0)
    assert ch.sfg_transfer_probability(doubled) == pytest.approx(
        2.0 * ch.sfg_transfer_probability(base), rel=1e-12
    )


def test_sfg_transfer_probability_warns_past_half():
    strong = ch.SfgParams(efficiency_per_watt=0.80, reservoir_power_w=10.0)
    with pytest.warns(ch.SaturationWarning):
        prob = ch.sfg_transfer_probability(strong)
    assert prob > 0.5


def test_reservoir_coherence_margins():
    bob = ch.InterferometerParams(path_imbalance_m=0.20)
    ok = ch.reservoir_coherence_ok(ch.SfgParams(reservoir_coherence_length_m=1000.0), bob)
    assert ok.ok
    assert ok.margin == pytest.approx(5000.0, rel=1e-9)
    edge = ch.reservoir_coherence_ok(ch.SfgParams(reservoir_coherence_length_m=2.0), bob)
    assert edge.ok  # margin exactly 10 still passes
    assert edge.margin == pytest.approx(10.0, rel=1e-9)
    bad = ch.reservoir_coherence_ok(ch.SfgParams(reservoir_coherence_length_m=1.0), bob)
    assert not bad.ok


# ---------------------------------------------------------------------------
# expected rates
# ---------------------------------------------------------------------------


def test_accidental_rate_product_formula():
    # Classic start x stop x window product: 1e4/s x 1e3/s x 1 ns = 0.01/s.
    # With a photon rate of zero, Bob's free-running darks set his 1e4/s,
    # and Alice's gated darks, 1e4 gates/s x 1e-2/ns x 10 ns, her 1e3/s.
    # Her darks inside the gate of the start click itself add 1e4/s x
    # 1e-2/ns x 1 ns = 100/s, flat across the window.
    cfg = ch.ChainConfig(
        source=ch.SourceParams(pair_rate_per_s=0.0),
        alice_detector=ch.DetectorParams(quantum_efficiency=0.14, dark_prob_per_ns=1.0e-2),
        bob_detector=ch.DetectorParams(quantum_efficiency=0.10, dark_prob_per_ns=1.0e-5),
        gate_width_ns=10.0,
        coincidence_window_ns=1.0,
    )
    report = ch.expected_rates(cfg)
    assert report.bob_singles_per_s == pytest.approx(1.0e4)
    assert report.alice_singles_per_s == pytest.approx(1.0e3)
    assert report.accidental_rate_uncorrelated_per_s == pytest.approx(0.01, rel=1e-9)
    assert report.accidental_rate_gated_darks_per_s == pytest.approx(100.0, rel=1e-9)
    assert report.true_coincidence_rate_per_s == 0.0


def test_singles_composition():
    cfg = ch.ChainConfig()
    report = ch.expected_rates(cfg)
    src = cfg.source.pair_rate_per_s
    expect_bob_photon = src * 0.5 * cfg.bob_interferometer.transmission * 0.10
    assert report.bob_photon_rate_per_s == pytest.approx(expect_bob_photon)
    assert report.bob_dark_rate_per_s == pytest.approx(3.0e-5 * 1e9)
    assert report.bob_singles_per_s == pytest.approx(expect_bob_photon + 3.0e4)
    # Alice is gated: dark rate proportional to Bob's singles
    expect_alice_dark = report.bob_singles_per_s * 1.0e-5 * cfg.gate_width_ns
    assert report.alice_dark_rate_per_s == pytest.approx(expect_alice_dark)
    assert report.alice_singles_per_s == pytest.approx(
        report.alice_photon_rate_per_s + expect_alice_dark
    )


def test_true_rate_uses_transfer_probability():
    base = ch.ChainConfig()
    with_sfg = ch.ChainConfig(sfg=ch.SfgParams())
    r0 = ch.expected_rates(base)
    r1 = ch.expected_rates(with_sfg)
    p = ch.sfg_transfer_probability(ch.SfgParams())
    assert r1.true_coincidence_rate_per_s == pytest.approx(
        r0.true_coincidence_rate_per_s * p, rel=1e-12
    )
    assert r1.bob_photon_rate_per_s == pytest.approx(r0.bob_photon_rate_per_s * p, rel=1e-12)


# ---------------------------------------------------------------------------
# the outcome cell table
# ---------------------------------------------------------------------------

TABLE_CONFIGS = {
    "fig2-baseline": lambda: preset_config("fig2-baseline"),
    "fig3-transfer": lambda: preset_config("fig3-transfer"),
    "criterion-09": lambda: sim_config_from_dict(DENSE_DOCUMENT),
}


def keep_factors(chain: ch.ChainConfig) -> tuple[float, float]:
    """Each side's arm transmission x transfer (Bob only) x detector efficiency."""
    alice = chain.alice_interferometer.transmission * chain.alice_detector.quantum_efficiency
    bob = (
        chain.bob_interferometer.transmission
        * chain.transfer_probability()
        * chain.bob_detector.quantum_efficiency
    )
    return alice, bob


@pytest.mark.parametrize("name", sorted(TABLE_CONFIGS))
def test_rate_budget_sums_equal_the_closed_forms(name):
    # The closed forms the table's sums replaced: pair rate x monitored port
    # x arm x transfer x QE per side, and pair rate x central c x joint survival.
    chain = TABLE_CONFIGS[name]().chain
    report, rate = ch.expected_rates(chain), chain.source.pair_rate_per_s
    cells = ch.outcome_cells(chain, 0.0)  # the sampler's phase-averaged table, read as is
    assert report.alice_photon_rate_per_s == rate * sum(p for _, p, at in cells if 0 in at)
    assert report.bob_photon_rate_per_s == rate * sum(p for _, p, at in cells if 1 in at)
    ports = [sum(c for _, (c, _), arr in OUTCOME_CLASSES if arr[side] is not None) for side in (0, 1)]
    keep = keep_factors(chain)
    assert report.alice_photon_rate_per_s == pytest.approx(rate * ports[0] * keep[0], rel=1e-12)
    assert report.bob_photon_rate_per_s == pytest.approx(rate * ports[1] * keep[1], rel=1e-12)
    central = OUTCOME_CLASSES[0][1][0]
    true_rate = rate * central * keep[0] * keep[1]
    assert report.true_coincidence_rate_per_s == pytest.approx(true_rate, rel=1e-12)


@pytest.mark.parametrize("name", sorted(TABLE_CONFIGS))
def test_outcome_cells_are_probabilities_and_sum_per_class(name):
    cfg = TABLE_CONFIGS[name]()
    k = keep_factors(cfg.chain)
    for v_cos in (-cfg.visibility, 0.0, cfg.visibility):
        cells = ch.outcome_cells(cfg.chain, v_cos)
        assert all(0.0 <= p <= 1.0 for _, p, _ in cells)
        for class_name, (c, s), arrival in OUTCOME_CLASSES:
            mine = [(p, at) for n, p, at in cells if n == class_name]
            reached = [side for side in (0, 1) if arrival[side] is not None]
            w = c + s * v_cos
            if len(reached) == 2:  # path bit x (Alice only, Bob only, both)
                assert [sorted(at) for _, at in mine] == [[0], [1], [0, 1]] * 2
                total = w * (1.0 - (1.0 - k[0]) * (1.0 - k[1]))
            elif reached:  # path bit x the one side
                assert [sorted(at) for _, at in mine] == [reached] * 2
                total = w * k[reached[0]]
            else:
                assert mine == []
                continue
            assert sum(p for p, _ in mine) == pytest.approx(total, rel=1e-12)


def test_accidental_fraction_and_predicted_ratio():
    cfg = ch.ChainConfig()
    report = ch.expected_rates(cfg)
    total_acc = report.accidental_rate_total_per_s
    expect_fraction = total_acc / (total_acc + report.true_coincidence_rate_per_s)
    assert report.accidental_fraction == pytest.approx(expect_fraction, rel=1e-12)
    assert report.predicted_raw_over_net == pytest.approx(1.0 - expect_fraction, rel=1e-12)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


# Not finite numbers, or not numbers at all: a bool is not a number.
BAD_NUMBERS = (math.nan, math.inf, -math.inf, True, "1.0", None)

# The section of a config document each record is built from.
SECTIONS = {
    SimConfig: "simulation",
    ch.ChainConfig: "chain",
    ch.SourceParams: "chain.source",
    ch.InterferometerParams: "chain.bob_interferometer",
    ch.DetectorParams: "chain.alice_detector",
    ch.SfgParams: "chain.sfg",
}


def non_finite(record) -> list[dict]:
    """Each of BAD_NUMBERS in each number field of ``record``, one field at a time."""
    kinds = {f.name: ch._KINDS.get(f.type, (None,))[0] for f in dataclasses.fields(record)}
    names = [name for name, cls in kinds.items() if cls is numbers.Real]
    return [{name: value} for name in names for value in BAD_NUMBERS]


def assert_refused(record, refused: list[dict]) -> None:
    """Each entry fails to build ``record`` with a ValueError naming its first field, and fails
    to load as a config document with an InvalidConfigError naming the field and the section."""
    section = SECTIONS[record]
    for fields in refused:
        name = next(iter(fields))
        with pytest.raises(ValueError, match=name):
            record(**fields)
        document = fields
        for key in reversed(section.split(".") if record is not SimConfig else []):
            document = {key: document}
        with pytest.raises(InvalidConfigError) as refusal:
            sim_config_from_dict(document)
        assert name in str(refusal.value) and repr(section) in str(refusal.value), fields


def test_every_value_field_has_a_kind():
    # Nested records (built by a default factory), the optional sfg record
    # and a histogram's counts array are checked on their own; every other
    # field needs a kind.
    for record in (*SECTIONS, an.FringePoint, an.CoincidenceHistogram, an.FringeFit):
        for f in dataclasses.fields(record):
            if f.default_factory is dataclasses.MISSING and f.default is not None:
                if f.type != "np.ndarray":
                    assert f.type in ch._KINDS, f"{record.__name__}.{f.name}: {f.type}"


def test_numpy_floats_of_any_width_are_numbers():
    # A float32 compared with the float max would warn of an overflowing cast.
    assert ch.ChainConfig(jitter_ns=np.float32(0.25)).jitter_ns == 0.25
    assert_refused(ch.ChainConfig, [{"jitter_ns": np.float32("nan")}, {"jitter_ns": np.float16(-1)}])


def test_sim_config_validation():
    refused = non_finite(SimConfig) + [
        {"visibility": -0.1},
        {"visibility": 1.5},
        {"duration_s": 0.0},
        {"seed": True},
        {"seed": 1.0},
        {"seed": "1"},
        {"seed": None},
        {"seed": -1},
        {"seed": 2**64},
        {"phase_averaged": "no"},
        {"phase_averaged": 1},
        {"phase_averaged": None},
    ]
    assert_refused(SimConfig, refused)
    assert len(non_finite(SimConfig)) == len(BAD_NUMBERS) * 2  # visibility and duration_s
    SimConfig(seed=2**64 - 1, visibility=1)  # an integer is a number


def test_source_rejects_filter_wider_than_raw():
    with pytest.raises(ValueError):
        ch.SourceParams(alice_filter_bandwidth_nm=20.0, raw_bandwidth_nm=15.0)


def test_source_validation():
    refused = non_finite(ch.SourceParams) + [
        {"pump_coherence_length_m": 0.0},
        {"raw_bandwidth_nm": -1.0},
        {"pair_rate_per_s": -1.0},
        {"pair_rate_per_s": "2000"},
        # coherence lengths beyond the float range, or rounded to zero
        {"signal_wavelength_nm": 1e300},
        {"idler_wavelength_nm": 1e200},
        {"signal_wavelength_nm": 5e-324},
        {"idler_wavelength_nm": 5e-324},
    ]
    assert_refused(ch.SourceParams, refused)


def test_coherence_length_beyond_the_float_range_is_infinite():
    assert ch.coherence_length(1e300, 1.0) == math.inf


def test_interferometer_delay():
    ifo = ch.InterferometerParams(path_imbalance_m=0.20)
    assert ifo.delay_ns() == pytest.approx(0.667, abs=5e-4)


def test_interferometer_rejects_bad_transmission():
    with pytest.raises(ValueError):
        ch.InterferometerParams(transmission=0.0)
    with pytest.raises(ValueError):
        ch.InterferometerParams(transmission=1.2)


def test_interferometer_validation():
    refused = non_finite(ch.InterferometerParams) + [{"path_imbalance_m": 0.0}]
    assert_refused(ch.InterferometerParams, refused)
    ch.InterferometerParams(phase_rad=-7.0)  # any finite phase


def test_sfg_validation():
    refused = non_finite(ch.SfgParams) + [
        {"efficiency_per_watt": 0.0},
        {"reservoir_power_w": -0.7},
        {"coupling_qubit": 0.0},
        {"coupling_reservoir": 1.5},
    ]
    assert_refused(ch.SfgParams, refused)


def test_detector_validation():
    refused = non_finite(ch.DetectorParams) + [
        {"quantum_efficiency": 0.0},
        {"dark_prob_per_ns": -1e-6},
    ]
    assert_refused(ch.DetectorParams, refused)


def test_chain_config_validation():
    # build_histogram takes its grid from a ChainConfig, so these refusals
    # are the only ones between a chain and the pairing.
    refused = non_finite(ch.ChainConfig) + [
        {"gate_width_ns": 0.0},
        {"gate_width_ns": -2.5},
        {"jitter_ns": -0.1},
        {"coincidence_window_ns": 0.0},
        {"histogram_half_range_ns": 3.01},  # off the 0.05 ns grid
        {"histogram_bin_ns": 1e-9, "histogram_half_range_ns": 1.4e-9},  # 1.4 bins
        {"histogram_bin_ns": 1.0, "histogram_half_range_ns": 1e-12},  # zero bins
        {"histogram_bin_ns": 0.0},
        {"histogram_half_range_ns": 0.0},
        {"histogram_half_range_ns": -2.0},
        {"histogram_bin_ns": 1e-5},  # 600,000 bins, past MAX_HISTOGRAM_BINS
        {"histogram_bin_ns": 5e-324},  # a subnormal width: infinitely many bins
    ]
    assert_refused(ch.ChainConfig, refused)
    assert len(non_finite(ch.ChainConfig)) == len(BAD_NUMBERS) * 5  # the timing and grid fields
    ch.ChainConfig(histogram_bin_ns=0.006, histogram_half_range_ns=3.0)  # 1,000 bins, at the cap

"""Acceptance gate: the twelve headline requirements.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s or
in failure output).  Statistical criteria run the shipped presets at their
frozen default seeds through the real CLI, so they are deterministic;
runtime ceilings are asserted with wall-clock measurements.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from photonlink import analysis as an
from photonlink import chain as ch
from photonlink import cli
from photonlink import events as ev
from photonlink import quantum as q
from photonlink.config import SimConfig
from photonlink.presets import preset_config
from test_golden_outputs import read_json


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL: {description}")
        raise
    print(f"[criterion {number:02d}] PASS: {description}")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ("PHOTONLINK_PRESET", "PHOTONLINK_CONFIG", "PHOTONLINK_SEED",
                "PHOTONLINK_DURATION", "PHOTONLINK_OUT"):
        monkeypatch.delenv(var, raising=False)


def random_joint_state(rng: np.random.Generator) -> q.JointState:
    vec = np.zeros(q.DIM, dtype=complex)
    for a in range(q.A_DIM):
        for b in range(q.B_DIM):
            for bp in range(q.B_DIM):
                if (b != 0) + (bp != 0) == 1:
                    vec[q.basis_index(a, b, bp)] = rng.normal() + 1j * rng.normal()
    vec /= np.linalg.norm(vec)
    return q.JointState(vec)


# ---------------------------------------------------------------------------


def test_01_closed_form_matches_matrix_exponential():
    with criterion(1, "closed-form evolution vs exp(-iH) oracle, 1000 draws, <1e-10"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260816)
        worst = 0.0
        for _ in range(1000):
            state = random_joint_state(rng)
            couplings = q.CouplingPair(
                g1=rng.normal() + 1j * rng.normal(),
                g2=rng.normal() + 1j * rng.normal(),
            )
            fast = q.evolve_transfer(state, couplings).vector
            slow = expm(-1j * q.hamiltonian_matrix(couplings)) @ state.vector
            worst = max(worst, float(np.max(np.abs(fast - slow))))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, f"max deviation {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.1f} s"


def test_02_perfect_transfer_point():
    with criterion(2, "g1 = g2 = pi/2 transfers with probability 1 and fidelity 1"):
        g = math.pi / 2.0
        assert abs(q.transfer_success_probability(g) - 1.0) < 1e-12
        c1 = c2 = 1.0 / math.sqrt(2.0)
        state = q.make_entangled_input(c1, c2)
        outcome = q.post_select_transfer(q.evolve_transfer(state, q.CouplingPair(g, g)))
        assert abs(outcome.probability - 1.0) < 1e-12
        assert abs(q.transfer_fidelity(outcome, c1, c2) - 1.0) < 1e-12


def test_03_coherence_condition():
    with criterion(3, "fidelity follows cos^2(delta/2); unity exactly at g1 = g2"):
        c = 1.0 / math.sqrt(2.0)
        state = q.make_entangled_input(c, c)
        mag = 0.8
        for delta in np.linspace(-3.0, 3.0, 25):
            couplings = q.CouplingPair(mag, mag * np.exp(1j * delta))
            outcome = q.post_select_transfer(q.evolve_transfer(state, couplings))
            fidelity = q.transfer_fidelity(outcome, c, c)
            assert abs(fidelity - math.cos(delta / 2.0) ** 2) < 1e-10
        # equal couplings, arbitrary common phase: exact unity
        for g in (0.3, 1.1 * np.exp(0.7j), (math.pi / 2) * np.exp(-2.2j)):
            outcome = q.post_select_transfer(q.evolve_transfer(state, q.CouplingPair(g, g)))
            assert abs(q.transfer_fidelity(outcome, c, c) - 1.0) < 1e-12
        # any mismatch in magnitude or phase costs fidelity
        for g1, g2 in ((0.5, 0.6), (0.8, 0.8 * np.exp(0.3j)), (1.2, 0.9)):
            outcome = q.post_select_transfer(q.evolve_transfer(state, q.CouplingPair(g1, g2)))
            assert q.transfer_fidelity(outcome, c, c) < 1.0 - 1e-4


def test_04_transfer_probability_budget():
    with criterion(4, "conversion budget gives P_success = 0.0486 +- 0.0001"):
        p_default = ch.sfg_transfer_probability(ch.SfgParams())
        assert abs(p_default - 0.0486) < 1e-4, f"default budget {p_default:.6f}"
        p_preset = preset_config("fig3-transfer").chain.transfer_probability()
        assert abs(p_preset - 0.0486) < 1e-4, f"preset budget {p_preset:.6f}"


def test_05_single_photon_coherence_length():
    with criterion(5, "coherence_length(1555 nm, 15 nm) lands in 140..175 um"):
        length_m = ch.coherence_length(1555.0, 15.0)
        assert 140e-6 <= length_m <= 175e-6, f"{length_m:.3e} m"


def test_06_baseline_fringe_reproduction(tmp_path):
    desc = "baseline preset sweep: v_net within 0.02 of 0.970, v_raw in [0.85, 0.90], <60 s"
    with criterion(6, desc):
        start = time.perf_counter()
        code = cli.main(["sweep", "--preset", "fig2-baseline", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        assert code == 0
        doc = read_json(tmp_path / "fit.json")
        v_net = doc["fit"]["v_net"]
        v_raw = doc["fit"]["v_raw"]
        counts = [
            float(line.split(",")[1])
            for line in (tmp_path / "fringe.csv").read_text().splitlines()[1:]
        ]
        assert abs(v_net - 0.970) <= 0.02, f"v_net {v_net:.4f}"
        assert 0.85 <= v_raw <= 0.90, f"v_raw {v_raw:.4f}"
        assert np.mean(counts) >= 400, f"mean {np.mean(counts):.0f} coincidences/point"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_07_transfer_fringe_reproduction(tmp_path):
    desc = "transfer preset sweep: v_net in [0.95, 1.0], v_raw in [0.84, 0.89], Bob rate scales, <120 s"
    with criterion(7, desc):
        start = time.perf_counter()
        code = cli.main(["sweep", "--preset", "fig3-transfer", "--out", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "fit.json")
        v_net = doc["fit"]["v_net"]
        v_raw = doc["fit"]["v_raw"]
        assert 0.95 <= v_net <= 1.0, f"v_net {v_net:.4f}"
        assert 0.84 <= v_raw <= 0.89, f"v_raw {v_raw:.4f}"
        counts = [
            float(line.split(",")[1])
            for line in (tmp_path / "fringe.csv").read_text().splitlines()[1:]
        ]
        assert np.mean(counts) >= 400, f"mean {np.mean(counts):.0f} coincidences/point"

        # Bob's photon rate must thin by exactly the transfer probability:
        # with a common seed the converted stream is a Bernoulli subsample
        # of the unconverted one, so a binomial 3-sigma test applies.
        import dataclasses

        base = preset_config("fig3-transfer")
        short = dataclasses.replace(base, duration_s=2.0, seed=31415)
        without = dataclasses.replace(
            short, chain=dataclasses.replace(short.chain, sfg=None)
        )
        p = base.chain.transfer_probability()
        n_with = ev.simulate(short).detector_times("bob", "photon").size
        n_without = ev.simulate(without).detector_times("bob", "photon").size
        sigma = math.sqrt(n_without * p * (1.0 - p))
        assert abs(n_with - p * n_without) <= 3.0 * sigma, (
            f"bob photons {n_with} vs expected {p * n_without:.1f} +- {sigma:.1f}"
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_08_fidelity_formula():
    with criterion(8, "fidelity (1+v)/2: 0.970 -> 0.985 exactly, 0.962 -> 0.981"):
        assert an.fidelity_from_visibility(0.970) == 0.985
        assert an.fidelity_from_visibility(0.962) == 0.981


def test_09_three_peak_histogram_structure(tmp_path):
    desc = "phase-averaged histogram: peaks at 0 and +-0.667 ns, area ratio 2:1 +- 5%"
    with criterion(9, desc):
        document = {
            "visibility": 1.0,
            "duration_s": 1.0,
            "seed": 271828,
            "phase_averaged": True,
            "chain": {
                "source": {"pair_rate_per_s": 200_000.0},
                "alice_interferometer": {"transmission": 1.0},
                "bob_interferometer": {"transmission": 1.0},
                "alice_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 0.0},
                "bob_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 0.0},
                "jitter_ns": 0.1,
            },
        }
        cfg_path = tmp_path / "phase_averaged.json"
        cfg_path.write_text(json.dumps(document))
        code = cli.main(["histogram", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "peaks.json")
        delay = doc["expected_delay_ns"]
        assert delay == pytest.approx(0.66713, abs=1e-4)
        bin_ns = 0.05
        for key, target in (
            ("side_early_ns", -delay),
            ("central_ns", 0.0),
            ("side_late_ns", delay),
        ):
            lo, hi = doc["windows"][key]
            assert abs(0.5 * (lo + hi) - target) <= bin_ns, f"{key} center {(lo + hi) / 2:.4f}"
        assert doc["counts"]["central"] >= 10_000
        ratio = doc["area_ratio_central_to_side"]
        assert ratio == pytest.approx(2.0, rel=0.05), f"ratio {ratio:.4f}"


def test_10_fit_oracle():
    with criterion(10, "noiseless fringe fit recovers V to 1e-9 for V in {0..1}"):
        phases = np.linspace(0.0, 2.0 * math.pi, 21)
        for v in (0.0, 0.25, 0.5, 0.87, 0.97, 1.0):
            points = [
                an.FringePoint(float(p), 500.0 * (1.0 + v * math.cos(p - 0.4)), 1.0)
                for p in phases
            ]
            fit = an.fit_fringe(points)
            assert abs(fit.v_raw - v) < 1e-9, f"V={v}: fitted {fit.v_raw!r}"


def test_11_determinism(tmp_path):
    with criterion(11, "same (config, seed) gives byte-identical streams and files"):
        cfg = SimConfig(chain=preset_config("fig2-baseline").chain, duration_s=0.2, seed=7)
        a, b = ev.simulate(cfg), ev.simulate(cfg)
        for key in ev.GROUPS:
            assert a.groups[key].tobytes() == b.groups[key].tobytes(), key
        assert a.duration_ns == b.duration_ns

        document = {
            "visibility": 0.95,
            "duration_s": 0.3,
            "seed": 99,
            "chain": {
                "source": {"pair_rate_per_s": 30_000.0},
                "alice_interferometer": {"transmission": 1.0},
                "bob_interferometer": {"transmission": 1.0},
                "alice_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 0.0},
                "bob_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 0.0},
                "jitter_ns": 0.1,
            },
        }
        cfg_path = tmp_path / "det.json"
        cfg_path.write_text(json.dumps(document))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["sweep", "--config", str(cfg_path), "--phases", "7", "--out", str(out1)]) == 0
        assert cli.main(["sweep", "--config", str(cfg_path), "--phases", "7", "--out", str(out2)]) == 0
        for name in ("fringe.csv", "fit.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        # manifests agree except for the wall clock they record
        m1 = read_json(out1 / "manifest.json")
        m2 = read_json(out2 / "manifest.json")
        m1.pop("wall_clock_s")
        m2.pop("wall_clock_s")
        assert m1 == m2


def test_12_bell_threshold():
    with criterion(12, "Bell violation exactly above 1/sqrt(2); S(0.970) = 2.744 +- 1e-3"):
        assert not an.bell_parameter(1.0 / math.sqrt(2.0)).violation
        assert not an.bell_parameter(0.70710).violation
        assert an.bell_parameter(0.70712).violation
        result = an.bell_parameter(0.970)
        assert abs(result.s_value - 2.744) < 1e-3
        assert result.violation
        assert abs(an.bell_parameter(1.0).s_value - 2.0 * math.sqrt(2.0)) < 1e-12

"""Tests for the single-excitation transfer algebra.

The closed-form evolution is cross-checked against an independent route:
scipy's dense matrix exponential applied to the same Hamiltonian.  Numeric
expectations quoted in comments were computed from that oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from photonlink import quantum as q


def random_joint_state(rng: np.random.Generator) -> q.JointState:
    """Random unit vector supported on the one-excitation sector."""
    vec = np.zeros(q.DIM, dtype=complex)
    for a in range(q.A_DIM):
        for b in range(q.B_DIM):
            for bp in range(q.B_DIM):
                if (b != 0) + (bp != 0) == 1:
                    vec[q.basis_index(a, b, bp)] = rng.normal() + 1j * rng.normal()
    vec /= np.linalg.norm(vec)
    return q.JointState(vec)


def evolve_by_expm(state: q.JointState, couplings: q.CouplingPair) -> np.ndarray:
    """Oracle: exact exp(-iH) |psi> through scipy, no closed form involved."""
    u = expm(-1j * q.hamiltonian_matrix(couplings))
    return u @ state.vector


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_make_entangled_input_places_amplitudes():
    c = 1.0 / math.sqrt(2.0)
    state = q.make_entangled_input(c, c)
    assert state.amplitude(0, 1, 0) == pytest.approx(c)
    assert state.amplitude(1, 2, 0) == pytest.approx(c)
    # everything else stays empty
    occupied = {q.basis_index(0, 1, 0), q.basis_index(1, 2, 0)}
    for i in range(q.DIM):
        if i not in occupied:
            assert state.vector[i] == 0.0


def test_make_entangled_input_rejects_non_normalized():
    for c1, c2 in ((1.0, 0.5), (math.nan, 0.0)):
        with pytest.raises(q.NonNormalizedError):
            q.make_entangled_input(c1, c2)


def test_states_refuse_vectors_off_unit_norm():
    joint = np.zeros(q.DIM, dtype=complex)
    for value in (2.0, math.nan):
        joint[q.basis_index(0, 1, 0)] = value
        with pytest.raises(q.NonNormalizedError):
            q.JointState(joint)
        with pytest.raises(q.NonNormalizedError):
            q.TimeBinPairState([value, 0.0, 0.0, 0.0])


def test_make_entangled_input_accepts_complex_amplitudes():
    c1 = 0.6 * np.exp(1j * 0.3)
    c2 = 0.8 * np.exp(-1j * 1.1)
    state = q.make_entangled_input(c1, c2)
    assert state.amplitude(0, 1, 0) == pytest.approx(c1)
    assert state.amplitude(1, 2, 0) == pytest.approx(c2)


def test_joint_state_rejects_sector_violations():
    # Every basis element: the 2 all-vacuum and 8 doubly occupied ones are
    # refused by name, the 8 with exactly one of B, B' occupied accepted.
    refused = accepted = 0
    for a in range(q.A_DIM):
        for b in range(q.B_DIM):
            for bp in range(q.B_DIM):
                vec = np.zeros(q.DIM, dtype=complex)
                vec[q.basis_index(a, b, bp)] = 1.0
                if (b != 0) == (bp != 0):
                    with pytest.raises(q.InvalidStateError, match=f"a={a}, b={b}, b'={bp}>"):
                        q.JointState(vec)
                    refused += 1
                else:
                    assert q.JointState(vec).amplitude(a, b, bp) == 1.0
                    accepted += 1
    assert (refused, accepted) == (10, 8)


def test_joint_state_vector_is_read_only():
    state = q.make_entangled_input(1.0, 0.0)
    with pytest.raises(ValueError):
        state.vector[0] = 1.0


# ---------------------------------------------------------------------------
# Hamiltonian structure
# ---------------------------------------------------------------------------


def test_hamiltonian_is_hermitian():
    h = q.hamiltonian_matrix(q.CouplingPair(0.3 + 0.2j, -0.7j))
    assert np.allclose(h, h.conj().T)


def test_hamiltonian_couples_only_matching_bins():
    h = q.hamiltonian_matrix(q.CouplingPair(0.4, 0.9))
    for a in range(q.A_DIM):
        assert h[q.basis_index(a, 0, 1), q.basis_index(a, 1, 0)] == pytest.approx(0.4)
        assert h[q.basis_index(a, 0, 2), q.basis_index(a, 2, 0)] == pytest.approx(0.9)
        # no cross-bin terms
        assert h[q.basis_index(a, 0, 2), q.basis_index(a, 1, 0)] == 0.0
        assert h[q.basis_index(a, 0, 1), q.basis_index(a, 2, 0)] == 0.0
    # identity on A: no element connects different a
    for i in range(q.DIM):
        for k in range(q.DIM):
            if (i // 9) != (k // 9):
                assert h[i, k] == 0.0


def test_hamiltonian_annihilates_vacuum_and_double_occupation():
    h = q.hamiltonian_matrix(q.CouplingPair(1.2, 0.5))
    for a in range(q.A_DIM):
        assert np.all(h[:, q.basis_index(a, 0, 0)] == 0.0)
        for b in (1, 2):
            for bp in (1, 2):
                assert np.all(h[:, q.basis_index(a, b, bp)] == 0.0)


# ---------------------------------------------------------------------------
# closed-form evolution against the matrix-exponential oracle
# ---------------------------------------------------------------------------


def test_evolution_matches_matrix_exponential_on_random_states():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(200):
        state = random_joint_state(rng)
        g1 = complex(rng.normal(), rng.normal())
        g2 = complex(rng.normal(), rng.normal())
        couplings = q.CouplingPair(g1, g2)
        got = q.evolve_transfer(state, couplings).vector
        want = evolve_by_expm(state, couplings)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-10


def test_evolution_zero_coupling_is_identity():
    state = q.make_entangled_input(0.6, 0.8)
    out = q.evolve_transfer(state, q.CouplingPair(0.0, 0.0))
    np.testing.assert_allclose(out.vector, state.vector, atol=1e-15)


def test_evolution_preserves_norm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = random_joint_state(rng)
        out = q.evolve_transfer(state, q.CouplingPair(rng.normal(), rng.normal()))
        assert np.sum(np.abs(out.vector) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_evolution_textbook_amplitudes():
    # g1 = 0.3, g2 = 0.7, balanced input: untransferred amplitudes pick up
    # cos|g_j|, transferred ones -i sin|g_j| / sqrt(2).
    c = 1.0 / math.sqrt(2.0)
    state = q.make_entangled_input(c, c)
    out = q.evolve_transfer(state, q.CouplingPair(0.3, 0.7))
    assert out.amplitude(0, 1, 0) == pytest.approx(math.cos(0.3) * c)
    assert out.amplitude(1, 2, 0) == pytest.approx(math.cos(0.7) * c)
    assert out.amplitude(0, 0, 1) == pytest.approx(-1j * math.sin(0.3) * c)
    assert out.amplitude(1, 0, 2) == pytest.approx(-1j * math.sin(0.7) * c)


def test_evolution_complex_coupling_phase():
    # A complex g rotates the transferred amplitude by the phase of g.
    state = q.make_entangled_input(1.0, 0.0)
    g = 0.5 * np.exp(1j * 1.1)
    out = q.evolve_transfer(state, q.CouplingPair(g, 0.2))
    expected = -1j * np.exp(1j * 1.1) * math.sin(0.5)
    assert out.amplitude(0, 0, 1) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# post-selection and fidelity
# ---------------------------------------------------------------------------


def test_post_select_balanced_example():
    # Computed with the matrix-exponential oracle: transferred weight
    # (sin^2 0.3 + sin^2 0.7)/2 = 0.2511743, conditional amplitudes
    # (0.4169506, 0.9089292) up to the common -i phase.
    c = 1.0 / math.sqrt(2.0)
    out = q.evolve_transfer(q.make_entangled_input(c, c), q.CouplingPair(0.3, 0.7))
    outcome = q.post_select_transfer(out)
    expected_prob = 0.5 * (math.sin(0.3) ** 2 + math.sin(0.7) ** 2)
    assert expected_prob == pytest.approx(0.2511743, abs=1e-7)
    assert outcome.probability == pytest.approx(expected_prob, abs=1e-12)
    amp1 = outcome.conditional_state.amplitude(0, 0, 1)
    amp2 = outcome.conditional_state.amplitude(1, 0, 2)
    assert abs(amp1) == pytest.approx(0.4169506, abs=1e-7)
    assert abs(amp2) == pytest.approx(0.9089292, abs=1e-7)
    norm = abs(amp1) ** 2 + abs(amp2) ** 2
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_post_select_empty_sector_raises():
    state = q.make_entangled_input(0.6, 0.8)  # nothing transferred yet
    with pytest.raises(q.EmptySectorError):
        q.post_select_transfer(state)


def test_transfer_success_probability_values():
    assert q.transfer_success_probability(0.0) == 0.0
    assert q.transfer_success_probability(math.pi / 2.0) == pytest.approx(1.0, abs=1e-12)
    # the ~5% operating point of the power budget
    assert q.transfer_success_probability(0.2236) == pytest.approx(math.sin(0.2236) ** 2)
    assert q.transfer_success_probability(0.2236) == pytest.approx(0.0492, abs=1e-4)
    # phase of g is irrelevant
    assert q.transfer_success_probability(0.3 * np.exp(1j * 2.2)) == pytest.approx(
        math.sin(0.3) ** 2
    )


def test_equal_couplings_give_unit_fidelity():
    c1 = 0.6 * np.exp(1j * 0.4)
    c2 = math.sqrt(1.0 - 0.36) * np.exp(-1j * 0.9)
    g = 0.37 * np.exp(1j * 0.8)
    out = q.evolve_transfer(q.make_entangled_input(c1, c2), q.CouplingPair(g, g))
    outcome = q.post_select_transfer(out)
    assert q.transfer_fidelity(outcome, c1, c2) == pytest.approx(1.0, abs=1e-12)


def test_phase_mismatch_fidelity_is_cos_squared():
    c = 1.0 / math.sqrt(2.0)
    for delta in np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False):
        if abs(delta - math.pi) < 1e-9:
            continue  # fidelity 0 means an empty overlap, checked separately below
        g1 = 0.4
        g2 = 0.4 * np.exp(1j * delta)
        out = q.evolve_transfer(q.make_entangled_input(c, c), q.CouplingPair(g1, g2))
        outcome = q.post_select_transfer(out)
        assert q.transfer_fidelity(outcome, c, c) == pytest.approx(
            math.cos(delta / 2.0) ** 2, abs=1e-10
        )


def test_opposite_phase_couplings_give_zero_fidelity():
    c = 1.0 / math.sqrt(2.0)
    out = q.evolve_transfer(q.make_entangled_input(c, c), q.CouplingPair(0.4, -0.4))
    outcome = q.post_select_transfer(out)
    assert q.transfer_fidelity(outcome, c, c) == pytest.approx(0.0, abs=1e-12)


def test_coherence_condition_is_sharp():
    # Fidelity reaches 1 exactly when the couplings match in magnitude and
    # phase; any amplitude ratio or phase offset costs fidelity.
    c = 1.0 / math.sqrt(2.0)
    state = q.make_entangled_input(c, c)
    for ratio in (0.5, 0.8, 1.0, 1.25, 2.0):
        for delta in (0.0, 0.3, 1.5):
            g1 = 0.4
            g2 = 0.4 * ratio * np.exp(1j * delta)
            outcome = q.post_select_transfer(q.evolve_transfer(state, q.CouplingPair(g1, g2)))
            fid = q.transfer_fidelity(outcome, c, c)
            if ratio == 1.0 and delta == 0.0:
                assert fid == pytest.approx(1.0, abs=1e-12)
            else:
                assert fid < 1.0 - 1e-6


def test_transfer_fidelity_rejects_bad_inputs():
    c = 1.0 / math.sqrt(2.0)
    out = q.evolve_transfer(q.make_entangled_input(c, c), q.CouplingPair(0.4, 0.4))
    outcome = q.post_select_transfer(out)
    for c1, c2 in ((1.0, 1.0), (math.nan, 0.0)):
        with pytest.raises(q.NonNormalizedError):
            q.transfer_fidelity(outcome, c1, c2)


# ---------------------------------------------------------------------------
# post-selected time-bin interferometry
# ---------------------------------------------------------------------------


def test_post_selected_state_amplitudes():
    state = q.post_selected_timebin_state(0.3, 0.9)
    c = 1.0 / math.sqrt(2.0)
    assert state.amplitudes[0] == pytest.approx(c)
    assert state.amplitudes[1] == 0.0
    assert state.amplitudes[2] == 0.0
    assert state.amplitudes[3] == pytest.approx(c * np.exp(1j * 1.2))


def test_post_selected_state_depends_only_on_phase_sum():
    a = q.post_selected_timebin_state(0.7, 0.1)
    b = q.post_selected_timebin_state(0.2, 0.6)
    assert abs(a.overlap(b)) == pytest.approx(1.0, abs=1e-12)


def test_overlap_of_phase_shifted_states():
    # |<psi(0)|psi(pi/2)>| = |cos(pi/4)|
    a = q.post_selected_timebin_state(0.0, 0.0)
    b = q.post_selected_timebin_state(math.pi / 2.0, 0.0)
    assert abs(a.overlap(b)) == pytest.approx(abs(math.cos(math.pi / 4.0)), abs=1e-12)


def test_coincidence_probability_values():
    assert q.coincidence_probability(0.0, 1.0) == pytest.approx(0.25)
    assert q.coincidence_probability(math.pi, 1.0) == pytest.approx(0.0, abs=1e-16)
    assert q.coincidence_probability(math.pi / 2.0, 1.0) == pytest.approx(0.125)
    assert q.OUTCOME_CLASSES[1][1] == q.OUTCOME_CLASSES[2][1] == (0.0625, 0.0)


def test_coincidence_probability_matches_post_selected_state():
    # |<ss| + <ll| e^{-i phi} overlap law: the projective rate at the
    # monitored ports equals 1/8 (1 + cos phi) for v = 1.
    for phi in np.linspace(0.0, 2.0 * math.pi, 13):
        state = q.post_selected_timebin_state(phi, 0.0)
        reference = q.post_selected_timebin_state(0.0, 0.0)
        projected = abs(reference.overlap(state)) ** 2
        assert q.coincidence_probability(phi, 1.0) == pytest.approx(projected / 4.0, abs=1e-12)


def test_coincidence_probability_visibility_range():
    with pytest.raises(q.VisibilityRangeError):
        q.coincidence_probability(0.0, 1.2)
    with pytest.raises(q.VisibilityRangeError):
        q.coincidence_probability(0.0, -0.1)


def test_law_of_total_probability_with_sides():
    # Central peak plus both side peaks and the three unmonitored port
    # combinations must exhaust each pair: averaged over phase the central
    # peak weighs 1/8, twice each side peak.
    phases = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    avg_central = np.mean([q.coincidence_probability(p, 1.0) for p in phases])
    assert avg_central == pytest.approx(0.125, abs=1e-12)
    sides = [weight for name, weight, _ in q.OUTCOME_CLASSES if name.startswith("side")]
    assert sides == [(0.0625, 0.0)] * 2  # flat in the phases
    assert avg_central == pytest.approx(2.0 * sides[0][0], abs=1e-12)


def class_weights(v_cos):
    """Each outcome class's weight, exactly, at V cos(phi) = v_cos."""
    v_cos = Fraction(v_cos)
    return [Fraction(c) + Fraction(s) * v_cos for _, (c, s), _ in q.OUTCOME_CLASSES]


def test_outcome_classes_are_a_distribution():
    for v_cos in np.linspace(-1.0, 1.0, 41):
        weights = class_weights(v_cos)
        assert len(weights) == 6
        assert min(weights) >= 0
        assert sum(weights) == 1


def test_outcome_classes_give_each_side_a_flat_half():
    for v_cos in np.linspace(-1.0, 1.0, 41):
        weights = class_weights(v_cos)
        for side in (0, 1):
            reached = [w for w, (_, _, arr) in zip(weights, q.OUTCOME_CLASSES) if arr[side]]
            assert sum(reached) == Fraction(1, 2)


def test_outcome_classes_central_entry_matches_post_selected_state():
    name, (c, s), arrival = q.OUTCOME_CLASSES[0]
    assert name == "central" and arrival == (q.SHARED, q.SHARED)
    reference = q.post_selected_timebin_state(0.0, 0.0)
    for phi in np.linspace(0.0, 2.0 * math.pi, 13):
        # v = 1: the monitored ports keep a quarter of |<psi(0)|psi(phi)>|^2
        projected = abs(reference.overlap(q.post_selected_timebin_state(0.3, phi - 0.3))) ** 2
        assert c + s * math.cos(phi) == pytest.approx(projected / 4.0, abs=1e-15)


def test_visibility_basic_values():
    assert q.visibility(0.25, 0.0) == pytest.approx(1.0)
    assert q.visibility(0.2, 0.1) == pytest.approx(1.0 / 3.0)
    with pytest.raises(q.DegenerateError):
        q.visibility(0.0, 0.0)
    with pytest.raises(ValueError):
        q.visibility(0.1, 0.2)
    with pytest.raises(ValueError):
        q.visibility(0.1, -0.05)

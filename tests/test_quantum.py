"""Tests for the single-excitation transfer algebra and the outcome classes.

Two independent oracles.  The closed-form evolution is cross-checked
against scipy's dense matrix exponential applied to the same Hamiltonian;
numeric expectations quoted in comments were computed from it.  Every
entry of ``OUTCOME_CLASSES`` is checked against the two analyzers' port
amplitudes, summed as Franson interference, without reading the table.
"""

import cmath
import itertools
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
# the outcome classes at the monitored analyzer ports
# ---------------------------------------------------------------------------


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


# Every (Alice arrival, Bob arrival) cell: 0 or 1 delays, or None for no monitored click.
CELLS = tuple(itertools.product((0, 1, None), repeat=2))


def port_amplitude(port, arm, phi):
    """A photon's amplitude to leave port +-1 of its analyzer by the short (0) or long (1) arm."""
    return 0.5 * port * cmath.exp(1j * phi) if arm else 0.5


def franson_cells(phi_a, phi_b):
    """Each cell's probability per pair, from the port amplitudes alone.

    Only port +1 is monitored.  Short-short and long-long arrive with the
    same time difference, so their amplitudes add and each path bit gets
    half of the sum's square; short-long and long-short are told apart by
    time, so their probabilities add.
    """
    cells = dict.fromkeys(CELLS, 0.0)
    for ports in itertools.product((1, -1), repeat=2):
        amp = {
            arms: port_amplitude(ports[0], arms[0], phi_a) * port_amplitude(ports[1], arms[1], phi_b)
            for arms in itertools.product((0, 1), repeat=2)
        }
        cell = {arms: tuple(a if p == 1 else None for p, a in zip(ports, arms)) for arms in amp}
        for bit in (0, 1):
            cells[cell[bit, bit]] += abs(amp[0, 0] + amp[1, 1]) ** 2 / 2.0
        for arms in ((0, 1), (1, 0)):
            cells[cell[arms]] += abs(amp[arms]) ** 2
    return cells


def test_outcome_classes_match_franson_port_amplitudes():
    # All six classes at once: each class's weight at V = 1, halved over
    # the two path bits, lands in the cells its arrivals name.  Two splits
    # of every phase sum between the analyzers give the same cells.
    for phi in np.linspace(0.0, 2.0 * math.pi, 13):
        table = dict.fromkeys(CELLS, 0.0)
        for _, (c, s), arrival in q.OUTCOME_CLASSES:
            for bit in (0, 1):
                key = tuple(None if side is None else side[bit] for side in arrival)
                table[key] += 0.5 * (c + s * math.cos(phi))
        for phi_a in (phi, 0.3):
            assert table == pytest.approx(franson_cells(phi_a, phi - phi_a), abs=1e-15)

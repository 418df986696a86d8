"""Single-excitation quantum algebra for a two-color time-bin qubit transfer.

The state space is a tensor product of three registers:

* A -- the partner photon's time-bin qubit, spanned by ``|alpha_1>, |alpha_2>``
  (early / late bin),
* B -- the input mode of the transfer stage at the original wavelength,
  spanned by ``|vac>, |beta_1>, |beta_2>``,
* B' -- the output mode at the target wavelength, spanned by
  ``|vac>, |beta'_1>, |beta'_2>``.

Physical states used here carry exactly one excitation shared between B and
B': every basis element with nonzero amplitude has exactly one of (B, B')
out of vacuum.  The transfer interaction exchanges the excitation between
``|beta_j>|vac>`` and ``|vac>|beta'_j>`` with coupling ``g_j`` while acting
as the identity on A, so the bin populations rotate independently per bin.
The whole module is pure-state, unit-norm linear algebra on an 18-dimensional
vector; no losses live here (attenuation and detection belong to the optics
chain and the event simulator).

Basis ordering is fixed: A-major, then B, then B', i.e. flat index
``a*9 + b*3 + bp`` with a in {0,1}, b and bp in {0,1,2} (0 = vacuum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "A_DIM",
    "B_DIM",
    "DIM",
    "CouplingPair",
    "EmptySectorError",
    "InvalidStateError",
    "JointState",
    "NonNormalizedError",
    "TransferOutcome",
    "basis_index",
    "evolve_transfer",
    "hamiltonian_matrix",
    "make_entangled_input",
    "post_select_transfer",
    "transfer_fidelity",
    "transfer_success_probability",
]

A_DIM = 2
B_DIM = 3  # vacuum + two bins; B' has the same layout
DIM = A_DIM * B_DIM * B_DIM

_NORM_TOL = 1e-9  # tolerance on |c1|^2 + |c2|^2 for caller-supplied amplitudes
_STATE_TOL = 1e-12  # tolerance on stored state vectors
_EMPTY_SECTOR_TOL = 1e-15


class NonNormalizedError(ValueError):
    """Amplitudes do not form a unit-norm state."""


class InvalidStateError(ValueError):
    """State vector populates a basis element outside the one-excitation sector."""


class EmptySectorError(ValueError):
    """Post-selection on a sector whose probability is numerically zero."""


def basis_index(a: int, b: int, bp: int) -> int:
    """Flat index of |a>_A |b>_B |bp>_B' in the fixed A-major ordering."""
    return a * (B_DIM * B_DIM) + b * B_DIM + bp


# The one-excitation layout over the flat index.  In the sector exactly one
# of B, B' is out of vacuum (``!=``, not ``+``: numpy's + on booleans is a
# logical or); transferred, B is back in vacuum and B' occupied.
_B, _BP = np.indices((A_DIM, B_DIM, B_DIM)).reshape(3, DIM)[1:]
_IN_SECTOR = (_B != 0) != (_BP != 0)
_TRANSFERRED = (_B == 0) & (_BP != 0)


def _amplitude_norm(c1: complex, c2: complex) -> float:
    """sqrt(|c1|^2 + |c2|^2) of caller-supplied amplitudes, refused unless 1 within 1e-9."""
    norm_sq = abs(c1) ** 2 + abs(c2) ** 2
    if not abs(norm_sq - 1.0) <= _NORM_TOL:  # also NaN
        raise NonNormalizedError(f"|c1|^2 + |c2|^2 = {norm_sq!r}, expected 1 within {_NORM_TOL}")
    return math.sqrt(norm_sq)


@dataclass(frozen=True)
class JointState:
    """Pure state of A x B x B' as a flat complex vector of length 18.

    Validates unit norm (within 1e-12) and the one-excitation rule at
    construction.  Instances never mutate; operations return new states.
    """

    vector: np.ndarray

    def __post_init__(self) -> None:
        vec = np.array(self.vector, dtype=complex)
        if vec.shape != (DIM,):
            raise InvalidStateError(f"state vector must have shape ({DIM},), got {vec.shape}")
        vec.setflags(write=False)
        norm_sq = float(np.sum(np.abs(vec) ** 2))
        if not abs(norm_sq - 1.0) <= _STATE_TOL:  # also NaN
            raise NonNormalizedError(f"|amplitudes|^2 sums to {norm_sq!r}, expected 1")
        object.__setattr__(self, "vector", vec)
        outside = np.flatnonzero(~_IN_SECTOR & (vec != 0.0))
        if outside.size:
            a, b, bp = np.unravel_index(outside[0], (A_DIM, B_DIM, B_DIM))
            raise InvalidStateError(
                f"amplitude on |a={a}, b={b}, b'={bp}> breaks the one-excitation rule"
            )

    def amplitude(self, a: int, b: int, bp: int) -> complex:
        return complex(self.vector[basis_index(a, b, bp)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointState):
            return NotImplemented
        return bool(np.array_equal(self.vector, other.vector))


@dataclass(frozen=True)
class CouplingPair:
    """Effective couplings (pump amplitude x interaction time) for the two bins."""

    g1: complex
    g2: complex

    def __post_init__(self) -> None:
        for name, g in (("g1", self.g1), ("g2", self.g2)):
            if not (math.isfinite(complex(g).real) and math.isfinite(complex(g).imag)):
                raise ValueError(f"{name} must be finite, got {g!r}")


@dataclass(frozen=True)
class TransferOutcome:
    """Result of post-selecting on a completed transfer."""

    probability: float
    conditional_state: JointState


# ---------------------------------------------------------------------------
# state preparation and transfer evolution
# ---------------------------------------------------------------------------


def make_entangled_input(c1: complex, c2: complex) -> JointState:
    """Entangled input c1 |alpha_1, beta_1, vac> + c2 |alpha_2, beta_2, vac>.

    The amplitudes must satisfy |c1|^2 + |c2|^2 = 1 within 1e-9; they are
    re-normalized exactly before the state is stored so downstream algebra
    starts from a unit vector.
    """
    c1, c2 = complex(c1), complex(c2)
    scale = 1.0 / _amplitude_norm(c1, c2)
    vec = np.zeros(DIM, dtype=complex)
    vec[basis_index(0, 1, 0)] = c1 * scale
    vec[basis_index(1, 2, 0)] = c2 * scale
    return JointState(vec)


def hamiltonian_matrix(couplings: CouplingPair) -> np.ndarray:
    """Effective transfer Hamiltonian as an 18x18 complex matrix.

    Couples |beta_j>_B |vac>_B' to |vac>_B |beta'_j>_B' with coefficient g_j
    (plus Hermitian conjugate) and acts as the identity on A.  Everything
    outside those two-dimensional blocks, including the doubly occupied and
    all-vacuum elements, is left untouched.
    """
    h = np.zeros((DIM, DIM), dtype=complex)
    for a in range(A_DIM):
        for j, g in ((1, complex(couplings.g1)), (2, complex(couplings.g2))):
            src = basis_index(a, j, 0)  # |beta_j, vac>
            dst = basis_index(a, 0, j)  # |vac, beta'_j>
            h[dst, src] = g
            h[src, dst] = np.conjugate(g)
    return h


def evolve_transfer(state: JointState, couplings: CouplingPair) -> JointState:
    """Apply exp(-i H) to the state using the closed per-bin block form.

    Within each bin j the pair (|beta_j, vac>, |vac, beta'_j>) rotates as

        |beta_j, vac>   -> cos|g_j| |beta_j, vac> - i (g_j/|g_j|) sin|g_j| |vac, beta'_j>
        |vac, beta'_j>  -> cos|g_j| |vac, beta'_j> - i (g_j*/|g_j|) sin|g_j| |beta_j, vac>

    The g_j -> 0 limit is taken analytically through sinc, so zero coupling
    is the exact identity rather than an epsilon-guarded special case.
    """
    vec = np.array(state.vector, dtype=complex)
    modes = vec.reshape(A_DIM, B_DIM, B_DIM)  # a view, [a, b, b']: both values of A at once
    for j, g in ((1, complex(couplings.g1)), (2, complex(couplings.g2))):
        mag = abs(g)
        cos_g = math.cos(mag)
        # sin|g|/|g| via sinc: exact value 1 at g = 0, no cutoff needed.
        sinc_g = float(np.sinc(mag / math.pi))
        src, dst = modes[:, j, 0].copy(), modes[:, 0, j].copy()
        modes[:, j, 0] = cos_g * src - 1j * np.conjugate(g) * sinc_g * dst
        modes[:, 0, j] = cos_g * dst - 1j * g * sinc_g * src
    # The block rotation is unitary; renormalize only to shed float drift.
    vec /= math.sqrt(float(np.sum(np.abs(vec) ** 2)))
    return JointState(vec)


def post_select_transfer(state: JointState) -> TransferOutcome:
    """Project onto the transferred sector (B in vacuum, B' occupied).

    Returns the sector probability and the renormalized conditional state.
    Raises EmptySectorError when the sector weight is below 1e-15, where
    renormalization would amplify numerical noise into a fake state.
    """
    vec = np.asarray(state.vector)
    probability = float(np.sum(np.abs(vec[_TRANSFERRED]) ** 2))
    if probability < _EMPTY_SECTOR_TOL:
        raise EmptySectorError(
            f"transferred sector carries probability {probability!r} (< {_EMPTY_SECTOR_TOL})"
        )
    projected = np.where(_TRANSFERRED, vec, 0.0) / math.sqrt(probability)
    return TransferOutcome(probability=probability, conditional_state=JointState(projected))


def transfer_success_probability(g: complex) -> float:
    """Probability sin^2|g| that a single excitation completes the transfer."""
    return math.sin(abs(complex(g))) ** 2


def transfer_fidelity(outcome: TransferOutcome, c1: complex, c2: complex) -> float:
    """Fidelity of the post-selected state against the ideal transferred qubit.

    The target is c1 |alpha_1, vac, beta'_1> + c2 |alpha_2, vac, beta'_2>;
    the result is |<target|conditional>|^2.  Equal couplings in magnitude
    and phase give fidelity 1; a pure phase mismatch delta between the two
    bin couplings gives cos^2(delta/2) for a balanced input.
    """
    if outcome.probability <= 0.0:
        raise EmptySectorError("outcome carries zero probability, fidelity undefined")
    c1, c2 = complex(c1), complex(c2)
    target = np.zeros(DIM, dtype=complex)
    target[basis_index(0, 0, 1)] = c1
    target[basis_index(1, 0, 2)] = c2
    target /= _amplitude_norm(c1, c2)
    return float(abs(np.vdot(target, outcome.conditional_state.vector)) ** 2)

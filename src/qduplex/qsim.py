"""Exact two-qubit simulation of one photon pair.

Every pair in the protocol is a pure state of two qubits, stored as four
complex amplitudes over the ordered computational basis |00>, |01>, |10>,
|11> with the travelling C photon first and the kept M photon second.
Operations are plain linear algebra on that 4-vector; measurement sampling
is Born-rule exact and driven by an injected random stream so that any run
replays bit for bit.  The samplers read only the stream's random(), one
draw per measurement.

The protocol's ops reach only 252 distinct states, so each state carries
its own successors: slots that hold its Pauli, projection, substitution and
Bell-mass results, each filled on first use by the one arithmetic path.
Each result is a deterministic function of the input's amplitude bytes, so
a slot holds the result a fresh computation would give, byte for byte.
Results are interned in one table keyed on those bytes, so equal states
share one object and its slots, and the protocol's states stay a closed set
of objects.  Sampling reads a slot and draws once per measurement.  The
enums that key the slots hash by identity, at C speed (equality already is
identity).
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np


class RandomStream(Protocol):
    """Injected randomness contract: the samplers call only random(), so any
    object whose random() returns floats in [0, 1) can stand in for a stream."""

    def random(self) -> float: ...


NORM_TOL = 1e-12

INTERN_LIMIT = 4096
"""Most states the intern table holds; a protocol run reaches 252."""

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class InternalFault(RuntimeError):
    """The simulator reached a state its own invariants forbid."""


class QubitSlot(enum.Enum):
    """Which photon of a pair an operation targets."""

    C = "C"
    M = "M"

    __hash__ = object.__hash__


class Basis(enum.Enum):
    """Single-qubit measurement basis.

    Z is the computational basis. X is the diagonal basis; outcome 0
    denotes the +1 eigenstate (|0> + |1>)/sqrt(2).
    """

    Z = "Z"
    X = "X"

    __hash__ = object.__hash__


class PauliOp(enum.Enum):
    """The four local encoding operations and their 2-bit codes.

    U0 = I, U1 = sigma_z, U2 = sigma_x, U3 = i*sigma_y.  The enum value is
    the operation's 2-bit code (high bit first), so U2 encodes "10".
    """

    U0 = 0
    U1 = 1
    U2 = 2
    U3 = 3

    __hash__ = object.__hash__

    @property
    def code(self) -> int:
        return self.value

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]


class BellState(enum.Enum):
    """The four Bell states and their canonical 2-bit indices.

    The index of each state is the code of the unique PauliOp that carries
    the singlet onto it, which is what makes the XOR decoding law in the
    codec literal rather than a lookup.
    """

    PSI_MINUS = 0
    PSI_PLUS = 1
    PHI_MINUS = 2
    PHI_PLUS = 3

    __hash__ = object.__hash__

    @property
    def index(self) -> int:
        return self.value

    @property
    def vector(self) -> np.ndarray:
        return _BELL_VECTORS[self]


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


_PAULI_MATRICES: dict[PauliOp, np.ndarray] = {
    PauliOp.U0: _frozen([[1, 0], [0, 1]]),
    PauliOp.U1: _frozen([[1, 0], [0, -1]]),
    PauliOp.U2: _frozen([[0, 1], [1, 0]]),
    PauliOp.U3: _frozen([[0, 1], [-1, 0]]),
}

_BELL_VECTORS: dict[BellState, np.ndarray] = {
    BellState.PSI_MINUS: _frozen([0, _INV_SQRT2, -_INV_SQRT2, 0]),
    BellState.PSI_PLUS: _frozen([0, _INV_SQRT2, _INV_SQRT2, 0]),
    BellState.PHI_MINUS: _frozen([_INV_SQRT2, 0, 0, -_INV_SQRT2]),
    BellState.PHI_PLUS: _frozen([_INV_SQRT2, 0, 0, _INV_SQRT2]),
}

# Outcome-0 and outcome-1 eigenvectors per basis, as single-qubit 2-vectors.
_BASIS_VECTORS: dict[Basis, tuple[np.ndarray, np.ndarray]] = {
    Basis.Z: (_frozen([1, 0]), _frozen([0, 1])),
    Basis.X: (_frozen([_INV_SQRT2, _INV_SQRT2]), _frozen([_INV_SQRT2, -_INV_SQRT2])),
}


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Pure state of one pair: four complex amplitudes, C photon first.

    States are immutable and may be shared: operations return interned
    instances.  ``key`` holds the exact amplitude bytes and ``amplitudes``
    is a read-only view of them.  Global phase is physically meaningless
    and never compared.
    """

    amplitudes: np.ndarray
    key: bytes = field(init=False, repr=False)

    # Successor slots, present while the state is in the intern table and
    # None otherwise; each entry is filled on first use (see _intern).
    _paulis = None  # slot -> apply_pauli results by op code
    _branches = None  # slot -> basis -> project_qubit results for outcomes 0 and 1
    _substs = None  # slot -> substitute_fresh results by outcome
    _bells = None  # Bell probabilities, their running sums, and bell_measure's 5 picks

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(4)
        norm_err = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
        if not norm_err <= NORM_TOL:  # NaN amplitudes fail this too
            raise ValueError(f"state not normalized: |norm^2 - 1| = {norm_err:.3e}")
        key = amps.tobytes()
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "amplitudes", np.frombuffer(key, dtype=np.complex128))


_INTERNED: dict[bytes, TwoQubitState] = {}
"""The intern table: each held state by its amplitude bytes, at most INTERN_LIMIT."""

_SLOTS = ("_paulis", "_branches", "_substs", "_bells")
"""The names of a state's successor slots, as TwoQubitState declares them."""


def _intern(state: TwoQubitState) -> TwoQubitState:
    """The table's state with state's bytes, entering state with empty slots if there is none.

    A slot only ever holds a state of the table, so memory stays bounded
    whatever states a caller builds.  A full table starts over: every state
    in it loses its slots, and the singlet is entered again first.  A state
    out of the table still computes every op, through its table twin.
    """
    held = _INTERNED.get(state.key)
    if held is not None:
        return held
    if len(_INTERNED) >= INTERN_LIMIT:
        for old in _INTERNED.values():
            for name in _SLOTS:
                object.__delattr__(old, name)
        _INTERNED.clear()
        _intern(_SINGLET)
    empty = (
        {slot: [None] * 4 for slot in QubitSlot},
        {slot: dict.fromkeys(Basis) for slot in QubitSlot},
        {slot: [None, None] for slot in QubitSlot},
        None,
    )
    for name, value in zip(_SLOTS, empty):
        object.__setattr__(state, name, value)
    _INTERNED[state.key] = state
    return state


_SINGLET = _intern(TwoQubitState(_BELL_VECTORS[BellState.PSI_MINUS]))


def make_singlet() -> TwoQubitState:
    """Return the shared pair (|01> - |10>)/sqrt(2)."""
    return _SINGLET


def product_state(c_bit: int, m_bit: int) -> TwoQubitState:
    """Return the computational product state |c_bit, m_bit>."""
    if c_bit not in (0, 1) or m_bit not in (0, 1):
        raise ValueError("product_state takes single bits")
    amps = np.zeros(4, dtype=np.complex128)
    amps[2 * c_bit + m_bit] = 1.0
    return TwoQubitState(amps)


def apply_pauli(state: TwoQubitState, op: PauliOp, slot: QubitSlot) -> TwoQubitState:
    """Apply one encoding operation to the chosen photon of a pair."""
    paulis = state._paulis
    if paulis is None:
        paulis = _intern(state)._paulis
    results = paulis[slot]
    result = results[op._value_]
    if result is None:
        result = results[op._value_] = _intern(_pauli(state.amplitudes, op, slot))
    return result


def _pauli(amps: np.ndarray, op: PauliOp, slot: QubitSlot) -> TwoQubitState:
    m = amps.reshape(2, 2)  # m[c_bit, m_bit]
    if slot is QubitSlot.C:
        out = op.matrix @ m
    else:
        out = m @ op.matrix.T
    return TwoQubitState(out.reshape(4))


def project_qubit(
    state: TwoQubitState, slot: QubitSlot, basis: Basis, outcome: int
) -> tuple[float, TwoQubitState | None]:
    """Project one photon onto a basis outcome without sampling.

    Returns (probability, renormalized post-measurement state).  The state
    is None when the branch probability vanishes.  This is the exact
    Born-rule arithmetic that measure_qubit samples from, exposed so checks
    can enumerate branches instead of drawing them.
    """
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    branches = state._branches
    if branches is None:
        branches = _intern(state)._branches
    by_basis = branches[slot]
    both = by_basis[basis]
    if both is None:
        amps = state.amplitudes
        both = by_basis[basis] = tuple(
            (prob, None if post is None else _intern(post))
            for prob, post in (_project(amps, slot, basis, 0), _project(amps, slot, basis, 1))
        )
    return both[outcome]


def _project(
    amps: np.ndarray, slot: QubitSlot, basis: Basis, outcome: int
) -> tuple[float, TwoQubitState | None]:
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    e = _BASIS_VECTORS[basis][outcome]
    m = amps.reshape(2, 2)
    if slot is QubitSlot.C:
        w = e.conj() @ m  # residual M-photon amplitudes
    else:
        w = m @ e.conj()  # residual C-photon amplitudes
    prob = float(np.sum(np.abs(w) ** 2))
    if prob < NORM_TOL:
        return 0.0, None
    w = w / np.sqrt(prob)
    if slot is QubitSlot.C:
        amps = np.outer(e, w)
    else:
        amps = np.outer(w, e)
    return prob, TwoQubitState(amps.reshape(4))


def substitute_fresh(state: TwoQubitState, slot: QubitSlot, outcome: int) -> TwoQubitState:
    """Swap the photon in slot, already collapsed to Z outcome, for a fresh |0>.

    The pair becomes the product of the fresh |0> and the partner's
    residual state, read from the collapsed state's slot like the other ops.
    """
    substs = state._substs
    if substs is None:
        substs = _intern(state)._substs
    results = substs[slot]
    result = results[outcome]
    if result is None:
        result = results[outcome] = _intern(_substitute(state.amplitudes, slot, outcome))
    return result


def _substitute(amps: np.ndarray, slot: QubitSlot, outcome: int) -> TwoQubitState:
    m = amps.reshape(2, 2)
    fresh = np.zeros((2, 2), dtype=np.complex128)
    if slot is QubitSlot.C:
        fresh[0, :] = m[outcome, :]
    else:
        fresh[:, 0] = m[:, outcome]
    return TwoQubitState(fresh.reshape(4))


def measure_qubit(
    state: TwoQubitState, slot: QubitSlot, basis: Basis, rng: RandomStream
) -> tuple[int, TwoQubitState]:
    """Measure one photon of a pair; return (outcome bit, collapsed pair).

    Sampling uses a single uniform draw from the injected stream, so a
    fixed stream replays the same outcome sequence exactly.
    """
    branches = state._branches
    both = None if branches is None else branches[slot][basis]
    if both is None:  # the slot that project_qubit fills
        both = project_qubit(state, slot, basis, 0), project_qubit(state, slot, basis, 1)
    zero, one = both
    if rng.random() < zero[0]:
        outcome, collapsed = 0, zero[1]
    else:
        outcome, collapsed = 1, one[1]
    if collapsed is None:
        # unreachable for normalized states: the sampled branch has mass
        raise InternalFault("measurement sampled a branch of vanishing probability")
    return outcome, collapsed


def bell_probabilities(state: TwoQubitState) -> np.ndarray:
    """Probabilities of the four Bell outcomes, ordered by canonical index."""
    return _bell_slot(state)[0].copy()


def _bell(amps: np.ndarray) -> tuple[np.ndarray, tuple[float, ...]]:
    """Bell probabilities (read-only) and their running sums in BellState order."""
    probs = np.empty(4, dtype=np.float64)
    for bell in BellState:
        amp = np.vdot(bell.vector, amps)
        probs[bell.index] = float(np.abs(amp) ** 2)
    probs.setflags(write=False)
    return probs, tuple(itertools.accumulate(probs.tolist()))


_BELL_ORDER = tuple(BellState)


def _bell_slot(
    state: TwoQubitState,
) -> tuple[np.ndarray, tuple[float, ...], tuple[BellState, ...]]:
    """state's Bell slot: the probabilities, their running sums, and the 5 picks.

    The picks are the four Bell states in order, then the outcome for a draw
    on rounding slack: the masses can sum to just under 1 (a singlet's sum to
    0.9999999999999996), and such a draw gets the last outcome that added
    mass, never one of probability zero.
    """
    held = _intern(state)
    bells = held._bells
    if bells is None:
        probs, masses = _bell(held.amplitudes)
        last = max(i for i in range(4) if masses[i] > (masses[i - 1] if i else 0.0))
        bells = (probs, masses, (*_BELL_ORDER, _BELL_ORDER[last]))
        object.__setattr__(held, "_bells", bells)
    return bells


def bell_measure(state: TwoQubitState, rng: RandomStream) -> BellState:
    """Joint Bell-basis measurement of a whole pair.

    The pair is consumed: both photons end up in the reported Bell state
    and carry no further message content.  The draw picks the first outcome
    whose running mass exceeds it; index 4 is the rounding-slack pick.
    """
    bells = state._bells or _bell_slot(state)
    return bells[2][bisect_right(bells[1], rng.random())]

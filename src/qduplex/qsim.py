"""Exact two-qubit simulation of one photon pair.

Every pair in the protocol is a pure state of two qubits, stored as four
complex amplitudes over the ordered computational basis |00>, |01>, |10>,
|11> with the travelling C photon first and the kept M photon second.
Operations are plain linear algebra on that 4-vector; measurement sampling
is Born-rule exact and driven by an injected random stream so that any run
replays bit for bit.  The samplers read only the stream's random(), one
draw per measurement.

The protocol's ops reach only a few hundred distinct states, so Pauli,
projection, substitution and Bell-mass results are memoized, keyed on the
exact bytes of the input amplitudes.  Each is a deterministic function of
those bytes, so a remembered result is the result a fresh computation would
give, byte for byte.  Sampling is not memoized: each measurement still draws once.
The enums in the memo keys hash by identity, at C speed (equality already
is identity).
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

RandomStream = np.random.Generator
"""Injected randomness contract: seedable, and splittable via SeedSequence.

The samplers call only random(), so any object whose random() returns
floats in [0, 1) can stand in for a stream."""

NORM_TOL = 1e-12

MEMO_LIMIT = 4096
"""Most op results the memo keeps; a protocol run reaches a few hundred."""

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

    States are immutable and may be shared: operations return memoized
    instances.  ``key`` holds the exact amplitude bytes and ``amplitudes``
    is a read-only view of them.  Global phase is physically meaningless
    and never compared.
    """

    amplitudes: np.ndarray
    key: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(4)
        norm_err = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
        if not norm_err <= NORM_TOL:  # NaN amplitudes fail this too
            raise ValueError(f"state not normalized: |norm^2 - 1| = {norm_err:.3e}")
        key = amps.tobytes()
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "amplitudes", _amplitudes(key))


def _amplitudes(key: bytes) -> np.ndarray:
    return np.frombuffer(key, dtype=np.complex128)


@functools.lru_cache(maxsize=MEMO_LIMIT)
def _exact(arithmetic, key: bytes, *args):
    """The memo: arithmetic's result on the amplitudes whose bytes are key.

    A miss runs the arithmetic once; results are immutable, so every
    caller may share them.
    """
    return arithmetic(_amplitudes(key), *args)


_SINGLET = TwoQubitState(_BELL_VECTORS[BellState.PSI_MINUS])


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
    return _exact(_pauli, state.key, op, slot)


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
    return _exact(_project, state.key, slot, basis, outcome)


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
    residual state.  Memoized like the other ops, keyed on the collapsed
    state's bytes, the slot and the outcome.
    """
    return _exact(_substitute, state.key, slot, outcome)


def _substitute(amps: np.ndarray, slot: QubitSlot, outcome: int) -> TwoQubitState:
    m = amps.reshape(2, 2)
    fresh = np.zeros((2, 2), dtype=np.complex128)
    if slot is QubitSlot.C:
        fresh[0, :] = m[outcome, :]
    else:
        fresh[:, 0] = m[:, outcome]
    return TwoQubitState(fresh.reshape(4))


def outcome_probabilities(
    state: TwoQubitState, slot: QubitSlot, basis: Basis
) -> tuple[float, float]:
    """Born probabilities of outcomes (0, 1) for one photon, no collapse."""
    p0, _ = project_qubit(state, slot, basis, 0)
    return p0, 1.0 - p0


def measure_qubit(
    state: TwoQubitState, slot: QubitSlot, basis: Basis, rng: RandomStream
) -> tuple[int, TwoQubitState]:
    """Measure one photon of a pair; return (outcome bit, collapsed pair).

    Sampling uses a single uniform draw from the injected stream, so a
    fixed stream replays the same outcome sequence exactly.
    """
    p0, collapsed0 = project_qubit(state, slot, basis, 0)
    outcome = 0 if rng.random() < p0 else 1
    if outcome == 0:
        collapsed = collapsed0
    else:
        _, collapsed = project_qubit(state, slot, basis, 1)
    if collapsed is None:
        # unreachable for normalized states: the sampled branch has mass
        raise InternalFault("measurement sampled a branch of vanishing probability")
    return outcome, collapsed


def bell_probabilities(state: TwoQubitState) -> np.ndarray:
    """Probabilities of the four Bell outcomes, ordered by canonical index."""
    return _exact(_bell, state.key)[0].copy()


def _bell(amps: np.ndarray) -> tuple[np.ndarray, tuple[float, ...]]:
    """Bell probabilities (read-only) and their running sums in BellState order."""
    probs = np.empty(4, dtype=np.float64)
    for bell in BellState:
        amp = np.vdot(bell.vector, amps)
        probs[bell.index] = float(np.abs(amp) ** 2)
    probs.setflags(write=False)
    return probs, tuple(itertools.accumulate(probs.tolist()))


_BELL_ORDER = tuple(BellState)


def bell_measure(state: TwoQubitState, rng: RandomStream) -> BellState:
    """Joint Bell-basis measurement of a whole pair.

    The pair is consumed: both photons end up in the reported Bell state
    and carry no further message content.
    """
    masses = _exact(_bell, state.key)[1]
    draw = rng.random()
    for bell, acc in zip(_BELL_ORDER, masses):
        if draw < acc:
            return bell
    # The draw landed on rounding slack: the masses can sum to just under 1
    # (a singlet's sum to 0.9999999999999996).  Give the last outcome that
    # added mass, never one of probability zero.
    last = max(i for i in range(4) if masses[i] > (masses[i - 1] if i else 0.0))
    return _BELL_ORDER[last]

"""Eavesdropper models on the photon channel, plus detection estimators.

Eve only ever touches photons while they are in transit.  Each strategy
acts per photon, independently on each transmission leg, with a
configurable attack probability.  Detection statistics come from repeated
protocol runs; information leakage is an empirical mutual-information
estimate between what Eve can reconstruct and the true message pairs.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import compress, filterfalse, repeat
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .codec import random_message
from .qsim import (
    Basis,
    BellState,
    PauliOp,
    QubitSlot,
    TwoQubitState,
    measure_qubit,
    substitute_fresh,
)
from .records import TranscriptInvalid, shape_table
from .stream import Stream

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .session import ProtocolConfig, Session, Transcript


class Leg(enum.Enum):
    """Which transmission a photon is on: C photons first, M photons second."""

    FIRST = "first"
    SECOND = "second"


def leg_slot(leg: Leg) -> QubitSlot:
    """The photon that travels on a given leg."""
    return QubitSlot.C if leg is Leg.FIRST else QubitSlot.M


class AttackKind(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND_Z = "intercept-z"
    INTERCEPT_RESEND_X = "intercept-x"
    INTERCEPT_RESEND_RANDOM = "intercept-rand"
    SUBSTITUTE_FRESH = "substitute"


@dataclass(frozen=True)
class EveStrategy:
    """An attack variant plus the per-photon probability of applying it."""

    kind: AttackKind = AttackKind.NONE
    attack_prob: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, AttackKind):
            raise ValueError(f"kind must be an AttackKind, got {self.kind!r}")
        p = self.attack_prob
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise ValueError(f"attack_prob must be a number in [0, 1], got {p!r}")
        object.__setattr__(self, "attack_prob", float(p))  # so 1 and 1.0 write the same payload

    @classmethod
    def none(cls) -> "EveStrategy":
        return cls(kind=AttackKind.NONE)

    @classmethod
    def from_name(cls, name: str, attack_prob: float = 1.0) -> "EveStrategy":
        try:
            kind = AttackKind(name)
        except ValueError:
            choices = ", ".join(k.value for k in AttackKind)
            raise ValueError(f"unknown eve strategy {name!r} (choices: {choices})")
        return cls(kind=kind, attack_prob=attack_prob)

    @property
    def active(self) -> bool:
        return self.kind is not AttackKind.NONE and self.attack_prob > 0.0

    def to_payload(self) -> dict:
        return {"kind": self.kind.value, "attack_prob": self.attack_prob}


@dataclass
class EveRecord:
    """Eve's touches on one leg, as transit returns them: each touch's pair, in
    touch order, and its code, her basis's code into _BASES times 2 plus her outcome."""

    touches: list[int] = field(default_factory=list)
    codes: bytearray = field(default_factory=bytearray)


def transit(
    pair_states: dict[int, TwoQubitState],
    leg: Leg,
    strategy: EveStrategy,
    rng: Stream,
) -> tuple[dict[int, TwoQubitState], EveRecord]:
    """Pass one leg's photons through the channel under Eve's control.

    Returns the (possibly disturbed) states and Eve's log for this leg.
    With no attack nothing is disturbed, and the states come back as the
    very mapping given, uncopied.  Pair indices are processed in ascending
    order so a fixed stream gives a fixed outcome sequence.  Per photon, a
    partial attack draws random() against attack_prob, a random basis draws
    bit() (0 for Z), and the measurement draws once.
    """
    record = EveRecord()
    if not strategy.active:
        return pair_states, record
    slot = leg_slot(leg)
    kind, attack_prob = strategy.kind, strategy.attack_prob
    partial = attack_prob < 1.0
    random_basis = kind is AttackKind.INTERCEPT_RESEND_RANDOM
    basis = int(kind is AttackKind.INTERCEPT_RESEND_X)  # a code into _BASES
    substitute = kind is AttackKind.SUBSTITUTE_FRESH
    touches, codes = record.touches, record.codes
    out: dict[int, TwoQubitState] = {}
    for index in sorted(pair_states):
        state = pair_states[index]
        if partial and rng.random() >= attack_prob:
            out[index] = state
            continue
        if random_basis:
            basis = rng.bit()
        outcome, state = measure_qubit(state, slot, _BASES[basis], rng.random())
        if substitute:
            # Eve keeps the photon and sends a fresh |0> on.  The kept photon
            # never comes back, so for every later measurement the partner
            # behaves as if it had been read out in Z: the Z measurement above
            # collapses it, and the pair becomes the fresh |0> times the
            # partner's residual state.
            state = substitute_fresh(state, slot, outcome)
        touches.append(index)
        codes.append(basis << 1 | outcome)
        out[index] = state
    return out, record


_BASES = (Basis.Z, Basis.X)
"""Each basis by its code: a random basis draws 0 for Z and 1 for X."""


def predicted_first_check_violation_rate(strategy: EveStrategy) -> float:
    """Analytic per-photon violation rate in the anticorrelation check.

    Intercept-resend: the check photon pair collapses to an eigenbasis
    product; when Bob's basis matches Eve's the anticorrelation survives,
    otherwise both outcomes are fair coins, so p/2 * 1/2 = p/4.
    Substitution: Bob reads a fresh |0> unrelated to Alice's photon, so
    outcomes agree half the time regardless of basis: p/2.
    """
    p = strategy.attack_prob
    if strategy.kind is AttackKind.NONE:
        return 0.0
    if strategy.kind is AttackKind.SUBSTITUTE_FRESH:
        return p / 2.0
    return p / 4.0


def predicted_abort_rate(per_photon_rate: float, check_photons: int) -> float:
    """Whole-protocol abort probability at abort threshold zero."""
    return 1.0 - (1.0 - per_photon_rate) ** check_photons


_Z95 = 1.959963984540054  # the standard normal quantile of a two-sided 95% interval


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes outside 0..total")
    z = _Z95
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class DetectionStats:
    """Pooled detection estimates from repeated runs of one strategy.

    per_photon_rate pools every sampled check photon; abort_rate is the
    whole-protocol abort fraction.  Both carry Wilson 95% intervals.
    """

    trials: int
    checked_photons: int
    violations: int
    per_photon_rate: float
    per_photon_ci: tuple[float, float]
    aborted_runs: int
    abort_rate: float
    abort_ci: tuple[float, float]


def _trials(
    strategy: EveStrategy, config: "ProtocolConfig", trials: int, rng: np.random.Generator
) -> Iterator[tuple["Session", "Transcript"]]:
    """Run config under strategy `trials` times; yield each run's Session and transcript.

    Per trial the stream gives, in this order, the run's 64-bit seed, then
    Alice's and Bob's random full-capacity messages.
    """
    from .session import Session  # deferred: session imports this module

    if trials < 1:
        raise ValueError("trials must be at least 1")
    for _ in range(trials):
        cfg = replace(config, seed=int(rng.integers(1 << 63)), eve=strategy)
        alice_msg = random_message(cfg.alice_capacity_bits, rng)
        bob_msg = random_message(cfg.bob_capacity_bits, rng)
        session = Session(cfg, alice_msg, bob_msg)
        yield session, session.run()


def estimate_detection(
    strategy: EveStrategy,
    config: "ProtocolConfig",
    trials: int,
    rng: np.random.Generator,
) -> DetectionStats:
    """Run the protocol repeatedly and pool first-check detection stats.

    Each trial gets a fresh 64-bit seed and fresh random full-capacity
    messages drawn from the injected stream, and runs with the given
    strategy in place of config.eve.
    """
    checked = 0
    violations = 0
    aborted = 0
    for _, transcript in _trials(strategy, config, trials, rng):
        first = transcript.stats["first_check"]
        checked += first["sampled"]
        violations += first["violations"]
        if not transcript.completed:
            aborted += 1
    return DetectionStats(
        trials=trials,
        checked_photons=checked,
        violations=violations,
        per_photon_rate=violations / checked,
        per_photon_ci=wilson_interval(violations, checked),
        aborted_runs=aborted,
        abort_rate=aborted / trials,
        abort_ci=wilson_interval(aborted, trials),
    )


class InsufficientSamples(Exception):
    """Too few completed runs or pairs for a meaningful estimate."""


def mutual_information_bits(joint: Counter) -> float:
    """Plug-in empirical mutual information of a joint count of (x, y) samples,
    in bits, summed over its cells in their order.  A constant column gives
    exactly 0.0 rather than the rounding residue of the plug-in sum.
    """
    n = sum(joint.values())
    if not n:
        raise InsufficientSamples("no samples")
    left, right = Counter(), Counter()
    for (x, y), c in joint.items():  # the marginals, from the joint's few entries
        left[x] += c
        right[y] += c
    if len(left) == 1 or len(right) == 1:
        return 0.0
    info = 0.0
    for (x, y), c in joint.items():
        pxy = c / n
        info += pxy * math.log2(pxy * n * n / (left[x] * right[y]))
    return max(0.0, info)


# The samples read four kinds of record, as one selection from the event log
# (EventLog.select).  Each such record's sample code is its class times 4
# plus a value 0..3: Alice's or Bob's op code, the announced Bell index, or
# for Eve's touch on either leg, 2 for the X basis plus her outcome.
_ALICE_OP, _BOB_OP, _BELL, _EVE_FIRST, _EVE_SECOND = _CLASSES = range(5)


def _sample_code(kind: str, actor: str, payload: dict) -> int | None:
    if kind == "pauli":
        return (_ALICE_OP if actor == "alice" else _BOB_OP) << 2 | PauliOp[payload["op"]].code
    if kind == "bell_measure":
        return _BELL << 2 | BellState[payload["result"].upper()].index
    if kind == "eve_touch":
        leg = _EVE_FIRST if payload["leg"] == Leg.FIRST.value else _EVE_SECOND
        return leg << 2 | (payload["basis"] == Basis.X.value) << 1 | payload["outcome"]
    return None


_SAMPLE_TABLE = shape_table(_sample_code)


def _eve_guesses(first: dict[int, int], second: dict[int, int]) -> dict[int, int]:
    """Eve's best 2-bit guess of Alice's op per doubly-hit pair, from her touches
    on each leg (pair -> 2 for the X basis plus her outcome).

    A pair measured in the same basis on both legs reveals one bit of
    the op that was applied between the hits: Z-basis hits expose the
    bit-flip (high) bit, X-basis hits expose the phase-flip (low) bit.
    The shared pair anticorrelates, so the undisturbed XOR of the two
    outcomes is 1, and a deviation attributes to Alice's encoding.
    Pairs without a guess are left out; the caller guesses 0 for them.
    """
    guesses: dict[int, int] = {}
    for pair, first_hit in first.items():
        second_hit = second.get(pair)
        if second_hit is None or (first_hit ^ second_hit) & 2:  # one leg only, or two bases
            continue
        learned = (first_hit ^ second_hit ^ 1) & 1
        guesses[pair] = learned if first_hit & 2 else learned << 1
    return guesses


# a sample code -> 1 where it is of a class (one table per class), and -> its value
_IN_CLASS = tuple(bytes(code >> 2 == c for code in range(256)) for c in _CLASSES)
_VALUE = bytes(code & 3 for code in range(256))


def _joint(xs: bytes, ys: bytes) -> Counter:
    """Counter(zip(xs, ys)) of two columns of values 0..3, counted from their cells x << 2 | y."""
    cells = (int.from_bytes(xs, "big") << 2 | int.from_bytes(ys, "big")).to_bytes(len(xs), "big")
    seen = sorted((cells.find(cell), cell) for cell in range(16) if cell in cells)
    return Counter({(cell >> 2, cell & 3): cells.count(cell) for _, cell in seen})


def _run_samples(transcript: "Transcript") -> tuple[Counter, Counter, Counter]:
    """One completed run's MI samples, read from the eve_touch, pauli and bell_measure records.

    Returns the joint counts of (Eve's guess, Alice's op) and of (announced
    Bell index, Alice's op) over the message pairs, then of (announced Bell
    index, Bob's op) over every announced pair, decoys included; each count
    meets its cells in pair order.  Where a pair has more than one record
    of a kind by one actor, the last one counts.  Only the log is read, so
    a saved transcript gives the samples of its live run.  Raises
    TranscriptInvalid, naming the pair, when an announced pair lacks the
    pauli record its sample needs.
    """
    codes, pairs = transcript.events.select(_SAMPLE_TABLE)
    values = codes.translate(_VALUE)
    alice, bob, announced, first_hits, second_hits = (
        dict(zip(compress(pairs[at], mask[at]), compress(values[at], mask[at])))
        for mask in map(codes.translate, _IN_CLASS)
        for at in (slice(mask.find(1), mask.rfind(1) + 1),)  # first record to last (none: -1 to 0)
    )
    decoys = set(transcript.stats.get("second_check", {}).get("decoy_indices", ()))
    every = sorted(announced)
    message = list(filterfalse(decoys.__contains__, every))
    ops = []
    for actor, found, needed in (("alice", alice, message), ("bob", bob, every)):
        try:  # in pair order, so the first pair missing is the smallest
            ops.append(bytes(map(found.__getitem__, needed)))
        except KeyError as lost:
            raise TranscriptInvalid(f"pair {lost} is Bell-measured with no {actor} pauli record") from None
    alice_ops, bob_ops = ops
    message_bells, bells = (bytes(map(announced.__getitem__, needed)) for needed in (message, every))
    return _samples(message, alice_ops, message_bells, bells, bob_ops, first_hits, second_hits)


def _samples(
    message: list[int], alice_ops: bytes, message_bells: bytes, bells: bytes, bob_ops: bytes,
    first_hits: dict[int, int], second_hits: dict[int, int],
) -> tuple[Counter, Counter, Counter]:
    """A completed run's three joint counts, from its columns as Session.sample_columns
    returns them and _run_samples reads them off a log: the message pairs, Alice's ops
    and the Bell indices on them, every Bell index and Bob's ops, and Eve's hits on
    each leg as pair -> code."""
    guesses = _eve_guesses(first_hits, second_hits)
    guessed = bytes(map(guesses.get, message, repeat(0))) if guesses else bytes(len(message))
    return _joint(guessed, alice_ops), _joint(message_bells, alice_ops), _joint(bells, bob_ops)


def eve_information(transcript: "Transcript") -> float:
    """Empirical MI between Eve's op guesses and Alice's true pairs, in bits.

    Only completed runs carry announcements to correlate against, and each
    non-decoy surviving pair contributes one sample; fewer than two raise
    InsufficientSamples.  A strategy that never touched a photon guesses a
    constant and lands on exactly 0.
    """
    if not transcript.completed:
        raise ValueError("eve_information needs a completed (non-aborted) run")
    joint, _, _ = _run_samples(transcript)
    pairs = sum(joint.values())
    if pairs < 2:
        raise InsufficientSamples(f"{pairs} message pairs available, need at least 2")
    return mutual_information_bits(joint)


@dataclass(frozen=True)
class InformationStats:
    """Pooled leakage estimates over repeated runs of one strategy.

    The announced_vs_* fields model a passive listener who records all
    public traffic; eve_guess_vs_alice_bits is what the active strategy's
    own measurements recover about Alice's ops.  All values are empirical
    mutual information in bits per pair, over completed runs only.
    """

    trials: int
    completed_runs: int
    message_pairs: int
    announced_vs_alice_bits: float
    announced_vs_bob_bits: float
    eve_guess_vs_alice_bits: float


def estimate_information(
    strategy: EveStrategy,
    config: "ProtocolConfig",
    trials: int,
    rng: np.random.Generator,
) -> InformationStats:
    """Run the protocol repeatedly and pool all three leakage estimates.

    Each trial gets a fresh seed and fresh random full-capacity messages.
    A completed trial's samples come from its Session's own columns, not
    from a re-read of its log; they are the counts _run_samples reads.
    Raises InsufficientSamples when no run survives its own checks, the
    common case for aggressive strategies.  Merged in trial order, the
    joint counts sum their cells as the pooled samples would.
    """
    joints = eve, alice, bob = Counter(), Counter(), Counter()
    completed = 0
    for session, transcript in _trials(strategy, config, trials, rng):
        if not transcript.completed:
            continue
        completed += 1
        for total, trial in zip(joints, _samples(*session.sample_columns())):
            total.update(trial)
    if not completed:
        raise InsufficientSamples(f"0 completed runs out of {trials}, need 1")
    return InformationStats(
        trials=trials,
        completed_runs=completed,
        message_pairs=sum(alice.values()),
        announced_vs_alice_bits=mutual_information_bits(alice),
        announced_vs_bob_bits=mutual_information_bits(bob),
        eve_guess_vs_alice_bits=mutual_information_bits(eve),
    )


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
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .codec import random_message
from .qsim import (
    Basis,
    BellState,
    QubitSlot,
    RandomStream,
    TwoQubitState,
    measure_qubit,
)

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
        if not 0.0 <= self.attack_prob <= 1.0:
            raise ValueError(f"attack_prob must be in [0, 1], got {self.attack_prob}")

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


@dataclass(frozen=True, slots=True)
class EveTouch:
    """One intercepted photon: where, when, how, and what Eve saw."""

    pair_index: int
    leg: Leg
    basis: Basis
    outcome: int


@dataclass
class EveRecord:
    """Everything Eve accumulated across both legs of one run."""

    touches: list[EveTouch] = field(default_factory=list)

    def extend(self, other: "EveRecord") -> None:
        self.touches.extend(other.touches)

    def by_pair(self) -> dict[int, dict[Leg, EveTouch]]:
        out: dict[int, dict[Leg, EveTouch]] = {}
        for t in self.touches:
            out.setdefault(t.pair_index, {})[t.leg] = t
        return out

    def alice_op_guesses(self) -> dict[int, int]:
        """Eve's best 2-bit guess of Alice's op per doubly-hit pair.

        A pair measured in the same basis on both legs reveals one bit of
        the op that was applied between the hits: Z-basis hits expose the
        bit-flip (high) bit, X-basis hits expose the phase-flip (low) bit.
        The shared pair anticorrelates, so the undisturbed XOR of the two
        outcomes is 1, and a deviation attributes to Alice's encoding.
        Unknown bits are guessed as 0.
        """
        guesses: dict[int, int] = {}
        for pair_index, legs in self.by_pair().items():
            first = legs.get(Leg.FIRST)
            second = legs.get(Leg.SECOND)
            if first is None or second is None or first.basis is not second.basis:
                continue
            learned = first.outcome ^ second.outcome ^ 1
            if first.basis is Basis.Z:
                guesses[pair_index] = learned << 1
            else:
                guesses[pair_index] = learned
        return guesses


def _substitute_fresh(
    state: TwoQubitState, slot: QubitSlot, rng: RandomStream
) -> tuple[int, TwoQubitState]:
    """Swap the transiting photon for a fresh |0> and keep the original.

    The kept photon leaves the legitimate system for good, so for every
    later measurement the partner behaves as if the kept photon had been
    read out in Z: collapse it, then rebuild the pair as a product of the
    fresh |0> and the partner's residual state.
    """
    outcome, collapsed = measure_qubit(state, slot, Basis.Z, rng)
    m = collapsed.amplitudes.reshape(2, 2)
    fresh = np.zeros((2, 2), dtype=np.complex128)
    if slot is QubitSlot.C:
        fresh[0, :] = m[outcome, :]
    else:
        fresh[:, 0] = m[:, outcome]
    return outcome, TwoQubitState(fresh.reshape(4))


def transit(
    pair_states: dict[int, TwoQubitState],
    leg: Leg,
    strategy: EveStrategy,
    rng: RandomStream,
) -> tuple[dict[int, TwoQubitState], EveRecord]:
    """Pass one leg's photons through the channel under Eve's control.

    Returns the (possibly disturbed) states and Eve's log for this leg.
    Pair indices are processed in ascending order so a fixed stream gives
    a fixed outcome sequence.
    """
    record = EveRecord()
    if not strategy.active:
        return dict(pair_states), record
    slot = leg_slot(leg)
    out: dict[int, TwoQubitState] = {}
    for index in sorted(pair_states):
        state = pair_states[index]
        if strategy.attack_prob < 1.0 and rng.random() >= strategy.attack_prob:
            out[index] = state
            continue
        if strategy.kind is AttackKind.SUBSTITUTE_FRESH:
            basis = Basis.Z
            outcome, state = _substitute_fresh(state, slot, rng)
        else:
            if strategy.kind is AttackKind.INTERCEPT_RESEND_Z:
                basis = Basis.Z
            elif strategy.kind is AttackKind.INTERCEPT_RESEND_X:
                basis = Basis.X
            else:
                basis = Basis.Z if rng.integers(2) == 0 else Basis.X
            outcome, state = measure_qubit(state, slot, basis, rng)
        record.touches.append(EveTouch(index, leg, basis, outcome))
        out[index] = state
    return out, record


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


def wilson_interval(
    successes: int, total: int, z: float = 1.959963984540054
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes outside 0..total")
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

    strategy: EveStrategy
    trials: int
    checked_photons: int
    violations: int
    per_photon_rate: float
    per_photon_ci: tuple[float, float]
    aborted_runs: int
    abort_rate: float
    abort_ci: tuple[float, float]


def _trials(
    strategy: EveStrategy, config: "ProtocolConfig", trials: int, rng: RandomStream
) -> Iterator[tuple["Session", "Transcript"]]:
    """Run config under strategy `trials` times; yield each session and its transcript.

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
    rng: RandomStream,
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
        strategy=strategy,
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


def mutual_information_bits(samples: Sequence[tuple[int, int]]) -> float:
    """Plug-in empirical mutual information over a finite alphabet, in bits.

    A constant column carries no information, so it gives exactly 0.0
    rather than the rounding residue of the plug-in sum.
    """
    if not samples:
        raise InsufficientSamples("no samples")
    n = len(samples)
    joint = Counter(samples)
    left = Counter(x for x, _ in samples)
    right = Counter(y for _, y in samples)
    if len(left) == 1 or len(right) == 1:
        return 0.0
    info = 0.0
    for (x, y), c in joint.items():
        pxy = c / n
        info += pxy * math.log2(pxy * n * n / (left[x] * right[y]))
    return max(0.0, info)


_BELL_INDEX = {bell.name.lower(): bell.index for bell in BellState}


def _run_samples(
    record: EveRecord, transcript: "Transcript"
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """One completed run's MI samples, read in one pass over its event log.

    Returns (Eve's guess, Alice's op) and (announced Bell index, Alice's
    op) for every message pair, then (announced Bell index, Bob's op) for
    every announced pair, decoys included; each in pair order.
    """
    announced: dict[int, int] = {}
    ops: dict[str, dict[int, int]] = {"alice": {}, "bob": {}}
    decoys: set[int] = set()
    for event in transcript.events:
        kind, payload = event.kind, event.payload
        if kind == "pauli" and event.actor in ops:
            ops[event.actor][payload["pair"]] = int(payload["op"][1])
        elif kind == "bell_measure":
            announced[payload["pair"]] = _BELL_INDEX[payload["result"]]
        elif kind == "stats":
            decoys = set(payload.get("second_check", {}).get("decoy_indices", ()))
    guesses = record.alice_op_guesses()
    pairs = sorted(announced)
    message = [i for i in pairs if i not in decoys]
    return (
        [(guesses.get(i, 0), ops["alice"][i]) for i in message],
        [(announced[i], ops["alice"][i]) for i in message],
        [(announced[i], ops["bob"][i]) for i in pairs],
    )


def eve_information(
    record: EveRecord, transcript: "Transcript", min_pairs: int = 2
) -> float:
    """Empirical MI between Eve's op guesses and Alice's true pairs, in bits.

    Only completed runs carry announcements to correlate against, and each
    non-decoy surviving pair contributes one sample.  A strategy that never
    touched a photon guesses a constant and lands on exactly 0.
    """
    if not transcript.completed:
        raise ValueError("eve_information needs a completed (non-aborted) run")
    samples, _, _ = _run_samples(record, transcript)
    if len(samples) < min_pairs:
        raise InsufficientSamples(
            f"{len(samples)} message pairs available, need at least {min_pairs}"
        )
    return mutual_information_bits(samples)


@dataclass(frozen=True)
class InformationStats:
    """Pooled leakage estimates over repeated runs of one strategy.

    The announced_vs_* fields model a passive listener who records all
    public traffic; eve_guess_vs_alice_bits is what the active strategy's
    own measurements recover about Alice's ops.  All values are empirical
    mutual information in bits per pair, over completed runs only.
    """

    strategy: EveStrategy
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
    rng: RandomStream,
    min_completed: int = 1,
) -> InformationStats:
    """Run the protocol repeatedly and pool all three leakage estimates.

    Each trial gets a fresh seed and fresh random full-capacity messages.
    Raises InsufficientSamples when fewer than min_completed runs survive
    their own checks, the common case for aggressive strategies.
    """
    eve_samples: list[tuple[int, int]] = []
    alice_samples: list[tuple[int, int]] = []
    bob_samples: list[tuple[int, int]] = []
    completed = 0
    for session, transcript in _trials(strategy, config, trials, rng):
        if not transcript.completed:
            continue
        completed += 1
        eve, alice, bob = _run_samples(session.eve_record, transcript)
        eve_samples += eve
        alice_samples += alice
        bob_samples += bob
    if completed < min_completed:
        raise InsufficientSamples(
            f"{completed} completed runs out of {trials}, need {min_completed}"
        )
    return InformationStats(
        strategy=strategy,
        trials=trials,
        completed_runs=completed,
        message_pairs=len(alice_samples),
        announced_vs_alice_bits=mutual_information_bits(alice_samples),
        announced_vs_bob_bits=mutual_information_bits(bob_samples),
        eve_guess_vs_alice_bits=mutual_information_bits(eve_samples),
    )


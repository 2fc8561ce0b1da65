"""Two-party protocol engine: state machines, classical wire, transcripts.

One Session runs the whole exchange between an in-process Alice and Bob:
pair preparation, the travelling-photon leg with Eve on the channel, the
anticorrelation check, both parties' encodings, Bob's Bell measurements
and announcement, the decoy check, and decoding.  Everything observable
lands in an append-only event log whose serialized form replays byte for
byte under a fixed config, seed, and message pair.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .adversary import EveRecord, EveStrategy, Leg, leg_slot, transit
from .codec import MessageBits, decode_alice, decode_bob, expected_bell, op_for_bits
from .qsim import (
    Basis,
    BellState,
    InternalFault,
    PauliOp,
    QubitSlot,
    RandomStream,
    TwoQubitState,
    apply_pauli,
    bell_measure,
    make_singlet,
    measure_qubit,
)


class ProtocolError(Exception):
    """Base for faults the caller is expected to handle."""


class ConfigInvalid(ProtocolError):
    pass


class CapacityExceeded(ProtocolError):
    pass


class TranscriptInvalid(ValueError):
    """A transcript file that does not follow FORMAT.md."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything that determines one run, including the RNG seed.

    The first check consumes ceil(n_pairs * check_fraction_1) pairs; the
    second check reserves check_count_2 surviving pairs as decoys.  Decoy
    pairs still carry Bob's genuine bits, so only Alice's capacity is
    reduced by them.
    """

    n_pairs: int
    check_fraction_1: float = 0.25
    check_count_2: int = 4
    abort_threshold: int = 0
    seed: int = 0
    eve: EveStrategy = field(default_factory=EveStrategy.none)

    def validate(self) -> None:
        if not isinstance(self.n_pairs, int) or self.n_pairs < 2:
            raise ConfigInvalid(f"n_pairs must be an integer >= 2, got {self.n_pairs!r}")
        if not 0.0 < self.check_fraction_1 < 1.0:
            raise ConfigInvalid(
                f"check_fraction_1 must lie strictly between 0 and 1, got {self.check_fraction_1!r}"
            )
        if self.first_check_count >= self.n_pairs:
            raise ConfigInvalid(
                f"first check would consume all {self.n_pairs} pairs; lower check_fraction_1"
            )
        if not isinstance(self.check_count_2, int) or self.check_count_2 < 0:
            raise ConfigInvalid(f"check_count_2 must be a non-negative integer, got {self.check_count_2!r}")
        if self.check_count_2 >= self.surviving_pairs:
            raise ConfigInvalid(
                f"check_count_2 = {self.check_count_2} must leave at least one of the "
                f"{self.surviving_pairs} surviving pairs for the message"
            )
        if not isinstance(self.abort_threshold, int) or self.abort_threshold < 0:
            raise ConfigInvalid(f"abort_threshold must be a non-negative integer, got {self.abort_threshold!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigInvalid(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    @property
    def first_check_count(self) -> int:
        return math.ceil(self.n_pairs * self.check_fraction_1)

    @property
    def surviving_pairs(self) -> int:
        return self.n_pairs - self.first_check_count

    @property
    def alice_capacity_bits(self) -> int:
        return 2 * (self.surviving_pairs - self.check_count_2)

    @property
    def bob_capacity_bits(self) -> int:
        return 2 * self.surviving_pairs

    def to_payload(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "check_fraction_1": self.check_fraction_1,
            "check_count_2": self.check_count_2,
            "abort_threshold": self.abort_threshold,
            "seed": self.seed,
            "eve": self.eve.to_payload(),
        }


# ---------------------------------------------------------------------------
# Classical wire


# Each FORMAT.md message `type` and the payload field that lists pair
# indices, or None.  This table is the only definition of the wire; an
# indexed field holds bare indices or [index, value] entries.
_MESSAGE_INDEX_FIELD: dict[str, str | None] = {
    "check_indices": "indices",
    "basis_announce": "bases",
    "outcome_announce": "outcomes",
    "check_verdict": None,
    "second_check_indices": "indices",
    "second_check_reveal": "ops",
    "bell_results": "results",
    "abort": None,
}


# ---------------------------------------------------------------------------
# Parties


class Phase(enum.Enum):
    INIT = "init"
    FIRST_TRANSMISSION = "first_transmission"
    FIRST_CHECK = "first_check"
    ENCODING = "encoding"
    SECOND_TRANSMISSION = "second_transmission"
    BELL_ANNOUNCE = "bell_announce"
    SECOND_CHECK = "second_check"
    DONE = "done"
    ABORTED = "aborted"


_PHASE_RANK = {phase: rank for rank, phase in enumerate(Phase)}


class Role(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


@dataclass
class PartyState:
    """One party's protocol view: phase, photon custody, and bookkeeping."""

    role: Role
    message: MessageBits
    phase: Phase = Phase.INIT
    custody: dict[int, set[QubitSlot]] = field(default_factory=dict)
    applied_ops: dict[int, PauliOp] = field(default_factory=dict)
    decoy_positions: frozenset[int] = frozenset()
    decoded: MessageBits | None = None

    def advance(self, phase: Phase) -> None:
        if phase is not Phase.ABORTED and _PHASE_RANK[phase] <= _PHASE_RANK[self.phase]:
            raise InternalFault(
                f"{self.role.value} cannot move from {self.phase.value} to {phase.value}"
            )
        self.phase = phase

    def grant(self, pair: int, slot: QubitSlot) -> None:
        self.custody.setdefault(pair, set()).add(slot)

    def release(self, pair: int, slot: QubitSlot) -> None:
        self.require(pair, slot)
        self.custody[pair].discard(slot)

    def holds(self, pair: int, slot: QubitSlot) -> bool:
        return slot in self.custody.get(pair, set())

    def require(self, pair: int, slot: QubitSlot) -> None:
        if not self.holds(pair, slot):
            raise InternalFault(
                f"{self.role.value} does not hold pair {pair} slot {slot.value}"
            )


# ---------------------------------------------------------------------------
# Transcript


@dataclass(frozen=True, slots=True)
class Event:
    """One transcript record: dense sequence number, actor, kind, payload."""

    seq: int
    actor: str
    kind: str
    payload: dict

    def to_record(self) -> dict:
        return {"seq": self.seq, "actor": self.actor, "kind": self.kind, "payload": self.payload}


@dataclass(frozen=True)
class Completed:
    alice_decoded: MessageBits
    bob_decoded: MessageBits


@dataclass(frozen=True)
class Aborted:
    phase: Phase
    reason: str


Verdict = Union[Completed, Aborted]


def _message_bits_payload(message: MessageBits) -> dict:
    return {"bits": "".join(str(b) for b in message.bits), "pad_bits": message.pad_bits}


def _message_bits_from_payload(payload: dict) -> MessageBits:
    return MessageBits(
        bits=tuple(int(c) for c in payload["bits"]), pad_bits=int(payload["pad_bits"])
    )


@dataclass
class Transcript:
    """Complete record of one run: config echo, event log, verdict, stats.

    The serialized form is one JSON object per line with fields
    (seq, actor, kind, payload); a file is valid if and only if its
    sequence numbers are dense from 0.  See FORMAT.md for field tables.
    """

    events: list[Event]
    verdict: Verdict

    @property
    def completed(self) -> bool:
        return isinstance(self.verdict, Completed)

    @property
    def config(self) -> dict:
        if not self.events or self.events[0].kind != "config":
            raise ValueError("transcript does not start with a config record")
        return self.events[0].payload

    @property
    def stats(self) -> dict:
        for event in reversed(self.events):
            if event.kind == "stats":
                return event.payload
        raise ValueError("transcript has no stats record")

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(e.to_record(), sort_keys=True, separators=(",", ":"))
            for e in self.events
        ]
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        events: list[Event] = []
        for lineno, line in enumerate(text.splitlines()):
            if not line.strip():
                raise TranscriptInvalid(f"blank record at line {lineno}")
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TranscriptInvalid(f"line {lineno}: {exc}") from exc
            if not isinstance(raw, dict) or raw.keys() != {"seq", "actor", "kind", "payload"}:
                raise TranscriptInvalid(
                    f"line {lineno}: expected an object with exactly seq, actor, kind and payload"
                )
            event = Event(**raw)
            if event.seq != lineno:
                raise TranscriptInvalid(
                    f"sequence numbers must be dense from 0: expected {lineno}, got {event.seq}"
                )
            events.append(event)
        if not events or events[-1].kind != "verdict":
            raise TranscriptInvalid("transcript is truncated: no verdict record")
        try:
            verdict = _verdict_from_payload(events[-1].payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise TranscriptInvalid(f"malformed verdict payload: {exc!r}") from exc
        return cls(events=events, verdict=verdict)

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "Transcript":
        return cls.from_jsonl(Path(path).read_text(encoding="utf-8"))


def _verdict_payload(verdict: Verdict) -> dict:
    if isinstance(verdict, Completed):
        return {
            "outcome": "completed",
            "alice_decoded": _message_bits_payload(verdict.alice_decoded),
            "bob_decoded": _message_bits_payload(verdict.bob_decoded),
        }
    return {"outcome": "aborted", "phase": verdict.phase.value, "reason": verdict.reason}


def _verdict_from_payload(payload: dict) -> Verdict:
    if payload["outcome"] == "completed":
        return Completed(
            alice_decoded=_message_bits_from_payload(payload["alice_decoded"]),
            bob_decoded=_message_bits_from_payload(payload["bob_decoded"]),
        )
    return Aborted(phase=Phase(payload["phase"]), reason=payload["reason"])


class _Recorder:
    """Appends events with dense sequence numbers and numbers the wire."""

    def __init__(self, n_pairs: int) -> None:
        self.events: list[Event] = []
        self._n_pairs = n_pairs
        self._msg_seq = 0

    def emit(self, actor: str, kind: str, payload: dict) -> None:
        self.events.append(Event(seq=len(self.events), actor=actor, kind=kind, payload=payload))

    def send(self, sender: Role, type: str, **fields: object) -> None:
        """Put one classical message on the wire; fields are already in wire form."""
        if type not in _MESSAGE_INDEX_FIELD:
            raise InternalFault(f"unknown message type {type!r}")
        index_field = _MESSAGE_INDEX_FIELD[type]
        entries = fields[index_field] if index_field else []
        indices = [e if index_field == "indices" else e[0] for e in entries]
        for prev, cur in zip(indices, indices[1:]):
            if cur <= prev:
                raise InternalFault("message indices must be strictly increasing")
        for i in indices:
            if not 0 <= i < self._n_pairs:
                raise InternalFault(f"message index {i} outside pair range")
        payload = {"msg_seq": self._msg_seq, "sender": sender.value, "type": type, **fields}
        self._msg_seq += 1
        self.emit(sender.value, "message", payload)


def audit_custody(transcript: Transcript) -> list[str]:
    """Replay the event log and flag any op on a photon outside custody.

    Tracks each (pair, slot) through prepare, send, channel, receive, and
    consumption by Bell measurement.  Returns human-readable violations;
    an empty list means the transcript respects custody everywhere.
    """
    holder: dict[tuple[int, str], str] = {}
    violations: list[str] = []

    def check(event: Event, pair: int, slot: str, expect: str) -> bool:
        actual = holder.get((pair, slot))
        if actual != expect:
            violations.append(
                f"seq {event.seq}: {event.kind} on pair {pair} slot {slot} "
                f"held by {actual}, expected {expect}"
            )
            return False
        return True

    for event in transcript.events:
        kind, payload = event.kind, event.payload
        if kind == "prepare":
            pair = payload["pair"]
            if event.actor != "alice":
                violations.append(f"seq {event.seq}: pair {pair} prepared by {event.actor}")
            holder[(pair, "C")] = event.actor
            holder[(pair, "M")] = event.actor
        elif kind == "send":
            pair, slot = payload["pair"], payload["slot"]
            if check(event, pair, slot, event.actor):
                holder[(pair, slot)] = "channel"
        elif kind == "eve_touch":
            check(event, payload["pair"], payload["slot"], "channel")
        elif kind == "receive":
            pair, slot = payload["pair"], payload["slot"]
            if check(event, pair, slot, "channel"):
                holder[(pair, slot)] = event.actor
        elif kind in ("pauli", "measure"):
            check(event, payload["pair"], payload["slot"], event.actor)
        elif kind == "bell_measure":
            pair = payload["pair"]
            for slot in ("C", "M"):
                if check(event, pair, slot, event.actor):
                    holder[(pair, slot)] = "consumed"
    return violations


# ---------------------------------------------------------------------------
# The protocol


class Session:
    """One deterministic run between in-process parties.

    Construction validates the config and message capacities; run()
    executes every phase and returns the Transcript.  All randomness comes
    from three child streams (Alice, Bob, Eve) split off the config seed
    in a fixed order.
    """

    def __init__(
        self, config: ProtocolConfig, alice_msg: MessageBits, bob_msg: MessageBits
    ) -> None:
        config.validate()
        for name, message, capacity in (
            ("alice", alice_msg, config.alice_capacity_bits),
            ("bob", bob_msg, config.bob_capacity_bits),
        ):
            if len(message.bits) > capacity:
                raise CapacityExceeded(
                    f"{name} message of {len(message.bits)} bits exceeds capacity {capacity}"
                )
        self.config = config
        alice_ss, bob_ss, eve_ss = np.random.SeedSequence(config.seed).spawn(3)
        self._alice_rng: RandomStream = np.random.default_rng(alice_ss)
        self._bob_rng: RandomStream = np.random.default_rng(bob_ss)
        self._eve_rng: RandomStream = np.random.default_rng(eve_ss)
        self.alice = PartyState(role=Role.ALICE, message=alice_msg)
        self.bob = PartyState(role=Role.BOB, message=bob_msg)
        self.eve_record = EveRecord()
        self.survivors: list[int] = []
        self.announced: dict[int, BellState] = {}
        self._states: dict[int, TwoQubitState] = {}
        self._stats: dict = {}
        self._rec = _Recorder(config.n_pairs)
        self._finished = False
        self._rec.emit("session", "config", config.to_payload())

    # -- phase steps, in protocol order

    def prepare_pairs(self) -> None:
        self._advance_both(Phase.FIRST_TRANSMISSION)
        for i in range(self.config.n_pairs):
            self._states[i] = make_singlet()
            self.alice.grant(i, QubitSlot.C)
            self.alice.grant(i, QubitSlot.M)
            self._rec.emit("alice", "prepare", {"pair": i})

    def transmit(self, leg: Leg) -> None:
        """Send one leg's photons from Alice to Bob through Eve's channel."""
        slot = leg_slot(leg)
        if leg is Leg.SECOND:
            self._advance_both(Phase.SECOND_TRANSMISSION)
            indices = list(self.survivors)
        else:
            indices = list(range(self.config.n_pairs))
        for i in indices:
            self.alice.release(i, slot)
            self._rec.emit("alice", "send", {"pair": i, "slot": slot.value, "to": "bob"})
        in_transit = {i: self._states[i] for i in indices}
        disturbed, record = transit(in_transit, leg, self.config.eve, self._eve_rng)
        self._states.update(disturbed)
        for touch in record.touches:
            self._rec.emit(
                "eve",
                "eve_touch",
                {
                    "pair": touch.pair_index,
                    "leg": touch.leg.value,
                    "slot": slot.value,
                    "basis": touch.basis.value,
                    "outcome": touch.outcome,
                },
            )
        self.eve_record.extend(record)
        for i in indices:
            self.bob.grant(i, slot)
            self._rec.emit("bob", "receive", {"pair": i, "slot": slot.value})

    def first_check(self) -> bool:
        """Anticorrelation test on a random sample of travelled photons.

        Bob announces which pairs he sampled, then his basis choices and
        outcomes; Alice measures each partner photon in the same basis.
        Any equal pair of outcomes is a violation.  Sampled pairs are
        consumed either way.
        """
        self._advance_both(Phase.FIRST_CHECK)
        cfg = self.config
        count = cfg.first_check_count
        chosen = sorted(
            int(i) for i in self._bob_rng.choice(cfg.n_pairs, size=count, replace=False)
        )
        self._rec.send(Role.BOB, "check_indices", indices=chosen)
        bases: dict[int, Basis] = {
            i: (Basis.Z if self._bob_rng.integers(2) == 0 else Basis.X) for i in chosen
        }
        bob_outcomes = {
            i: self._measure(self.bob, self._bob_rng, i, QubitSlot.C, bases[i]) for i in chosen
        }
        self._rec.send(Role.BOB, "basis_announce", bases=[[i, bases[i].value] for i in chosen])
        self._rec.send(
            Role.BOB, "outcome_announce", outcomes=[[i, bob_outcomes[i]] for i in chosen]
        )
        violations = sum(
            self._measure(self.alice, self._alice_rng, i, QubitSlot.M, bases[i]) == bob_outcomes[i]
            for i in chosen
        )
        passed = violations <= cfg.abort_threshold
        self._stats["first_check"] = {
            "sampled": count,
            "violations": violations,
            "passed": passed,
        }
        self._rec.send(Role.ALICE, "check_verdict", passed=passed, violations=violations)
        if not passed:
            self._abort("anticorrelation check failed")
            return False
        consumed = set(chosen)
        self.survivors = [i for i in range(cfg.n_pairs) if i not in consumed]
        return True

    def alice_encode(self) -> None:
        """Encode Alice's padded message on the kept photons, decoys included.

        Decoy positions are drawn uniformly from the survivors and get a
        uniformly random recorded op instead of message bits; everything
        else consumes message pairs in photon-sequence order.
        """
        self._advance_both(Phase.ENCODING)
        cfg = self.config
        if cfg.check_count_2 > 0:
            decoys = frozenset(
                int(i)
                for i in self._alice_rng.choice(
                    len(self.survivors), size=cfg.check_count_2, replace=False
                )
            )
            decoy_positions = frozenset(self.survivors[i] for i in decoys)
        else:
            decoy_positions = frozenset()
        self.alice.decoy_positions = decoy_positions
        message_count = len(self.survivors) - len(decoy_positions)
        next_pair = iter(_padded_pairs(self.alice.message, message_count))
        for i in self.survivors:
            if i in decoy_positions:
                op = PauliOp(int(self._alice_rng.integers(4)))
            else:
                op = op_for_bits(next(next_pair))
            self.alice.require(i, QubitSlot.M)
            self._states[i] = apply_pauli(self._states[i], op, QubitSlot.M)
            self.alice.applied_ops[i] = op
            self._rec.emit("alice", "pauli", {"pair": i, "slot": "M", "op": op.name})

    def bob_encode_measure_announce(self) -> None:
        """Bob's encoding, joint measurement, and public announcement.

        Each surviving pair gets Bob's op on a uniformly random photon
        (never announced), then a Bell measurement that consumes the pair.
        Results are announced for all survivors at once, in index order.
        """
        self._advance_both(Phase.BELL_ANNOUNCE)
        message_pairs = _padded_pairs(self.bob.message, len(self.survivors))
        for i, pair_bits in zip(self.survivors, message_pairs):
            op = op_for_bits(pair_bits)
            slot = QubitSlot.C if self._bob_rng.integers(2) == 0 else QubitSlot.M
            self.bob.require(i, QubitSlot.C)
            self.bob.require(i, QubitSlot.M)
            self._states[i] = apply_pauli(self._states[i], op, slot)
            self.bob.applied_ops[i] = op
            self._rec.emit("bob", "pauli", {"pair": i, "slot": slot.value, "op": op.name})
            result = bell_measure(self._states.pop(i), self._bob_rng)
            self.announced[i] = result
            self.bob.release(i, QubitSlot.C)
            self.bob.release(i, QubitSlot.M)
            self._rec.emit("bob", "bell_measure", {"pair": i, "result": result.name.lower()})
        self._rec.send(
            Role.BOB,
            "bell_results",
            results=[[i, self.announced[i].name.lower()] for i in self.survivors],
        )

    def second_check(self) -> bool:
        """Decoy verification of the announced results.

        Alice reveals which pairs were decoys, Bob reveals his ops there,
        and Alice checks each announcement against the deterministic
        expected outcome; then she reveals her decoy ops with the verdict.
        Any mismatch aborts.  With zero decoys the check passes vacuously
        and nothing goes on the wire.
        """
        self._advance_both(Phase.SECOND_CHECK)
        decoys = sorted(self.alice.decoy_positions)
        alice_ops, bob_ops = self.alice.applied_ops, self.bob.applied_ops
        mismatches = 0
        if decoys:
            self._rec.send(Role.ALICE, "second_check_indices", indices=decoys)
            self._rec.send(
                Role.BOB, "second_check_reveal", ops=[[i, bob_ops[i].name] for i in decoys]
            )
            mismatches = sum(
                self.announced[i] is not expected_bell(alice_ops[i], bob_ops[i]) for i in decoys
            )
            self._rec.send(
                Role.ALICE, "second_check_reveal", ops=[[i, alice_ops[i].name] for i in decoys]
            )
            self._rec.send(
                Role.ALICE, "check_verdict", passed=mismatches == 0, violations=mismatches
            )
        passed = mismatches == 0
        self._stats["second_check"] = {
            "decoys": len(decoys),
            "decoy_indices": list(decoys),
            "mismatches": mismatches,
            "passed": passed,
        }
        if not passed:
            self._abort("decoy results diverged from announcements")
        return passed

    def decode_both(self) -> None:
        """Each side recovers the other's message from the announcements.

        Bob drops the revealed decoy positions; Alice decodes every
        survivor because decoys carry Bob's genuine bits.  Capacity fill
        beyond each sender's recorded payload length is stripped.
        """
        decoys = self.alice.decoy_positions
        alice_sent_pairs = [
            decode_alice(self.bob.applied_ops[i], self.announced[i])
            for i in self.survivors
            if i not in decoys
        ]
        self.bob.decoded = MessageBits.from_pairs(
            alice_sent_pairs, self.alice.message.payload_bits
        )
        bob_sent_pairs = [
            decode_bob(self.alice.applied_ops[i], self.announced[i]) for i in self.survivors
        ]
        self.alice.decoded = MessageBits.from_pairs(
            bob_sent_pairs, self.bob.message.payload_bits
        )
        self._advance_both(Phase.DONE)

    def run(self) -> Transcript:
        if self._finished:
            raise InternalFault("a Session runs exactly once")
        self.prepare_pairs()
        self.transmit(Leg.FIRST)
        if not self.first_check():
            return self._finish(Aborted(Phase.FIRST_CHECK, "anticorrelation check failed"))
        self.alice_encode()
        self.transmit(Leg.SECOND)
        self.bob_encode_measure_announce()
        if not self.second_check():
            return self._finish(Aborted(Phase.SECOND_CHECK, "decoy check failed"))
        self.decode_both()
        return self._finish(Completed(self.alice.decoded, self.bob.decoded))

    # -- internals

    def _advance_both(self, phase: Phase) -> None:
        self.alice.advance(phase)
        self.bob.advance(phase)

    def _measure(
        self, party: PartyState, rng: RandomStream, pair: int, slot: QubitSlot, basis: Basis
    ) -> int:
        """One party measures its photon of a pair in a basis and logs the outcome."""
        party.require(pair, slot)
        outcome, self._states[pair] = measure_qubit(self._states[pair], slot, basis, rng)
        self._rec.emit(
            party.role.value,
            "measure",
            {"pair": pair, "slot": slot.value, "basis": basis.value, "outcome": outcome},
        )
        return outcome

    def _abort(self, reason: str) -> None:
        self._rec.send(Role.ALICE, "abort", reason=reason)
        self._advance_both(Phase.ABORTED)

    def _finish(self, verdict: Verdict) -> Transcript:
        self._finished = True
        self._rec.emit("session", "stats", dict(self._stats))
        self._rec.emit("session", "verdict", _verdict_payload(verdict))
        return Transcript(events=self._rec.events, verdict=verdict)


def _padded_pairs(message: MessageBits, needed: int) -> list[int]:
    pairs = list(message.pairs())
    if len(pairs) > needed:
        raise InternalFault("message longer than encoding positions")  # capacity checked earlier
    return pairs + [0] * (needed - len(pairs))


def run_protocol(
    config: ProtocolConfig, alice_msg: MessageBits, bob_msg: MessageBits
) -> Transcript:
    """Run one full exchange and return its transcript.

    Raises ConfigInvalid or CapacityExceeded before any quantum activity;
    protocol-level aborts are reported in the verdict, not raised.
    """
    return Session(config, alice_msg, bob_msg).run()

"""Two-party protocol engine: state machine, classical wire, transcripts, custody.

One Session runs the whole exchange between an in-process Alice and Bob:
pair preparation, the travelling-photon leg with Eve on the channel, the
anticorrelation check, both parties' encodings, Bob's Bell measurements
and announcement, the decoy check, and decoding.  Everything observable
lands in an append-only event log whose serialized form replays byte for
byte under a fixed config, seed, and message pair.
"""

from __future__ import annotations

import enum
import math
import os
import stat
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, pairwise
from operator import itemgetter, lt
from pathlib import Path
from typing import Union

import numpy as np

from .adversary import _BASES, EveStrategy, Leg, leg_slot, transit
from .codec import _BIT_DIGIT, MessageBits
from .qsim import (
    BellState,
    InternalFault,
    PauliOp,
    QubitSlot,
    TwoQubitState,
    apply_pauli,
    bell_measure,
    make_singlet,
    measure_qubit,
)
from .records import _SHAPE_ID, _SHAPE_STEP, Event, EventLog, TranscriptInvalid, check_frame
from .records import _apply_custody, _record_shape, _run_step
from .stream import Stream


class ProtocolError(Exception):
    """Base for faults the caller is expected to handle."""


class ConfigInvalid(ProtocolError):
    pass


class CapacityExceeded(ProtocolError):
    pass


LOG_BYTES_PER_PAIR = 2048
"""Bound on the transcript bytes one pair adds, under any attack and any number of decoys
(about 700 without Eve, about 1070 with every surviving pair but one a decoy and Eve on both legs)."""

MAX_LOG_BYTES = 2**31

MAX_PAIRS = MAX_LOG_BYTES // LOG_BYTES_PER_PAIR
"""Largest block a config may ask for: its transcript stays under MAX_LOG_BYTES."""


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

    def __post_init__(self) -> None:
        for name in ("n_pairs", "check_count_2", "abort_threshold", "seed"):
            if isinstance(getattr(self, name), bool):
                raise ConfigInvalid(f"{name} must be an integer, not a bool")
        if not isinstance(self.n_pairs, int) or self.n_pairs < 2:
            raise ConfigInvalid(f"n_pairs must be an integer >= 2, got {self.n_pairs!r}")
        if self.n_pairs > MAX_PAIRS:
            raise ConfigInvalid(
                f"n_pairs must be at most {MAX_PAIRS}, whose transcript stays under "
                f"{MAX_LOG_BYTES} bytes; got {self.n_pairs}"
            )
        fraction = self.check_fraction_1
        if isinstance(fraction, bool) or not isinstance(fraction, (int, float)) or not 0.0 < fraction < 1.0:
            raise ConfigInvalid(
                f"check_fraction_1 must be a number strictly between 0 and 1, got {fraction!r}"
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
        if not isinstance(self.eve, EveStrategy):
            raise ConfigInvalid(f"eve must be an EveStrategy, got {self.eve!r}")

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


# ---------------------------------------------------------------------------
# Transcript


@dataclass(frozen=True)
class Completed:
    alice_decoded: MessageBits
    bob_decoded: MessageBits


@dataclass(frozen=True)
class Aborted:
    phase: Phase
    reason: str


Verdict = Union[Completed, Aborted]


# the ASCII digits of a verdict's bits string -> bit values, a bytes.translate table
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")
# each outcome of FORMAT.md's verdict record and its fields
_VERDICT_FIELDS = {
    "completed": {"outcome", "alice_decoded", "bob_decoded"},
    "aborted": {"outcome", "phase", "reason"},
}
# the phases an aborted verdict may name, as written
_ABORT_PHASES = (Phase.FIRST_CHECK.value, Phase.SECOND_CHECK.value)


def _message_bits_payload(message: MessageBits) -> dict:
    return {
        "bits": message.bits.translate(_BIT_DIGIT).decode("ascii"),
        "pad_bits": message.pad_bits,
    }


def _message_bits_from_payload(payload: object) -> MessageBits:
    """The message of a decoded-message object of FORMAT.md's verdict record:
    exactly bits, a string of ASCII 0 and 1, and pad_bits, an int 0 or 1."""
    if type(payload) is not dict or payload.keys() != {"bits", "pad_bits"}:
        raise TranscriptInvalid("a decoded message needs exactly bits and pad_bits")
    bits, pad = payload["bits"], payload["pad_bits"]
    if type(bits) is not str or not bits.isascii() or bits.encode("ascii").translate(None, b"01"):
        raise TranscriptInvalid("decoded bits that are not a string of ASCII 0 and 1")
    if type(pad) is not int or pad not in (0, 1):
        raise TranscriptInvalid(f"pad_bits {pad!r} is not the integer 0 or 1")
    try:
        return MessageBits(bits=bits.encode("ascii").translate(_DIGIT_BITS), pad_bits=pad)
    except ValueError as exc:  # an odd number of bits, or pad_bits past them
        raise TranscriptInvalid(f"decoded message: {exc}") from exc


class Transcript:
    """Complete record of one run: config echo, event log, verdict, stats.

    The serialized form is one JSON object per line with fields
    (seq, actor, kind, payload); see FORMAT.md for field tables.  `events`
    accepts any iterable of Events and is kept as an EventLog that opens with
    the config record and closes with the stats record and the verdict.
    Built, read or recorded by a Session, a transcript keeps every rule of
    from_jsonl, or raises TranscriptInvalid with the reader's message.
    """

    def __init__(self, events: Iterable[Event]) -> None:
        log = events if isinstance(events, EventLog) else EventLog(events)
        check_frame(log)
        self._events = log
        self.verdict: Verdict = _verdict_from_payload(log[-1].payload)

    @property
    def events(self) -> EventLog:
        """The records in seq order, as a read-only sequence of Events."""
        return self._events

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:
        return f"Transcript({self._events!r})"

    @property
    def completed(self) -> bool:
        return isinstance(self.verdict, Completed)

    @property
    def config(self) -> dict:
        return self._events[0].payload

    @property
    def stats(self) -> dict:
        return self._events[-2].payload

    def to_jsonl(self) -> str:
        return "\n".join(self._events.lines()) + "\n"

    def write_jsonl(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        return cls(EventLog.parse(text))

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "Transcript":
        """Raises TranscriptInvalid for a path that is not a regular file or a
        file over MAX_LOG_BYTES, before reading any of it, and for a file that
        is not UTF-8.  A missing path or a directory raises OSError."""
        # non-blocking, so that opening a FIFO with no writer returns
        with open(
            path, encoding="utf-8", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)
        ) as fh:
            status = os.fstat(fh.fileno())
            if not stat.S_ISREG(status.st_mode):
                raise TranscriptInvalid(f"transcript {str(path)!r} is not a regular file")
            if (size := status.st_size) > MAX_LOG_BYTES:
                raise TranscriptInvalid(f"transcript is {size} bytes, over MAX_LOG_BYTES = {MAX_LOG_BYTES}")
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise TranscriptInvalid(f"transcript is not UTF-8: {exc.reason}") from None
        return cls.from_jsonl(text)


def _verdict_payload(verdict: Verdict) -> dict:
    if isinstance(verdict, Completed):
        return {
            "outcome": "completed",
            "alice_decoded": _message_bits_payload(verdict.alice_decoded),
            "bob_decoded": _message_bits_payload(verdict.bob_decoded),
        }
    return {"outcome": "aborted", "phase": verdict.phase.value, "reason": verdict.reason}


def _verdict_from_payload(payload: dict) -> Verdict:
    """The verdict of a payload of FORMAT.md's verdict record: exactly the
    fields of its outcome.  Raises TranscriptInvalid for any other payload."""
    outcome = payload.get("outcome")
    fields = _VERDICT_FIELDS.get(outcome) if type(outcome) is str else None
    if fields is None or payload.keys() != fields:
        raise TranscriptInvalid(
            "a verdict needs exactly outcome, alice_decoded and bob_decoded (completed) "
            "or outcome, phase and reason (aborted)"
        )
    if outcome == "completed":
        return Completed(
            alice_decoded=_message_bits_from_payload(payload["alice_decoded"]),
            bob_decoded=_message_bits_from_payload(payload["bob_decoded"]),
        )
    phase, reason = payload["phase"], payload["reason"]
    if phase not in _ABORT_PHASES or type(reason) is not str:
        raise TranscriptInvalid(
            f"an aborted verdict needs phase first_check or second_check and a string reason, "
            f"not {phase!r} and a {type(reason).__name__}"
        )
    return Aborted(phase=Phase(phase), reason=reason)


class _Recorder:
    """Appends records with dense sequence numbers, numbers the wire, keeps custody:
    a ledger of one state a pair that, after any batch, is the replay of the log."""

    def __init__(self, n_pairs: int) -> None:
        self.events = EventLog()
        self._n_pairs = n_pairs
        self._msg_seq = 0
        self._custody = bytearray(n_pairs)  # pair -> custody state
        self._pair_ints = list(range(n_pairs))  # the log's pair cells share these

    def emit(self, actor: str, kind: str, payload: dict) -> None:
        """Append one record; a record off FORMAT.md's record-kind table or a
        custody violation raises InternalFault before it enters the log."""
        seq = len(self.events)
        shape = _record_shape(seq, actor, kind, payload, InternalFault)
        if shape is None:
            self.events._add(Event(seq=seq, actor=actor, kind=kind, payload=payload))
        else:
            self.record(bytes((shape,)), (payload["pair"],))

    def record(self, shapes: bytes, pairs: Sequence[int]) -> None:
        """Append bulk records, given as shape codes and pairs, with the next seqs,
        stepping the ledger one record at a time.

        A pair outside 0..n_pairs-1 raises before any record of the batch enters;
        a custody violation, before its record enters, once those before it have.
        """
        seq, n = len(self.events), self._n_pairs
        if len(shapes) != len(pairs):
            raise InternalFault(f"seq {seq}: {len(shapes)} custody records on {len(pairs)} pairs")
        if pairs and not (0 <= min(pairs) and max(pairs) < n):
            at, pair = next((i, p) for i, p in enumerate(pairs) if not 0 <= p < n)
            raise InternalFault(f"seq {seq + at}: custody record on pair {pair} outside pair range")
        custody = self._custody
        before = custody[:]
        violations = _apply_custody(custody, seq, shapes, pairs)
        if violations:  # admit the records before the first, and only their moves
            shapes, pairs = shapes[: violations[0][0] - seq], pairs[: violations[0][0] - seq]
            custody[:] = before
            _apply_custody(custody, seq, shapes, pairs)
        self.events._extend(shapes, pairs)
        if violations:
            raise InternalFault(violations[0][1])

    def record_runs(self, shapes: bytes | int, ends: list[int]) -> None:
        """Append bulk records on each pair of the runs [ends[0], ends[1]),
        [ends[2], ends[3]), ..., pair by pair in run order, with the next seqs.

        ends ascend within 0..n_pairs.  shapes holds the same number of records
        for each pair, or is the shape code of one record on each.  A batch of
        one class, or of Bob's pauli then bell_measure on each pair, steps the
        ledger with one translate a run; any other batch, and one that breaks a
        rule, goes through record, which names the violation.
        """
        n = self._n_pairs
        if not (ends and len(ends) % 2 == 0 and 0 <= ends[0] and ends[-1] <= n and ends == sorted(ends)):
            raise InternalFault(f"seq {len(self.events)}: custody runs {ends} do not ascend within 0..{n}")
        ints = self._pair_ints
        pairs = ints[ends[0] : ends[1]]
        for k in range(2, len(ends), 2):
            pairs += ints[ends[k] : ends[k + 1]]
        if type(shapes) is int:  # one shape, so one class: nothing to check
            step, shapes = _SHAPE_STEP[shapes], bytes((shapes,)) * len(pairs)
        else:
            width = len(shapes) // len(pairs) if pairs and not len(shapes) % len(pairs) else 0
            step = _run_step(shapes, width)
            if width > 1:  # a pair's cell for each of its records
                cells, pairs = pairs, [0] * len(shapes)
                for k in range(width):
                    pairs[k::width] = cells
        if step is not None:
            custody, bounds = self._custody, iter(ends)
            before = custody[:]
            for a, b in zip(bounds, bounds):
                custody[a:b] = custody[a:b].translate(step)
            if custody.find(0xFF, ends[0], ends[-1]) < 0:  # every record keeps the rules
                self.events._extend(shapes, pairs)
                return
            custody[:] = before
        self.record(shapes, pairs)

    def send(self, sender: str, type: str, **fields: object) -> None:
        """Put one classical message on the wire; fields are already in wire form."""
        if type not in _MESSAGE_INDEX_FIELD:
            raise InternalFault(f"unknown message type {type!r}")
        index_field = _MESSAGE_INDEX_FIELD[type]
        if index_field:
            entries = fields[index_field]
            indices = entries if index_field == "indices" else list(map(itemgetter(0), entries))
            if not all(map(lt, indices, islice(indices, 1, None))):
                raise InternalFault("message indices must be strictly increasing")
            # increasing, so the first index out of range is the first or the first past the end
            if indices and not (0 <= indices[0] and indices[-1] < self._n_pairs):
                i = indices[0] if indices[0] < 0 else indices[bisect_left(indices, self._n_pairs)]
                raise InternalFault(f"message index {i} outside pair range")
        payload = {"msg_seq": self._msg_seq, "sender": sender, "type": type, **fields}
        self._msg_seq += 1
        self.emit(sender, "message", payload)


def audit_custody(transcript: Transcript) -> list[str]:
    """Replay the event log and flag any op on a photon outside custody.

    Tracks each (pair, slot) through prepare, send, channel, receive, and
    consumption by Bell measurement, with the rules a Session enforces as
    it records.  Returns human-readable violations; an empty list means the
    transcript respects custody everywhere.  Every custody record fits its
    shape, as the log admits no other, so the audit never raises.  The states
    are a dict keyed by the log's pair cells, as a read pair may be any integer,
    stepped one record at a time by the function a run's recorder falls back to.
    """
    pairs = transcript.events._pairs
    return [m for _, m in _apply_custody(dict.fromkeys(pairs, 0), 0, transcript.events._shapes, pairs)]


# ---------------------------------------------------------------------------
# The protocol


class Session:
    """One deterministic run between in-process parties.

    Construction checks the message capacities against the config; run()
    executes every phase and returns the Transcript.  All randomness comes
    from three child streams (Alice, Bob, Eve) split off the config seed
    in a fixed order, each a Stream of raw PCG64 words.
    """

    def __init__(
        self, config: ProtocolConfig, alice_msg: MessageBits, bob_msg: MessageBits
    ) -> None:
        for name, message, capacity in (
            ("alice", alice_msg, config.alice_capacity_bits),
            ("bob", bob_msg, config.bob_capacity_bits),
        ):
            if len(message.bits) > capacity:
                raise CapacityExceeded(
                    f"{name} message of {len(message.bits)} bits exceeds capacity {capacity}"
                )
        self.config = config
        # the children SeedSequence(seed).spawn(3) gives, built directly
        alice_ss, bob_ss, eve_ss = (np.random.SeedSequence(config.seed, spawn_key=(i,)) for i in range(3))
        self._alice_rng = Stream(alice_ss)
        self._bob_rng = Stream(bob_ss)
        self._eve_rng = Stream(eve_ss)
        self._alice_msg = alice_msg
        self._bob_msg = bob_msg
        self.phase = Phase.INIT
        self.survivors: list[int] = []
        self._survivor_ends: list[int] = []  # the survivors' runs, for _Recorder.record_runs
        self._decoy_at: list[int] = []  # each decoy's place among the survivors, ascending
        # each survivor's op codes and announced Bell index, as byte columns in survivor order
        self._alice_codes = b""
        self._bob_codes = b""
        self._bell_codes = bytearray()
        self._states: dict[int, TwoQubitState] = {}  # the pairs still in play, by index
        self._stats: dict = {}
        self._rec = _Recorder(config.n_pairs)
        self._rec.emit("session", "config", config.to_payload())

    # -- phase steps, in protocol order

    def prepare_pairs(self) -> None:
        self._advance(Phase.FIRST_TRANSMISSION)
        n = self.config.n_pairs
        states = self._states
        for i in range(n):
            states[i] = make_singlet()
        self._rec.record_runs(_PREPARE_SHAPE, [0, n])

    def transmit(self, leg: Leg) -> None:
        """Send one leg's photons from Alice to Bob through Eve's channel.

        The photons sent are those of the pairs in play: every pair on the
        first leg, the survivors on the second.
        """
        if leg is Leg.SECOND:
            self._advance(Phase.SECOND_TRANSMISSION)
            ends = self._survivor_ends
        else:
            ends = [0, self.config.n_pairs]
        sent, touched, received = _LEG_SHAPES[leg]
        self._rec.record_runs(sent, ends)
        self._states, record = transit(self._states, leg, self.config.eve, self._eve_rng)
        touches = record.touches
        self._rec.record(
            bytes(touched[_BASES.index(t.basis)][t.outcome] for t in touches),
            [t.pair_index for t in touches],
        )
        self._rec.record_runs(received, ends)

    def first_check(self) -> bool:
        """Anticorrelation test on a random sample of travelled photons.

        Bob announces which pairs he sampled, then his basis choices and
        outcomes; Alice measures each partner photon in the same basis.
        Any equal pair of outcomes is a violation.  Sampled pairs are
        consumed either way.
        """
        self._advance(Phase.FIRST_CHECK)
        cfg = self.config
        count = cfg.first_check_count
        chosen = sorted(self._bob_rng.choice(cfg.n_pairs, count))
        self._rec.send("bob", "check_indices", indices=chosen)
        bases = [self._bob_rng.bit() for _ in chosen]  # codes into _BASES
        bob_outcomes = self._measure("bob", self._bob_rng, chosen, QubitSlot.C, bases)
        self._rec.send(
            "bob", "basis_announce", bases=[[i, _BASES[b].value] for i, b in zip(chosen, bases)]
        )
        self._rec.send(
            "bob", "outcome_announce", outcomes=[list(e) for e in zip(chosen, bob_outcomes)]
        )
        alice_outcomes = self._measure("alice", self._alice_rng, chosen, QubitSlot.M, bases)
        violations = sum(a == b for a, b in zip(alice_outcomes, bob_outcomes))
        passed = violations <= cfg.abort_threshold
        self._stats["first_check"] = {
            "sampled": count,
            "violations": violations,
            "passed": passed,
        }
        self._rec.send("alice", "check_verdict", passed=passed, violations=violations)
        if not passed:
            self._abort("anticorrelation check failed")
            return False
        ends = [0]
        for i in chosen:  # the check consumed these pairs, which bound the survivors' runs
            del self._states[i]
            ends += (i, i + 1)
        ends = self._survivor_ends = [*ends, cfg.n_pairs]
        self.survivors = list(chain.from_iterable(map(range, ends[0::2], ends[1::2])))
        return True

    def alice_encode(self) -> None:
        """Encode Alice's padded message on the kept photons, decoys included.

        Decoy positions are drawn uniformly from the survivors and get a
        uniformly random recorded op instead of message bits; everything
        else consumes message pairs in photon-sequence order.
        """
        self._advance(Phase.ENCODING)
        cfg = self.config
        if cfg.check_count_2 > 0:
            self._decoy_at = sorted(self._alice_rng.choice(len(self.survivors), cfg.check_count_2))
        message = _padded_pairs(self._alice_msg, len(self.survivors) - len(self._decoy_at))
        # the message pairs in survivor order, with each decoy's op drawn in its place
        codes = self._alice_codes = bytearray()
        for d, k in enumerate(self._decoy_at):  # d decoys and k - d message pairs before place k
            codes += message[len(codes) - d : k - d]
            codes.append(self._alice_rng.integers(4))
        codes += message[len(codes) - len(self._decoy_at) :]
        states, slot = self._states, QubitSlot.M
        for i, code in zip(self.survivors, codes):
            states[i] = apply_pauli(states[i], _OPS[code], slot)
        self._rec.record_runs(codes.translate(_ALICE_PAULI_SHAPE), self._survivor_ends)

    def bob_encode_measure_announce(self) -> None:
        """Bob's encoding, joint measurement, and public announcement.

        Each surviving pair gets Bob's op on a uniformly random photon
        (never announced), then a Bell measurement that consumes the pair.
        Results are announced for all survivors at once, in index order.
        """
        self._advance(Phase.BELL_ANNOUNCE)
        n = len(self.survivors)
        codes = self._bob_codes = _padded_pairs(self._bob_msg, n)
        # each pair's side (0: the C photon, 1: the M photon) and Bell draw, in bulk
        sides, draws = self._bob_rng.bits_and_randoms(n)
        states, results = self._states, self._bell_codes
        for i, code, side, draw in zip(self.survivors, codes, sides, draws):
            encoded = apply_pauli(states[i], _OPS[code], _SIDE_SLOT[side])
            results.append(bell_measure(encoded, draw)._value_)  # its Bell index, read directly
        states.clear()  # the Bell measurements consumed every pair
        # each pair's pauli then bell_measure record; a pauli's shape is by code * 2 + side
        shapes = bytearray(2 * n)
        paulis = int.from_bytes(codes, "big") << 1 | int.from_bytes(bytes(sides), "big")
        shapes[0::2] = paulis.to_bytes(n, "big").translate(_BOB_PAULI_SHAPE)
        shapes[1::2] = results.translate(_BELL_SHAPE)
        self._rec.record_runs(shapes, self._survivor_ends)
        self._rec.send(
            "bob",
            "bell_results",
            results=[[i, _BELL_NAME[index]] for i, index in zip(self.survivors, results)],
        )

    def second_check(self) -> bool:
        """Decoy verification of the announced results.

        Alice reveals which pairs were decoys, Bob reveals his ops there,
        and Alice checks each announcement against the deterministic
        expected outcome; then she reveals her decoy ops with the verdict.
        Any mismatch aborts.  With zero decoys the check passes vacuously
        and nothing goes on the wire.
        """
        self._advance(Phase.SECOND_CHECK)
        # the survivors are in index order, so the decoys are too
        at = self._decoy_at
        decoys = [self.survivors[k] for k in at]
        alice, bob, bell = self._alice_codes, self._bob_codes, self._bell_codes
        mismatches = 0
        if decoys:
            self._rec.send("alice", "second_check_indices", indices=decoys)
            self._rec.send(
                "bob", "second_check_reveal",
                ops=[[i, _OP_NAME[bob[k]]] for i, k in zip(decoys, at)],
            )
            # the XOR law: both encodings carry the singlet to Bell index a ^ b
            mismatches = sum(bell[k] != alice[k] ^ bob[k] for k in at)
            self._rec.send(
                "alice", "second_check_reveal",
                ops=[[i, _OP_NAME[alice[k]]] for i, k in zip(decoys, at)],
            )
            self._rec.send(
                "alice", "check_verdict", passed=mismatches == 0, violations=mismatches
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

    def decode_both(self) -> Completed:
        """Each side recovers the other's message from the announcements.

        Bob drops the revealed decoy positions; Alice decodes every
        survivor because decoys carry Bob's genuine bits.  Capacity fill
        beyond each sender's recorded payload length is stripped.
        Returns the verdict that carries both decoded messages.
        """
        # Bob XORs each announced index with his own op code and drops the decoys, Alice with hers
        bell, n = int.from_bytes(self._bell_codes, "big"), len(self._bell_codes)
        bob_view = (bell ^ int.from_bytes(self._bob_codes, "big")).to_bytes(n, "big")
        alice_sent_pairs = b"".join(bob_view[a + 1 : b] for a, b in pairwise((-1, *self._decoy_at, n)))
        bob_sent_pairs = (bell ^ int.from_bytes(self._alice_codes, "big")).to_bytes(n, "big")
        bob_decoded = MessageBits.from_pairs(alice_sent_pairs, self._alice_msg.payload_bits)
        alice_decoded = MessageBits.from_pairs(bob_sent_pairs, self._bob_msg.payload_bits)
        self._advance(Phase.DONE)
        return Completed(alice_decoded, bob_decoded)

    def run(self) -> Transcript:
        self.prepare_pairs()
        self.transmit(Leg.FIRST)
        if not self.first_check():
            return self._finish(Aborted(Phase.FIRST_CHECK, "anticorrelation check failed"))
        self.alice_encode()
        self.transmit(Leg.SECOND)
        self.bob_encode_measure_announce()
        if not self.second_check():
            return self._finish(Aborted(Phase.SECOND_CHECK, "decoy check failed"))
        return self._finish(self.decode_both())

    # -- internals

    def _advance(self, phase: Phase) -> None:
        """Move strictly forward through the phases; ABORTED is reachable from any."""
        if phase is not Phase.ABORTED and _PHASE_RANK[phase] <= _PHASE_RANK[self.phase]:
            raise InternalFault(f"session cannot move from {self.phase.value} to {phase.value}")
        self.phase = phase

    def _measure(
        self,
        actor: str,
        rng: Stream,
        pairs: list[int],
        slot: QubitSlot,
        bases: list[int],
    ) -> list[int]:
        """One party measures its photon of each pair in that pair's basis and logs the outcomes.

        bases holds each pair's basis as a code into _BASES.
        """
        states = self._states
        outcomes = []
        for i, basis in zip(pairs, bases):
            outcome, states[i] = measure_qubit(states[i], slot, _BASES[basis], rng.random())
            outcomes.append(outcome)
        shape = _MEASURE_SHAPE[actor, slot]
        self._rec.record(bytes(shape[b][o] for b, o in zip(bases, outcomes)), pairs)
        return outcomes

    def _abort(self, reason: str) -> None:
        self._rec.send("alice", "abort", reason=reason)
        self._advance(Phase.ABORTED)

    def _finish(self, verdict: Verdict) -> Transcript:
        self._rec.emit("session", "stats", dict(self._stats))
        self._rec.emit("session", "verdict", _verdict_payload(verdict))
        return Transcript(self._rec.events)


# Lookup tables of the per-pair loops, indexed by integer codes: an op's
# code, a basis code, a side bit (0: C, 1: M), a Bell index or an outcome.
_OPS = tuple(PauliOp)
_OP_NAME = tuple(op.name for op in _OPS)
_SIDE_SLOT = (QubitSlot.C, QubitSlot.M)
_BELL_NAME = tuple(bell.name.lower() for bell in BellState)
_PREPARE_SHAPE = _SHAPE_ID["prepare", "alice"]
# translate tables: an op code, an op code * 2 + side, or a Bell index -> its record's shape
_ALICE_PAULI_SHAPE = bytes(_SHAPE_ID["pauli", "alice", op.name, "M"] for op in _OPS).ljust(256, b"\xff")
_BOB_PAULI_SHAPE = bytes(
    _SHAPE_ID["pauli", "bob", op.name, slot.value] for op in _OPS for slot in _SIDE_SLOT
).ljust(256, b"\xff")
_BELL_SHAPE = bytes(_SHAPE_ID["bell_measure", "bob", name] for name in _BELL_NAME).ljust(256, b"\xff")
# (actor, slot) -> measure shape codes by basis code, then outcome
_MEASURE_SHAPE = {
    (actor, slot): tuple(
        tuple(
            _SHAPE_ID["measure", actor, basis.value, outcome, slot.value] for outcome in (0, 1)
        )
        for basis in _BASES
    )
    for actor in ("alice", "bob")
    for slot in _SIDE_SLOT
}
# leg -> its send shape, its eve_touch shapes by basis code then outcome, and its receive shape
_LEG_SHAPES = {
    leg: (
        _SHAPE_ID["send", "alice", slot, "bob"],
        tuple(
            tuple(
                _SHAPE_ID["eve_touch", "eve", basis.value, leg.value, outcome, slot]
                for outcome in (0, 1)
            )
            for basis in _BASES
        ),
        _SHAPE_ID["receive", "bob", slot],
    )
    for leg in Leg
    for slot in (leg_slot(leg).value,)
}


def _padded_pairs(message: MessageBits, needed: int) -> bytes:
    pairs = message.pairs()
    if len(pairs) > needed:
        raise InternalFault("message longer than encoding positions")  # capacity checked earlier
    return pairs + bytes(needed - len(pairs))


def run_protocol(
    config: ProtocolConfig, alice_msg: MessageBits, bob_msg: MessageBits
) -> Transcript:
    """Run one full exchange and return its transcript.

    Raises ConfigInvalid or CapacityExceeded before any quantum activity;
    protocol-level aborts are reported in the verdict, not raised.
    """
    return Session(config, alice_msg, bob_msg).run()

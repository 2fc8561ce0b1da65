"""Two-party protocol engine: the state machine, the transcript and its verdict.

One Session runs the whole exchange between an in-process Alice and Bob:
pair preparation, the travelling-photon leg with Eve on the channel, the
anticorrelation check, both parties' encodings, Bob's Bell measurements
and announcement, the decoy check, and decoding.  Everything observable
goes through records._Recorder, which numbers the wire and keeps custody,
as shape codes from records.shape_codes, into an append-only event log
whose serialized form replays byte for byte under a fixed config, seed,
and message pair.
"""

from __future__ import annotations

import enum
import math
import os
import stat
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, pairwise
from pathlib import Path
from typing import Union

import numpy as np

from .adversary import _BASES, EveRecord, EveStrategy, Leg, leg_slot, transit
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
from .records import Event, EventLog, TranscriptInvalid, _Recorder, check_frame, replay_custody, shape_codes
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
        return "".join(self._events.texts())

    def write_jsonl(self, path: str | Path) -> None:
        """Write to_jsonl's text as UTF-8, a chunk of records at a time."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(self._events.texts())

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


def audit_custody(transcript: Transcript) -> list[str]:
    """The custody violations of a transcript's log, from records.replay_custody."""
    return replay_custody(transcript.events)


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
        self._touches: dict[Leg, EveRecord] = {}  # Eve's touches on each leg, as transit returned them
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
        self._touches[leg] = record
        self._rec.record(record.codes.translate(touched), record.touches)
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
        bob_seen = self._measure("bob", self._bob_rng, chosen, QubitSlot.C, bases)
        self._rec.send(
            "bob", "basis_announce", bases=[[i, _BASES[b].value] for i, b in zip(chosen, bases)]
        )
        self._rec.send(
            "bob", "outcome_announce", outcomes=[[i, c & 1] for i, c in zip(chosen, bob_seen)]
        )
        alice_seen = self._measure("alice", self._alice_rng, chosen, QubitSlot.M, bases)
        # one basis a pair, so equal codes are equal outcomes
        violations = sum(a == b for a, b in zip(alice_seen, bob_seen))
        passed = violations <= cfg.abort_threshold
        self._stats["first_check"] = {"sampled": count, "violations": violations, "passed": passed}
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
        alice_sent_pairs = b"".join(_cut(bob_view, self._decoy_at))
        bob_sent_pairs = (bell ^ int.from_bytes(self._alice_codes, "big")).to_bytes(n, "big")
        bob_decoded = MessageBits.from_pairs(alice_sent_pairs, self._alice_msg.payload_bits)
        alice_decoded = MessageBits.from_pairs(bob_sent_pairs, self._bob_msg.payload_bits)
        self._advance(Phase.DONE)
        return Completed(alice_decoded, bob_decoded)

    def sample_columns(self) -> tuple[list[int], bytes, bytes, bytes, bytes, dict[int, int], dict[int, int]]:
        """A completed run's leakage samples, read from its own columns in survivor order.

        Returns the message pairs, Alice's op codes and the Bell indices on
        them, then every Bell index and Bob's op codes, decoys included, then
        Eve's hits on the first and on the second leg as pair -> code: the
        values the run's pauli, bell_measure and eve_touch records carry.
        """
        if self.phase is not Phase.DONE:
            raise ValueError(f"sample columns need a completed run, not one in phase {self.phase.value}")
        at, bell = self._decoy_at, bytes(self._bell_codes)
        return (
            list(chain.from_iterable(_cut(self.survivors, at))),
            b"".join(_cut(self._alice_codes, at)),
            b"".join(_cut(bell, at)),
            bell,
            self._bob_codes,
            *(dict(zip(record.touches, record.codes)) for record in map(self._touches.__getitem__, Leg)),
        )

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
    ) -> bytearray:
        """One party measures its photon of each pair in that pair's basis and logs the outcomes.

        bases holds each pair's basis as a code into _BASES.  Returns each
        measurement's code, the basis code times 2 plus the outcome.
        """
        states = self._states
        codes = bytearray()
        for i, basis in zip(pairs, bases):
            outcome, states[i] = measure_qubit(states[i], slot, _BASES[basis], rng.random())
            codes.append(basis << 1 | outcome)
        self._rec.record(codes.translate(_MEASURE_SHAPE[actor, slot]), pairs)
        return codes

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
_PREPARE_SHAPE = shape_codes("prepare", "alice")[0]
# translate tables: an op code, an op code * 2 + side, or a Bell index -> its record's shape
_ALICE_PAULI_SHAPE = shape_codes("pauli", "alice", slot="M")
_BOB_PAULI_SHAPE = shape_codes("pauli", "bob")
_BELL_SHAPE = shape_codes("bell_measure", "bob")
# (actor, slot) -> a translate table from basis code * 2 + outcome to the measure shape
_MEASURE_SHAPE = {(a, s): shape_codes("measure", a, slot=s.value) for a in ("alice", "bob") for s in _SIDE_SLOT}
# leg -> its send shape, a table like _MEASURE_SHAPE's to its eve_touch shape, and its receive shape
_LEG_SHAPES = {
    leg: (
        shape_codes("send", "alice", slot=slot, to="bob")[0],
        shape_codes("eve_touch", "eve", leg=leg.value, slot=slot),
        shape_codes("receive", "bob", slot=slot)[0],
    )
    for leg in Leg
    for slot in (leg_slot(leg).value,)
}


def _cut(column, at: list[int]) -> list:
    """The slices of a column between its places at (ascending): the column without them, in runs."""
    return [column[a + 1 : b] for a, b in pairwise((-1, *at, len(column)))]


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

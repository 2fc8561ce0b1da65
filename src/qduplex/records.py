"""Transcript records: the record format, the columnar event log, custody, and the recorder.

A transcript is a sequence of records (seq, actor, kind, payload), kept
as one row per record in two columns.  A custody record, about eight per
pair, is its row: a shape code and a pair; the row of every other record
points to its Event.  A record that fits no row of FORMAT.md's record-kind
table is rejected where it enters the log.  This module owns the
canonical JSONL line of every record, writes the lines and reads them back
a chunk at a time (a bulk line by its masked template, any other line
through json.loads), states the frame of every transcript, and is the only
module that spells a record shape: a Session takes its shape codes from
shape_codes.  It holds the one copy of the custody rules with the byte
tables built from them, and the recorder that enforces them as a Session
appends its records and numbers the wire.  The recorder steps its
bytearray of states, indexed by pair, one run of pairs at a time with a
table's translate, and one record at a time where that does not apply;
replay_custody replays a log one record at a time through a dict.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, count, islice, product

import numpy as np

from .qsim import InternalFault


class TranscriptInvalid(ValueError):
    """A transcript file that does not follow FORMAT.md."""


@dataclass(frozen=True, slots=True)
class Event:
    """One transcript record: dense sequence number, actor, kind, payload."""

    seq: int
    actor: str
    kind: str
    payload: dict

    def to_record(self) -> dict:
        return {"seq": self.seq, "actor": self.actor, "kind": self.kind, "payload": self.payload}


# ---------------------------------------------------------------------------
# Bulk record shapes

_SLOT_NAMES = ("C", "M")
_BASES = ("Z", "X")
_BITS = (0, 1)
_PARTIES = ("alice", "bob")

# The custody kinds of FORMAT.md's record-kind table: for each, the actors
# that write it, and its payload fields with the values each may take
# (None: any integer, the pair).  This table is the only definition of the
# bulk record shapes.  The canonical lines below, the shapes the log
# stores, the reader's exact check and the custody rules all derive from it.
# A record of one of these kinds that does not fit its shape exactly (a
# hand-built or damaged one) is rejected.
_BULK_SCHEMA: dict[str, tuple[tuple[str, ...], dict[str, tuple | None]]] = {
    "prepare": (("alice",), {"pair": None}),
    "send": (("alice",), {"pair": None, "slot": _SLOT_NAMES, "to": ("bob",)}),
    "eve_touch": (
        ("eve",),
        {"basis": _BASES, "leg": ("first", "second"), "outcome": _BITS, "pair": None, "slot": _SLOT_NAMES},
    ),
    "receive": (("bob",), {"pair": None, "slot": _SLOT_NAMES}),
    "measure": (_PARTIES, {"basis": _BASES, "outcome": _BITS, "pair": None, "slot": _SLOT_NAMES}),
    "pauli": (_PARTIES, {"op": ("U0", "U1", "U2", "U3"), "pair": None, "slot": _SLOT_NAMES}),
    "bell_measure": (
        ("bob",), {"pair": None, "result": ("psi_minus", "psi_plus", "phi_minus", "phi_plus")}
    ),
}
# Every kind of FORMAT.md's record-kind table, with the actors that write it.
# The kinds outside _BULK_SCHEMA are kept as Events; all but a stats record
# with their payloads as read.
_KIND_ACTORS: dict[str, tuple[str, ...]] = {
    **{kind: actors for kind, (actors, _) in _BULK_SCHEMA.items()},
    "config": ("session",),
    "message": _PARTIES,
    "stats": ("session",),
    "verdict": ("session",),
}


def _count(value: object) -> bool:
    return type(value) is int and value >= 0


def _flag(value: object) -> bool:
    return type(value) is bool


def _integers(value: object) -> bool:
    return type(value) is list and all(type(i) is int for i in value)


# FORMAT.md's statistics record: each check's fields and the test each value
# must pass.  A stats payload holds first_check, and second_check if the run
# reached it.
_STATS_SCHEMA: dict[str, dict[str, Callable[[object], bool]]] = {
    "first_check": {"sampled": _count, "violations": _count, "passed": _flag},
    "second_check": {
        "decoys": _count, "decoy_indices": _integers, "mismatches": _count, "passed": _flag
    },
}


def _stats_fault(payload: dict) -> str | None:
    """The first part of a stats payload that is off FORMAT.md's statistics record, or None."""
    if "first_check" not in payload:
        return "a payload that is not an object with a first_check"
    for check, values in payload.items():
        fields = _STATS_SCHEMA.get(check)
        if fields is None:
            return f"a field {check!r} outside its schema"
        if type(values) is not dict or values.keys() != fields.keys():
            return f"a {check} that is not an object with exactly {', '.join(fields)}"
        for name, valid in fields.items():
            if not valid(values[name]):
                return f"{check} {name} {values[name]!r} outside its schema"
    return None


def _canonical_line(record: dict) -> str:
    """A record's canonical JSONL line: json.dumps with sorted keys and no spaces."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# A shape is one kind with one actor and one value for every field but the
# pair.  The log stores a bulk record as its shape code and its pair.
_SHAPE_ID: dict[tuple, int] = {}  # (kind, actor, *values in field order) -> code
_SHAPE_LINE: list[str] = []  # code -> canonical line, a %-format over (pair, seq)
_SHAPE_RECORD: list[tuple[str, str, dict]] = []  # code -> kind, actor, payload (pair None)
for _kind, (_actors, _fields) in _BULK_SCHEMA.items():
    _coded = [name for name, values in _fields.items() if values is not None]
    for _actor in _actors:
        for _values in product(*(_fields[name] for name in _coded)):
            _named = dict(zip(_coded, _values))
            _payload = {name: _named.get(name) for name in _fields}
            _record = {"actor": _actor, "kind": _kind, "payload": {**_payload, "pair": "%d"}}
            # the placeholders lose their quotes; no schema value holds a %
            _line = _canonical_line({**_record, "seq": "%d"}).replace('"%d"', "%d")
            _SHAPE_ID[(_kind, _actor, *_values)] = len(_SHAPE_LINE)
            _SHAPE_LINE.append(_line)
            _SHAPE_RECORD.append((_kind, _actor, _payload))
# The shape code of a row that holds an Event rather than a bulk record: its
# pair cell is the Event's index in EventLog._events, not a pair.  Code that
# reads the pair column unfiltered, as the custody ledger does, sees that
# index as a pair; it must leave such a row's pair as it finds it.
_EVENT = len(_SHAPE_LINE)
assert _EVENT <= 0xFF, "shape codes must fit in a byte"
# code -> canonical line over (pair, seq); an Event row's line is written apart
_ROW_LINE = (*_SHAPE_LINE, "%.0s%.0s")

# a selection's value -> 1 where it keeps the record, 0 where it skips it (0xFF)
_KEPT = bytes(value != 0xFF for value in range(256))


def shape_table(value: Callable[[str, str, dict], int | None]) -> bytes:
    """A selection table for EventLog.select, built from the bulk record shapes.

    Each shape's code maps to value(kind, actor, payload), where payload
    holds the shape's fields with the pair None; a shape for which value
    gives None, and every unused code, maps to 0xFF, skip.  A value must be
    an integer in 0..254.
    """
    table = bytearray(b"\xff" * 256)
    for code, (kind, actor, payload) in enumerate(_SHAPE_RECORD):
        kept = value(kind, actor, dict(payload))
        if kept is not None:
            if not 0 <= kept < 0xFF:
                raise ValueError(f"selection value {kept!r} for {kind} by {actor} outside 0..254")
            table[code] = kept
    return bytes(table)


def shape_codes(kind: str, actor: str, **fixed: object) -> bytes:
    """A translate table from a value to the shape code of a kind's record by actor.

    The value's digits are the kind's fields other than the pair and those
    fixed, in _BULK_SCHEMA's order with the last field lowest, and each digit
    is the index of the field's value in the schema; every other byte maps to 0xFF.
    """
    fields = _BULK_SCHEMA[kind][1].items()
    choices = [(fixed.pop(name),) if name in fixed else values for name, values in fields if values is not None]
    if fixed:
        raise ValueError(f"{kind} records have no field {', '.join(fixed)} to fix")
    return bytes(_SHAPE_ID[(kind, actor, *values)] for values in product(*choices)).ljust(256, b"\xff")


# The reader takes a canonical bulk line apart by its template.  Masking every
# ASCII digit to 0xFF turns a shape's line into its head, one 0xFF per pair
# digit, its mid, one 0xFF per seq digit, and "}".  The shapes whose lines
# differ only in one digit of the head, the U0-U3 op or the outcome, form a
# class, keyed by the line with its digits deleted; that digit picks the shape.
_MASK = bytes(0xFF if 0x30 <= b <= 0x39 else b for b in range(256))
_MAX_DIGITS = 18  # a number of up to 18 digits fits an int64
# digit-free line -> the masked head and mid, the offset of the head's value
# byte (0, its "{", where it has no digit), and the class's row of _CLASS_SHAPE
_LINE_CLASS: dict[bytes, tuple[bytes, bytes, int, int]] = {}
_class_rows: list[bytearray] = []
for _code, _line in enumerate(_SHAPE_LINE):
    _head, _mid, _tail = (part.encode("ascii").translate(_MASK) for part in _line.split("%d"))
    assert _head.count(0xFF) <= 1 and 0xFF not in _mid + _tail, "one value digit a shape, in its head"
    _key = (_head + _mid + _tail).translate(None, b"\xff")
    if _key not in _LINE_CLASS:
        _LINE_CLASS[_key] = (_head, _mid, max(_head.find(0xFF), 0), len(_class_rows))
        _class_rows.append(bytearray(b"\xff" * 256))
    _, _, _at, _row = _LINE_CLASS[_key]
    _class_rows[_row][_line.encode("ascii")[_at]] = _code
# class row, byte at its value offset -> shape code, or 0xFF where it names no shape
_CLASS_SHAPE = np.frombuffer(b"".join(_class_rows), np.uint8).reshape(len(_class_rows), 256)
# lines read, or rows written, at a time: the reader's buffers stay a few hundred KB
_CHUNK = 4096


def _template(masked: bytes) -> tuple[int, int, int, int, int]:
    """A masked line's class row, value offset, pair end and digits, and seq digits,
    where it is its class's template with numbers of 1 to 18 digits; else row -1."""
    found = _LINE_CLASS.get(masked.translate(None, b"\xff"))
    if found is not None and masked.startswith(found[0]):
        head, mid, at, row = found
        rest = masked[len(head) :]
        pair = len(rest) - len(rest.lstrip(b"\xff"))
        seq = len(rest) - pair - len(mid) - 1
        if 0 < pair <= _MAX_DIGITS and 0 < seq <= _MAX_DIGITS and rest[pair:] == mid + b"\xff" * seq + b"}":
            return row, at, len(head) + pair, pair, seq
    return -1, 0, 0, 0, 0


def _decimals(text: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The numbers whose 1 to 18 ASCII digits in text end before ends, and
    whether each is canonical: a lone 0 or no leading zero."""
    value = np.zeros(ends.size, np.int64)
    for k in range(int(widths.max()), 0, -1):  # the k-th byte before each end, where it is a digit
        value = value * 10 + (text[ends - k] - 0x30) * (widths >= k)
    return value, (widths == 1) | (text[ends - widths] != 0x30)


def _read_chunk(lines: list[str], first: int) -> tuple[bytes, list[int]]:
    """The shape code and pair of each line that is the canonical line of a bulk
    record whose seq is its line number, first + its index; 0xFF and 0 for
    every other line.

    The lines are read as one ASCII text, where a character that is not ASCII
    reads as "?", and each distinct masked line is matched against its class's
    template once.  Numbers are read with numpy.
    """
    text = "\n".join(lines).encode("ascii", "replace")
    masked = text.translate(_MASK).split(b"\n")
    index = {line: k for k, line in enumerate(dict.fromkeys(masked))}
    forms = np.array([_template(line) for line in index], np.intp)[
        np.fromiter(map(index.__getitem__, masked), np.intp, len(masked))
    ]
    shapes, pairs = np.full(len(lines), 0xFF, np.uint8), np.zeros(len(lines), np.int64)
    fit = np.flatnonzero(forms[:, 0] >= 0)
    if fit.size:
        data = np.frombuffer(text, np.uint8)
        breaks = np.flatnonzero(data == 0x0A)
        starts = np.concatenate(([0], breaks + 1))[fit]
        ends = np.concatenate((breaks, [data.size]))[fit]
        row, at, pair_end, pair_digits, seq_digits = forms[fit].T
        shape = _CLASS_SHAPE[row, data[starts + at]]
        pair, pair_ok = _decimals(data, starts + pair_end, pair_digits)
        seq, seq_ok = _decimals(data, ends - 1, seq_digits)
        read = (shape != 0xFF) & pair_ok & seq_ok & (seq == fit + first)
        shapes[fit[read]], pairs[fit[read]] = shape[read], pair[read]
    return shapes.tobytes(), pairs.tolist()


def _record_shape(
    seq: int, actor: object, kind: object, payload: object, error: type[Exception]
) -> int | None:
    """The shape code of a custody record, or None for a record of another kind.

    Raises error, naming the seq, the kind and the first field or value that
    is off, for a record that fits no row of FORMAT.md's record-kind table:
    an unknown kind, an actor outside its row, a payload that is not an
    object, a custody record that does not fit its kind's shape exactly, or
    a stats record off FORMAT.md's statistics record.  Where a record
    stands is check_frame's rule.
    """
    actors = _KIND_ACTORS.get(kind) if type(kind) is str else None
    if actors is None:
        raise error(f"seq {seq}: unknown record kind {kind!r}")
    if type(actor) is not str or actor not in actors:
        raise error(f"seq {seq}: {kind} record with actor {actor!r} outside its schema")
    if type(payload) is not dict:
        raise error(f"seq {seq}: {kind} record with a payload that is not an object")
    if kind not in _BULK_SCHEMA:
        fault = _stats_fault(payload) if kind == "stats" else None
        if fault is not None:
            raise error(f"seq {seq}: stats record with {fault}")
        return None
    fields = _BULK_SCHEMA[kind][1]
    for name, values in fields.items():
        if name not in payload:
            raise error(f"seq {seq}: {kind} record without a {name}")
        value = payload[name]
        if values is None:
            valid = type(value) is int
        else:
            valid = type(value) is type(values[0]) and value in values
        if not valid:
            raise error(f"seq {seq}: {kind} record with {name} {value!r} outside its schema")
    for name in payload:
        if name not in fields:
            raise error(f"seq {seq}: {kind} record with a field {name!r} outside its schema")
    return _SHAPE_ID[(kind, actor, *(payload[name] for name in fields if name != "pair"))]


def _bulk_event(shape: int, pair: int, seq: int) -> Event:
    kind, actor, template = _SHAPE_RECORD[shape]
    payload = dict(template)
    payload["pair"] = pair
    return Event(seq=seq, actor=actor, kind=kind, payload=payload)


def _line_event(lineno: int, line: str) -> Event:
    """The Event of a line that json.loads reads as an object with exactly seq,
    actor, kind and payload; TranscriptInvalid for any other line."""
    if not line.strip():
        raise TranscriptInvalid(f"blank record at line {lineno}")
    try:
        raw = json.loads(line)
    # not JSON, an integer past int()'s digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise TranscriptInvalid(f"line {lineno}: {exc}") from exc
    if not isinstance(raw, dict) or raw.keys() != {"seq", "actor", "kind", "payload"}:
        raise TranscriptInvalid(
            f"line {lineno}: expected an object with exactly seq, actor, kind and payload"
        )
    return Event(**raw)


def _dense_error(lineno: int, seq: object) -> TranscriptInvalid:
    return TranscriptInvalid(
        f"sequence numbers must be dense from 0: expected {lineno}, got {seq!r}"
    )


class EventLog(Sequence):
    """A transcript's records in seq order: a read-only sequence of Events.

    Every record is one row of two columns, at its seq.  A record of a
    custody kind is its shape code in _BULK_SCHEMA and its pair; every other
    record is the code _EVENT and its index in _events, which keeps its
    Event.  A record enters only if its seq is its position and it fits a
    row of FORMAT.md's record-kind table (see _record_shape); otherwise
    building the log raises TranscriptInvalid.  The Event of a bulk record
    is built only when it is asked for.  len() is O(1), iteration goes in
    seq order, and the log compares equal to the list of Events it represents.
    """

    __slots__ = ("_shapes", "_pairs", "_events")

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._shapes = bytearray()  # shape code of each record, or _EVENT
        self._pairs: list[int] = []  # pair of each bulk record, or index in _events
        self._events: list[Event] = []  # every record that is not a bulk record, in log order
        for event in events:
            self._append(event)

    # -- building

    def _append(self, event: Event) -> None:
        seq = len(self)
        if type(event.seq) is not int or event.seq != seq:
            raise _dense_error(seq, event.seq)
        shape = _record_shape(seq, event.actor, event.kind, event.payload, TranscriptInvalid)
        if shape is None:
            self._add(event)
        else:
            self._extend((shape,), (event.payload["pair"],))

    def _add(self, event: Event) -> None:
        self._shapes.append(_EVENT)
        self._pairs.append(len(self._events))
        self._events.append(event)

    def _extend(self, shapes: Iterable[int], pairs: Iterable[int]) -> None:
        self._shapes.extend(shapes)
        self._pairs.extend(pairs)

    @classmethod
    def parse(cls, text: str) -> "EventLog":
        """Read one JSON record per line; seqs must be dense from 0.

        Raises TranscriptInvalid on a blank line, a line json.loads rejects
        (including an over-long integer or over-deep nesting), a line that
        is not an object with exactly seq, actor, kind and payload, a seq
        other than its line number, or a record that fits no row of
        FORMAT.md's record-kind table.

        The lines are read _CHUNK at a time.  A canonical bulk line whose seq
        is its line number goes into the columns from its class's template
        (_read_chunk); every other line is read by json.loads, in line order.
        """
        log = cls()
        lines = text.splitlines()
        for first in range(0, len(lines), _CHUNK):
            chunk = lines[first : first + _CHUNK]
            shapes, pairs = _read_chunk(chunk, first)
            done = 0
            while (k := shapes.find(0xFF, done)) >= 0:  # a line the template did not read
                log._extend(shapes[done:k], pairs[done:k])
                log._append(_line_event(first + k, chunk[k]))
                done = k + 1
            log._extend(shapes[done:], pairs[done:])
        return log

    # -- reading

    def _row(self, shape: int, cell: int, seq: int) -> Event:
        return self._events[cell] if shape == _EVENT else _bulk_event(shape, cell, seq)

    def lines(self, start: int = 0, stop: int | None = None) -> list[str]:
        """The canonical JSON line of each record from seq start to before stop, in log order."""
        shapes, pairs = self._shapes[start:stop], self._pairs[start:stop]
        out = list(map(operator.mod, map(_ROW_LINE.__getitem__, shapes), zip(pairs, count(start))))
        at = shapes.find(_EVENT)
        while at >= 0:
            out[at] = _canonical_line(self._events[pairs[at]].to_record())
            at = shapes.find(_EVENT, at + 1)
        return out

    def texts(self) -> Iterator[str]:
        """The log's JSONL text, one newline-ended line a record, in pieces of _CHUNK records."""
        for start in range(0, len(self), _CHUNK):
            yield "\n".join(self.lines(start, start + _CHUNK)) + "\n"

    def select(self, table: bytes) -> tuple[bytes, list[int]]:
        """The bulk records a selection table keeps, in log order: their values and their pairs.

        table (from shape_table) maps each shape code to a small value, or to
        0xFF to skip records of that shape.  A row that holds an Event is
        skipped whatever its table entry.
        """
        table = table[:_EVENT] + b"\xff" + table[_EVENT + 1 :]
        values = self._shapes.translate(table)
        pairs = list(compress(self._pairs, values.translate(_KEPT)))
        return bytes(values.translate(None, b"\xff")), pairs

    def __len__(self) -> int:
        return len(self._shapes)

    def __iter__(self) -> Iterator[Event]:
        return map(self._row, self._shapes, self._pairs, count())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("event log index out of range")
        return self._row(self._shapes[index], self._pairs[index], index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventLog):
            return (self._shapes, self._pairs, self._events) == (
                other._shapes, other._pairs, other._events
            )
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes, bytearray)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EventLog(<{len(self)} records, {len(self) - len(self._events)} of them bulk>)"


def check_frame(log: EventLog) -> None:
    """Raise TranscriptInvalid unless a log keeps FORMAT.md's frame: config at
    seq 0, stats directly before the last record, the verdict last, and none
    of the three anywhere else.  Reads only the Events, about 15 in a run."""
    events, last = log._events, len(log) - 1
    closed = bool(events) and events[-1].seq == last and events[-1].kind == "verdict"
    places = {  # each kind's place (none for stats in an unclosed log), and the message if not there
        "config": (0, "config record after seq 0"),
        "stats": (last - 1 if closed else -1, "stats record not directly before the verdict, the last record"),
        "verdict": (last, "verdict record before the last record"),
    }
    for event in events:
        place, message = places.get(event.kind, (event.seq, ""))
        if event.seq != place:
            raise TranscriptInvalid(f"seq {event.seq}: {message}")
    if not closed:
        raise TranscriptInvalid("transcript is truncated: no verdict record")
    if events[0].kind != "config":  # a config or stats record stands in its place
        raise TranscriptInvalid("transcript does not start with a config record")
    if events[-2].kind != "stats":
        raise TranscriptInvalid("transcript has no stats record")


# ---------------------------------------------------------------------------
# Custody


def _custody_rule(holders: tuple[object, object], shape: int) -> tuple[tuple, tuple[str, ...]]:
    """The custody rules of FORMAT.md: who holds a pair's C and M photons
    after a record of the given shape on that pair, and one message for
    each rule the record breaks, a %-format over its (seq, pair).

    A photon whose rule breaks does not move.  A prepare of a pair that is
    held breaks one rule and moves neither photon; only alice prepares, as
    hers is the only prepare shape.
    """
    kind, actor, payload = _SHAPE_RECORD[shape]
    if kind == "prepare":
        if holders == (None, None):
            return (actor, actor), ()
        return holders, (f"seq %d: pair %d prepared again, held by {holders[0]} and {holders[1]}",)
    # who must hold each photon the record names, and who holds it after (None: unchanged)
    expect, to = {
        "send": (actor, "channel"),
        "eve_touch": ("channel", None),
        "receive": ("channel", actor),
        "bell_measure": (actor, "consumed"),
    }.get(kind, (actor, None))  # pauli, measure
    after = list(holders)
    broken = []
    for s in (_SLOT_NAMES.index(payload["slot"]),) if "slot" in payload else (0, 1):
        if holders[s] != expect:
            broken.append(
                f"seq %d: {kind} on pair %d slot {_SLOT_NAMES[s]} held by {holders[s]}, expected {expect}"
            )
        elif to is not None:
            after[s] = to
    return tuple(after), tuple(broken)


# A pair's custody state is its index into _STATE_HOLDERS: the holders of its C and M
# photons, each None (not prepared) or a holder some rule moves a photon to.  State 0 is
# an unprepared pair, and every state fits a byte, so a run's ledger is a bytearray.
_HOLDERS = (None, "alice", "channel", "bob", "consumed")
_STATE_HOLDERS = tuple(product(_HOLDERS, repeat=2))
_STATE = {holders: state for state, holders in enumerate(_STATE_HOLDERS)}

# A custody class is the shapes of one kind, actor and slot, which the rules treat alike.
# Its step table, for bytes.translate, maps a state to the state after a record of the
# class, or to 0xFF where the record breaks a rule; 0xFF maps to itself, so translating
# one table by another composes them.  Each is built once, from its class's first shape.
_CLASS_STEP: dict[tuple, bytes] = {}
_CLASS_SHAPES: dict[tuple, bytes] = {}  # class -> its shape codes
_SHAPE_CLASS_KEY = [(kind, actor, payload.get("slot")) for kind, actor, payload in _SHAPE_RECORD]
for _shape, _key in enumerate(_SHAPE_CLASS_KEY):
    if _key not in _CLASS_STEP:
        _rules = (_custody_rule(holders, _shape) for holders in _STATE_HOLDERS)
        _CLASS_STEP[_key] = bytes(0xFF if broken else _STATE[after] for after, broken in _rules).ljust(256, b"\xff")
    _CLASS_SHAPES[_key] = _CLASS_SHAPES.get(_key, b"") + bytes((_shape,))
# shape -> its class's step table and shapes.  _EVENT's table moves nothing: an Event
# row's pair cell is an index into EventLog._events, which may equal a live pair.
_SHAPE_STEP = (*(_CLASS_STEP[key] for key in _SHAPE_CLASS_KEY), bytes(range(256)))
# the same over the 25 states as tuples, which index faster than bytes
_RECORD_STEP = tuple(tuple(step[: len(_STATE_HOLDERS)]) for step in _SHAPE_STEP)
_SHAPE_CLASS = (*(_CLASS_SHAPES[key] for key in _SHAPE_CLASS_KEY), bytes((_EVENT,)))
# Bob's two records on a pair: his pauli on either photon, then his bell_measure.  A
# state maps to the state after both where the two photons give the same, else to 0xFF.
_BOB_PAULIS = _CLASS_SHAPES["pauli", "bob", "C"] + _CLASS_SHAPES["pauli", "bob", "M"]
_BELLS = _CLASS_SHAPES["bell_measure", "bob", None]
_via_c, _via_m = (_CLASS_STEP["pauli", "bob", slot].translate(_SHAPE_STEP[_BELLS[0]]) for slot in _SLOT_NAMES)
_BELL_STEP = bytes(c if c == m else 0xFF for c, m in zip(_via_c, _via_m))


def _apply_custody(
    custody: bytearray | dict[int, int], seq: int, shapes: bytes, pairs: Sequence[int]
) -> list[tuple[int, str]]:
    """Apply the bulk records seq, seq + 1, ..., given as shape codes and pairs,
    in order to custody, which holds a custody state for every pair given,
    and return their violations as (seq, message) in record order.

    The custody rules are FORMAT.md's, from _custody_rule and the tables
    built from it.  This per-record step is the one that names violations:
    _Recorder steps its bytearray this way for a batch it cannot step by
    runs, and replay_custody replays a log through a fresh dict.  A photon
    whose rule breaks does not move, and an _EVENT row moves nothing.
    """
    steps = _RECORD_STEP
    out: list[tuple[int, str]] = []
    rest = iter(shapes)
    for shape, pair in zip(rest, pairs):
        now = custody[pair]
        after = steps[shape][now]
        if after == 0xFF:
            at = seq + len(shapes) - operator.length_hint(rest) - 1  # the record's seq, from its index
            moved, broken = _custody_rule(_STATE_HOLDERS[now], shape)
            after = _STATE[moved]
            out += [(at, message % (at, pair)) for message in broken]
        custody[pair] = after
    return out


def _run_step(shapes: bytes, width: int) -> bytes | None:
    """The table that steps each pair of a batch, width records a pair, through
    its records: its class's where all are of one class, _BELL_STEP where they
    are Bob's pauli then bell_measure on every pair, and otherwise None."""
    if width == 1 and not shapes.translate(None, _SHAPE_CLASS[shapes[0]]):
        return _SHAPE_STEP[shapes[0]]
    if width == 2 and not (shapes[0::2].translate(None, _BOB_PAULIS) or shapes[1::2].translate(None, _BELLS)):
        return _BELL_STEP
    return None


def replay_custody(log: EventLog) -> list[str]:
    """Replay the event log and flag any op on a photon outside custody.

    Tracks each (pair, slot) through prepare, send, channel, receive, and
    consumption by Bell measurement, under the rules _Recorder enforces.
    Returns human-readable violations; an empty list means the log respects
    custody everywhere.  Every custody record fits its shape, as the log
    admits no other, so the replay never raises.  The states are a dict
    keyed by the log's pair cells, as a read pair may be any integer.
    """
    return [m for _, m in _apply_custody(dict.fromkeys(log._pairs, 0), 0, log._shapes, log._pairs)]


# ---------------------------------------------------------------------------
# Recording


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
            indices = entries if index_field == "indices" else list(map(operator.itemgetter(0), entries))
            if not all(map(operator.lt, indices, islice(indices, 1, None))):
                raise InternalFault("message indices must be strictly increasing")
            # increasing, so the first index out of range is the first or the first past the end
            if indices and not (0 <= indices[0] and indices[-1] < self._n_pairs):
                i = indices[0] if indices[0] < 0 else indices[bisect_left(indices, self._n_pairs)]
                raise InternalFault(f"message index {i} outside pair range")
        payload = {"msg_seq": self._msg_seq, "sender": sender, "type": type, **fields}
        self._msg_seq += 1
        self.emit(sender, "message", payload)

"""Transcript records: the record format, the columnar event log, custody, and the recorder.

A transcript is a sequence of records (seq, actor, kind, payload), kept
as one row per record in two columns.  A custody record, about eight per
pair, is its row: a shape code and a pair; the row of every other record
points to its Event.  A record that fits no row of FORMAT.md's record-kind
table is rejected where it enters the log.  This module owns the
canonical JSONL line of every record, writes the lines and reads them back
a chunk at a time (a bulk line by its masked template, any other line
through json.loads), states the frame of every transcript, and is the only
module that spells a record shape or a value: a Session passes shape codes
from shape_codes, and message codes.  A message the recorder puts on the
wire keeps its fields, its pair indices and its codes, and its [pair, value]
entries are spelled from _WIRE each time it is read.  It holds the one copy
of the custody rules with the byte tables built from them, and the recorder
that enforces them as a Session appends its records and numbers the wire.  The recorder
steps its bytearray of states, indexed by pair, one run of pairs at a time
with a table's translate, and one record at a time where that does not
apply; replay_custody replays a log one record at a time through a list
indexed by pair, or a dict where a pair cell falls outside the log's length.
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
_OPS = ("U0", "U1", "U2", "U3")  # by op code
_BELL_STATES = ("psi_minus", "psi_plus", "phi_minus", "phi_plus")  # by Bell index
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
    "pauli": (_PARTIES, {"op": _OPS, "pair": None, "slot": _SLOT_NAMES}),
    "bell_measure": (("bob",), {"pair": None, "result": _BELL_STATES}),
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
# code -> canonical line and newline, a %-format over (pair, seq); an Event row
# drops its pair cell and writes its seq's argument, which EventLog._text sets to its line
_ROW_LINE = (*(line + "\n" for line in _SHAPE_LINE), "%.0s%s\n")

# a selection's value -> 1 where it keeps the record, 0 where it skips it (0xFF)
_KEPT = bytes(value != 0xFF for value in range(256))


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
# Every byte past ASCII masks to 0x80, which no template holds, so that a raw
# 0xFF reads as no digit and a line that holds one goes to json.loads.
_MASK = bytes(0xFF if 0x30 <= b <= 0x39 else min(b, 0x80) for b in range(256))
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
# bytes of pieces the reader gathers before it reads the lines they end, as each
# read has a fixed cost of about 70 us that pieces shorter than a line would pay a line
_GATHER = 1 << 16


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


def _read_chunk(data: bytes, starts: np.ndarray, ends: np.ndarray, first: int) -> tuple[bytes, list[int]]:
    """The shape code and pair of each line of data, from starts to before ends,
    that is the canonical line of a bulk record whose seq is its line number,
    first + its index; 0xFF and 0 for every other line.

    The lines are consecutive, "\\n" apart, and data is UTF-8, whose bytes past
    ASCII mask to one no template holds.  Their byte range is masked and split
    once, and each distinct masked line is matched against its class's template
    once.  Numbers are read with numpy.
    """
    masked = data[starts[0] : ends[-1]].translate(_MASK).split(b"\n")
    index = {line: k for k, line in enumerate(dict.fromkeys(masked))}
    forms = np.array([_template(line) for line in index], np.intp)[
        np.fromiter(map(index.__getitem__, masked), np.intp, len(masked))
    ]
    shapes, pairs = np.full(len(masked), 0xFF, np.uint8), np.zeros(len(masked), np.int64)
    fit = np.flatnonzero(forms[:, 0] >= 0)
    if fit.size:
        text = np.frombuffer(data, np.uint8)
        starts, ends = starts[fit], ends[fit]
        row, at, pair_end, pair_digits, seq_digits = forms[fit].T
        shape = _CLASS_SHAPE[row, text[starts + at]]
        pair, pair_ok = _decimals(text, starts + pair_end, pair_digits)
        seq, seq_ok = _decimals(text, ends - 1, seq_digits)
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


def _line_event(lineno: int, line: bytes) -> Event:
    """The Event of a line that is UTF-8 and that json.loads reads as an object with
    exactly seq, actor, kind and payload; TranscriptInvalid for any other line."""
    if not line.strip():
        raise TranscriptInvalid(f"blank record at line {lineno}")
    try:
        raw = json.loads(line.decode("utf-8"))  # decoded strictly: json.loads would take UTF-16 or a BOM
    # not UTF-8, not JSON, an integer past int()'s digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise TranscriptInvalid(f"line {lineno}: {exc}") from exc
    if not isinstance(raw, dict) or raw.keys() != {"seq", "actor", "kind", "payload"}:
        raise TranscriptInvalid(
            f"line {lineno}: expected an object with exactly seq, actor, kind and payload"
        )
    return Event(**raw)


def _whole_lines(pieces: Iterable[bytes]) -> Iterator[bytes]:
    """The bytes of pieces, in runs of whole lines, each ended by "\\n", of at least
    _GATHER bytes where pieces go on, and then a last run that may end a line
    with no newline.  Where pieces raises TranscriptInvalid, as a reader's cap on
    the text does, the lines ended so far come first."""
    held, size = [], 0  # held: the pieces not yet yielded
    try:
        for piece in pieces:
            held.append(piece)
            size += len(piece)
            if size >= _GATHER and (end := piece.rfind(b"\n") + 1):
                yield b"".join((*held[:-1], piece[:end]))
                held, size = [piece[end:]], len(piece) - end
    except TranscriptInvalid:
        data = b"".join(held)
        if end := data.rfind(b"\n") + 1:
            yield data[:end]
        raise
    if last := b"".join(held):
        yield last


def _dense_error(lineno: int, seq: object) -> TranscriptInvalid:
    return TranscriptInvalid(
        f"sequence numbers must be dense from 0: expected {lineno}, got {seq!r}"
    )


class EventLog(Sequence):
    """A transcript's records in seq order: a read-only sequence of Events.

    Every record is one row of two columns, at its seq.  A record of a
    custody kind is its shape code in _BULK_SCHEMA and its pair; every other
    record is the code _EVENT and its index in _events, which keeps its
    Event, or for a message a _Recorder sent, its _Message.  A record enters
    only if its seq is its position, it fits a row of FORMAT.md's record-kind
    table (see _record_shape), and, built by hand, json.dumps takes its
    payload; otherwise building the log raises TranscriptInvalid.  The Event
    of a bulk record or of a recorded message is built each time it is asked
    for, and never kept.  len() is O(1), iteration goes in seq order, and the
    log compares equal to the list of Events it represents.
    """

    __slots__ = ("_shapes", "_pairs", "_events")

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._shapes = bytearray()  # shape code of each record, or _EVENT
        self._pairs: list[int] = []  # pair of each bulk record, or index in _events
        self._events: list[Event | _Message] = []  # every record that is not a bulk record, in log order
        for event in events:
            self._append(event)
            if self._shapes[-1] == _EVENT:  # a hand-built Event: its line must format
                try:
                    _canonical_line(event.to_record())
                except (TypeError, ValueError, RecursionError) as exc:  # ValueError: a circular payload
                    message = f"seq {event.seq}: {event.kind} record with a payload JSON cannot hold: {exc}"
                    raise TranscriptInvalid(message) from exc

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

    def _add(self, event: Event | _Message) -> None:
        self._shapes.append(_EVENT)
        self._pairs.append(len(self._events))
        self._events.append(event)

    def _extend(self, shapes: Iterable[int], pairs: Iterable[int]) -> None:
        self._shapes.extend(shapes)
        self._pairs.extend(pairs)

    @classmethod
    def parse(cls, pieces: Iterable[bytes]) -> "EventLog":
        """Read one JSON record per line; seqs must be dense from 0.

        pieces are the transcript's UTF-8 bytes, cut anywhere.  Each line ends
        at "\\n", and the last may end at the end of the text.  Raises
        TranscriptInvalid on a blank line, a line that is not UTF-8 or that
        json.loads rejects (including an over-long integer or over-deep
        nesting), a line that is not an object with exactly seq, actor, kind
        and payload, a seq other than its line number, or a record that fits
        no row of FORMAT.md's record-kind table.

        The lines the pieces end are read as they arrive, once _GATHER bytes
        have come (_whole_lines), _CHUNK at a time.  A canonical bulk line whose
        seq is its line number goes into the columns from its class's template
        (_read_chunk); every other line is read by json.loads, in line order.
        Where pieces raises TranscriptInvalid, the lines it ended are read
        first, so a bad line among them raises in its place.
        """
        log = cls()
        for data in _whole_lines(pieces):
            log._read_lines(data)
        return log

    def _read_lines(self, data: bytes) -> None:
        """Append the record of each line of data, the lines after those read,
        each ended by "\\n" but maybe the last."""
        ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 0x0A)
        if not data.endswith(b"\n"):
            ends = np.append(ends, len(data))
        starts = np.concatenate(([0], ends[:-1] + 1))
        for first in range(0, ends.size, _CHUNK):
            chunk = slice(first, first + _CHUNK)
            shapes, pairs = _read_chunk(data, starts[chunk], ends[chunk], len(self))
            done = 0
            while (k := shapes.find(0xFF, done)) >= 0:  # a line the template did not read
                self._extend(shapes[done:k], pairs[done:k])
                self._append(_line_event(len(self), data[starts[first + k] : ends[first + k]]))
                done = k + 1
            self._extend(shapes[done:], pairs[done:])

    # -- reading

    def _row(self, shape: int, cell: int, seq: int) -> Event:
        return _spelled(self._events[cell]) if shape == _EVENT else _bulk_event(shape, cell, seq)

    def _text(self, start: int, stop: int, lines: Sequence[str]) -> str:
        """The canonical JSON line of each record from seq start to before stop, in
        log order, each ended by a newline: one % over the rows' joined formats.
        lines holds the line of every Event in _events, formatted already."""
        shapes, pairs = self._shapes[start:stop], self._pairs[start:stop]
        args = pairs * 2  # pair and seq of each row, interleaved; an Event row's seq is its line
        args[0::2], args[1::2] = pairs, range(start, start + len(pairs))
        at = shapes.find(_EVENT)
        while at >= 0:
            args[2 * at + 1] = lines[pairs[at]]
            at = shapes.find(_EVENT, at + 1)
        return "".join(map(_ROW_LINE.__getitem__, shapes)) % tuple(args)

    def texts(self) -> Iterator[str]:
        """The log's JSONL text, one newline-ended line a record, in pieces of _CHUNK records.
        Every Event's line is formatted before this returns, so a payload json.dumps
        rejects raises here, before any piece is taken."""
        lines = [_canonical_line(_spelled(entry).to_record()) for entry in self._events]
        return (self._text(start, start + _CHUNK, lines) for start in range(0, len(self), _CHUNK))

    def select(self, table: bytes) -> tuple[bytes, list[int]]:
        """The bulk records a selection table keeps, in log order: their values and their pairs.

        table maps each shape code to a small value, or to 0xFF to skip records
        of that shape.  A row that holds an Event is
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
            return (self._shapes, self._pairs) == (other._shapes, other._pairs) and all(
                map(operator.eq, map(_spelled, self._events), map(_spelled, other._events))
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
    of the three anywhere else.  Reads only the seq and kind of the records
    that are not bulk records, about 15 in a run."""
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
    custody: bytearray | list[int] | dict[int, int], seq: int, shapes: bytes, pairs: Sequence[int]
) -> list[tuple[int, str]]:
    """Apply the bulk records seq, seq + 1, ..., given as shape codes and pairs,
    in order to custody, which holds a custody state for every pair given,
    and return their violations as (seq, message) in record order.

    The custody rules are FORMAT.md's, from _custody_rule and the tables
    built from it.  This per-record step is the one that names violations:
    _Recorder steps its bytearray this way for a batch it cannot step by
    runs, and replay_custody replays a log through a fresh list or dict.  A photon
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
    admits no other, so the replay never raises.  The states are a list
    indexed by pair where every pair cell is in 0..len(log)-1, as in a log a
    Session wrote, and otherwise a dict keyed by the cells, as a read pair
    may be any integer.
    """
    pairs = log._pairs
    dense = not pairs or (min(pairs) >= 0 and max(pairs) < len(pairs))
    custody = [0] * len(pairs) if dense else dict.fromkeys(pairs, 0)
    return [m for _, m in _apply_custody(custody, 0, log._shapes, pairs)]


# ---------------------------------------------------------------------------
# Recording


# Each FORMAT.md message `type`: its payload field that lists pair indices, or None, and
# the spelling of each index's value by code, or None for bare indices.  This table is the
# only definition of the wire; a spelled field holds [index, spelling[code]] entries.
_WIRE: dict[str, tuple[str | None, tuple | None]] = {
    "check_indices": ("indices", None),
    "basis_announce": ("bases", _BASES),
    "outcome_announce": ("outcomes", _BITS),
    "check_verdict": (None, None),
    "second_check_indices": ("indices", None),
    "second_check_reveal": ("ops", _OPS),
    "bell_results": ("results", _BELL_STATES),
    "abort": (None, None),
}


@dataclass(frozen=True, slots=True)
class _Message:
    """A message record as _Recorder.send put it on the wire: its payload but the field
    _WIRE lists pair indices in, and those indices with their codes.  event() spells
    the Event anew each time it is read, so the log keeps no entry lists."""

    seq: int
    head: dict  # msg_seq, sender, type and the other fields, each a scalar
    indices: tuple[int, ...]
    codes: bytes
    kind = "message"

    def event(self) -> Event:
        payload = dict(self.head)
        field, spelling = _WIRE[payload["type"]]
        if field is not None:
            pairs = self.indices
            payload[field] = [[i, spelling[code]] for i, code in zip(pairs, self.codes)] if spelling else list(pairs)
        return Event(seq=self.seq, actor=payload["sender"], kind="message", payload=payload)


def _spelled(entry: Event | _Message) -> Event:
    """The Event of an entry of EventLog._events: a recorded message's, spelled anew, or the one kept."""
    return entry.event() if type(entry) is _Message else entry


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

    def send(self, sender: str, type: str, indices: Sequence[int] = (), codes: bytes = b"", **fields) -> None:
        """Put one message on the wire: its pair indices, the code of each index's value where _WIRE
        spells one, a byte each, and its other fields in wire form; one off _WIRE raises InternalFault.
        The log keeps a copy of the indices and codes (_Message), not the entries they spell."""
        if type not in _WIRE:
            raise InternalFault(f"unknown message type {type!r}")
        index_field, spelling = _WIRE[type]
        if index_field is None:
            if indices or codes:
                raise InternalFault(f"{type} message takes no indices")
        else:
            if not all(map(operator.lt, indices, islice(indices, 1, None))):
                raise InternalFault("message indices must be strictly increasing")
            # increasing, so the first index out of range is the first or the first past the end
            if indices and not (0 <= indices[0] and indices[-1] < self._n_pairs):
                i = indices[0] if indices[0] < 0 else indices[bisect_left(indices, self._n_pairs)]
                raise InternalFault(f"message index {i} outside pair range")
            if len(codes) != (needed := len(indices) if spelling else 0):
                raise InternalFault(f"{type} message needs {needed} codes, not {len(codes)}")
            if spelling and codes.translate(None, bytes(range(len(spelling)))):  # a code past the spelling
                raise InternalFault(f"{type} message with a code outside 0..{len(spelling) - 1}")
        seq = len(self.events)
        head = {"msg_seq": self._msg_seq, "sender": sender, "type": type, **fields}
        _record_shape(seq, sender, "message", head, InternalFault)  # a sender outside the message row
        self.events._add(_Message(seq, head, tuple(indices), bytes(codes)))
        self._msg_seq += 1

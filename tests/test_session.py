"""End-to-end and unit tests for the protocol engine and transcripts."""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import re
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qduplex.adversary import _BASES, AttackKind, EveStrategy, Leg, leg_slot
from qduplex.codec import MessageBits, decode_alice, decode_bob, pack_bits, random_message
from qduplex.qsim import BellState, InternalFault, PauliOp, QubitSlot
import qduplex.records as records_module
import qduplex.session as session_module
from qduplex.session import (
    LOG_BYTES_PER_PAIR,
    MAX_LOG_BYTES,
    MAX_PAIRS,
    Aborted,
    CapacityExceeded,
    Completed,
    ConfigInvalid,
    Event,
    EventLog,
    Phase,
    ProtocolConfig,
    Session,
    Transcript,
    TranscriptInvalid,
    _verdict_payload,
    audit_custody,
    replay,
    run_protocol,
)
from qduplex.records import (
    _BELL_STEP,
    _BELLS,
    _BOB_PAULIS,
    _BULK_SCHEMA,
    _CLASS_SHAPES,
    _EVENT,
    _KIND_ACTORS,
    _RECORD_STEP,
    _SHAPE_ID,
    _SHAPE_RECORD,
    _SLOT_NAMES,
    _SHAPE_STEP,
    _STATE,
    _STATE_HOLDERS,
    _WIRE,
    _Recorder,
    _apply_custody,
    _bulk_event,
    _custody_rule,
    _record_shape,
    _run_step,
    shape_codes,
)

try:
    import resource
except ImportError:  # pragma: no cover - not POSIX
    resource = None

ABORT_FIRST_CONFIG = ProtocolConfig(
    n_pairs=16, check_fraction_1=0.5, check_count_2=0, seed=0,
    eve=EveStrategy.from_name("intercept-z"),
)
ABORT_SECOND_CONFIG = ProtocolConfig(
    n_pairs=16, check_fraction_1=0.125, check_count_2=6, seed=0,
    eve=EveStrategy.from_name("substitute", attack_prob=0.2),
)


def fixed_messages(config: ProtocolConfig) -> tuple[MessageBits, MessageBits]:
    return (
        random_message(config.alice_capacity_bits, np.random.default_rng(100)),
        random_message(config.bob_capacity_bits, np.random.default_rng(200)),
    )


def message_events(transcript: Transcript) -> list[Event]:
    return [e for e in transcript.events if e.kind == "message"]


# ---------------------------------------------------------------------------
# config validation and capacities


def test_capacity_arithmetic():
    config = ProtocolConfig(n_pairs=16, check_fraction_1=0.25, check_count_2=3)
    assert config.first_check_count == 4
    assert config.surviving_pairs == 12
    assert config.alice_capacity_bits == 18
    assert config.bob_capacity_bits == 24
    # ceil: 13 * 0.3 = 3.9 rounds up
    assert ProtocolConfig(n_pairs=13, check_fraction_1=0.3).first_check_count == 4


def test_capacity_is_asymmetric_when_decoys_exist():
    config = ProtocolConfig(n_pairs=32, check_fraction_1=0.25, check_count_2=5)
    assert config.bob_capacity_bits - config.alice_capacity_bits == 2 * 5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_pairs": 1},
        {"n_pairs": 0},
        {"n_pairs": 8.0},
        {"n_pairs": 8, "check_fraction_1": 0.0},
        {"n_pairs": 8, "check_fraction_1": 1.0},
        {"n_pairs": 8, "check_fraction_1": -0.25},
        {"n_pairs": 2, "check_fraction_1": 0.99},  # ceil eats every pair
        {"n_pairs": 8, "check_count_2": -1},
        {"n_pairs": 8, "check_count_2": 6},  # equals survivors
        {"n_pairs": 8, "check_count_2": 2.0},
        {"n_pairs": 8, "abort_threshold": -1},
        {"n_pairs": 8, "seed": -1},
        {"n_pairs": 8, "seed": 2**64},
        {"n_pairs": 8, "seed": 1.0},
        {"n_pairs": 8, "check_fraction_1": "0.5"},
        {"n_pairs": 8, "check_fraction_1": None},
        {"n_pairs": 8, "check_fraction_1": 0.5 + 0j},
        {"n_pairs": 8, "check_fraction_1": True},
        {"n_pairs": 8, "eve": "intercept-z"},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ConfigInvalid):
        ProtocolConfig(**{"check_count_2": 1, **kwargs})


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", ["n_pairs", "check_count_2", "abort_threshold", "seed"])
def test_config_validation_rejects_bools_in_integer_fields(name, value):
    """A bool is an int to Python, but not a count or a seed: check_count_2=True
    would reach Generator.choice, and abort_threshold=True the config echo."""
    with pytest.raises(ConfigInvalid, match=f"{name} must be an integer, not a bool"):
        ProtocolConfig(**{"n_pairs": 8, "check_count_2": 1, name: value})


def test_session_rejects_oversized_messages():
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1)
    alice_ok = random_message(config.alice_capacity_bits, np.random.default_rng(0))
    bob_ok = random_message(config.bob_capacity_bits, np.random.default_rng(1))
    too_long_for_alice = random_message(
        config.alice_capacity_bits + 2, np.random.default_rng(2)
    )
    too_long_for_bob = random_message(config.bob_capacity_bits + 2, np.random.default_rng(3))
    with pytest.raises(CapacityExceeded):
        Session(config, too_long_for_alice, bob_ok)
    with pytest.raises(CapacityExceeded):
        Session(config, alice_ok, too_long_for_bob)
    # bob's capacity exceeds alice's; an alice message at bob's size must fail
    with pytest.raises(CapacityExceeded):
        Session(config, bob_ok, bob_ok)


# ---------------------------------------------------------------------------
# round trips


def test_round_trip_recovers_both_messages_exactly():
    config = ProtocolConfig(n_pairs=16, check_fraction_1=0.125, check_count_2=2, seed=11)
    alice_msg = pack_bits(b"\xa5\x3c")
    bob_msg = pack_bits(b"\x5a\xc3\x0f")
    transcript = run_protocol(config, alice_msg, bob_msg)
    assert isinstance(transcript.verdict, Completed)
    assert transcript.verdict.bob_decoded == alice_msg
    assert transcript.verdict.alice_decoded == bob_msg


def test_round_trip_at_full_capacity_in_both_directions():
    config = ProtocolConfig(n_pairs=24, check_fraction_1=0.25, check_count_2=4, seed=5)
    alice_msg, bob_msg = fixed_messages(config)
    assert len(alice_msg.bits) == config.alice_capacity_bits
    assert len(bob_msg.bits) == config.bob_capacity_bits
    transcript = run_protocol(config, alice_msg, bob_msg)
    assert transcript.completed
    assert transcript.verdict.bob_decoded.bits == alice_msg.bits
    assert transcript.verdict.alice_decoded.bits == bob_msg.bits
    assert len(transcript.verdict.bob_decoded.bits) == config.alice_capacity_bits
    assert len(transcript.verdict.alice_decoded.bits) == config.bob_capacity_bits


def test_round_trip_with_empty_messages():
    config = ProtocolConfig(n_pairs=4, check_fraction_1=0.25, check_count_2=1, seed=3)
    empty = MessageBits.from_bits([])
    transcript = run_protocol(config, empty, empty)
    assert transcript.completed
    assert transcript.verdict.alice_decoded.bits == b""
    assert transcript.verdict.bob_decoded.bits == b""


def test_round_trip_large_block():
    config = ProtocolConfig(n_pairs=1000, check_fraction_1=0.25, check_count_2=8, seed=17)
    alice_msg, bob_msg = fixed_messages(config)
    transcript = run_protocol(config, alice_msg, bob_msg)
    assert transcript.completed
    assert transcript.verdict.bob_decoded.bits == alice_msg.bits
    assert transcript.verdict.alice_decoded.bits == bob_msg.bits


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alice_bits=st.lists(st.integers(0, 1), max_size=12),
    bob_bits=st.lists(st.integers(0, 1), max_size=16),
)
def test_any_payload_round_trips_on_a_quiet_channel(seed, alice_bits, bob_bits):
    config = ProtocolConfig(n_pairs=12, check_fraction_1=0.25, check_count_2=2, seed=seed)
    alice_msg = MessageBits.from_bits(alice_bits)
    bob_msg = MessageBits.from_bits(bob_bits)
    transcript = run_protocol(config, alice_msg, bob_msg)
    assert transcript.completed
    assert transcript.verdict.bob_decoded == MessageBits.from_bits(alice_bits)
    assert transcript.verdict.alice_decoded == MessageBits.from_bits(bob_bits)


# ---------------------------------------------------------------------------
# transcript structure and determinism


def test_event_log_shape():
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1, seed=2)
    transcript = run_protocol(config, *fixed_messages(config))
    assert transcript.events[0].kind == "config"
    assert transcript.events[0].payload["seed"] == 2
    assert transcript.events[0].payload["eve"] == {"kind": "none", "attack_prob": 1.0}
    assert transcript.events[-1].kind == "verdict"
    assert [e.kind for e in transcript.events].count("stats") == 1
    assert sum(1 for e in transcript.events if e.kind == "prepare") == 8
    assert all(e.seq == i for i, e in enumerate(transcript.events))
    assert not any(e.kind == "eve_touch" for e in transcript.events)


def test_replay_is_byte_identical():
    config = ProtocolConfig(n_pairs=16, check_fraction_1=0.25, check_count_2=2, seed=9)
    msgs = fixed_messages(config)
    first = run_protocol(config, *msgs).to_jsonl()
    second = run_protocol(config, *msgs).to_jsonl()
    assert first == second
    import dataclasses
    shifted = dataclasses.replace(config, seed=10)
    assert run_protocol(shifted, *msgs).to_jsonl() != first


def test_replay_is_byte_identical_under_attack():
    transcript = run_protocol(ABORT_SECOND_CONFIG, *fixed_messages(ABORT_SECOND_CONFIG))
    again = run_protocol(ABORT_SECOND_CONFIG, *fixed_messages(ABORT_SECOND_CONFIG))
    assert transcript.to_jsonl() == again.to_jsonl()


def test_transcript_serialization_round_trip(tmp_path):
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1, seed=13)
    transcript = run_protocol(config, *fixed_messages(config))
    path = tmp_path / "run.jsonl"
    transcript.write_jsonl(path)
    back = Transcript.read_jsonl(path)
    assert back.to_jsonl() == transcript.to_jsonl()
    assert back.events == transcript.events
    assert back.verdict == transcript.verdict
    assert back.completed


@pytest.mark.skipif(resource is None, reason="needs POSIX rlimits")
@pytest.mark.parametrize("source", ["sparse", "/dev/zero", "fifo"])
def test_oversized_or_irregular_transcript_file_is_refused_without_reading_it(
    tmp_path, capped_child, source
):
    """A sparse file one byte over MAX_LOG_BYTES, an endless device or a FIFO no one
    writes to, read in a child limited to 1 GiB of address space, raises
    TranscriptInvalid rather than MemoryError or a hang."""
    if source == "sparse":
        source = str(tmp_path / "huge.jsonl")
        with open(source, "wb") as fh:
            fh.truncate(MAX_LOG_BYTES + 1)
        expected = f"transcript is {MAX_LOG_BYTES + 1} bytes, over MAX_LOG_BYTES = {MAX_LOG_BYTES}\n"
    else:
        if source == "fifo":
            source = str(tmp_path / "fifo")
            os.mkfifo(source)
        expected = f"transcript {source!r} is not a regular file\n"
    proc = capped_child(
        "from qduplex.session import Transcript, TranscriptInvalid\n"
        "try:\n"
        "    Transcript.read_jsonl(sys.argv[1])\n"
        "except TranscriptInvalid as exc:\n"
        "    print(exc)\n",
        source,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


@pytest.mark.skipif(resource is None, reason="needs POSIX rlimits")
def test_a_262144_pair_round_trip_writes_reads_and_audits_its_transcript_in_400_mb(capped_child):
    """The transcript memory bar: in a child capped at 400 MB of address space, a
    262,144-pair round trip writes its 176 MB transcript, and read_jsonl and
    audit_custody take it back (about 111 MB and 189 MB peak RSS in fresh
    processes on CPython 3.11, 36 MB of each the import)."""
    proc = capped_child(
        "import os\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 * 10**6, 400 * 10**6))\n"
        "from qduplex.cli import main\n"
        "from qduplex.session import Transcript, audit_custody\n"
        "assert main(['--mode', 'roundtrip', '--pairs', '262144', '--transcript', 'run.jsonl']) == 0\n"
        "transcript = Transcript.read_jsonl('run.jsonl')\n"
        "os.remove('run.jsonl')\n"
        "print(len(transcript.events), transcript.completed, audit_custody(transcript))\n",
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    records, completed, violations = proc.stdout.splitlines()[-1].split(" ", 2)
    assert (int(records) > 7 * 262144, completed, violations) == (True, "True", "[]")


def test_transcript_path_that_is_missing_or_a_directory_raises_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        Transcript.read_jsonl(tmp_path / "missing.jsonl")
    with pytest.raises(IsADirectoryError):
        Transcript.read_jsonl(tmp_path)


def test_transcript_file_that_is_not_utf8_is_invalid(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\xff\n")
    with pytest.raises(TranscriptInvalid, match="^line 0: 'utf-8' codec can't decode byte 0xff in position 0: invalid"):
        Transcript.read_jsonl(path)


def test_transcript_utf8_bytes_read_as_their_decoded_text():
    head, key, tail = (GOLDEN_DIR / ABORTED_GOLDEN).read_text(encoding="utf-8").rpartition('"reason":"')
    for reason in ("", "\u00e9 \u2028 \x85 "):  # raw U+2028 and U+0085 end no line
        text = head + key + reason + tail  # in the verdict's line, the last
        assert Transcript.from_jsonl(text.encode("utf-8")) == Transcript.from_jsonl(text)
        assert Transcript.from_jsonl(text).events[-1].payload["reason"] == f"{reason}anticorrelation check failed"
    # a lone surrogate, which UTF-8 cannot hold, in the verdict's line
    with pytest.raises(TranscriptInvalid, match="^line 47: 'utf-8' codec can't decode byte 0xed"):
        Transcript.from_jsonl(head + key + "\ud800" + tail)


def test_transcript_lines_are_canonical_json():
    config = ProtocolConfig(n_pairs=4, check_fraction_1=0.25, check_count_2=1, seed=0)
    transcript = run_protocol(config, *fixed_messages(config))
    for line in transcript.to_jsonl().splitlines():
        record = json.loads(line)
        assert set(record) == {"seq", "actor", "kind", "payload"}
        assert json.dumps(record, sort_keys=True, separators=(",", ":")) == line


def test_every_bulk_shape_writes_the_json_dumps_line_of_its_event():
    """For each of the 57 custody shapes, enumerated from _BULK_SCHEMA, the line the log
    writes at sample pairs and seqs is json.dumps of the record, sorted and compact."""
    shapes = [
        (kind, actor, dict(zip(fields, values)))
        for kind, (actors, fields) in _BULK_SCHEMA.items()
        for actor in actors
        for values in itertools.product(*(
            (None,) if allowed is None else allowed for allowed in fields.values()
        ))
    ]
    assert len(shapes) == 57
    for kind, actor, payload in shapes:
        events = [
            Event(seq=seq, actor=actor, kind=kind, payload={**payload, "pair": pair})
            for seq, pair in enumerate((0, 7, 4095, 123_456_789, 2**62))
        ]
        assert "".join(EventLog(events).texts()) == "".join(
            json.dumps(event.to_record(), sort_keys=True, separators=(",", ":")) + "\n"
            for event in events
        ), (kind, actor, payload)


def test_from_jsonl_rejects_sparse_sequence_numbers():
    config = ProtocolConfig(n_pairs=4, check_fraction_1=0.25, check_count_2=1, seed=1)
    lines = run_protocol(config, *fixed_messages(config)).to_jsonl().splitlines()
    with pytest.raises(ValueError, match="dense"):
        Transcript.from_jsonl("\n".join([lines[0]] + lines[2:]) + "\n")


def test_from_jsonl_rejects_truncation():
    config = ProtocolConfig(n_pairs=4, check_fraction_1=0.25, check_count_2=1, seed=1)
    lines = run_protocol(config, *fixed_messages(config)).to_jsonl().splitlines()
    with pytest.raises(ValueError, match="verdict"):
        Transcript.from_jsonl("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        Transcript.from_jsonl("")


def test_from_jsonl_rejects_blank_interior_line():
    config = ProtocolConfig(n_pairs=4, check_fraction_1=0.25, check_count_2=1, seed=1)
    lines = run_protocol(config, *fixed_messages(config)).to_jsonl().splitlines()
    with pytest.raises(ValueError, match="blank"):
        Transcript.from_jsonl(lines[0] + "\n\n" + "\n".join(lines[1:]) + "\n")


_VALID_HEAD = '{"actor":"session","kind":"config","payload":{},"seq":0}'
_STATS = '{"actor":"session","kind":"stats","payload":{%s},"seq":%d}'
_FIRST_CHECK = '"first_check":{"passed":true,"sampled":2,"violations":0}'
_VERDICT = (
    '{"actor":"session","kind":"verdict",'
    '"payload":{"outcome":"aborted","phase":"first_check","reason":"x"},"seq":%d}'
)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[]\n", id="non-object line"),
        pytest.param('"record"\n', id="string line"),
        pytest.param("{not json\n", id="not json"),
        pytest.param('{"kind":"verdict","payload":{},"seq":0}\n', id="no actor"),
        pytest.param('{"actor":"session","kind":"verdict","payload":{}}\n', id="no seq"),
        pytest.param('{"actor":"session","payload":{},"seq":0}\n', id="no kind"),
        pytest.param('{"actor":"session","kind":"verdict","seq":0}\n', id="no payload"),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"verdict",'
            '"payload":{"outcome":"aborted","reason":"x"},"seq":1}\n',
            id="verdict without phase",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"verdict",'
            '"payload":{"outcome":"aborted","phase":"nowhere","reason":"x"},"seq":1}\n',
            id="verdict with unknown phase",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"verdict","payload":[],"seq":1}\n',
            id="verdict payload not an object",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"verdict","payload":{"outcome":'
            '"completed","alice_decoded":{"bits":"0x","pad_bits":0}},"seq":1}\n',
            id="completed verdict with bad bits",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"verdict",'
            '"payload":{"outcome":"bogus","phase":"done","reason":"x"},"seq":1}\n',
            id="verdict with unknown outcome",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"verdict",'
            '"payload":{"outcome":"aborted","phase":"done","reason":"x"},"seq":true}\n',
            id="boolean seq",
        ),
        pytest.param(
            '{"actor":"session","kind":"verdict",'
            '"payload":{"outcome":"aborted","phase":"done","reason":"x"},"seq":0.0}\n',
            id="float seq",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"verdict","payload":{"outcome":"completed",'
            '"alice_decoded":{"bits":"00","pad_bits":1e999},'
            '"bob_decoded":{"bits":"00","pad_bits":0}},"seq":1}\n',
            id="completed verdict with infinite pad_bits",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"verdict",'
            '"payload":{"outcome":"aborted","phase":"done","reason":"x"},"seq":1}\n',
            id="aborted verdict in a phase that cannot abort",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"verdict",'
            '"payload":{"outcome":"aborted","phase":"first_check","reason":[1]},"seq":1}\n',
            id="aborted verdict with a non-string reason",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"verdict",'
            '"payload":{"outcome":"aborted","phase":"done","reason":[1]},"seq":1}\n',
            id="aborted verdict with both",
        ),
        pytest.param('{"seq":' + "1" * 5000 + "}\n", id="integer past the digit limit"),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"statz","payload":{},"seq":1}\n'
            + _VERDICT % 2 + "\n",
            id="unknown kind",
        ),
        pytest.param(
            '{"actor":"alice","kind":"config","payload":{},"seq":0}\n' + _VERDICT % 1 + "\n",
            id="config not by session",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"bob","kind":"stats","payload":{},"seq":1}\n'
            + _VERDICT % 2 + "\n",
            id="stats not by session",
        ),
        pytest.param(
            _VALID_HEAD + "\n" + _VERDICT.replace('"session"', '"eve"') % 1 + "\n",
            id="verdict not by session",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"session","kind":"message","payload":{},"seq":1}\n'
            + _VERDICT % 2 + "\n",
            id="message not by alice or bob",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":"eve","kind":"message","payload":{},"seq":1}\n'
            + _VERDICT % 2 + "\n",
            id="message by eve",
        ),
        pytest.param(
            _VALID_HEAD + '\n{"actor":{"name":"alice"},"kind":"prepare","payload":{"pair":0},'
            '"seq":1}\n' + _VERDICT % 2 + "\n",
            id="custody record with an object actor",
        ),
        pytest.param("[" * 100_000 + "]" * 100_000 + "\n", id="arrays nested 100000 deep"),
        pytest.param(
            _VALID_HEAD + "\n" + _STATS % ("{}", 1) + "\n" + _VERDICT % 2 + "\n",
            id="stats without first_check",
        ),
        pytest.param(
            _VALID_HEAD + "\n" + _STATS % (_FIRST_CHECK + ',"second_check":null', 1) + "\n"
            + _VERDICT % 2 + "\n",
            id="stats with a null second_check",
        ),
        pytest.param(
            _VALID_HEAD + "\n" + _STATS % (_FIRST_CHECK + ',"second_check":[]', 1) + "\n"
            + _VERDICT % 2 + "\n",
            id="stats with a list second_check",
        ),
        pytest.param(
            _VALID_HEAD + "\n" + _STATS % (_FIRST_CHECK.replace("true", "1"), 1) + "\n"
            + _VERDICT % 2 + "\n",
            id="stats with an integer passed",
        ),
        pytest.param(
            _VALID_HEAD + "\n" + _STATS % (_FIRST_CHECK.replace('"sampled":2', '"sampled":-2'), 1)
            + "\n" + _VERDICT % 2 + "\n",
            id="stats with a negative count",
        ),
        pytest.param(
            _VALID_HEAD + "\n" + _STATS % (_FIRST_CHECK + ',"third_check":{}', 1) + "\n"
            + _VERDICT % 2 + "\n",
            id="stats with an unknown check",
        ),
        pytest.param(
            _VALID_HEAD + "\n" + _STATS % (_FIRST_CHECK, 1) + "\n"
            '{"actor":"alice","kind":"message","payload":{},"seq":2}\n' + _VERDICT % 3 + "\n",
            id="stats not directly before the verdict",
        ),
        pytest.param(
            _VALID_HEAD + "\n" + _VALID_HEAD.replace('"seq":0', '"seq":1') + "\n"
            + _VERDICT % 2 + "\n",
            id="config after seq 0",
        ),
        pytest.param(
            _VALID_HEAD + "\n" + _VERDICT % 1 + "\n" + _VERDICT % 2 + "\n",
            id="verdict before the last record",
        ),
    ],
)
def test_from_jsonl_raises_transcript_invalid(text):
    with pytest.raises(TranscriptInvalid) as info:
        Transcript.from_jsonl(text)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "stats", [_FIRST_CHECK, _FIRST_CHECK + ',"second_check":' + json.dumps(
        {"decoy_indices": [], "decoys": 0, "mismatches": 0, "passed": True}, separators=(",", ":")
    )],
)
def test_from_jsonl_reads_a_stats_record_of_format_md_directly_before_the_verdict(stats):
    text = _VALID_HEAD + "\n" + _STATS % (stats, 1) + "\n" + _VERDICT % 2 + "\n"
    transcript = Transcript.from_jsonl(text)
    assert transcript.stats == json.loads("{" + stats + "}")
    assert transcript.to_jsonl() == text


GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_TRANSCRIPTS = ["transcript_n8_seed7.jsonl", "transcript_n8_seed0_intercept_rand.jsonl"]



def with_verdict(name: str, change) -> str:
    """A golden transcript whose verdict payload has been passed through change."""
    lines = (GOLDEN_DIR / name).read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[-1])
    change(record["payload"])
    lines[-1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


def set_field(*path_and_value):
    *path, name, value = path_and_value

    def change(payload: dict) -> None:
        for key in path:
            payload = payload[key]
        payload[name] = value

    return change


COMPLETED_GOLDEN, ABORTED_GOLDEN = GOLDEN_TRANSCRIPTS

# verdict payloads off FORMAT.md's verdict record: a golden transcript, its damage,
# and for some the start of the error's message
OFF_FORMAT_VERDICTS = {
    "pad 1.7": (COMPLETED_GOLDEN, set_field("alice_decoded", "pad_bits", 1.7)),
    "pad true": (COMPLETED_GOLDEN, set_field("alice_decoded", "pad_bits", True)),
    "pad string": (COMPLETED_GOLDEN, set_field("bob_decoded", "pad_bits", "1")),
    "pad 2": (COMPLETED_GOLDEN, set_field("bob_decoded", "pad_bits", 2)),
    "full-width digit in bits": (
        COMPLETED_GOLDEN, set_field("alice_decoded", "bits", "1110111\uff11")
    ),
    "bits as a list": (
        COMPLETED_GOLDEN, set_field("bob_decoded", "bits", [1, 0, 1, 1, 1, 1, 1, 0])
    ),
    "bits with a space": (COMPLETED_GOLDEN, set_field("bob_decoded", "bits", " 10")),
    "extra verdict field": (COMPLETED_GOLDEN, set_field("note", "x")),
    "extra message field": (COMPLETED_GOLDEN, set_field("alice_decoded", "note", 0)),
    "message without pad_bits": (
        COMPLETED_GOLDEN, lambda payload: payload["bob_decoded"].pop("pad_bits")
    ),
    "completed with a phase": (COMPLETED_GOLDEN, set_field("phase", "first_check")),
    "extra aborted field": (ABORTED_GOLDEN, set_field("note", "x")),
    "aborted with a decoded message": (
        ABORTED_GOLDEN, set_field("alice_decoded", {"bits": "", "pad_bits": 0})
    ),
    "aborted without reason": (ABORTED_GOLDEN, lambda payload: payload.pop("reason")),
    "unknown phase": (
        ABORTED_GOLDEN, set_field("phase", "nope"),
        "an aborted verdict needs phase first_check or second_check and a string reason, "
        "not 'nope' and a str$",
    ),
    "odd bits": (
        COMPLETED_GOLDEN, set_field("alice_decoded", "bits", "1"),
        r"decoded message: bit string must have even length \(pad first\)$",
    ),
    "pad past the bits": (
        COMPLETED_GOLDEN,
        set_field("bob_decoded", {"bits": "", "pad_bits": 1}),
        "decoded message: padding longer than message$",
    ),
}


@pytest.mark.parametrize(
    "name, change, match",
    [(*row, None)[:3] for row in OFF_FORMAT_VERDICTS.values()],
    ids=list(OFF_FORMAT_VERDICTS),
)
def test_from_jsonl_rejects_verdict_payloads_off_format_md(name, change, match):
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert with_verdict(name, lambda payload: None) == golden
    text = with_verdict(name, change)
    assert reference_read(text) is None
    with pytest.raises(TranscriptInvalid, match=match and f"^{match}") as info:
        Transcript.from_jsonl(text)
    assert "malformed verdict payload" not in str(info.value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def golden_transcript_variants(draw, damage_payload=st.booleans()) -> str:
    """A golden transcript, with one payload field of one record deleted or replaced
    when damage_payload draws True, and maybe one seq, actor or kind replaced.

    Each line is written canonically, or re-spaced with its keys sorted or
    not, so both the reader's bulk path and its general path see damage.
    """
    text = (GOLDEN_DIR / draw(st.sampled_from(GOLDEN_TRANSCRIPTS))).read_text(encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines()]
    if draw(damage_payload):
        index = draw(st.sampled_from([i for i, r in enumerate(records) if r["payload"]]))
        payload = dict(records[index]["payload"])
        key = draw(st.sampled_from(sorted(payload)))
        if draw(st.booleans()):
            del payload[key]
        else:
            payload[key] = draw(json_values)
        records[index] = {**records[index], "payload": payload}
    if draw(st.booleans()):
        index = draw(st.sampled_from(range(len(records))))
        field_ = draw(st.sampled_from(["seq", "actor", "kind"]))
        records[index] = {**records[index], field_: draw(json_values | st.integers(-1, 40))}
    spaced = draw(st.sets(st.sampled_from(range(len(records)))))
    lines = [
        json.dumps(r, sort_keys=draw(st.booleans())) if i in spaced
        else json.dumps(r, sort_keys=True, separators=(",", ":"))
        for i, r in enumerate(records)
    ]
    return "".join(line + "\n" for line in lines)


def damaged_golden_transcripts():
    """A golden transcript variant that always has one payload field deleted or replaced."""
    return golden_transcript_variants(damage_payload=st.just(True))


@settings(max_examples=150, deadline=None)
@given(damaged_golden_transcripts())
def test_damaged_transcripts_parse_and_audit_or_raise_transcript_invalid(text):
    try:
        transcript = Transcript.from_jsonl(text)
    except TranscriptInvalid:
        return
    problems = audit_custody(transcript)  # every record the reader admits fits the schema
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)


def test_a_transcript_without_its_config_or_stats_record_is_not_built():
    """.config and .stats read records 0 and -2, which every transcript, built or read, holds."""
    config, stats, verdict = framed([])
    built = Transcript(events=[config, stats, verdict])
    assert (built.config, built.stats) == ({}, FRAME_STATS)
    for records, message in (
        ([verdict], "transcript does not start with a config record"),
        ([stats, verdict], "transcript does not start with a config record"),
        ([config, verdict], "transcript has no stats record"),
    ):
        events = [Event(seq, e.actor, e.kind, e.payload) for seq, e in enumerate(records)]
        with pytest.raises(TranscriptInvalid, match=f"^{message}$"):
            Transcript(events=events)
        with pytest.raises(TranscriptInvalid, match=f"^{message}$"):
            Transcript.from_jsonl(canonical_jsonl(events))
    with pytest.raises(TranscriptInvalid, match="seq 0: unknown record kind 'noise'"):
        Transcript(events=[Event(0, "x", "noise", {})])


@pytest.mark.parametrize("kind, payload", [("config", None), ("message", [1, 2])])
def test_a_config_or_message_payload_that_is_not_an_object_is_refused(kind, payload):
    """FORMAT.md's payload is an object for every kind, not for the custody kinds alone."""
    records = [Event(**json.loads(line)) for line in
               (GOLDEN_DIR / COMPLETED_GOLDEN).read_text(encoding="utf-8").splitlines()]
    seq = next(e.seq for e in records if e.kind == kind)
    records[seq] = Event(seq, records[seq].actor, kind, payload)
    text = canonical_jsonl(records)
    assert reference_read(text) is None
    message = f"^seq {seq}: {kind} record with a payload that is not an object$"
    with pytest.raises(TranscriptInvalid, match=message):
        Transcript.from_jsonl(text)
    with pytest.raises(TranscriptInvalid, match=message):
        Transcript(events=records)


def test_the_recorder_refuses_a_payload_that_is_not_an_object():
    recorder = _Recorder(n_pairs=4)
    with pytest.raises(
        InternalFault, match="^seq 0: message record with a payload that is not an object$"
    ):
        recorder.emit("alice", "message", [1, 2])
    assert len(recorder.events) == 0


# ---------------------------------------------------------------------------
# bookkeeping invariants


def test_survivor_and_decoy_bookkeeping():
    config = ProtocolConfig(n_pairs=32, check_fraction_1=0.25, check_count_2=5, seed=21)
    session = Session(config, *fixed_messages(config))
    transcript = session.run()
    assert transcript.completed
    checked = {
        i
        for e in message_events(transcript)
        if e.payload["type"] == "check_indices"
        for i in e.payload["indices"]
    }
    assert len(checked) == config.first_check_count
    assert sorted(session.survivors) == [i for i in range(32) if i not in checked]
    decoys = {session.survivors[k] for k in session._decoy_at}
    assert len(decoys) == 5
    assert decoys <= set(session.survivors)
    stats = transcript.stats["second_check"]
    assert stats["decoy_indices"] == sorted(decoys)
    assert stats["decoys"] == 5
    assert stats["passed"]
    # every survivor got exactly one op from each side and one joint readout
    alice_ops = [e for e in transcript.events if e.kind == "pauli" and e.actor == "alice"]
    bob_ops = [e for e in transcript.events if e.kind == "pauli" and e.actor == "bob"]
    bells = [e for e in transcript.events if e.kind == "bell_measure"]
    assert (
        sorted(e.payload["pair"] for e in alice_ops)
        == sorted(e.payload["pair"] for e in bob_ops)
        == sorted(e.payload["pair"] for e in bells)
        == sorted(session.survivors)
    )
    assert all(e.payload["slot"] == "M" for e in alice_ops)


def test_message_sequence_numbers_are_dense_and_ordered():
    config = ProtocolConfig(n_pairs=16, check_fraction_1=0.25, check_count_2=2, seed=8)
    transcript = run_protocol(config, *fixed_messages(config))
    seqs = [e.payload["msg_seq"] for e in message_events(transcript)]
    assert seqs == list(range(len(seqs)))
    for event in message_events(transcript):
        for key in ("indices", "bases", "outcomes", "ops", "results"):
            if key in event.payload:
                idx = [
                    item[0] if isinstance(item, list) else item
                    for item in event.payload[key]
                ]
                assert idx == sorted(idx)
                assert len(set(idx)) == len(idx)


def test_second_check_wire_order():
    config = ProtocolConfig(n_pairs=16, check_fraction_1=0.25, check_count_2=3, seed=14)
    transcript = run_protocol(config, *fixed_messages(config))
    tail = [(e.payload["type"], e.payload["sender"]) for e in message_events(transcript)][-5:]
    assert tail == [
        ("bell_results", "bob"),
        ("second_check_indices", "alice"),
        ("second_check_reveal", "bob"),
        ("second_check_reveal", "alice"),
        ("check_verdict", "alice"),
    ]


def test_zero_decoys_skip_the_second_check_wire():
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=0, seed=6)
    transcript = run_protocol(config, *fixed_messages(config))
    assert transcript.completed
    types = {e.payload["type"] for e in message_events(transcript)}
    assert "second_check_indices" not in types
    assert "second_check_reveal" not in types
    stats = transcript.stats["second_check"]
    assert stats == {"decoys": 0, "decoy_indices": [], "mismatches": 0, "passed": True}


def test_bob_slot_choice_is_never_announced():
    config = ProtocolConfig(n_pairs=16, check_fraction_1=0.25, check_count_2=2, seed=4)
    transcript = run_protocol(config, *fixed_messages(config))
    bob_slots = {
        e.payload["slot"]
        for e in transcript.events
        if e.kind == "pauli" and e.actor == "bob"
    }
    assert bob_slots == {"C", "M"}  # seed chosen so both occur
    for event in message_events(transcript):
        assert "slot" not in event.payload


# ---------------------------------------------------------------------------
# aborts


def test_heavy_interception_aborts_in_the_first_check():
    transcript = run_protocol(ABORT_FIRST_CONFIG, *fixed_messages(ABORT_FIRST_CONFIG))
    assert isinstance(transcript.verdict, Aborted)
    assert transcript.verdict.phase is Phase.FIRST_CHECK
    assert not transcript.stats["first_check"]["passed"]
    assert transcript.stats["first_check"]["violations"] > 0
    assert "second_check" not in transcript.stats
    # nothing was encoded after the abort
    assert not any(e.kind == "pauli" for e in transcript.events)
    assert message_events(transcript)[-1].payload["type"] == "abort"


def test_light_substitution_slips_through_to_the_decoy_check():
    transcript = run_protocol(ABORT_SECOND_CONFIG, *fixed_messages(ABORT_SECOND_CONFIG))
    assert isinstance(transcript.verdict, Aborted)
    assert transcript.verdict.phase is Phase.SECOND_CHECK
    assert transcript.stats["first_check"]["passed"]
    second = transcript.stats["second_check"]
    assert not second["passed"]
    assert second["mismatches"] > 0
    assert message_events(transcript)[-1].payload["type"] == "abort"


def test_abort_threshold_tolerates_that_many_violations():
    # same attacked run; raising the threshold far enough must let it pass
    import dataclasses
    tolerant = dataclasses.replace(ABORT_FIRST_CONFIG, abort_threshold=8)
    transcript = run_protocol(tolerant, *fixed_messages(tolerant))
    assert transcript.stats["first_check"]["passed"]
    assert transcript.stats["first_check"]["violations"] <= 8


# ---------------------------------------------------------------------------
# custody audit


def test_audit_passes_clean_runs():
    config = ProtocolConfig(n_pairs=16, check_fraction_1=0.25, check_count_2=2, seed=1)
    assert audit_custody(run_protocol(config, *fixed_messages(config))) == []


def test_audit_passes_attacked_and_aborted_runs():
    assert audit_custody(run_protocol(ABORT_FIRST_CONFIG, *fixed_messages(ABORT_FIRST_CONFIG))) == []
    assert audit_custody(run_protocol(ABORT_SECOND_CONFIG, *fixed_messages(ABORT_SECOND_CONFIG))) == []


FRAME_STATS = {"first_check": {"passed": True, "sampled": 0, "violations": 0}}
FRAME_VERDICT = {"outcome": "aborted", "phase": "first_check", "reason": "x"}


def framed(records, verdict: dict = FRAME_VERDICT) -> list[Event]:
    """FORMAT.md's frame around synthetic (actor, kind, payload) records: the
    Events of a config record at seq 0, the records, a stats record and a verdict."""
    rows = [("session", "config", {}), *records, ("session", "stats", FRAME_STATS),
            ("session", "verdict", verdict)]
    return [Event(seq, *row) for seq, row in enumerate(rows)]


def audit_synthetic(events) -> list[str]:
    """Audit an event list in its frame, and check that a run recording it would stop.

    A recorder applies the audit's own rules, so emitting the same events
    must raise InternalFault with the audit's first message, at the first
    flagged event and before that event enters the log.  The config record
    is seq 0, so the events count from seq 1.
    """
    numbered = framed(events, _verdict_payload(Aborted(Phase.FIRST_CHECK, "synthetic")))
    problems = audit_custody(Transcript(events=numbered))
    recorder = _Recorder(n_pairs=1)
    with pytest.raises(InternalFault) as info:
        for event in numbered:
            recorder.emit(event.actor, event.kind, event.payload)
    assert str(info.value) == problems[0]
    assert problems[0].startswith(f"seq {len(recorder.events)}:")
    assert recorder.events == numbered[: len(recorder.events)]
    return problems


def test_audit_flags_an_op_outside_custody():
    problems = audit_synthetic(
        [
            ("alice", "prepare", {"pair": 0}),
            ("bob", "pauli", {"pair": 0, "slot": "C", "op": "U2"}),
        ]
    )
    assert len(problems) == 1
    assert "pauli" in problems[0] and "bob" in problems[0]


def test_audit_flags_channel_violations():
    problems = audit_synthetic(
        [
            ("alice", "prepare", {"pair": 0}),
            ("eve", "eve_touch", {"pair": 0, "slot": "C", "leg": "first", "basis": "Z", "outcome": 0}),
            ("bob", "receive", {"pair": 0, "slot": "C"}),
            ("alice", "send", {"pair": 0, "slot": "C", "to": "bob"}),
            ("alice", "send", {"pair": 0, "slot": "C", "to": "bob"}),
        ]
    )
    # touch and receive precede any send; invalid ops do not move custody,
    # so alice's first send is legitimate and only her second is not
    assert len(problems) == 3
    assert "eve_touch" in problems[0]
    assert "receive" in problems[1]
    assert "send" in problems[2]


def test_audit_flags_double_consumption():
    problems = audit_synthetic(
        [
            ("alice", "prepare", {"pair": 0}),
            ("alice", "send", {"pair": 0, "slot": "C", "to": "bob"}),
            ("bob", "receive", {"pair": 0, "slot": "C"}),
            ("alice", "send", {"pair": 0, "slot": "M", "to": "bob"}),
            ("bob", "receive", {"pair": 0, "slot": "M"}),
            ("bob", "bell_measure", {"pair": 0, "result": "psi_minus"}),
            ("bob", "bell_measure", {"pair": 0, "result": "psi_minus"}),
        ]
    )
    assert problems == [  # both slots already consumed
        "seq 7: bell_measure on pair 0 slot C held by consumed, expected bob",
        "seq 7: bell_measure on pair 0 slot M held by consumed, expected bob",
    ]


def test_preparation_by_the_wrong_party_is_rejected_where_it_enters_the_log():
    """Only alice's prepare fits the schema, so no log, read or recorded, holds another."""
    message = "seq {}: prepare record with actor 'bob' outside its schema"
    prepare = Event(0, "bob", "prepare", {"pair": 0})
    with pytest.raises(TranscriptInvalid, match=message.format(0)):
        Transcript(events=[prepare])
    with pytest.raises(TranscriptInvalid, match=message.format(1)):  # after the config record
        Transcript.from_jsonl(transcript_text([("bob", "prepare", {"pair": 0})]))
    recorder = _Recorder(n_pairs=1)
    with pytest.raises(InternalFault, match=message.format(0)):
        recorder.emit("bob", "prepare", {"pair": 0})
    assert len(recorder.events) == 0


def test_audit_flags_a_pair_prepared_again():
    problems = audit_synthetic(
        [
            ("alice", "prepare", {"pair": 0}),
            ("alice", "send", {"pair": 0, "slot": "C", "to": "bob"}),
            ("bob", "receive", {"pair": 0, "slot": "C"}),
            ("alice", "prepare", {"pair": 0}),
            ("alice", "send", {"pair": 0, "slot": "M", "to": "bob"}),
            ("alice", "prepare", {"pair": 0}),
            ("bob", "receive", {"pair": 0, "slot": "M"}),
            ("bob", "bell_measure", {"pair": 0, "result": "psi_minus"}),
            ("alice", "prepare", {"pair": 0}),
            ("bob", "bell_measure", {"pair": 0, "result": "psi_minus"}),
        ]
    )
    # a refused prepare moves nothing: bob's first Bell measurement finds both
    # photons where the sends left them, and his second finds them consumed
    assert problems == [
        "seq 4: pair 0 prepared again, held by bob and alice",
        "seq 6: pair 0 prepared again, held by bob and channel",
        "seq 9: pair 0 prepared again, held by consumed and consumed",
        "seq 10: bell_measure on pair 0 slot C held by consumed, expected bob",
        "seq 10: bell_measure on pair 0 slot M held by consumed, expected bob",
    ]


def transcript_text(records) -> str:
    """JSONL, spaced and unsorted, for the given (actor, kind, payload) records in their frame."""
    return "".join(json.dumps(event.to_record()) + "\n" for event in framed(records))


@pytest.mark.parametrize(
    "records, match",
    [
        pytest.param(
            [("alice", "prepare", {"pair": 0}), ("alice", "pauli", {"pair": 0, "op": "U1"})],
            "seq 2: pauli record without a slot",
            id="pauli without slot",
        ),
        pytest.param([("alice", "prepare", {})], "seq 1: prepare record without a pair",
                     id="prepare without pair"),
        pytest.param([("alice", "prepare", [])], "seq 1: prepare record with a payload that is not",
                     id="prepare payload not an object"),
        pytest.param([("alice", "prepare", {"pair": [1]})],
                     r"seq 1: prepare record with pair \[1\] outside its schema", id="list pair"),
        pytest.param(
            [("alice", "prepare", {"pair": 0}), ("alice", "send", {"pair": 0, "slot": ["C"]})],
            r"seq 2: send record with slot \['C'\] outside its schema",
            id="list slot",
        ),
    ],
)
def test_reader_raises_transcript_invalid_on_malformed_custody_records(records, match):
    with pytest.raises(TranscriptInvalid, match=match):
        Transcript.from_jsonl(transcript_text(records))


def test_decodes_are_recomputable_from_the_log_in_any_event_order():
    """Each pair decodes independently, so log order cannot matter.

    Recomputing both messages from a shuffled copy of the event log must
    reproduce the verdict exactly.
    """
    import random

    config = ProtocolConfig(n_pairs=24, check_fraction_1=0.25, check_count_2=3, seed=19)
    transcript = run_protocol(config, *fixed_messages(config))
    assert transcript.completed
    bell_by_name = {b.name.lower(): b for b in BellState}
    op_by_name = {op.name: op for op in PauliOp}
    events = list(transcript.events)
    random.Random(0).shuffle(events)
    announced: dict[int, BellState] = {}
    alice_ops: dict[int, PauliOp] = {}
    bob_ops: dict[int, PauliOp] = {}
    for event in events:
        if event.kind == "bell_measure":
            announced[event.payload["pair"]] = bell_by_name[event.payload["result"]]
        elif event.kind == "pauli":
            ops = alice_ops if event.actor == "alice" else bob_ops
            ops[event.payload["pair"]] = op_by_name[event.payload["op"]]
    decoys = set(transcript.stats["second_check"]["decoy_indices"])
    alice_pairs = [
        decode_alice(bob_ops[i], announced[i]) for i in sorted(announced) if i not in decoys
    ]
    bob_pairs = [decode_bob(alice_ops[i], announced[i]) for i in sorted(announced)]
    verdict = transcript.verdict
    assert MessageBits.from_pairs(alice_pairs, verdict.bob_decoded.payload_bits) == verdict.bob_decoded
    assert MessageBits.from_pairs(bob_pairs, verdict.alice_decoded.payload_bits) == verdict.alice_decoded


# ---------------------------------------------------------------------------
# masking of the public wire


def chi_square_uniform_rows(counts: dict[int, dict[int, int]], columns: int) -> tuple[float, int]:
    stat = 0.0
    df = 0
    for row in counts.values():
        total = sum(row.values())
        if total == 0:
            continue
        expected = total / columns
        stat += sum((row.get(c, 0) - expected) ** 2 / expected for c in range(columns))
        df += columns - 1
    return stat, df


def test_announcement_is_uniform_given_alices_op():
    """The public Bell results must not skew with Alice's encoding.

    Conditional on Alice's op the announced index is a fresh uniform draw
    (the other party's op acts as a one-time pad), so a chi-square against
    row uniformity stays small.  Threshold is far beyond the 1e-4 tail.
    """
    bell_names = {"psi_minus": 0, "psi_plus": 1, "phi_minus": 2, "phi_plus": 3}
    counts: dict[int, dict[int, int]] = {a: {} for a in range(4)}
    rng = np.random.default_rng(77)
    samples = 0
    for trial in range(100):
        config = ProtocolConfig(
            n_pairs=32, check_fraction_1=0.25, check_count_2=4, seed=int(rng.integers(1 << 63))
        )
        transcript = run_protocol(
            config,
            random_message(config.alice_capacity_bits, rng),
            random_message(config.bob_capacity_bits, rng),
        )
        assert transcript.completed
        decoys = set(transcript.stats["second_check"]["decoy_indices"])
        announced = {
            e.payload["pair"]: bell_names[e.payload["result"]]
            for e in transcript.events
            if e.kind == "bell_measure"
        }
        alice_ops = {
            e.payload["pair"]: int(e.payload["op"][1])
            for e in transcript.events
            if e.kind == "pauli" and e.actor == "alice"
        }
        for pair, result in announced.items():
            if pair in decoys:
                continue
            row = counts[alice_ops[pair]]
            row[result] = row.get(result, 0) + 1
            samples += 1
    stat, df = chi_square_uniform_rows(counts, 4)
    assert samples == 100 * 20
    assert df == 12
    assert stat < 40.0, f"chi-square {stat:.1f} on {df} df"


# ---------------------------------------------------------------------------
# state machine guards


def test_session_runs_exactly_once():
    config = ProtocolConfig(n_pairs=4, check_fraction_1=0.25, check_count_2=1, seed=0)
    session = Session(config, *fixed_messages(config))
    session.run()
    with pytest.raises(InternalFault):
        session.run()


def test_session_phase_only_moves_forward():
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1, seed=12)
    session = Session(config, *fixed_messages(config))
    session.prepare_pairs()
    session.transmit(Leg.FIRST)
    assert session.first_check()
    assert session.phase is Phase.FIRST_CHECK
    with pytest.raises(InternalFault):
        session.prepare_pairs()
    with pytest.raises(InternalFault):
        session.first_check()  # re-entry counts as a step back
    aborting = Session(ABORT_FIRST_CONFIG, *fixed_messages(ABORT_FIRST_CONFIG))
    assert not aborting.run().completed
    assert aborting.phase is Phase.ABORTED


def test_completed_phase_is_done_for_both_parties():
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1, seed=12)
    session = Session(config, *fixed_messages(config))
    session.run()
    assert session.phase is Phase.DONE


def test_aborted_phase_is_aborted_for_both_parties():
    session = Session(ABORT_FIRST_CONFIG, *fixed_messages(ABORT_FIRST_CONFIG))
    session.run()
    assert session.phase is Phase.ABORTED


# ---------------------------------------------------------------------------
# golden transcript


@pytest.mark.parametrize(
    "name, config, completed",
    [
        pytest.param(
            "transcript_n8_seed7",
            ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1, seed=7),
            True,
            id="transcript_n8_seed7",
        ),
        pytest.param(
            "transcript_n8_seed0_intercept_rand",
            ProtocolConfig(
                n_pairs=8, check_fraction_1=0.5, check_count_2=0, seed=0,
                eve=EveStrategy.from_name("intercept-rand"),
            ),
            False,
            id="transcript_n8_seed0_intercept_rand",
        ),
    ],
)
def test_golden_transcript_still_reproduces(request, name, config, completed):
    """A frozen full transcript pins the wire format and the RNG layout.

    Any change to event payloads, stream splitting, or sampling order
    shows up here as a byte-level diff.  The intercept-rand run pins Eve's
    touches and an abort at the first check.
    """
    golden = request.path.parent / "golden" / f"{name}.jsonl"
    transcript = run_protocol(config, pack_bits(b"\xbe"), pack_bits(b"\xef"))
    assert transcript.to_jsonl() == golden.read_text(encoding="utf-8")
    parsed = Transcript.from_jsonl(golden.read_text(encoding="utf-8"))
    assert parsed.completed is completed
    assert audit_custody(parsed) == []


# ---------------------------------------------------------------------------
# qsim calls per run


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(ProtocolConfig(n_pairs=64, check_fraction_1=0.125, check_count_2=4, seed=3),
                     id="quiet"),
        pytest.param(
            ProtocolConfig(
                n_pairs=64, check_fraction_1=0.125, check_count_2=4, seed=3, abort_threshold=64,
                eve=EveStrategy.from_name("intercept-rand", attack_prob=1.0),
            ),
            id="intercept-rand-completes",
        ),
        pytest.param(
            ProtocolConfig(
                n_pairs=64, check_fraction_1=0.5, check_count_2=4, seed=3,
                eve=EveStrategy.from_name("intercept-rand", attack_prob=1.0),
            ),
            id="intercept-rand-aborts",
        ),
    ],
)
def test_each_qsim_op_is_one_call_through_the_module_bindings(monkeypatch, config):
    """Count qsim calls through session's and adversary's own names for them.

    A run prepares each pair once, measures both photons of every
    first-check pair, encodes twice and Bell-measures once per survivor of
    a passed check; Eve at attack probability 1 measures every photon on
    each leg she sees.  A loop that called a qsim op through a local alias,
    or skipped one, would miss these counts (the formula the benchmark's
    traced run reconciles against).
    """
    import qduplex.adversary as adversary_module
    import qduplex.session as session_module

    calls = dict.fromkeys(("make_singlet", "measure_qubit", "apply_pauli", "bell_measure"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module in (session_module, adversary_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    transcript = run_protocol(config, *fixed_messages(config))
    n, sampled = config.n_pairs, config.first_check_count
    passed = transcript.stats["first_check"]["passed"]
    survivors = n - sampled if passed else 0
    eve_measurements = n + survivors if config.eve.active else 0
    assert passed is (config.check_fraction_1 < 0.5)
    assert calls == {
        "make_singlet": n,
        "measure_qubit": 2 * sampled + eve_measurements,
        "apply_pauli": 2 * survivors,
        "bell_measure": survivors,
    }


# ---------------------------------------------------------------------------
# block size cap


def test_config_rejects_blocks_above_max_pairs():
    ProtocolConfig(n_pairs=MAX_PAIRS, check_fraction_1=0.25, check_count_2=0)
    with pytest.raises(ConfigInvalid, match="at most"):
        ProtocolConfig(n_pairs=MAX_PAIRS + 1, check_fraction_1=0.25, check_count_2=0)
    with pytest.raises(ConfigInvalid, match="at most"):
        ProtocolConfig(n_pairs=10**400)  # before any float arithmetic on it
    assert MAX_PAIRS >= 2**20


@pytest.mark.parametrize("attack", ["none", "intercept-z", "intercept-x", "intercept-rand", "substitute"])
def test_transcript_bytes_per_pair_stay_under_the_cap_bound(attack):
    """MAX_PAIRS is derived from LOG_BYTES_PER_PAIR, so no run may write more per pair.

    A tolerant abort threshold lets an attack at probability 1 reach the
    second leg, so Eve adds two eve_touch records to every pair.  Many
    decoys write each decoy's index four more times (second_check_indices,
    both reveals and the stats).  Every integer in a transcript (a pair,
    a seq, a count) grows with n_pairs, so from N=4096 to MAX_PAIRS, 256
    times as many pairs, each gains at most 3 digits.
    """
    n = 4096
    for check_fraction_1, check_count_2 in ((1 / 64, 8), (1 / n, n - 2), (1 / 2, n // 2 - 1)):
        for prob, threshold in ((1.0, 0), (0.02, 0), (1.0, n)):
            config = ProtocolConfig(
                n_pairs=n, check_fraction_1=check_fraction_1, check_count_2=check_count_2,
                seed=3, abort_threshold=threshold,
                eve=EveStrategy.from_name(attack, attack_prob=prob),
            )
            text = run_protocol(config, *fixed_messages(config)).to_jsonl()
            at_max_pairs = len(text.encode("utf-8")) + 3 * len(re.findall(r"[0-9]+", text))
            assert at_max_pairs <= LOG_BYTES_PER_PAIR * n
    assert MAX_PAIRS * LOG_BYTES_PER_PAIR <= MAX_LOG_BYTES


# ---------------------------------------------------------------------------
# event log: bulk records as columns


ATTACKS = ["none", "intercept-z", "intercept-x", "intercept-rand", "substitute"]


def attacked_runs() -> list[Transcript]:
    """Runs under every attack setting, some aborting and some with touches on both legs."""
    runs = []
    for attack in ATTACKS:
        for prob, seed in ((1.0, 1), (0.1, 2), (0.05, 3)):
            config = ProtocolConfig(
                n_pairs=48, check_fraction_1=0.125, check_count_2=3, seed=seed,
                eve=EveStrategy.from_name(attack, attack_prob=prob),
            )
            runs.append(run_protocol(config, *fixed_messages(config)))
    return runs


def canonical_jsonl(events) -> str:
    return "".join(
        json.dumps(e.to_record(), sort_keys=True, separators=(",", ":")) + "\n" for e in events
    )


def test_writer_equals_per_record_json_dumps_under_every_attack():
    runs = attacked_runs()
    legs = {e.payload["leg"] for t in runs for e in t.events if e.kind == "eve_touch"}
    assert legs == {"first", "second"}
    assert {t.completed for t in runs} == {True, False}
    for transcript in runs:
        assert transcript.to_jsonl() == canonical_jsonl(transcript.events)


SELECT_RUNS = attacked_runs()


def selected_by_filter(log: EventLog, table: bytes) -> tuple[bytes, list[int]]:
    """EventLog.select written out over the log's Events: each custody record's
    value from its shape code, the records valued 0xFF left out."""
    kept = []
    for event in log:
        shape = _record_shape(event.seq, event.actor, event.kind, event.payload, TranscriptInvalid)
        if shape is not None and table[shape] != 0xFF:
            kept.append((table[shape], event.payload["pair"]))
    return bytes(value for value, _ in kept), [pair for _, pair in kept]


@settings(max_examples=60, deadline=None)
@given(
    run=st.sampled_from(range(len(SELECT_RUNS))),
    # values that skip (0xFF) and keep mixed, or any bytes at all
    table=st.lists(st.integers(0, 3) | st.just(0xFF), min_size=256, max_size=256).map(bytes)
    | st.binary(min_size=256, max_size=256),
)
def test_select_equals_a_filter_over_the_events(run, table):
    log = SELECT_RUNS[run].events
    assert log.select(table) == selected_by_filter(log, table)


@pytest.mark.parametrize("actor", ["alice", "bob"])
def test_select_with_the_op_table_equals_a_filter_over_the_pauli_events(actor):
    """replay reads each party's ops with one selection through its op table."""
    for transcript in SELECT_RUNS:
        expected = [
            (PauliOp[e.payload["op"]].code, e.payload["pair"])
            for e in transcript.events if e.kind == "pauli" and e.actor == actor
        ]
        values, pairs = transcript.events.select(session_module._OP_TABLE[actor])
        assert list(zip(values, pairs)) == expected


_EITHER, _SLOT, _BASIS, _BIT = ("alice", "bob"), ("C", "M"), ("Z", "X"), (0, 1)

# FORMAT.md's record-kind table: each kind's actors, and for a custody kind
# its payload fields with the values each may take ("int": any integer).
# The payloads of the other kinds are read as they are.
RECORD_KINDS: dict[str, tuple[tuple[str, ...], dict | None]] = {
    "config": (("session",), None),
    "prepare": (("alice",), {"pair": "int"}),
    "send": (("alice",), {"pair": "int", "slot": _SLOT, "to": ("bob",)}),
    "eve_touch": (
        ("eve",),
        {"basis": _BASIS, "leg": ("first", "second"), "outcome": _BIT, "pair": "int", "slot": _SLOT},
    ),
    "receive": (("bob",), {"pair": "int", "slot": _SLOT}),
    "measure": (_EITHER, {"basis": _BASIS, "outcome": _BIT, "pair": "int", "slot": _SLOT}),
    "pauli": (_EITHER, {"op": ("U0", "U1", "U2", "U3"), "pair": "int", "slot": _SLOT}),
    "bell_measure": (
        ("bob",), {"pair": "int", "result": ("psi_minus", "psi_plus", "phi_minus", "phi_plus")}
    ),
    "message": (_EITHER, None),
    "stats": (("session",), None),
    "verdict": (("session",), None),
}


def fits_record_kinds(actor: object, kind: object, payload: object) -> bool:
    """Whether a record fits its row of RECORD_KINDS, compared as JSON text."""
    if not isinstance(kind, str) or kind not in RECORD_KINDS:
        return False
    actors, fields = RECORD_KINDS[kind]
    if actor not in actors or not isinstance(payload, dict):
        return False
    if fields is None:
        return True
    if sorted(payload) != sorted(fields):
        return False
    return all(
        type(payload[name]) is int if values == "int"
        else json.dumps(payload[name]) in map(json.dumps, values)
        for name, values in fields.items()
    )


# FORMAT.md's statistics record: each check's fields and what each holds.
STATS_RECORD = {
    "first_check": {"sampled": "count", "violations": "count", "passed": "bool"},
    "second_check": {
        "decoys": "count", "decoy_indices": "integers", "mismatches": "count", "passed": "bool"
    },
}
_HOLDS = {
    "count": lambda v: type(v) is int and v >= 0,
    "bool": lambda v: type(v) is bool,
    "integers": lambda v: type(v) is list and all(type(i) is int for i in v),
}


def fits_stats_record(payload: object) -> bool:
    """Whether a stats payload has first_check, maybe second_check, and nothing else,
    each with exactly its fields of STATS_RECORD."""
    if not isinstance(payload, dict) or "first_check" not in payload:
        return False
    return all(
        check in STATS_RECORD
        and isinstance(fields, dict)
        and sorted(fields) == sorted(STATS_RECORD[check])
        and all(_HOLDS[form](fields[name]) for name, form in STATS_RECORD[check].items())
        for check, fields in payload.items()
    )


def fits_decoded_message(value: object) -> bool:
    """Whether a decoded message is exactly bits, ASCII 0s and 1s of even length,
    and pad_bits, the int 0 or 1 and no longer than bits."""
    if not isinstance(value, dict) or sorted(value) != ["bits", "pad_bits"]:
        return False
    bits, pad = value["bits"], value["pad_bits"]
    return (
        isinstance(bits, str)
        and re.fullmatch("[01]*", bits) is not None
        and len(bits) % 2 == 0
        and type(pad) is int
        and pad in (0, 1)
        and pad <= len(bits)
    )


def fits_verdict_record(payload: object) -> bool:
    """Whether a verdict payload is FORMAT.md's verdict record: a completed
    outcome with exactly its two decoded messages, or an aborted one with
    exactly a phase where a run can abort and a string reason."""
    if not isinstance(payload, dict):
        return False
    if payload.get("outcome") == "completed":
        return sorted(payload) == ["alice_decoded", "bob_decoded", "outcome"] and all(
            fits_decoded_message(payload[name]) for name in ("alice_decoded", "bob_decoded")
        )
    return (
        payload.get("outcome") == "aborted"
        and sorted(payload) == ["outcome", "phase", "reason"]
        and payload["phase"] in ("first_check", "second_check")
        and isinstance(payload["reason"], str)
    )


def reference_read(text: str) -> list[Event] | None:
    """Event(**json.loads(line)) for every line under FORMAT.md's file rules,
    record-kind table and statistics record, with config first, stats second to
    last and the verdict last, each only there; None if rejected.  A line ends
    at "\\n" alone, and the last may end at the end of the text, which must be
    one UTF-8 can encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return None
    lines = text.split("\n")
    if lines[-1] == "":  # the text ends its last line
        lines.pop()
    events = []
    for lineno, line in enumerate(lines):
        try:
            raw = json.loads(line)
        except ValueError:
            return None
        if not isinstance(raw, dict) or raw.keys() != {"seq", "actor", "kind", "payload"}:
            return None
        if type(raw["seq"]) is not int or raw["seq"] != lineno:
            return None
        if not fits_record_kinds(raw["actor"], raw["kind"], raw["payload"]):
            return None
        if raw["kind"] == "stats" and not fits_stats_record(raw["payload"]):
            return None
        events.append(Event(**raw))
    if not events or events[-1].kind != "verdict":
        return None
    last = len(events) - 1
    places = {"config": {0}, "stats": {last - 1}, "verdict": {last}}
    if any(i not in places.get(e.kind, {i}) for i, e in enumerate(events)):
        return None
    if events[0].kind != "config" or events[-2].kind != "stats":
        return None
    if not fits_verdict_record(events[-1].payload):
        return None
    return events


def assert_reads_like_the_reference(text: str) -> None:
    expected = reference_read(text)
    if expected is None:
        with pytest.raises(TranscriptInvalid):
            Transcript.from_jsonl(text)
        return
    transcript = Transcript.from_jsonl(text)
    assert len(transcript.events) == len(expected)
    assert list(transcript.events) == expected
    assert transcript.events == expected
    assert [transcript.events[i] for i in range(-len(expected), len(expected))] == expected * 2
    assert transcript.to_jsonl() == canonical_jsonl(expected)


@pytest.mark.parametrize("name", GOLDEN_TRANSCRIPTS)
def test_reader_equals_per_line_json_loads_on_golden_transcripts(name):
    assert_reads_like_the_reference((GOLDEN_DIR / name).read_text(encoding="utf-8"))


@settings(max_examples=300, deadline=None)
@given(golden_transcript_variants())
def test_reader_equals_per_line_json_loads_on_variants(text):
    assert_reads_like_the_reference(text)


@st.composite
def golden_stats_variants(draw) -> str:
    """A golden transcript whose stats record has one field of one check deleted or
    replaced, or whose stats record trades places or kinds with another record."""
    text = (GOLDEN_DIR / draw(st.sampled_from(GOLDEN_TRANSCRIPTS))).read_text(encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines()]
    at = next(i for i, r in enumerate(records) if r["kind"] == "stats")
    stats = records[at]["payload"]
    check = draw(st.sampled_from(sorted(stats)))
    fields = dict(stats[check])
    name = draw(st.sampled_from(sorted(fields)))
    move = draw(st.sampled_from(["delete", "replace", "swap", "rename"]))
    if move == "delete":
        del fields[name]
    elif move == "replace":
        fields[name] = draw(json_values | st.integers(-2, 40) | st.lists(st.integers(-2, 9)))
    if move in ("delete", "replace"):
        records[at] = {**records[at], "payload": {**stats, check: fields}}
    elif move == "swap":
        other = draw(st.sampled_from(range(len(records))))
        records[at], records[other] = records[other], records[at]
        for seq, record in enumerate(records):
            record["seq"] = seq
    else:
        records[at] = {**records[at], "kind": draw(st.sampled_from(["config", "verdict"]))}
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


@settings(max_examples=200, deadline=None)
@given(golden_stats_variants())
def test_reader_equals_the_reference_on_stats_variants(text):
    assert_reads_like_the_reference(text)


_BULK = '{"actor":"alice","kind":"send","payload":{"pair":%s,"slot":"C","to":"bob"},"seq":1}'


@pytest.mark.parametrize(
    "line",
    [
        _BULK % "3",
        _BULK % "-3",
        _BULK % "-0",
        _BULK % "007",
        _BULK % "3.0",
        _BULK % "true",
        _BULK % "1e2",
        _BULK % ("9" * 30),
        _BULK % "3 ",
        _BULK.replace('"seq":1', '"seq":01') % "3",
        _BULK.replace('"seq":1', '"seq":1.0') % "3",
        _BULK.replace('"to":"bob"', '"to":"mallory"') % "3",
        _BULK.replace('"slot":"C"', '"slot":"c"') % "3",
        _BULK.replace('"to":"bob"', '"to":"bob","via":"relay"') % "3",
        _BULK.replace('"actor":"alice"', '"actor":"ALICE"') % "3",
        _BULK.replace('"actor":"alice"', '"actor":"bob"') % "3",
        _BULK.replace('"actor":"alice"', '"actor":"al\\u0069ce"') % "3",
        '{"actor":"eve","kind":"eve_touch","payload":{"basis":"Z","leg":"first",'
        '"outcome":1,"pair":2,"slot":"M"},"seq":1}',
        '{"actor":"eve","kind":"eve_touch","payload":{"basis":"Z","leg":"first",'
        '"outcome":2,"pair":2,"slot":"C"},"seq":1}',
        '{"actor":"eve","kind":"eve_touch","payload":{"basis":"Z","leg":"first",'
        '"outcome":true,"pair":2,"slot":"C"},"seq":1}',
        '{"actor":"bob","kind":"bell_measure","payload":{"pair":5,"result":"psi_minus"},"seq":1}',
        '{"actor":"bob","kind":"bell_measure","payload":{"pair":5,"result":"psi_minus"},"seq":2}',
        '{"actor":"bob","kind":"bell_measure","payload":{"pair":5,"result":"psi_minus"},"seq":1}\r',
        '{"actor":"bob","kind":"bell_measure","payload":{"result":"psi_minus","pair":5},"seq":1}',
        '{"seq":1,"actor":"bob","kind":"bell_measure","payload":{"pair":5,"result":"psi_minus"}}',
        '{"actor":"bob","kind":"prepare","payload":{"pair":5},"seq":1}',
        '{"actor":"bob","kind":"prepare","payload":{},"seq":1}',
        "",
        _BULK % ("9" * 18),
        _BULK % ("1" * 19),
        '{"actor":"bob","kind":"pauli","payload":{"op":"U9","pair":5,"slot":"C"},"seq":1}',
        _BULK.replace('"slot":"C"', '"slot":"\u00c7"') % "3",
        _BULK.replace('"to":"bob"', '"to":"b\u2028ob"') % "3",
    ],
)
def test_reader_equals_per_line_json_loads_on_near_canonical_lines(line):
    frame_end = [_STATS % (_FIRST_CHECK, 2), _VERDICT % 3]
    assert_reads_like_the_reference("\n".join([_VALID_HEAD, line, *frame_end]) + "\n")


@pytest.fixture(scope="module")
def chunked_run() -> Transcript:
    """A Session-written transcript of about 10,400 lines: three reader chunks."""
    config = ProtocolConfig(n_pairs=1360, check_fraction_1=0.125, check_count_2=4, seed=1)
    return run_protocol(config, *fixed_messages(config))


_SEND = '{"actor":"alice","kind":"send","payload":{"pair":%s,"slot":"C","to":"bob"},"seq":%d}'
# a line at a seq: canonical, or one edit away from a canonical bulk line
_SEQ_LINES = {
    "canonical": lambda seq: _SEND % (3, seq),
    "18-digit pair": lambda seq: _SEND % ("9" * 18, seq),
    "19-digit pair": lambda seq: _SEND % ("1" * 19, seq),
    "seq one ahead": lambda seq: _SEND % (3, seq + 1),
    "op U9": lambda seq: '{"actor":"alice","kind":"pauli","payload":{"op":"U9","pair":3,"slot":"C"},"seq":%d}' % seq,
    "outcome 2": lambda seq: (
        '{"actor":"bob","kind":"measure","payload":{"basis":"Z","outcome":2,"pair":3,"slot":"C"},"seq":%d}' % seq
    ),
    "non-ASCII letter": lambda seq: _SEND.replace("alice", "alic\u00e9") % (3, seq),
    "u2028": lambda seq: _SEND.replace('"to":"bob"', '"to":"b\u2028ob"') % (3, seq),
}
_CHUNK = records_module._CHUNK
# each chunk's first and last line, and each step in the seq's digit count
_EDIT_SEQS = [_CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, 9, 10, 99, 100, 999, 1000, 9999, 10000]


@pytest.mark.parametrize("seq", _EDIT_SEQS)
@pytest.mark.parametrize("edit", list(_SEQ_LINES))
def test_reader_equals_per_line_json_loads_on_near_canonical_lines_across_chunks(chunked_run, edit, seq):
    lines = chunked_run.to_jsonl().splitlines()
    assert len(lines) > max(_EDIT_SEQS) + 2 and len(lines) > 2 * _CHUNK + 2
    lines[seq] = _SEQ_LINES[edit](seq)
    assert_reads_like_the_reference("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", [*GOLDEN_TRANSCRIPTS, None])
def test_write_jsonl_writes_the_bytes_of_to_jsonl(chunked_run, tmp_path, name):
    """write_jsonl writes a chunk of records at a time: a golden file's bytes, and
    on a run of several chunks the bytes to_jsonl encodes to."""
    transcript = chunked_run if name is None else Transcript.read_jsonl(GOLDEN_DIR / name)
    path = tmp_path / "out.jsonl"
    transcript.write_jsonl(path)
    assert path.read_bytes() == transcript.to_jsonl().encode()
    if name is not None:
        assert path.read_bytes() == (GOLDEN_DIR / name).read_bytes()


_FRAME = [_VALID_HEAD, _BULK % "3", _STATS % (_FIRST_CHECK, 2), _VERDICT % 3]
_IN_BULK = '{"actor":"alice",%s"kind":"send","payload":{"pair":3,"slot":"C","to":"bob"},"seq":1}'
# a file's text, and whether the reference accepts it
_FILE_TEXTS = {
    "LF": ("\n".join(_FRAME) + "\n", True),
    "CRLF": ("\r\n".join(_FRAME) + "\r\n", True),
    "CRLF, no break at the end": ("\r\n".join(_FRAME), True),
    "lone CR": ("\r".join(_FRAME) + "\r", False),
    "VT between records": ("\x0b".join(_FRAME) + "\n", False),
    "FS between records": ("\x1c".join(_FRAME) + "\n", False),
    "raw U+0085 between records": ("\x85".join(_FRAME) + "\n", False),
    "raw U+2028 between records": ("\u2028".join(_FRAME) + "\n", False),
    "CR inside a bulk line": ("\n".join([_FRAME[0], _IN_BULK % "\r", *_FRAME[2:]]) + "\n", True),
    "VT inside a bulk line": ("\n".join([_FRAME[0], _IN_BULK % "\x0b", *_FRAME[2:]]) + "\n", False),
    "FS inside a bulk line": ("\n".join([_FRAME[0], _IN_BULK % "\x1c", *_FRAME[2:]]) + "\n", False),
    "raw U+0085 inside a bulk line": ("\n".join([_FRAME[0], _IN_BULK % "\x85", *_FRAME[2:]]) + "\n", False),
    "raw U+2028 inside a bulk line": ("\n".join([_FRAME[0], _IN_BULK % "\u2028", *_FRAME[2:]]) + "\n", False),
    "tab inside a bulk line": ("\n".join([_FRAME[0], _IN_BULK % "\t", *_FRAME[2:]]) + "\n", True),
    "non-ASCII letter in the verdict": ("\n".join(_FRAME).replace('"x"', '"\u00e9"') + "\n", True),
    "raw U+0085 in the verdict": ("\n".join(_FRAME).replace('"x"', '"\x85"') + "\n", True),
    "raw U+2028 in the verdict": ("\n".join(_FRAME).replace('"x"', '"\u2028"') + "\n", True),
    "LF, no break at the end": ("\n".join(_FRAME), True),
    "non-ASCII letter in a bulk line": ("\n".join(_FRAME).replace('"C"', '"\u00c7"') + "\n", False),
    "empty": ("", False),
    "only a newline": ("\n", False),
    "only CRLF": ("\r\n", False),
}


def assert_file_reads_like_the_reference(path: Path) -> bool:
    """read_jsonl on a file equals reference_read of its decoded bytes (read_text would
    apply universal newlines): record for record, or by both rejecting it.  True if read."""
    expected = reference_read(path.read_bytes().decode("utf-8"))
    if expected is None:
        with pytest.raises(TranscriptInvalid):
            Transcript.read_jsonl(path)
        return False
    transcript = Transcript.read_jsonl(path)
    assert list(transcript.events) == expected
    assert transcript.to_jsonl() == canonical_jsonl(expected)
    return True


@pytest.mark.parametrize("name", list(_FILE_TEXTS))
def test_read_jsonl_equals_the_reference_on_the_file_text(tmp_path, name):
    text, accepted = _FILE_TEXTS[name]
    path = tmp_path / "run.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert assert_file_reads_like_the_reference(path) is accepted


@pytest.mark.parametrize("end", ["\r\n", "\r", "\x1e", "\u2029"])
def test_read_jsonl_equals_the_reference_on_a_several_chunk_file_with_other_line_ends(
    chunked_run, tmp_path, end
):
    """A file whose records CRLF ends is read, its CR being JSON whitespace; one whose
    records another end separates is one line, and refused."""
    lines = chunked_run.to_jsonl().splitlines()
    lines[_CHUNK] = lines[_CHUNK].replace('"actor"', '"actor" ', 1)  # one line the template does not read
    path = tmp_path / "run.jsonl"
    path.write_bytes((end.join(lines) + end).encode("utf-8"))
    assert assert_file_reads_like_the_reference(path) is (end == "\r\n")


# a canonical bulk line of chunked_run, and that line with one byte past ASCII in it
_LINE_307 = b'{"actor":"alice","kind":"prepare","payload":{"pair":306},"seq":307}'
_PAST_ASCII = {
    "0xFF as the pair": _LINE_307.replace(b'"pair":306', b'"pair":\xff'),
    "0xFF as a seq digit": _LINE_307.replace(b'"seq":307', b'"seq":10\xff'),
    "a lone continuation byte in the pair": _LINE_307.replace(b'"pair":306', b'"pair":30\x80'),
}


@pytest.mark.parametrize("edit", list(_PAST_ASCII))
def test_a_byte_past_ascii_in_a_canonical_bulk_line_is_refused_naming_its_line(chunked_run, tmp_path, edit):
    """Every byte past ASCII masks to one no template holds, so such a line goes to
    json.loads, which refuses it as not UTF-8; a raw 0xFF must not read as a digit,
    where "pair":0xFF would read as pair 207 and "seq":10 0xFF as seq 307."""
    data = chunked_run.to_jsonl().encode()
    assert data.count(b"\n" + _LINE_307 + b"\n") == 1
    data = data.replace(_LINE_307, _PAST_ASCII[edit])
    path = tmp_path / "run.jsonl"
    path.write_bytes(data)
    message = r"^line 307: 'utf-8' codec can't decode byte 0x(ff|80) in position \d+: invalid start byte$"
    with pytest.raises(TranscriptInvalid, match=message):
        Transcript.from_jsonl(data)
    with pytest.raises(TranscriptInvalid, match=message):
        Transcript.read_jsonl(path)


_EDGE = 7 * 4096  # a piece edge at every patched piece size


def with_pad(data: bytes, length: int, tail: str = "") -> bytes:
    """data with a field "pad" first in its config record, a string of length bytes:
    "x"s, then tail.  Every later byte moves on by length + 9."""
    pad = b"x" * (length - len(tail.encode())) + tail.encode()
    return data.replace(b'"payload":{', b'"payload":{"pad":"' + pad + b'",', 1)


def piece_inputs(chunked_run) -> dict[str, bytes]:
    """Transcripts to read at several piece sizes, each one the reader accepts."""
    golden = (GOLDEN_DIR / COMPLETED_GOLDEN).read_bytes()
    line_5 = b'{"actor":"alice","kind":"prepare","payload":{"pair":4},"seq":5}'
    respaced_5 = json.dumps(json.loads(line_5)).encode()  # the same record, spaced out
    respaced = golden.replace(line_5, respaced_5)
    line_6 = golden.index(line_5) + len(line_5) + 1  # where line 6 starts, in golden
    pad_at = golden.index(b'"payload":{') + len(b'"payload":{"pad":"')  # where a pad starts
    inputs = {
        **{name: (GOLDEN_DIR / name).read_bytes() for name in GOLDEN_TRANSCRIPTS},
        "several chunks": chunked_run.to_jsonl().encode(),
        "CRLF": golden.replace(b"\n", b"\r\n"),
        "no final newline": golden[:-1],
        "a line longer than a piece": with_pad(golden, 5000),
        "a piece ends a line": with_pad(golden, _EDGE - line_6 - 9),
        "a piece cuts a canonical line": with_pad(golden, _EDGE - line_6 - 9 + 30),
        "a piece cuts a respaced line": with_pad(respaced, _EDGE - line_6 - 9 + 30),
        "a piece cuts a character": with_pad(golden, _EDGE + 1 - pad_at, "\u00e9"),
    }
    assert inputs["a piece ends a line"][_EDGE - 1] == 0x0A
    for name, line in [("canonical", line_5), ("respaced", respaced_5)]:
        data = inputs[f"a piece cuts a {name} line"]
        assert data[data.rindex(b"\n", 0, _EDGE) + 1 : data.index(b"\n", _EDGE)] == line
    assert inputs["a piece cuts a character"][_EDGE - 1 : _EDGE + 1] == "\u00e9".encode()
    return inputs


@pytest.mark.parametrize("name", [
    *GOLDEN_TRANSCRIPTS, "several chunks", "CRLF", "no final newline", "a line longer than a piece",
    "a piece ends a line", "a piece cuts a canonical line", "a piece cuts a respaced line", "a piece cuts a character",
])
def test_the_piece_size_changes_no_read(chunked_run, tmp_path, monkeypatch, name):
    """read_jsonl and from_jsonl give at every piece size the log they give at the
    default, and read_jsonl asks no read for more than a piece and reads the file once."""
    data = piece_inputs(chunked_run)[name]
    path = tmp_path / "run.jsonl"
    path.write_bytes(data)
    expected = Transcript.from_jsonl(data)
    reads = count_reads(monkeypatch)
    for piece in (None, 1, 2, 7, 64, 4096):
        if piece is not None:
            monkeypatch.setattr(session_module, "_PIECE", piece)
        reads.clear()
        assert Transcript.read_jsonl(path) == expected
        assert Transcript.from_jsonl(data) == expected
        assert all(0 < asked <= session_module._PIECE for asked, _ in reads)
        assert bytes_read(reads) == len(data)


def reference_custody(events, holder: dict | None = None) -> list[str]:
    """FORMAT.md's custody table, applied one record at a time, with the code's messages.

    holder, if given, is the map (pair, slot) -> holder that the records update.
    """
    holder = {} if holder is None else holder
    out = []
    for e in events:
        kind, actor, payload, seq = e.kind, e.actor, e.payload, e.seq
        if kind == "prepare":
            pair = payload["pair"]
            if actor != "alice":
                out.append(f"seq {seq}: pair {pair} prepared by {actor}")
            now = holder.get((pair, "C")), holder.get((pair, "M"))
            if now != (None, None):
                out.append(f"seq {seq}: pair {pair} prepared again, held by {now[0]} and {now[1]}")
            else:
                holder[pair, "C"] = holder[pair, "M"] = actor
            continue
        rule = {
            "send": (actor, "channel"),
            "eve_touch": ("channel", None),
            "receive": ("channel", actor),
            "pauli": (actor, None),
            "measure": (actor, None),
            "bell_measure": (actor, "consumed"),
        }.get(kind)
        if rule is None:
            continue
        expect, to = rule
        slots = ("C", "M") if kind == "bell_measure" else (payload["slot"],)
        for slot in slots:
            actual = holder.get((payload["pair"], slot))
            if actual != expect:
                out.append(
                    f"seq {seq}: {kind} on pair {payload['pair']} slot {slot} "
                    f"held by {actual}, expected {expect}"
                )
            elif to is not None:
                holder[payload["pair"], slot] = to
    return out


# The protocol's custody steps in order, each as (kind, actor, extra payload).
CUSTODY_STEPS = [
    ("prepare", "alice", {}),
    ("send", "alice", {"slot": "C", "to": "bob"}),
    ("eve_touch", "eve", {"basis": "X", "leg": "first", "outcome": 1, "slot": "C"}),
    ("receive", "bob", {"slot": "C"}),
    ("measure", "bob", {"basis": "Z", "outcome": 0, "slot": "C"}),
    ("pauli", "alice", {"op": "U2", "slot": "M"}),
    ("send", "alice", {"slot": "M", "to": "bob"}),
    ("receive", "bob", {"slot": "M"}),
    ("pauli", "bob", {"op": "U1", "slot": "C"}),
    ("bell_measure", "bob", {"result": "phi_plus"}),
]


# Every custody record shape of RECORD_KINDS, as (actor, kind, payload without the pair).
CUSTODY_SHAPES = [
    (actor, kind, dict(zip(names, values)))
    for kind, (actors, fields) in RECORD_KINDS.items()
    if fields is not None
    for actor in actors
    for names in ([name for name in fields if name != "pair"],)
    for values in itertools.product(*(fields[name] for name in names))
]


def test_ledger_steps_every_reachable_custody_state_like_the_reference():
    """Breadth first from an unprepared pair, every custody state (the holders
    of the pair's C and M photons) that a record prefix reaches, and from each
    one record of every shape: the ledger gives the reference's messages and
    holders after."""
    assert len(CUSTODY_SHAPES) == 57
    pair = 5
    prefixes = {(None, None): []}  # custody state -> the first record prefix found to reach it
    frontier = [[]]
    steps = 0
    while frontier:
        reached = []
        for prefix in frontier:
            for actor, kind, fields in CUSTODY_SHAPES:
                records = [*prefix, (actor, kind, {"pair": pair, **fields})]
                holder: dict = {}
                expected = reference_custody([Event(i, *r) for i, r in enumerate(records)], holder)
                custody = bytearray(pair + 1)  # a state for every pair up to this one
                shapes = bytes(
                    _record_shape(i, *r, TranscriptInvalid) for i, r in enumerate(records)
                )
                found = _apply_custody(custody, 0, shapes, [pair] * len(records))
                assert [message for _, message in found] == expected
                assert all(message.startswith(f"seq {seq}: ") for seq, message in found)
                after = holder.get((pair, "C")), holder.get((pair, "M"))
                assert _STATE_HOLDERS[custody[pair]] == after
                steps += 1
                if after not in prefixes:
                    prefixes[after] = records
                    reached.append(records)
        frontier = reached
    assert steps == 57 * len(prefixes)
    assert len(prefixes) == 17


@st.composite
def custody_batches(draw) -> list[list[tuple[str, str, dict]]]:
    """Batches of custody records in protocol order, over pair lists that may repeat photons.

    A batch runs one step over a list of pairs: all of 0..n-1 in some
    order, so that long runs of one rule over distinct photons occur, or
    with some damage: a step skipped or repeated, pairs repeated or
    dropped, or an actor swapped.  Each example draws how often damage
    happens, so that some run clean through the last steps.  Off-schema
    damage, which the log rejects, has a rate of its own per example: an
    actor outside the kind's row, or a payload field outside the kind's
    shape.  Some batches interleave two consecutive steps pair by pair, as
    Bob's Bell phase records pauli then bell_measure for each pair in one
    call; these sometimes repeat a pair or swap the actor of a single
    record, so a violation can fall in the middle of a mixed-rule call.
    """
    n = draw(st.integers(1, 24))
    every = list(range(n))
    level = draw(st.sampled_from([0, 5, 20, 60]))  # percent chance of each damage
    off_level = draw(st.sampled_from([0, 1, 5, 20]))  # the same, for off-schema damage

    def damaged(level=level) -> bool:
        return draw(st.integers(0, 99)) >= 100 - level  # shrinks towards no damage

    def off_schema() -> bool:
        return damaged(off_level)

    batches = []
    k = 0
    while k < len(CUSTODY_STEPS):
        width = 2 if k + 1 < len(CUSTODY_STEPS) and draw(st.integers(0, 2)) == 0 else 1
        steps = CUSTODY_STEPS[k : k + width]
        k += width
        for _ in range(draw(st.sampled_from([0, 2])) if damaged() else 1):
            pairs = draw(
                st.lists(st.integers(0, n), max_size=2 * n)
                if damaged()
                else st.sampled_from([every, every[::-1]]) | st.permutations(every)
            )
            per_pair = []
            for kind, actor, extra in steps:
                who = draw(st.sampled_from(RECORD_KINDS[kind][0])) if damaged() else actor
                if off_schema():
                    who = draw(st.sampled_from(["alice", "bob", "eve", "mallory"]))
                payload = dict(extra)
                if off_schema():
                    payload["note"] = "off-shape"
                per_pair.append((who, kind, payload))
            if width == 2 and pairs and draw(st.booleans()):
                at = draw(st.integers(0, len(pairs) - 1))
                pairs = pairs[: at + 1] + pairs[at:]
            batch = [
                (who, kind, {"pair": p, **payload}) for p in pairs for who, kind, payload in per_pair
            ]
            if width == 2 and batch and draw(st.booleans()):
                i = draw(st.integers(0, len(batch) - 1))
                who, kind, payload = batch[i]
                swapped = "bob" if who == "alice" else "alice"
                if swapped in RECORD_KINDS[kind][0] or off_schema():
                    batch[i] = (swapped, kind, payload)
            batches.append(batch)
    return batches


@settings(max_examples=300, deadline=None)
@given(custody_batches())
def test_batch_ledger_matches_a_per_record_reference(batches):
    records = [r for batch in batches for r in batch]
    events = framed(records)  # the records are seqs 1 to len(records)
    off = next((seq for seq, r in enumerate(records, 1) if not fits_record_kinds(*r)), None)
    text = canonical_jsonl(events)
    if off is None:
        expected = reference_custody(events)
        assert audit_custody(Transcript(events=events)) == expected
        assert audit_custody(Transcript.from_jsonl(text)) == expected
    else:
        # both ways into a log reject the first record off the schema
        expected = reference_custody(events[:off])
        with pytest.raises(TranscriptInvalid, match=f"^seq {off}: "):
            Transcript(events=events)
        with pytest.raises(TranscriptInvalid, match=f"^seq {off}: "):
            Transcript.from_jsonl(text)
    # a recorder taking the same records a batch at a time, after the config
    # record, stops at the first violation, or at the first record off the
    # schema if that comes earlier
    recorder = _Recorder(n_pairs=25)
    recorder.emit(events[0].actor, events[0].kind, events[0].payload)
    try:
        for batch in batches:
            if all(fits_record_kinds(*r) for r in batch):
                shapes = bytes(_record_shape(0, *r, TranscriptInvalid) for r in batch)
                recorder.record(shapes, [r[2]["pair"] for r in batch])
            else:
                for r in batch:
                    recorder.emit(*r)
    except InternalFault as fault:
        if expected:
            assert str(fault) == expected[0]
            assert expected[0].startswith(f"seq {len(recorder.events)}:")
        else:
            assert len(recorder.events) == off
            assert str(fault).startswith(f"seq {off}: ")
    else:
        assert expected == [] and off is None
    assert recorder.events == events[: len(recorder.events)]


def test_transcript_from_an_event_list_is_an_equal_event_log():
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1, seed=7)
    run = run_protocol(config, *fixed_messages(config))
    events = list(run.events)
    rebuilt = Transcript(events=events)
    assert isinstance(rebuilt.events, EventLog)
    assert rebuilt.events == events == run.events
    assert rebuilt == run
    assert rebuilt.to_jsonl() == run.to_jsonl()
    assert [e.seq for e in rebuilt.events] == list(range(len(events)))
    assert rebuilt.events[2:5] == events[2:5]
    assert rebuilt.events != events[:-1]
    with pytest.raises(IndexError):
        rebuilt.events[len(events)]
    with pytest.raises(AttributeError):
        rebuilt.events = []
    # a record with a seq other than its position, or off its kind's shape, is rejected
    with pytest.raises(TranscriptInvalid, match="expected 0, got 5"):
        Transcript(events=[Event(5, "alice", "prepare", {"pair": 0})])
    with pytest.raises(TranscriptInvalid, match="seq 0: prepare record with pair '0' outside"):
        Transcript(events=[Event(0, "alice", "prepare", {"pair": "0"})])


@st.composite
def mixed_records(draw) -> list:
    """Records in a random mix of Events and custody records: maybe a config
    first, then message Events between runs of custody steps, each run
    advancing one of a few pairs (numbered from 0, as Event indices are)
    through the protocol's steps, and maybe stats and a verdict last.  Each
    item is a list of records (actor, kind, payload): one Event, or a run."""
    n = draw(st.integers(1, 4))
    done = [0] * n  # custody steps taken by each pair
    items: list = []
    if draw(st.booleans()):
        items.append([("session", "config", {"n_pairs": n})])
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.booleans()):
            items.append([(draw(st.sampled_from(["alice", "bob"])), "message", {"n": len(items)})])
            continue
        pair, k = draw(st.integers(0, n - 1)), draw(st.integers(1, 4))
        steps = CUSTODY_STEPS[done[pair] : done[pair] + k]
        done[pair] += len(steps)
        if steps:
            items.append([(actor, kind, {"pair": pair, **extra}) for kind, actor, extra in steps])
    if draw(st.booleans()):
        stats = {"first_check": {"sampled": 1, "violations": 0, "passed": True}}
        items += [[("session", "stats", stats)], [("session", "verdict", {"outcome": "aborted"})]]
    return items


@settings(max_examples=150, deadline=None)
@given(items=mixed_records(), data=st.data())
def test_a_log_of_events_and_bulk_records_reads_as_its_event_list(items, data):
    events = [Event(seq, *r) for seq, r in enumerate(r for item in items for r in item)]
    recorder = _Recorder(n_pairs=4)
    for item in items:
        if item[0][1] in _BULK_SCHEMA and data.draw(st.booleans()):
            shapes = bytes(_record_shape(0, *r, TranscriptInvalid) for r in item)
            recorder.record(shapes, [r[2]["pair"] for r in item])
        else:
            for r in item:
                recorder.emit(*r)
    n = len(events)
    for log in (recorder.events, EventLog(events)):
        assert len(log) == n
        assert list(log) == events
        assert [log[i] for i in range(-n, n)] == events * 2
        for _ in range(3):
            index = data.draw(st.slices(n + 2))
            assert log[index] == events[index]
        assert list(reversed(log)) == events[::-1]
        assert log == events and not log != events
        assert log != events[:-1] or n == 0
        chunk = data.draw(st.integers(1, n + 1))
        with mock.patch.object(records_module, "_CHUNK", chunk):
            assert list(log.texts()) == [canonical_jsonl(events[i : i + chunk]) for i in range(0, n, chunk)]
        custody = bytearray(max(n, 4))  # pairs are below the recorder's 4, Event indices below len(log)
        assert reference_custody(log) == [] == _apply_custody(custody, 0, log._shapes, log._pairs)
    assert recorder.events == EventLog(events)


decoded_messages = st.lists(st.integers(0, 1), max_size=12).map(MessageBits.from_bits)
verdicts = st.one_of(
    st.builds(Aborted, st.sampled_from([Phase.FIRST_CHECK, Phase.SECOND_CHECK]), st.text(max_size=8)),
    st.builds(Completed, decoded_messages, decoded_messages),
)


@settings(max_examples=150, deadline=None)
@given(items=mixed_records(), verdict=verdicts)
def test_a_built_transcript_survives_its_own_round_trip(items, verdict):
    """mixed_records' records, framed anew with one of FORMAT.md's verdict record:
    the transcript built from them has that verdict, and it reads back from its
    own lines equal, verdict included."""
    frame = {"config", "stats", "verdict"}
    records = [r for item in items for r in item if r[1] not in frame]
    transcript = Transcript(framed(records, _verdict_payload(verdict)))
    assert transcript.verdict == verdict
    back = Transcript.from_jsonl(transcript.to_jsonl())
    assert back == transcript
    assert back.verdict == transcript.verdict


def completed_run() -> Transcript:
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1, seed=7)
    transcript = run_protocol(config, *fixed_messages(config))
    assert transcript.completed
    return transcript


def test_a_transcripts_verdict_is_the_one_its_log_records():
    """No verdict is given beside the records, so a completed run's log cannot be
    built into a transcript that says it aborted while its copy read back completes."""
    run = completed_run()
    with pytest.raises(TypeError):
        Transcript(run.events, verdict=Aborted(Phase.FIRST_CHECK, "synthetic"))
    rebuilt = Transcript(list(run.events))
    back = Transcript.from_jsonl(rebuilt.to_jsonl())
    assert rebuilt.completed and back.completed
    assert rebuilt.verdict == back.verdict == run.verdict


def without_verdict(events: list[Event]) -> list[Event]:
    """The records before the stats record, which may stand only before a verdict."""
    return events[:-2]


def with_pad_bits_true(events: list[Event]) -> list[Event]:
    *head, last = events
    decoded = {**last.payload["alice_decoded"], "pad_bits": True}
    return [*head, Event(last.seq, last.actor, last.kind, {**last.payload, "alice_decoded": decoded})]


@pytest.mark.parametrize(
    "damage, message",
    [
        (without_verdict, "transcript is truncated: no verdict record"),
        (with_pad_bits_true, "pad_bits True is not the integer 0 or 1"),
    ],
    ids=["no verdict record", "pad_bits true"],
)
def test_records_the_reader_refuses_build_no_transcript(damage, message):
    """Records whose lines the reader refuses raise TranscriptInvalid when a
    transcript is built from them, with the reader's message."""
    events = damage(list(completed_run().events))
    with pytest.raises(TranscriptInvalid, match=f"^{re.escape(message)}$"):
        Transcript.from_jsonl(canonical_jsonl(events))
    with pytest.raises(TranscriptInvalid, match=f"^{re.escape(message)}$"):
        Transcript(events)


def test_a_session_whose_log_breaks_the_frame_builds_no_transcript():
    """The Session's own log meets the frame when its transcript is built, as a read one does."""
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1, seed=7)
    session = Session(config, *fixed_messages(config))
    session._rec.emit("session", "stats", FRAME_STATS)
    message = "seq 1: stats record not directly before the verdict, the last record"
    with pytest.raises(TranscriptInvalid, match=f"^{re.escape(message)}$"):
        session.run()


@pytest.mark.parametrize(
    "message_type, indices, codes, message",
    [
        ("greeting", [], b"", "unknown message type 'greeting'"),
        ("check_indices", [1, 1], b"", "message indices must be strictly increasing"),
        ("basis_announce", [2, 0], b"\0\1", "message indices must be strictly increasing"),
        ("check_indices", [0, 4], b"", "message index 4 outside pair range"),
        ("outcome_announce", [-1], b"\0", "message index -1 outside pair range"),
        ("bell_results", [0, 1, 3], b"\0\4\2", "bell_results message with a code outside 0..3"),
        ("basis_announce", [1], b"\2", "basis_announce message with a code outside 0..1"),
        ("second_check_reveal", [0, 2], b"\1", "second_check_reveal message needs 2 codes, not 1"),
        ("check_indices", [0, 2], b"\1\0", "check_indices message needs 0 codes, not 2"),
        ("check_verdict", [0], b"", "check_verdict message takes no indices"),
    ],
    ids=[
        "unknown type", "repeated index", "decreasing entries", "index past the pairs", "negative index",
        "code past the spelling", "code past two bases", "a code short", "codes on bare indices", "indices on no field",
    ],
)
def test_the_recorder_puts_no_message_off_the_wire_table_on_the_wire(message_type, indices, codes, message):
    recorder = _Recorder(n_pairs=4)
    with pytest.raises(InternalFault, match=f"^{re.escape(message)}$"):
        recorder.send("bob", message_type, indices, codes)
    assert len(recorder.events) == 0
    recorder.send("bob", "check_indices", [0, 3])  # the wire is still numbered from 0
    assert recorder.events[0].payload["msg_seq"] == 0


@pytest.mark.parametrize(
    "message_type, indices, codes, bad",
    [
        ("check_indices", [0, 4, 5], b"", 4),
        ("check_indices", [1, 2, 3, 6, 9], b"", 6),
        ("bell_results", [-3, -1, 2], b"\0\3\1", -3),
        ("second_check_reveal", [2, 3, 7, 8], b"\0\1\2\3", 7),
    ],
)
def test_the_recorder_names_the_first_index_out_of_range(message_type, indices, codes, bad):
    """The check that stops a message names the first index, in message order, outside the pairs."""
    recorder = _Recorder(n_pairs=4)
    with pytest.raises(InternalFault, match=f"^message index {bad} outside pair range$"):
        recorder.send("bob", message_type, indices, codes)
    assert len(recorder.events) == 0


def test_the_recorder_spells_each_entry_from_its_code():
    """Each spelled field's entry is [index, the wire table's spelling of its code]."""
    recorder = _Recorder(n_pairs=4)
    recorder.send("bob", "bell_results", [0, 1, 2, 3], bytearray([3, 0, 2, 1]))
    recorder.send("bob", "basis_announce", [1, 3], b"\1\0")
    recorder.send("alice", "check_verdict", passed=True, violations=0)
    assert [event.payload for event in recorder.events] == [
        {"msg_seq": 0, "sender": "bob", "type": "bell_results",
         "results": [[0, "phi_plus"], [1, "psi_minus"], [2, "phi_minus"], [3, "psi_plus"]]},
        {"msg_seq": 1, "sender": "bob", "type": "basis_announce", "bases": [[1, "X"], [3, "Z"]]},
        {"msg_seq": 2, "sender": "alice", "type": "check_verdict", "passed": True, "violations": 0},
    ]


@pytest.mark.parametrize(
    "pairs, at",
    [([1, -1, 2], 1), ([0, 3, 4, -2], 2), ([2, 10**17], 1), (range(5), 4), (range(-1, 3), 0)],
    ids=["pair -1", "pair n_pairs", "pair 10**17", "range(n_pairs + 1)", "range from -1"],
)
def test_the_recorder_names_the_first_custody_pair_out_of_range(pairs, at):
    """A bulk record on a pair outside 0..n_pairs-1 stops its whole batch,
    naming the first such pair in batch order, before any record enters."""
    recorder = _Recorder(n_pairs=4)
    recorder.emit("session", "config", {})
    recorder.record(bytes((_SHAPE_ID["prepare", "alice"],)) * 4, range(4))
    before = len(recorder.events)
    message = f"seq {before + at}: custody record on pair {pairs[at]} outside pair range"
    with pytest.raises(InternalFault, match=f"^{re.escape(message)}$"):
        recorder.record(bytes((_SHAPE_ID["send", "alice", "C", "bob"],)) * len(pairs), pairs)
    assert len(recorder.events) == before


@pytest.mark.parametrize(
    "shapes, ends",
    [
        (_SHAPE_ID["send", "alice", "C", "bob"], [0, 5]),
        (_SHAPE_ID["send", "alice", "C", "bob"], [-1, 3]),
        (bytes((_SHAPE_ID["send", "alice", "C", "bob"],)) * 4, [0, 1, 2, 5]),
        (bytes((_SHAPE_ID["pauli", "bob", "U0", "C"], _SHAPE_ID["bell_measure", "bob", "phi_plus"])) * 3,
         [1, 2, 3, 5]),
        (_SHAPE_ID["send", "alice", "C", "bob"], [2, 1]),
        (bytes((_SHAPE_ID["send", "alice", "C", "bob"],)) * 3, [0, 3, 2, 4]),
        (_SHAPE_ID["send", "alice", "C", "bob"], [0, 1, 2]),
        (b"", []),
    ],
    ids=["one run past n_pairs", "one run from -1", "runs past n_pairs", "two records a pair",
         "a run that falls", "runs that overlap", "an odd number of ends", "no ends"],
)
def test_runs_outside_the_pairs_or_out_of_order_are_refused_whole(shapes, ends):
    """A batch of runs checks its pairs by the runs' ends alone, in O(runs):
    ends that do not ascend within 0..n_pairs stop the batch before any
    record enters or any photon moves."""
    recorder = _Recorder(n_pairs=4)
    recorder.emit("session", "config", {})
    recorder.record_runs(_SHAPE_ID["prepare", "alice"], [0, 4])
    message = f"seq 5: custody runs {list(ends)} do not ascend within 0..4"
    with pytest.raises(InternalFault, match=f"^{re.escape(message)}$"):
        recorder.record_runs(shapes, ends)
    assert len(recorder.events) == 5 and recorder._custody == bytes((_STATE["alice", "alice"],)) * 4


@pytest.mark.parametrize("path", ["record", "record_runs"])
def test_an_index_error_on_pairs_in_range_is_not_taken_for_a_pair_out_of_range(monkeypatch, path):
    """An IndexError from the custody step, per record or in picking a batch's
    run table, shows as itself and is not taken for a pair out of range."""
    def faulty(*args):
        raise IndexError("not a pair")

    monkeypatch.setattr(records_module, "_apply_custody", faulty)
    monkeypatch.setattr(records_module, "_run_step", faulty)
    recorder = _Recorder(n_pairs=4)
    prepare = _SHAPE_ID["prepare", "alice"]
    with pytest.raises(IndexError, match="^not a pair$"):
        if path == "record":
            recorder.record(bytes((prepare,)) * 4, [0, 1, 2, 3])
        else:
            recorder.record_runs(bytes((prepare,)) * 4, [0, 4])
    assert len(recorder.events) == 0


def replayed_ledger(log: EventLog, n_pairs: int) -> bytearray:
    """The custody states that a log's bulk records leave, replayed from unprepared pairs."""
    custody = bytearray(n_pairs)
    bulk = [(shape, pair) for shape, pair in zip(log._shapes, log._pairs) if shape != _EVENT]
    assert _apply_custody(custody, 0, bytes(s for s, _ in bulk), [p for _, p in bulk]) == []
    return custody


def test_a_batch_refused_for_a_pair_out_of_range_moves_no_custody():
    """Prepare pairs 0-3; a send on pairs 0, 1 and 5 is refused whole, so
    pair 0's C photon is still alice's to send."""
    send = _SHAPE_ID["send", "alice", "C", "bob"]
    recorder = _Recorder(n_pairs=4)
    recorder.record_runs(_SHAPE_ID["prepare", "alice"], [0, 4])
    before = list(recorder.events)
    with pytest.raises(InternalFault, match="^seq 6: custody record on pair 5 outside pair range$"):
        recorder.record(bytes((send,)) * 3, [0, 1, 5])
    assert list(recorder.events) == before
    assert recorder._custody == replayed_ledger(recorder.events, 4)
    recorder.record(bytes((send,)), [0])
    assert len(recorder.events) == 5 and recorder._custody == replayed_ledger(recorder.events, 4)


@pytest.mark.parametrize("path", ["record", "record_runs"])
def test_a_violation_mid_batch_leaves_the_ledger_at_the_replay_of_the_log(path):
    """Pairs 0-3 prepared, only 0 and 1 sent: Bob's receive on all four
    admits pairs 0 and 1, stops at pair 2, and moves no photon after."""
    recorder = _Recorder(n_pairs=4)
    recorder.record_runs(_SHAPE_ID["prepare", "alice"], [0, 4])
    recorder.record_runs(_SHAPE_ID["send", "alice", "C", "bob"], [0, 2])
    receive = _SHAPE_ID["receive", "bob", "C"]
    message = "seq 8: receive on pair 2 slot C held by alice, expected channel"
    with pytest.raises(InternalFault, match=f"^{message}$"):
        if path == "record":
            recorder.record(bytes((receive,)) * 4, range(4))
        else:
            recorder.record_runs(receive, [0, 4])
    assert len(recorder.events) == 8
    assert recorder._custody == replayed_ledger(recorder.events, 4)
    assert [_STATE_HOLDERS[state] for state in recorder._custody] == [
        ("bob", "alice"), ("bob", "alice"), ("alice", "alice"), ("alice", "alice")
    ]


def test_every_step_table_entry_is_the_custody_rule():
    """Each shape's table, shared by its class, gives the state _custody_rule
    gives for that very shape, or 0xFF where the record breaks a rule; 0xFF
    and every code past the states map to 0xFF.  Bob's two-record table
    gives a state only where his pauli on either photon, then his
    bell_measure, step through the per-record loop to that state with no
    violation."""
    for shape in range(_EVENT):
        for state, holders in enumerate(_STATE_HOLDERS):
            after, broken = _custody_rule(holders, shape)
            assert _SHAPE_STEP[shape][state] == (0xFF if broken else _STATE[after])
        assert _SHAPE_STEP[shape][len(_STATE_HOLDERS):] == b"\xff" * (256 - len(_STATE_HOLDERS))
    assert _SHAPE_STEP[_EVENT] == bytes(range(256))
    assert _RECORD_STEP == tuple(tuple(step[: len(_STATE_HOLDERS)]) for step in _SHAPE_STEP)
    for state in range(len(_STATE_HOLDERS)):
        results = set()
        for pauli, bell in itertools.product(_BOB_PAULIS, _BELLS):
            custody = bytearray((state,))
            results.add(None if _apply_custody(custody, 0, bytes((pauli, bell)), [0, 0]) else custody[0])
        assert _BELL_STEP[state] == (results.pop() if len(results) == 1 and None not in results else 0xFF)
    assert _BELL_STEP[len(_STATE_HOLDERS):] == b"\xff" * (256 - len(_STATE_HOLDERS))


def hand_shape_tables() -> dict[str, object]:
    """session.py's shape tables spelled out field by field, as they were written
    by hand before shape_codes: each table's shape codes, by value, in a list."""
    ops, sides, bells = tuple(PauliOp), (QubitSlot.C, QubitSlot.M), [b.name.lower() for b in BellState]
    draws = [(basis.value, outcome) for basis in _BASES for outcome in (0, 1)]  # by basis code * 2 + outcome
    return {
        "_PREPARE_SHAPE": _SHAPE_ID["prepare", "alice"],
        "_ALICE_PAULI_SHAPE": [_SHAPE_ID["pauli", "alice", op.name, "M"] for op in ops],
        "_BOB_PAULI_SHAPE": [_SHAPE_ID["pauli", "bob", op.name, slot.value] for op in ops for slot in sides],
        "_BELL_SHAPE": [_SHAPE_ID["bell_measure", "bob", name] for name in bells],
        "_MEASURE_SHAPE": {
            (actor, slot): [_SHAPE_ID["measure", actor, basis, outcome, slot.value] for basis, outcome in draws]
            for actor in ("alice", "bob")
            for slot in sides
        },
        "_LEG_SHAPES": {
            leg: (
                _SHAPE_ID["send", "alice", slot, "bob"],
                [_SHAPE_ID["eve_touch", "eve", basis, leg.value, outcome, slot] for basis, outcome in draws],
                _SHAPE_ID["receive", "bob", slot],
            )
            for leg in Leg
            for slot in (leg_slot(leg).value,)
        },
    }


def test_shape_codes_give_the_hand_spelled_shapes_and_one_class_a_table():
    """Each value of a table session.py builds from shape_codes maps to the shape
    its fields spell, every other byte to 0xFF; the shapes of a table a batch of
    one record a pair takes form one custody class, and Bob's pauli and
    bell_measure tables compose to his two-record step, so a valid run never
    falls back to the per-record loop."""
    hand = hand_shape_tables()

    def check(table: bytes, shapes: list[int], one_class: bool = True) -> None:
        assert table == bytes(shapes) + b"\xff" * (256 - len(shapes))
        if one_class:
            assert _run_step(bytes(shapes), 1) == _SHAPE_STEP[shapes[0]]

    assert session_module._PREPARE_SHAPE == hand["_PREPARE_SHAPE"]
    check(session_module._ALICE_PAULI_SHAPE, hand["_ALICE_PAULI_SHAPE"])
    check(session_module._BOB_PAULI_SHAPE, hand["_BOB_PAULI_SHAPE"], one_class=False)
    check(session_module._BELL_SHAPE, hand["_BELL_SHAPE"])
    bob = itertools.product(hand["_BOB_PAULI_SHAPE"], hand["_BELL_SHAPE"])
    assert _run_step(bytes(itertools.chain.from_iterable(bob)), 2) == _BELL_STEP
    assert session_module._MEASURE_SHAPE.keys() == hand["_MEASURE_SHAPE"].keys()
    for key, shapes in hand["_MEASURE_SHAPE"].items():
        check(session_module._MEASURE_SHAPE[key], shapes)
    assert session_module._LEG_SHAPES.keys() == hand["_LEG_SHAPES"].keys()
    for leg, (send, touches, receive) in hand["_LEG_SHAPES"].items():
        table = session_module._LEG_SHAPES[leg]
        assert (table[0], table[2]) == (send, receive)
        check(table[1], touches)
    with pytest.raises(ValueError, match="^send records have no field sloot to fix$"):
        shape_codes("send", "alice", sloot="C", to="bob")


def test_run_step_takes_only_a_batch_of_one_class_or_bobs_pairs():
    """A batch has a run table where its records are of one class, or Bob's
    pauli then bell_measure on every pair; any other goes to the per-record loop."""
    alice_pauli = bytes(_SHAPE_ID["pauli", "alice", op, "M"] for op in ("U0", "U1", "U2", "U3"))
    bob = bytes((_SHAPE_ID["pauli", "bob", "U1", "M"], _SHAPE_ID["bell_measure", "bob", "psi_plus"]))
    assert _run_step(alice_pauli, 1) == _SHAPE_STEP[alice_pauli[0]]
    assert _run_step(alice_pauli + bytes((_SHAPE_ID["pauli", "alice", "U0", "C"],)), 1) is None
    assert _run_step(bob * 3, 2) == _BELL_STEP
    assert _run_step(bob[::-1] * 3, 2) is None
    assert _run_step(bob * 2, 4) is None
    assert _run_step(bob * 2, 0) is None


# Every custody class's shape codes, and Bob's pauli then bell_measure as a two-record class.
RUN_CLASSES = [(shapes,) for shapes in _CLASS_SHAPES.values()] + [(_BOB_PAULIS, _BELLS)]


@st.composite
def run_batches(draw):
    """A ledger over all 25 states, and a batch of runs on it: ascending,
    disjoint runs, with each pair's records drawn from one run class, or
    now and then from any shape, which _run_step refuses."""
    n = draw(st.integers(1, 12))
    start = bytearray(draw(st.lists(st.integers(0, len(_STATE_HOLDERS) - 1), min_size=n, max_size=n)))
    ends = sorted(draw(st.lists(st.integers(0, n), min_size=1, max_size=8)))
    ends = ends[: len(ends) & ~1] or [0, n]
    members = draw(st.sampled_from(RUN_CLASSES))
    any_shape = draw(st.integers(0, 9)) == 0
    if any_shape:
        members = (bytes(range(_EVENT)),) * len(members)
    count = sum(b - a for a, b in zip(ends[0::2], ends[1::2]))
    shapes = bytes(draw(st.sampled_from(m)) for _ in range(count) for m in members)
    if len(members) == 1 and count and draw(st.booleans()):
        shapes = bytes((shapes[0],)) * count  # one shape for every record
    return start, ends, shapes, len(members), any_shape


@settings(max_examples=400, deadline=None)
@given(run_batches())
def test_the_run_step_equals_the_per_record_step(batch):
    """From any states, a batch of runs leaves the ledger, the log and the
    fault that the per-record loop and reference_custody give the same
    records, and every batch of one run class has a run table."""
    start, ends, shapes, width, members_any = batch
    pairs = [p for a, b in zip(ends[0::2], ends[1::2]) for p in range(a, b) for _ in range(width)]
    expected = bytearray(start)
    violations = _apply_custody(expected, 5, shapes, pairs)
    holder = {(p, slot): h for p, state in enumerate(start)
              for slot, h in zip(_SLOT_NAMES, _STATE_HOLDERS[state]) if h is not None}
    events = [_bulk_event(shape, pair, seq) for seq, (shape, pair) in enumerate(zip(shapes, pairs), 5)]
    assert [m for _, m in violations] == reference_custody(events, holder)
    assert all(m.startswith(f"seq {seq}: ") for seq, m in violations)
    step = _run_step(shapes, width) if shapes else None
    assert step is not None or members_any or not shapes
    if step is not None:  # each run's translate breaks a rule exactly where a record does
        stepped = bytearray(start)
        for a, b in zip(ends[0::2], ends[1::2]):
            stepped[a:b] = stepped[a:b].translate(step)
        assert (0xFF in stepped) == bool(violations)
        assert stepped == expected or violations
    recorder = _Recorder(n_pairs=len(start))
    for _ in range(5):
        recorder.emit("bob", "message", {})
    recorder._custody[:] = start
    one_shape = width == 1 and shapes and shapes == bytes((shapes[0],)) * len(shapes)
    per_record = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records_module, "_apply_custody", lambda *a: per_record.append(a) or _apply_custody(*a))
        try:
            recorder.record_runs(shapes[0] if one_shape else shapes, ends)
        except InternalFault as fault:
            assert violations and str(fault) == violations[0][1]
        else:
            assert not violations
    # no silent fallback: the per-record loop sees a record only where a run table cannot step it
    assert any(call[2] for call in per_record) == bool(violations or (shapes and step is None))
    admitted = (violations[0][0] if violations else 5 + len(shapes)) - 5
    assert list(recorder.events)[5:] == events[:admitted]
    replay = bytearray(start)
    assert _apply_custody(replay, 5, shapes[:admitted], pairs[:admitted]) == []
    assert recorder._custody == replay


@pytest.mark.parametrize(
    "config",
    [
        ProtocolConfig(n_pairs=1024, check_fraction_1=1 / 64, check_count_2=8, seed=3),
        *(
            ProtocolConfig(
                n_pairs=16, check_fraction_1=0.5, check_count_2=0, seed=seed,
                eve=EveStrategy.from_name("intercept-rand", 1.0),
            )
            for seed in (0, 4)
        ),
    ],
    ids=["info-quiet-1024", "detect-intercept-16 aborted", "detect-intercept-16 completed"],
)
def test_no_batch_of_runs_falls_back_to_the_per_record_step(monkeypatch, config):
    """Every batch a Session records over runs steps by its table, so the
    per-record loop takes only the batches over scattered pairs: Eve's
    touches and the first check's measure records.  A table that disagreed
    with the rules would still record right, through that loop, so only
    this count shows it."""
    per_record: list[set[str]] = []

    def counted_apply(custody, seq, shapes, pairs):
        if shapes:
            per_record.append({_SHAPE_RECORD[shape][0] for shape in shapes})
        return _apply_custody(custody, seq, shapes, pairs)

    monkeypatch.setattr(records_module, "_apply_custody", counted_apply)
    transcript = run_protocol(config, *fixed_messages(config))
    past_first_check = "second_check" in transcript.stats
    assert transcript.completed == past_first_check
    touches = [{"eve_touch"}] * (2 if past_first_check else 1) if config.eve.active else []
    assert sorted(per_record, key=sorted) == sorted([{"measure"}, {"measure"}, *touches], key=sorted)


def test_audit_moves_no_photon_on_an_event_row_whose_index_is_a_live_pair():
    """A message Event's row holds its index in the log's Events, here 1, 2
    and 3 after the config record's 0, while pairs 1, 2 and 3 have their C
    photon in the channel; the audit reads past those rows, as the
    per-record reference does."""
    def steps(first: int, last: int, pairs=range(1, 4)) -> list[tuple[str, str, dict]]:
        """CUSTODY_STEPS[first:last] for each pair in turn."""
        return [(actor, kind, {"pair": pair, **extra})
                for kind, actor, extra in CUSTODY_STEPS[first:last] for pair in pairs]

    records = [
        *steps(0, 2),  # prepare, then send C: each C photon is in the channel
        *[("bob", "message", {"n": i}) for i in range(3)],
        *steps(2, 4),  # Eve touches each C photon, then Bob receives it
        *steps(3, 4, [1]),  # Bob receives pair 1's C photon again
        *steps(4, 10),
    ]
    events = framed(records)
    log = EventLog(events)
    assert [(log._shapes[i], log._pairs[i]) for i in (7, 8, 9)] == [(_EVENT, p) for p in (1, 2, 3)]
    expected = reference_custody(events)
    assert expected == ["seq 16: receive on pair 1 slot C held by bob, expected channel"]
    assert audit_custody(Transcript(events=log)) == expected
    assert audit_custody(Transcript.from_jsonl(canonical_jsonl(events))) == expected


@pytest.mark.parametrize("shift", [-5, 10**17])
@pytest.mark.parametrize("name", GOLDEN_TRANSCRIPTS)
def test_the_audit_of_a_log_whose_pairs_fall_outside_it_equals_the_reference(name, shift):
    """A golden transcript with every bulk record's pair shifted below 0, or
    far past the log's length, audited clean and with one custody record
    duplicated: the audit keys its states by pair and equals the reference.
    A list indexed by a pair's value would need petabytes for the 10**17 shift."""
    lines = (GOLDEN_DIR / name).read_text(encoding="utf-8").splitlines()
    records = [(e["actor"], e["kind"], e["payload"]) for e in map(json.loads, lines)]
    records = [
        (actor, kind, {**payload, "pair": payload["pair"] + shift} if kind in _BULK_SCHEMA else payload)
        for actor, kind, payload in records
    ]
    send = next(i for i, r in enumerate(records) if r[1] == "send")
    for rows in (records, [*records[: send + 1], *records[send:]]):
        events = [Event(seq, *row) for seq, row in enumerate(rows)]
        expected = reference_custody(events)
        assert audit_custody(Transcript(events=events)) == expected
        assert audit_custody(Transcript.from_jsonl(canonical_jsonl(events))) == expected
    pair = records[send][2]["pair"]
    assert expected == [f"seq {send + 1}: send on pair {pair} slot C held by channel, expected alice"]


def test_the_audit_keeps_a_negative_pair_apart_from_the_list_cell_it_would_wrap_to():
    """In a log of five records, pair -1 would index the same cell of a
    log-sized list as pair 4: the audit keeps them apart."""
    prepare = ("alice", "prepare")
    events = framed([(*prepare, {"pair": -1}), (*prepare, {"pair": 4})])
    assert len(events) == 5 and reference_custody(events) == []
    assert audit_custody(Transcript(events=events)) == []


def test_bulk_records_build_no_event_on_the_run_write_read_audit_and_estimator_paths(monkeypatch):
    """Only config, message, stats and verdict records become Events or parsed dicts."""
    import qduplex.session as session_module
    from qduplex.adversary import estimate_information

    built, parsed = [], []

    def counting_event(*args, **kwargs):
        event = Event(*args, **kwargs)
        built.append(event.kind)
        return event

    def counting_loads(text):
        parsed.append(text)
        return loads(text)

    loads = json.loads
    for module in (session_module, records_module):
        monkeypatch.setattr(module, "Event", counting_event)
    monkeypatch.setattr(records_module.json, "loads", counting_loads)
    config = ProtocolConfig(n_pairs=2048, check_fraction_1=0.125, check_count_2=4, seed=1)
    transcript = run_protocol(config, *fixed_messages(config))
    text = transcript.to_jsonl()
    assert text.count("\n") > 2 * records_module._CHUNK  # the reader takes several chunks
    back = Transcript.from_jsonl(text)
    assert audit_custody(back) == []
    assert (len(back.events), back.config["n_pairs"], back.completed) == (
        text.count("\n"), 2048, True
    )
    assert back.stats["second_check"]["passed"]
    estimate_information(EveStrategy.none(), config, 2, np.random.default_rng(0))
    generic = {"config", "message", "stats", "verdict"}
    assert set(built) == generic
    kinds = [loads(line)["kind"] for line in parsed]
    assert set(kinds) == generic
    assert len(kinds) == sum(loads(line)["kind"] in generic for line in text.splitlines())


@pytest.mark.parametrize("estimate", ["estimate_detection", "estimate_information"])
def test_the_estimators_build_no_message_event(monkeypatch, estimate):
    """A recorded message keeps its pair indices and codes, and its Event is spelled
    only where the log is read: an estimator's trial builds the Events of its
    config, stats and verdict records, one of each, and no message Event, though
    a completed run's messages carry an entry for every surviving pair."""
    from qduplex import adversary

    built = Counter()

    def counting_event(*args, **kwargs):
        event = Event(*args, **kwargs)
        built[event.kind] += 1
        return event

    for module in (session_module, records_module):
        monkeypatch.setattr(module, "Event", counting_event)
    config = ProtocolConfig(n_pairs=256, check_fraction_1=0.125, check_count_2=4)
    getattr(adversary, estimate)(EveStrategy.none(), config, 3, np.random.default_rng(0))
    assert built == {"config": 3, "stats": 3, "verdict": 3}
    built.clear()  # the counter sees a message Event where one is read
    transcript = run_protocol(config, *fixed_messages(config))
    assert built["message"] == 0
    assert len(message_events(transcript)) == built["message"] == 9


def test_a_handed_out_recorded_message_cannot_change_the_log():
    """Each read of a recorded message spells a new payload, as json.loads would
    read its line: changing one that was handed out, its entry lists included,
    changes neither a second read of the record nor the transcript's text."""
    config = ProtocolConfig(n_pairs=64, check_fraction_1=0.125, check_count_2=4, seed=1)
    transcript = run_protocol(config, *fixed_messages(config))
    text = transcript.to_jsonl()
    lines = text.splitlines()
    seqs = [event.seq for event in message_events(transcript)]
    for seq in seqs:
        payload = transcript.events[seq].payload
        assert payload == json.loads(lines[seq])["payload"]
        for value in payload.values():
            if type(value) is list:
                for entry in value:
                    if type(entry) is list:
                        entry[0] = -1
                value.append(-1)
        payload["msg_seq"] = {1}
    assert [transcript.events[seq].payload for seq in seqs] == [json.loads(lines[seq])["payload"] for seq in seqs]
    assert transcript.to_jsonl() == text
    assert Transcript.from_jsonl(text) == transcript


def test_format_md_message_table_matches_the_wire_table():
    """FORMAT.md's classical-message table lists exactly the types of _WIRE, each
    with the field that lists pair indices, or none, and each entry field with
    _WIRE's spelling of its values by code; _WIRE's spellings are the very
    tuples _BULK_SCHEMA holds for the same values."""
    text = (Path(__file__).parents[1] / "FORMAT.md").read_text(encoding="utf-8")
    table = text.split("### Classical messages", 1)[1].split("###", 1)[0].split("\n|-", 1)[1]
    rows = re.findall(r"^\| `(\w+)` *\| ([^|]+) \|$", table, re.MULTILINE)
    assert [message_type for message_type, _ in rows] == list(_WIRE)
    # a field that lists pair indices reads "`name`: pair indices" or "`name`: `[pair, ...]` entries"
    documented = {t: re.findall(r"`(\w+)`: (?:pair indices|`\[pair, )", fields) for t, fields in rows}
    assert documented == {t: [name] if name else [] for t, (name, _) in _WIRE.items()}
    # an entry field's spellings follow "by code:" as backquoted items, in code order
    spelled = {t: re.findall(r"`([^`]+)`", fields.partition("by code:")[2]) for t, fields in rows}
    assert spelled == {t: [str(value) for value in spelling or ()] for t, (_, spelling) in _WIRE.items()}
    # each entry field spells the values of one custody field, by the same tuple wherever it appears
    schema_field = {"bases": "basis", "outcomes": "outcome", "ops": "op", "results": "result"}
    for field, spelling in _WIRE.values():
        if spelling is not None:
            held = [fields[schema_field[field]] for _, fields in _BULK_SCHEMA.values() if schema_field[field] in fields]
            assert held and all(values is spelling for values in held), field


def test_format_md_record_kind_table_matches_the_bulk_schema():
    """FORMAT.md's record-kind table names the kinds and actors of _KIND_ACTORS, and the
    fields in order and values of _BULK_SCHEMA."""
    text = (Path(__file__).parents[1] / "FORMAT.md").read_text(encoding="utf-8")
    text = text.split("### Record kinds", 1)[1].split("###", 1)[0]
    rows = {
        kind: (actors.strip(), fields)
        for kind, actors, fields in re.findall(
            r"^\| `(\w+)` +\| ([^|]+)\| ([^|]+) \|$", text, re.MULTILINE
        )
    }
    assert set(rows) == set(_KIND_ACTORS)
    assert set(rows) - {"config", "message", "stats", "verdict"} == set(_BULK_SCHEMA)
    for kind, (actor_cell, _) in rows.items():
        documented_actors = (
            ("alice", "bob") if actor_cell.startswith("either")
            else tuple(re.findall(r"`(\w+)`", actor_cell))
        )
        assert documented_actors == _KIND_ACTORS[kind], kind
    for kind, (_, fields) in _BULK_SCHEMA.items():
        _, documented_fields = rows[kind]
        documented = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", documented_fields)
        assert [name for name, _ in documented] == list(fields), kind
        for name, values in documented:
            expected = fields[name]
            assert re.findall(r"`([^`]+)`", values) == [str(v) for v in expected or ()], (kind, name)


# ---------------------------------------------------------------------------
# writing and reading a file: a failed write, and a file that grows while it is read


def test_a_write_jsonl_that_raises_leaves_the_file_at_its_path_as_it_was(tmp_path):
    """A transcript whose message payload json.dumps rejects, changed in place after it
    was built, raises before the file is opened, so an existing file keeps its bytes."""
    transcript = Transcript.read_jsonl(GOLDEN_DIR / GOLDEN_TRANSCRIPTS[0])
    message = [e for e in transcript.events if e.kind == "message"][-1]
    message.payload["note"] = {1}
    path = tmp_path / "run.jsonl"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        transcript.write_jsonl(path)
    assert path.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("note", [{1}, b"1", None], ids=["set", "bytes", "self-containing dict"])
def test_a_hand_built_transcript_refuses_a_payload_json_cannot_hold(note):
    """A hand-built Event whose payload json.dumps rejects raises TranscriptInvalid, naming
    its seq, where it enters the log, as its line could never be written or read back."""
    events = list(Transcript.read_jsonl(GOLDEN_DIR / GOLDEN_TRANSCRIPTS[0]).events)
    at = max(i for i, e in enumerate(events) if e.kind == "message")
    payload = {**events[at].payload}
    payload["note"] = payload if note is None else note
    events[at] = Event(at, events[at].actor, "message", payload)
    with pytest.raises(TranscriptInvalid, match=f"^seq {at}: message record with a payload JSON cannot hold: "):
        Transcript(events)


def grow_after_fstat(monkeypatch, path: Path, extra: bytes) -> None:
    """Make os.fstat append extra to path once it has taken the file's status, as a
    writer that appends between read_jsonl's size check and its read would."""
    fstat = os.fstat

    def fstat_then_grow(fd: int) -> os.stat_result:
        status = fstat(fd)
        with open(path, "ab") as fh:
            fh.write(extra)
        return status

    monkeypatch.setattr(os, "fstat", fstat_then_grow)


def count_reads(monkeypatch) -> dict[tuple[int, int], int]:
    """Make read_jsonl's open count its reads: the dict it returns counts each
    pair of the size a read asked for and the bytes it returned.  A plain dict and
    a bound read keep the count cheap at the million reads of 1-byte pieces."""
    reads: dict[tuple[int, int], int] = {}

    class CountingReader(io.BufferedReader):
        def read(self, size=-1, _read=io.BufferedReader.read):
            chunk = _read(self, size)
            key = size, len(chunk)
            reads[key] = reads.get(key, 0) + 1
            return chunk

    def counting_open(file, mode, opener):
        assert mode == "rb"
        return CountingReader(io.FileIO(file, mode, opener=opener))

    monkeypatch.setattr(session_module, "open", counting_open, raising=False)
    return reads


def bytes_read(reads: dict[tuple[int, int], int]) -> int:
    return sum(got * times for (_, got), times in reads.items())


def test_read_jsonl_refuses_a_file_that_grows_past_max_log_bytes_after_its_size_is_taken(tmp_path, monkeypatch):
    """The file is read to one byte past MAX_LOG_BYTES, however far it grew."""
    data = (GOLDEN_DIR / GOLDEN_TRANSCRIPTS[0]).read_bytes()
    path = tmp_path / "run.jsonl"
    path.write_bytes(data)
    monkeypatch.setattr(session_module, "MAX_LOG_BYTES", len(data) + 10)
    grow_after_fstat(monkeypatch, path, b" " * 100_000)  # ending no line, so none is refused first
    reads = count_reads(monkeypatch)
    with pytest.raises(
        TranscriptInvalid, match=f"^transcript is {len(data) + 100_000} bytes, over MAX_LOG_BYTES = {len(data) + 10}$"
    ):
        Transcript.read_jsonl(path)
    assert bytes_read(reads) == len(data) + 11


def test_read_jsonl_refuses_a_bad_line_that_a_file_grew_by_before_its_size(tmp_path, monkeypatch):
    """The file is parsed as it is read, so a line it grew by that is refused, here
    a blank one, may be refused before the file reaches past MAX_LOG_BYTES."""
    data = (GOLDEN_DIR / GOLDEN_TRANSCRIPTS[0]).read_bytes()
    path = tmp_path / "run.jsonl"
    path.write_bytes(data)
    monkeypatch.setattr(session_module, "MAX_LOG_BYTES", len(data) + 10)
    grow_after_fstat(monkeypatch, path, b"\n" * 100_000)
    with pytest.raises(TranscriptInvalid, match=f"^blank record at line {data.count(10)}$"):
        Transcript.read_jsonl(path)


@pytest.mark.parametrize("piece", [None, 7])
def test_read_jsonl_reads_on_through_a_file_that_grows_within_max_log_bytes(tmp_path, monkeypatch, piece):
    """No read asks for more than _PIECE bytes, the first included, so a file that
    grew by a line costs no allocation of MAX_LOG_BYTES."""
    data = (GOLDEN_DIR / GOLDEN_TRANSCRIPTS[0]).read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1  # where the verdict line starts
    path = tmp_path / "run.jsonl"
    path.write_bytes(data[:last])
    if piece is not None:
        monkeypatch.setattr(session_module, "_PIECE", piece)
    grow_after_fstat(monkeypatch, path, data[last:])
    reads = count_reads(monkeypatch)
    assert Transcript.read_jsonl(path).to_jsonl().encode() == data
    assert all(0 < asked <= session_module._PIECE for asked, _ in reads)
    assert bytes_read(reads) == len(data)
    assert sum(reads.values()) >= -(-len(data) // session_module._PIECE)


# ---------------------------------------------------------------------------
# replay: the config record read back, and a saved run re-run from its own records


def test_from_payload_is_the_inverse_of_to_payload():
    for config in (ABORT_FIRST_CONFIG, ABORT_SECOND_CONFIG, ProtocolConfig(n_pairs=8, seed=2**64 - 1)):
        assert ProtocolConfig.from_payload(config.to_payload()) == config
        assert ProtocolConfig.from_payload(json.loads(json.dumps(config.to_payload()))) == config


_CONFIG_RECORD = (
    "^a config needs exactly n_pairs, check_fraction_1, check_count_2, abort_threshold, seed and eve, "
    "and an eve of exactly kind and attack_prob$"
)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda p: p.pop("seed"), _CONFIG_RECORD),
        (lambda p: p.update(note=1), _CONFIG_RECORD),
        (lambda p: p.update(eve="intercept-z"), _CONFIG_RECORD),
        (lambda p: p["eve"].pop("attack_prob"), _CONFIG_RECORD),
        (lambda p: p["eve"].update(leg="first"), _CONFIG_RECORD),
        (lambda p: p.update(n_pairs=True), "^config: n_pairs must be an integer, not a bool$"),
        (lambda p: p.update(n_pairs=MAX_PAIRS + 1), f"^config: n_pairs must be at most {MAX_PAIRS}"),
        (lambda p: p.update(check_fraction_1="0.5"), "^config: check_fraction_1 must be a number"),
        (lambda p: p["eve"].update(kind="tap"), "^config: unknown eve strategy 'tap'"),
        (lambda p: p["eve"].update(kind=["none"]), r"^config: unknown eve strategy \['none'\]"),
        (lambda p: p["eve"].update(attack_prob=2), "^config: attack_prob must be a number in"),
    ],
)
def test_from_payload_refuses_a_payload_off_the_config_record(damage, message):
    payload = json.loads(json.dumps(ABORT_FIRST_CONFIG.to_payload()))
    damage(payload)
    with pytest.raises(TranscriptInvalid, match=message):
        ProtocolConfig.from_payload(payload)


@pytest.mark.parametrize("payload", [None, [], "config", [ABORT_FIRST_CONFIG.to_payload()]])
def test_from_payload_refuses_a_payload_that_is_not_an_object(payload):
    with pytest.raises(TranscriptInvalid, match=_CONFIG_RECORD):
        ProtocolConfig.from_payload(payload)


VERDICTS = ["completed", "first_check", "second_check"]
# each verdict -> the first-check fraction (None: one pair), the abort threshold (None:
# n_pairs) and the decoys of a config under which a run under attack may reach it
_REACHING = {"completed": (None, None, 2), "first_check": (0.5, 0, 2), "second_check": (None, None, 4)}


def verdict_name(transcript: Transcript) -> str:
    return "completed" if transcript.completed else transcript.verdict.phase.value


def run_reaching(
    verdict: str, attack: str, attack_prob: float, seed: int, n_pairs: int, fill: float
) -> tuple[Session, Transcript]:
    """The first run, from seed on, under the attack that ends in the verdict: its Session
    and transcript.  Each message is random, fill of its party's capacity long."""
    fraction, threshold, decoys = _REACHING[verdict]
    for seed in range(seed, seed + 500):
        config = ProtocolConfig(
            n_pairs=n_pairs, check_fraction_1=fraction or 1 / n_pairs, check_count_2=decoys,
            abort_threshold=n_pairs if threshold is None else threshold, seed=seed,
            eve=EveStrategy.from_name(attack, attack_prob=attack_prob),
        )
        rng = np.random.default_rng(seed)
        session = Session(
            config,
            random_message(int(fill * config.alice_capacity_bits), rng),
            random_message(int(fill * config.bob_capacity_bits), rng),
        )
        transcript = session.run()
        if verdict_name(transcript) == verdict:
            return session, transcript
    raise AssertionError(f"no run from seed {seed - 499} on ends in {verdict}")


# every attack at two probabilities and every verdict it can reach: no check fails without Eve
REPLAY_CASES = [
    (kind.value, attack_prob, verdict)
    for kind in AttackKind for attack_prob in (0.25, 1.0) for verdict in VERDICTS
    if kind is not AttackKind.NONE or verdict == "completed"
]


@pytest.mark.parametrize("attack, attack_prob, verdict", REPLAY_CASES)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), n_pairs=st.integers(8, 64), fill=st.floats(0, 1))
def test_replay_reproduces_the_log_of_a_saved_run_under_every_attack_and_verdict(
    attack, attack_prob, verdict, seed, n_pairs, fill
):
    session, transcript = run_reaching(verdict, attack, attack_prob, seed, n_pairs, fill)
    again = replay(Transcript.from_jsonl(transcript.to_jsonl()))
    assert again.phase is session.phase
    if transcript.completed:
        assert again.sample_columns() == session.sample_columns()


@pytest.mark.parametrize("name", GOLDEN_TRANSCRIPTS)
def test_every_golden_transcript_replays(name):
    saved = Transcript.read_jsonl(GOLDEN_DIR / name)
    assert replay(saved).phase is (Phase.DONE if saved.completed else Phase.ABORTED)


def reference_replay(transcript: Transcript) -> str:
    """replay written out over the log's Events, as the message it raises, or "replays":
    the config from its record; each party's message from its pauli Events in log
    order, Alice's without the decoys, cut to the capacity and to the decoded payload
    length of a completed verdict; the re-run's Events compared one by one."""
    payload = transcript.config
    eve = EveStrategy.from_name(payload["eve"]["kind"], payload["eve"]["attack_prob"])
    config = ProtocolConfig(**{**payload, "eve": eve})
    decoys = transcript.stats.get("second_check", {}).get("decoy_indices", [])
    ops: dict[str, list[int]] = {"alice": [], "bob": []}
    for event in transcript.events:
        if event.kind == "pauli" and not (event.actor == "alice" and event.payload["pair"] in decoys):
            ops[event.actor].append(PauliOp[event.payload["op"]].code)
    messages = []
    for actor, capacity, decoded in (
        ("alice", config.alice_capacity_bits, "bob_decoded"), ("bob", config.bob_capacity_bits, "alice_decoded")
    ):
        bits = [bit for op in ops[actor][: capacity // 2] for bit in (op >> 1, op & 1)]
        length = min(getattr(transcript.verdict, decoded).payload_bits, len(bits)) if transcript.completed else len(bits)
        messages.append(MessageBits(bits=bits[: length + length % 2], pad_bits=length % 2))
    replayed, events = list(run_protocol(config, *messages).events), list(transcript.events)
    if replayed == events:
        return "replays"
    seq = next((k for k, (a, b) in enumerate(zip(replayed, events)) if a != b), min(len(replayed), len(events)))
    return f"seq {seq}: the record differs from the replayed run's"


def replay_outcome(transcript: Transcript) -> str:
    try:
        replay(transcript)
    except TranscriptInvalid as exc:
        return str(exc)
    return "replays"


def renumbered(events: list[Event]) -> Transcript:
    return Transcript([Event(seq, e.actor, e.kind, e.payload) for seq, e in enumerate(events)])


DAMAGE_BASES = [
    run_reaching("completed", "intercept-rand", 1.0, 3, 24, 1.0)[1],  # eve_touch records on both legs
    run_reaching("completed", "intercept-x", 0.5, 6, 24, 0.7)[1],  # a payload shorter than the capacity
    run_reaching("completed", "none", 1.0, 5, 24, 1.0)[1],
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_replay_equals_the_reference_on_reordered_and_repeated_records(data):
    """The pauli and bell_measure records of a completed run, reordered, some
    dropped and some repeated with another value, go back in before the stats."""
    base = data.draw(st.sampled_from(DAMAGE_BASES))
    events = list(base.events)
    moved = [e for e in events if e.kind in ("pauli", "bell_measure")]
    kept = [e for e in events if e.kind not in ("pauli", "bell_measure")]
    records = data.draw(st.lists(st.sampled_from(moved), max_size=2 * len(moved)))
    if data.draw(st.booleans()):
        records = data.draw(st.permutations(moved)) + records
    rewritten = []
    for event in records:
        name = "op" if event.kind == "pauli" else "result"
        value = data.draw(st.sampled_from(_BULK_SCHEMA[event.kind][1][name]))
        rewritten.append(Event(0, event.actor, event.kind, {**event.payload, name: value}))
    stats_at = next(i for i, e in enumerate(kept) if e.kind == "stats")
    transcript = renumbered(kept[:stats_at] + rewritten + kept[stats_at:])
    assert replay_outcome(transcript) == reference_replay(transcript)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_replay_equals_the_reference_on_damaged_logs(data):
    """One pair's pauli, bell_measure or eve_touch record duplicated (its copy
    maybe with another value), dropped or moved, anywhere between the config
    and the stats record."""
    base = data.draw(st.sampled_from(DAMAGE_BASES))
    events = list(base.events)
    at = data.draw(st.sampled_from(
        [i for i, e in enumerate(events) if e.kind in ("pauli", "bell_measure", "eve_touch")]
    ))
    record = events[at]
    damage = data.draw(st.sampled_from(["duplicate", "drop", "move"]))
    if damage != "duplicate":
        del events[at]
    if damage != "drop":
        payload = dict(record.payload)
        if damage == "duplicate":
            for name, values in _BULK_SCHEMA[record.kind][1].items():
                if values is not None and data.draw(st.booleans()):
                    payload[name] = data.draw(st.sampled_from(values))
        stats_at = next(i for i, e in enumerate(events) if e.kind == "stats")
        events.insert(data.draw(st.integers(1, stats_at)), Event(0, record.actor, record.kind, payload))
    transcript = renumbered(events)
    outcome = replay_outcome(transcript)
    assert outcome == reference_replay(transcript)
    assert (outcome == "replays") == (transcript.events == base.events)  # one that replays is its run


@pytest.mark.parametrize("actor", ["alice", "bob"])
def test_replay_names_the_first_dropped_pauli_record(actor):
    base = DAMAGE_BASES[2]
    decoys = set(base.stats["second_check"]["decoy_indices"])
    paulis = [
        e for e in base.events
        if e.kind == "pauli" and e.actor == actor and (actor == "bob" or e.payload["pair"] not in decoys)
    ]
    dropped = {paulis[3].seq, paulis[7].seq}
    damaged = renumbered([e for e in base.events if e.seq not in dropped])
    with pytest.raises(TranscriptInvalid, match=f"^seq {paulis[3].seq}: the record differs from the replayed run's$"):
        replay(damaged)

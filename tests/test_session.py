"""End-to-end and unit tests for the protocol engine and transcripts."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qduplex.adversary import EveStrategy
from qduplex.codec import MessageBits, decode_alice, decode_bob, pack_bits, random_message
from qduplex.qsim import BellState, InternalFault, PauliOp, QubitSlot
from qduplex.session import (
    Aborted,
    CapacityExceeded,
    Completed,
    ConfigInvalid,
    Event,
    PartyState,
    Phase,
    ProtocolConfig,
    Role,
    Session,
    Transcript,
    TranscriptInvalid,
    audit_custody,
    run_protocol,
)

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
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ConfigInvalid):
        ProtocolConfig(**{"check_count_2": 1, **kwargs}).validate()


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


def test_session_constructor_validates_config():
    bad = ProtocolConfig(n_pairs=1)
    with pytest.raises(ConfigInvalid):
        Session(bad, MessageBits.from_bits([]), MessageBits.from_bits([]))


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
    assert transcript.verdict.alice_decoded.bits == ()
    assert transcript.verdict.bob_decoded.bits == ()


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


def test_transcript_lines_are_canonical_json():
    config = ProtocolConfig(n_pairs=4, check_fraction_1=0.25, check_count_2=1, seed=0)
    transcript = run_protocol(config, *fixed_messages(config))
    for line in transcript.to_jsonl().splitlines():
        record = json.loads(line)
        assert set(record) == {"seq", "actor", "kind", "payload"}
        assert json.dumps(record, sort_keys=True, separators=(",", ":")) == line


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
    ],
)
def test_from_jsonl_raises_transcript_invalid(text):
    with pytest.raises(TranscriptInvalid) as info:
        Transcript.from_jsonl(text)
    assert isinstance(info.value, ValueError)


def test_config_and_stats_accessors_validate():
    bare = Transcript(events=[Event(0, "x", "noise", {})], verdict=Aborted(Phase.ABORTED, "n/a"))
    with pytest.raises(ValueError):
        bare.config
    with pytest.raises(ValueError):
        bare.stats


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
    decoys = session.alice.decoy_positions
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


def synthetic_transcript(events) -> Transcript:
    numbered = [Event(i, *e) for i, e in enumerate(events)]
    return Transcript(events=numbered, verdict=Aborted(Phase.ABORTED, "synthetic"))


def test_audit_flags_an_op_outside_custody():
    transcript = synthetic_transcript(
        [
            ("alice", "prepare", {"pair": 0}),
            ("bob", "pauli", {"pair": 0, "slot": "C", "op": "U2"}),
        ]
    )
    problems = audit_custody(transcript)
    assert len(problems) == 1
    assert "pauli" in problems[0] and "bob" in problems[0]


def test_audit_flags_channel_violations():
    transcript = synthetic_transcript(
        [
            ("alice", "prepare", {"pair": 0}),
            ("eve", "eve_touch", {"pair": 0, "slot": "C", "leg": "first", "basis": "Z", "outcome": 0}),
            ("bob", "receive", {"pair": 0, "slot": "C"}),
            ("alice", "send", {"pair": 0, "slot": "C", "to": "bob"}),
            ("alice", "send", {"pair": 0, "slot": "C", "to": "bob"}),
        ]
    )
    problems = audit_custody(transcript)
    # touch and receive precede any send; invalid ops do not move custody,
    # so alice's first send is legitimate and only her second is not
    assert len(problems) == 3
    assert "eve_touch" in problems[0]
    assert "receive" in problems[1]
    assert "send" in problems[2]


def test_audit_flags_double_consumption():
    transcript = synthetic_transcript(
        [
            ("alice", "prepare", {"pair": 0}),
            ("alice", "bell_measure", {"pair": 0, "result": "psi_minus"}),
            ("alice", "bell_measure", {"pair": 0, "result": "psi_minus"}),
        ]
    )
    assert len(audit_custody(transcript)) == 2  # both slots already consumed


def test_audit_flags_preparation_by_the_wrong_party():
    transcript = synthetic_transcript([("bob", "prepare", {"pair": 0})])
    assert len(audit_custody(transcript)) == 1


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


def test_party_phase_only_moves_forward():
    party = PartyState(role=Role.ALICE, message=MessageBits.from_bits([]))
    party.advance(Phase.FIRST_TRANSMISSION)
    party.advance(Phase.FIRST_CHECK)
    with pytest.raises(InternalFault):
        party.advance(Phase.FIRST_TRANSMISSION)
    with pytest.raises(InternalFault):
        party.advance(Phase.FIRST_CHECK)  # re-entry counts as a step back
    party.advance(Phase.ABORTED)  # allowed from anywhere
    assert party.phase is Phase.ABORTED


def test_custody_helpers_guard_ownership():
    party = PartyState(role=Role.BOB, message=MessageBits.from_bits([]))
    with pytest.raises(InternalFault):
        party.require(0, QubitSlot.C)
    party.grant(0, QubitSlot.C)
    party.require(0, QubitSlot.C)
    party.release(0, QubitSlot.C)
    assert not party.holds(0, QubitSlot.C)
    with pytest.raises(InternalFault):
        party.release(0, QubitSlot.C)


def test_completed_phase_is_done_for_both_parties():
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1, seed=12)
    session = Session(config, *fixed_messages(config))
    session.run()
    assert session.alice.phase is Phase.DONE
    assert session.bob.phase is Phase.DONE


def test_aborted_phase_is_aborted_for_both_parties():
    session = Session(ABORT_FIRST_CONFIG, *fixed_messages(ABORT_FIRST_CONFIG))
    session.run()
    assert session.alice.phase is Phase.ABORTED
    assert session.bob.phase is Phase.ABORTED


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

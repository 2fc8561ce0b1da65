"""Unit tests for the coding layer.

The full 16-entry operation table below is transcribed by hand from the
protocol's defining algebra (it is also re-derived from the simulator in
test_expected_bell_matches_simulated_outcome, which is the independent
oracle for the XOR shortcut).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qduplex.codec import (
    MessageBits,
    bits_for_op,
    decode_alice,
    decode_bob,
    expected_bell,
    op_for_bits,
    pack_bits,
    random_message,
    unpack_bits,
)
from qduplex.qsim import (
    BellState,
    PauliOp,
    QubitSlot,
    apply_pauli,
    bell_probabilities,
    make_singlet,
)

B = BellState
U = PauliOp

# rows: alice op U0..U3 on the M photon; columns: bob op U0..U3 on either photon
OPERATION_TABLE = {
    U.U0: (B.PSI_MINUS, B.PSI_PLUS, B.PHI_MINUS, B.PHI_PLUS),
    U.U1: (B.PSI_PLUS, B.PSI_MINUS, B.PHI_PLUS, B.PHI_MINUS),
    U.U2: (B.PHI_MINUS, B.PHI_PLUS, B.PSI_MINUS, B.PSI_PLUS),
    U.U3: (B.PHI_PLUS, B.PHI_MINUS, B.PSI_PLUS, B.PSI_MINUS),
}


def test_expected_bell_matches_operation_table():
    for alice_op, row in OPERATION_TABLE.items():
        for bob_op in PauliOp:
            assert expected_bell(alice_op, bob_op) is row[bob_op.code]


def test_expected_bell_matches_simulated_outcome():
    # brute force over all 16 combinations, with bob on either photon
    for alice_op in PauliOp:
        for bob_op in PauliOp:
            for bob_slot in (QubitSlot.C, QubitSlot.M):
                state = apply_pauli(make_singlet(), alice_op, QubitSlot.M)
                state = apply_pauli(state, bob_op, bob_slot)
                probs = bell_probabilities(state)
                expected = expected_bell(alice_op, bob_op)
                assert probs[expected.index] == pytest.approx(1.0, abs=1e-12)


def test_op_bit_round_trip():
    for value in range(4):
        assert bits_for_op(op_for_bits(value)) == value
    assert op_for_bits(2) is PauliOp.U2


def test_op_for_bits_rejects_out_of_range():
    for bad in (-1, 4, 2.0, "10"):
        with pytest.raises(ValueError):
            op_for_bits(bad)


def test_decode_is_exact_inverse_for_all_combinations():
    for alice_op in PauliOp:
        for bob_op in PauliOp:
            result = expected_bell(alice_op, bob_op)
            assert decode_alice(bob_op, result) == alice_op.code
            assert decode_bob(alice_op, result) == bob_op.code


def test_decode_known_values():
    # worked examples, frozen by hand from the operation table
    assert decode_alice(PauliOp.U1, BellState.PHI_PLUS) == 0b10
    assert decode_bob(PauliOp.U2, BellState.PHI_PLUS) == 0b01


def test_pack_bits_msb_first():
    message = pack_bits(bytes([0xA5]))
    assert message.bits == bytes((1, 0, 1, 0, 0, 1, 0, 1))
    assert message.pad_bits == 0
    assert message.pairs() == bytes((2, 2, 1, 1))


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=64))
def test_pack_unpack_round_trip(data):
    assert unpack_bits(pack_bits(data)) == data


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), max_size=41))
def test_bits_to_pairs_round_trip(bits):
    message = MessageBits.from_bits(bits)
    assert message.payload_bits == len(bits)
    assert message.bits[: len(bits)] == bytes(bits)
    rebuilt = MessageBits.from_pairs(message.pairs(), payload_bits=len(bits))
    assert rebuilt == message


def test_odd_length_is_padded_and_recorded():
    message = MessageBits.from_bits([1, 0, 1])
    assert message.bits == bytes((1, 0, 1, 0))
    assert message.pad_bits == 1
    assert message.payload_bits == 3
    assert len(message.pairs()) == 2


@pytest.mark.parametrize(
    "bits, expected",
    [
        ([1, 0, 1], (1, 0, 1, 0)),
        (np.array([1, 0, 1]), (1, 0, 1, 0)),
        ([True, False], (1, 0)),
        ([np.uint8(1), np.int64(0)], (1, 0)),
        ([1.5], ValueError),
        (["1"], ValueError),
        ([2], ValueError),
        ([-1], ValueError),
        ([1.5, 0.2, "1"], ValueError),
        ("101", ValueError),  # a string's characters are no bits
        (None, TypeError),  # bits that are not iterable
        (5, TypeError),
    ],
)
def test_from_bits_accepts_and_rejects_what_the_constructor_does(bits, expected):
    if isinstance(expected, tuple):
        message = MessageBits.from_bits(bits)
        assert type(message.bits) is bytes and message.bits == bytes(expected)
    else:
        with pytest.raises(expected):
            MessageBits.from_bits(bits)


def test_message_bits_validation():
    with pytest.raises(ValueError):
        MessageBits(bits=(1, 0, 1))  # odd without padding
    with pytest.raises(ValueError):
        MessageBits(bits=(2, 0))
    with pytest.raises(ValueError):
        MessageBits(bits=(1, 0), pad_bits=2)
    with pytest.raises(ValueError):
        MessageBits(bits=(), pad_bits=1)


@pytest.mark.parametrize(
    "bits, pad_bits, error",
    [
        ((True, 0), 0, None),  # a bool is an integer to operator.index
        ((np.int64(1), np.uint8(0)), 0, None),
        ((1.0, 0), 0, ValueError),  # equal to 1, but no integer
        ((0, 1, 1, 0), 1, None),
        ((0, 1), True, None),
        ((2, 0), 0, ValueError),
        (("1", 0), 0, ValueError),
        ((None, 0), 0, ValueError),
        (([0, 1], 0), 0, ValueError),  # a nested list is no bit
        ((0, [1]), 0, ValueError),
        ("10", 0, ValueError),
        ((0, 1), 2, ValueError),
        ((0, 1), "1", ValueError),
        ((0, 1), None, ValueError),
        ((0, 1), 1.5, ValueError),
        ((0, 1), 1.0, ValueError),
        (None, 0, TypeError),  # bits that are not iterable
        (4, 0, TypeError),  # not four zero bits
        (np.array([1, 0]), 0, None),  # its two values, not the 16 bytes of its memory
        (np.array([1, 2]), 0, ValueError),
        (b"\x01\x00", 0, None),
        (bytearray(b"\x01\x00"), 0, None),
        (b"10", 0, ValueError),  # the bytes 0x31 and 0x30
    ],
)
def test_message_bits_accepts_and_rejects_exactly_these(bits, pad_bits, error):
    if error is None:
        message = MessageBits(bits=bits, pad_bits=pad_bits)
        assert type(message.bits) is bytes and message.bits == bytes(map(int, bits))
        assert message.pad_bits == pad_bits
    else:
        with pytest.raises(error):
            MessageBits(bits=bits, pad_bits=pad_bits)


def test_equal_bits_from_a_tuple_bytes_or_an_array_are_one_message():
    messages = [
        MessageBits(bits=(1, 0, 0, 1), pad_bits=1),
        MessageBits(bits=b"\x01\x00\x00\x01", pad_bits=1),
        MessageBits(bits=np.array([1, 0, 0, 1]), pad_bits=1),
        MessageBits(bits=[True, False, np.int64(0), np.uint8(1)], pad_bits=1),
    ]
    assert all(message == messages[0] for message in messages)
    assert len({hash(message) for message in messages}) == 1
    assert MessageBits(bits=(1, 0, 0, 1)) != messages[0]  # another pad


@pytest.mark.parametrize(
    "pairs, payload_bits, expected",
    [
        ([0, 1, 2, 3], 8, (0, 0, 0, 1, 1, 0, 1, 1)),
        ([3, 2], 3, (1, 1, 1, 0)),  # one pad bit: the fourth
        ([3, 2], 2, (1, 1)),
        ([True, 2], 4, (0, 1, 1, 0)),
        (np.array([2, 1]), 4, (1, 0, 0, 1)),
        ([], 0, ()),
        ([0, 1], 5, ValueError),
        ([0, 1], -1, ValueError),
        ([4], 2, ValueError),
        ([0, -1], 4, ValueError),
        ([1.0], 2, TypeError),
        (["1"], 2, TypeError),
        ([None], 2, TypeError),
        ([[0]], 2, TypeError),
        ([1.0, 7], 4, ValueError("out of range: 7$")),  # the range is checked first
        ([300], 2, ValueError("out of range: 300$")),
    ],
)
def test_from_pairs_values_and_errors(pairs, payload_bits, expected):
    if isinstance(expected, tuple):
        message = MessageBits.from_pairs(pairs, payload_bits)
        assert message.bits == bytes(expected)
        assert message.payload_bits == payload_bits
    elif isinstance(expected, Exception):
        with pytest.raises(type(expected), match=str(expected)):
            MessageBits.from_pairs(pairs, payload_bits)
    else:
        with pytest.raises(expected):
            MessageBits.from_pairs(pairs, payload_bits)


def test_from_pairs_names_the_first_pair_out_of_range():
    with pytest.raises(ValueError, match="out of range: 7$"):
        MessageBits.from_pairs([1, 7, -2, 3], payload_bits=8)


def test_unpack_requires_whole_bytes():
    with pytest.raises(ValueError, match="payload is not a whole number of bytes"):
        unpack_bits(MessageBits.from_bits([1, 0, 1, 0]))
    # whole pairs, but a payload of 14 bits
    with pytest.raises(ValueError, match="payload is not a whole number of bytes"):
        unpack_bits(MessageBits.from_pairs([3] * 8, payload_bits=14))


def test_pack_and_unpack_every_byte_value():
    for byte in range(256):
        bits = tuple((byte >> shift) & 1 for shift in range(7, -1, -1))
        assert pack_bits(bytes([byte])) == MessageBits(bits=bits)
        assert unpack_bits(MessageBits(bits=bits)) == bytes([byte])
    every = bytes(range(256))
    assert pack_bits(every).bits == b"".join(pack_bits(bytes([b])).bits for b in every)
    assert unpack_bits(pack_bits(every)) == every
    assert pack_bits(b"") == MessageBits()
    assert unpack_bits(MessageBits()) == b""


def test_empty_message():
    message = MessageBits.from_bits([])
    assert message.payload_bits == 0
    assert message.pairs() == b""
    assert unpack_bits(message) == b""


@pytest.mark.parametrize("n", [0, 1, 2, 2015, 2016])
def test_random_message_is_from_bits_of_one_integers_draw(n):
    rng, reference = np.random.default_rng(n), np.random.default_rng(n)
    message = random_message(n, rng)
    assert message == MessageBits.from_bits(reference.integers(0, 2, size=n).tolist())
    assert type(message.bits) is bytes
    assert rng.bit_generator.state == reference.bit_generator.state


def test_random_message_is_seeded_and_sized():
    first = random_message(21, np.random.default_rng(5))
    second = random_message(21, np.random.default_rng(5))
    assert first == second
    assert first.payload_bits == 21
    assert len(first.bits) == 22
    assert random_message(0, np.random.default_rng(0)).bits == b""


def test_random_message_of_negative_length_is_refused():
    with pytest.raises(ValueError, match="^bit_count must be non-negative$"):
        random_message(-1, np.random.default_rng(0))

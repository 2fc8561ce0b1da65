"""Classical coding layer: bit pairs, the operation table, and decoding.

The canonical Bell index defined in qsim makes the whole table an XOR:
encoding a on the M photon and b on either photon carries the singlet to
the Bell state with index a XOR b, so each party recovers the other's two
bits by XORing the announced index with their own code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import lshift, or_
from typing import Iterable, Sequence

from .qsim import BellState, PauliOp, RandomStream


def op_for_bits(pair: int) -> PauliOp:
    """Map a 2-bit value (high bit first) to its encoding operation."""
    if not isinstance(pair, int) or not 0 <= pair <= 3:
        raise ValueError(f"bit pair must be an integer in 0..3, got {pair!r}")
    return PauliOp(pair)


def bits_for_op(op: PauliOp) -> int:
    """Inverse of op_for_bits."""
    return op.code


def expected_bell(alice_op: PauliOp, bob_op: PauliOp) -> BellState:
    """Deterministic Bell outcome after both encodings on one singlet.

    Alice applies alice_op to the M photon; Bob applies bob_op to either
    photon.  The result does not depend on which photon Bob chose.
    """
    return BellState(alice_op.code ^ bob_op.code)


def decode_alice(bob_op: PauliOp, result: BellState) -> int:
    """Alice's bit pair as recovered by Bob from his own op and his result."""
    return result.index ^ bob_op.code


def decode_bob(alice_op: PauliOp, result: BellState) -> int:
    """Bob's bit pair as recovered by Alice from her own op and the announcement."""
    return result.index ^ alice_op.code


# a byte's bits, most significant first, as bytes of 0 and 1
_BYTE_BITS = tuple(bytes((byte >> shift) & 1 for shift in range(7, -1, -1)) for byte in range(256))
# a 2-bit value -> its high bit and its low bit (a translate table each)
_HIGH_BIT = bytes(value >> 1 for value in range(256))
_LOW_BIT = bytes(value & 1 for value in range(256))
_BIT_DIGIT = bytes.maketrans(b"\0\1", b"01")


def _all_bits(values: Iterable[object]) -> bool:
    """Whether every value is an integer (anything operator.index accepts) 0 or 1."""
    values = tuple(values)  # a TypeError if values is not iterable; no copy of a tuple
    try:
        return not bytearray(values).translate(None, b"\0\1")
    except (TypeError, ValueError):  # a value that is no integer, or one out of 0..255
        return False


def _pair_error(pairs: Sequence[object]) -> Exception:
    """The error for decoded pairs that are not all integers in 0..3: a
    ValueError naming the first pair out of range, else a TypeError."""
    bad = next((p for p in pairs if not 0 <= p <= 3), None)
    if bad is None:
        return TypeError("decoded pairs must be integers")
    return ValueError(f"decoded pair out of range: {bad!r}")


@dataclass(frozen=True)
class MessageBits:
    """An even-length bit string plus how many trailing bits are padding.

    Messages of odd length are zero-padded to the next pair boundary; the
    pad length is carried so the original payload is recoverable.  A bit,
    and pad_bits, is an integer (anything operator.index accepts) 0 or 1.
    """

    bits: tuple[int, ...] = ()
    pad_bits: int = 0

    def __post_init__(self) -> None:
        if not _all_bits(self.bits):
            raise ValueError("bits must be 0 or 1")
        if len(self.bits) % 2 != 0:
            raise ValueError("bit string must have even length (pad first)")
        if not _all_bits((self.pad_bits,)):
            raise ValueError("pad_bits must be 0 or 1")
        if self.pad_bits > len(self.bits):
            raise ValueError("padding longer than message")

    @classmethod
    def _padded(cls, bits: tuple[int, ...]) -> "MessageBits":
        pad = len(bits) % 2
        return cls(bits=bits + (0,) * pad, pad_bits=pad)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "MessageBits":
        """Build from raw bits, zero-padding odd lengths.

        Each bit must be an integer (anything operator.index accepts) 0 or 1,
        else ValueError, and is kept as a plain int; bits that are not
        iterable are a TypeError.
        """
        bits = tuple(bits)
        if not _all_bits(bits):
            raise ValueError("bits must be 0 or 1")
        return cls._padded(tuple(bytes(bits)))

    @classmethod
    def from_pairs(cls, pairs: Sequence[int], payload_bits: int) -> "MessageBits":
        """Rebuild a message from decoded 2-bit values.

        payload_bits is the sender's original length; bits beyond it are
        capacity fill and are dropped here.  A pair out of 0..3 is a
        ValueError naming the first such pair; a pair in range that is not
        an integer is a TypeError.
        """
        if payload_bits < 0 or payload_bits > 2 * len(pairs):
            raise ValueError("payload_bits outside decoded range")
        try:
            codes = bytes(iter(pairs))
        except (TypeError, ValueError):  # a pair that is no integer, or one out of 0..255
            raise _pair_error(pairs) from None
        if codes.translate(None, b"\0\1\2\3"):
            raise _pair_error(pairs)
        flat = bytearray(2 * len(codes))
        flat[0::2] = codes.translate(_HIGH_BIT)
        flat[1::2] = codes.translate(_LOW_BIT)
        pad = payload_bits % 2
        return cls(bits=tuple(flat[: payload_bits + pad]), pad_bits=pad)

    @property
    def payload_bits(self) -> int:
        return len(self.bits) - self.pad_bits

    @property
    def n_pairs(self) -> int:
        return len(self.bits) // 2

    def pairs(self) -> tuple[int, ...]:
        """The message as 2-bit values, high bit first within each pair."""
        bits = self.bits
        return tuple(map(or_, map(lshift, bits[0::2], repeat(1)), bits[1::2]))


def pack_bits(raw: bytes) -> MessageBits:
    """Bytes to bits, most significant bit of each byte first."""
    return MessageBits(bits=tuple(b"".join(map(_BYTE_BITS.__getitem__, raw))), pad_bits=0)


def unpack_bits(message: MessageBits) -> bytes:
    """Inverse of pack_bits; the payload must be whole bytes."""
    payload = message.bits[: message.payload_bits]
    if len(payload) % 8 != 0:
        raise ValueError("payload is not a whole number of bytes")
    digits = bytearray(payload).translate(_BIT_DIGIT)
    return int(b"0" + digits, 2).to_bytes(len(payload) // 8, "big")


def random_message(bit_count: int, rng: RandomStream) -> MessageBits:
    """Uniform random message of the given bit length."""
    if bit_count < 0:
        raise ValueError("bit_count must be non-negative")
    return MessageBits._padded(tuple(rng.integers(0, 2, size=bit_count).tolist()))

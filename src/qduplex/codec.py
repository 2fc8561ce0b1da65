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


_BIT_VALUES = frozenset((0, 1))
# a 2-bit value -> its bits, high bit first, as bytes
_PAIR_BITS = (b"\0\0", b"\0\1", b"\1\0", b"\1\1")


@dataclass(frozen=True)
class MessageBits:
    """An even-length bit string plus how many trailing bits are padding.

    Messages of odd length are zero-padded to the next pair boundary; the
    pad length is carried so the original payload is recoverable.
    """

    bits: tuple[int, ...] = ()
    pad_bits: int = 0

    def __post_init__(self) -> None:
        bits = iter(self.bits)  # a TypeError if bits is not iterable
        try:
            valid = _BIT_VALUES.issuperset(bits)
        except TypeError:  # an unhashable element, such as a list, is no bit
            valid = False
        if not valid:
            raise ValueError("bits must be 0 or 1")
        if len(self.bits) % 2 != 0:
            raise ValueError("bit string must have even length (pad first)")
        if self.pad_bits not in (0, 1):
            raise ValueError("pad_bits must be 0 or 1")
        if self.pad_bits > len(self.bits):
            raise ValueError("padding longer than message")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "MessageBits":
        """Build from raw bits, zero-padding odd lengths."""
        seq = tuple(map(int, bits))
        pad = len(seq) % 2
        return cls(bits=seq + (0,) * pad, pad_bits=pad)

    @classmethod
    def from_pairs(cls, pairs: Sequence[int], payload_bits: int) -> "MessageBits":
        """Rebuild a message from decoded 2-bit values.

        payload_bits is the sender's original length; bits beyond it are
        capacity fill and are dropped here.
        """
        if payload_bits < 0 or payload_bits > 2 * len(pairs):
            raise ValueError("payload_bits outside decoded range")
        if len(pairs) and (min(pairs) < 0 or max(pairs) > 3):
            bad = next(p for p in pairs if not 0 <= p <= 3)
            raise ValueError(f"decoded pair out of range: {bad!r}")
        flat = tuple(b"".join(map(_PAIR_BITS.__getitem__, pairs)))
        pad = payload_bits % 2
        return cls(bits=flat[: payload_bits + pad], pad_bits=pad)

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
    bits = []
    for byte in raw:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    return MessageBits(bits=tuple(bits), pad_bits=0)


def unpack_bits(message: MessageBits) -> bytes:
    """Inverse of pack_bits; the payload must be whole bytes."""
    payload = message.bits[: message.payload_bits]
    if len(payload) % 8 != 0:
        raise ValueError("payload is not a whole number of bytes")
    out = bytearray()
    for i in range(0, len(payload), 8):
        byte = 0
        for b in payload[i : i + 8]:
            byte = (byte << 1) | b
        out.append(byte)
    return bytes(out)


def random_message(bit_count: int, rng: RandomStream) -> MessageBits:
    """Uniform random message of the given bit length."""
    if bit_count < 0:
        raise ValueError("bit_count must be non-negative")
    return MessageBits.from_bits(rng.integers(0, 2, size=bit_count).tolist())

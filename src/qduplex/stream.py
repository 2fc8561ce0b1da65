"""A session's random draws, read from raw PCG64 words.

A Stream gives exactly the values numpy's Generator gives, on the same
SeedSequence, for the draws a session makes: random(), integers(k) and
choice(n, k) without replacement, plus bit() for integers(2) and a bulk
read of Bob's rounds.  It reads the words of PCG64(seed).random_raw in
chunks and applies numpy's algorithms to them in Python, which skips the
per-call cost of a Generator method, and it never reads or writes the bit
generator's state.

- random() is (w >> 11) * 2**-53 of the next word w.
- A 32-bit draw is the buffered high half of a word if there is one, else
  the low half of the next word, whose high half is then buffered.  This
  is how PCG64 serves Generator's 32-bit draws.
- integers(k) is Lemire's method on one 32-bit draw: (u * k) >> 32,
  redrawn while the low 32 bits of u * k fall below 2**32 % k.  A range of
  one value draws nothing.
- choice(n, k) is Floyd's algorithm and then a Fisher-Yates shuffle of the
  picks; for n > 10000 and k > n // 50 it is a tail shuffle of range(n).
  Both shuffle with integers(i + 1) for i downwards.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, SeedSequence

CHUNK = 64
"""Words a scalar draw reads ahead at a time."""

_LOW = 0xFFFFFFFF
_TWO_32 = 1 << 32
_DOUBLE = 2.0**-53


class Stream:
    """One party's draws: numpy Generator's values from the raw words of PCG64(seed)."""

    __slots__ = ("_bits", "_iter", "_next", "_half")

    def __init__(self, seed: SeedSequence) -> None:
        self._bits = PCG64(seed)
        self._load([])
        self._half: int | None = None  # the buffered high half-word, if any

    def _load(self, words: list[int]) -> None:
        """Make words the next ones the scalar draws read."""
        self._iter = iter(words)
        self._next = self._iter.__next__

    def _refill(self) -> int:
        """Read the next chunk of words and return its first."""
        self._load(self._bits.random_raw(CHUNK).tolist())
        return self._next()

    def random(self) -> float:
        """A uniform double in [0, 1), as Generator.random()."""
        try:
            word = self._next()
        except StopIteration:
            word = self._refill()
        return (word >> 11) * _DOUBLE

    def bit(self) -> int:
        """0 or 1, as Generator.integers(2): the top bit of a 32-bit draw."""
        half = self._half
        if half is None:
            try:
                word = self._next()
            except StopIteration:
                word = self._refill()
            self._half = word >> 32
            return (word & _LOW) >> 31
        self._half = None
        return half >> 31

    def integers(self, k: int) -> int:
        """A uniform integer in [0, k) for 1 <= k < 2**32, as Generator.integers(k)."""
        if k == 1:
            return 0
        while True:
            half = self._half
            if half is None:
                try:
                    word = self._next()
                except StopIteration:
                    word = self._refill()
                self._half = word >> 32
                half = word & _LOW
            else:
                self._half = None
            scaled = half * k
            low = scaled & _LOW
            if low >= k or low >= _TWO_32 % k:
                return scaled >> 32

    def choice(self, n: int, k: int) -> list[int]:
        """k distinct integers of range(n), as Generator.choice(n, size=k, replace=False)."""
        if not 0 <= k <= n < _TWO_32:
            raise ValueError(f"choice needs 0 <= k <= n < 2**32, got n = {n}, k = {k}")
        if n > 10000 and k > n // 50:
            picks = list(range(n))
            self._shuffle(picks, max(n - k, 1))
            return picks[n - k :]
        picks, seen = [], set()
        for j in range(n - k, n):
            pick = self.integers(j + 1)
            if pick in seen:
                pick = j
            seen.add(pick)
            picks.append(pick)
        self._shuffle(picks, 1)
        return picks

    def _shuffle(self, data: list[int], first: int) -> None:
        """Swap each of data[-1], ..., data[first] with a uniform earlier-or-same entry."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self.integers(i + 1)
            data[i], data[j] = data[j], data[i]

    def bits_and_randoms(self, n: int) -> tuple[list[int], list[float]]:
        """The values of n rounds of bit() then random(), read in bulk.

        The stream ends where those 2n scalar draws leave it, its buffered
        half-word included.  A round's bit takes the buffered half if there
        is one, else a fresh word that is split; its random() takes the
        word after that.
        """
        if not n:
            return [], []
        buffered = self._half is not None
        split_count = (n - buffered + 1) // 2  # fresh words split into halves for the bits
        words = self._take(n + split_count)
        k = np.arange(n)
        at = k + (k + 2 - buffered) // 2  # the word of each random()
        doubles = (words[at] >> np.uint64(11)) * _DOUBLE
        split = np.ones(len(words), dtype=bool)
        split[at] = False
        halves = np.empty(2 * split_count + buffered, dtype=np.uint64)
        if buffered:
            halves[0] = self._half
        halves[buffered::2] = words[split] & np.uint64(_LOW)  # low, then high half of each
        halves[buffered + 1 :: 2] = words[split] >> np.uint64(32)
        self._half = int(halves[-1]) if (buffered + n) % 2 else None
        return (halves[:n] >> np.uint64(31)).tolist(), doubles.tolist()

    def _take(self, count: int) -> np.ndarray:
        """The next count words, as an array; the scalar draws go on after them."""
        rest = list(self._iter)
        extra = self._bits.random_raw(max(count - len(rest), 0))
        self._load(rest[count:])
        return np.concatenate((np.array(rest[:count], dtype=np.uint64), extra))

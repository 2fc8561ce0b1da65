"""Stream against numpy's Generator on the installed numpy: every draw a session
makes gives the same values from the same SeedSequence, and leaves both at
the same place in their words, the buffered half-word included."""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from qduplex import stream as stream_module
from qduplex.codec import MessageBits
from qduplex.session import ProtocolConfig, Session
from qduplex.stream import CHUNK, Stream


def pair(seed: int) -> tuple[Stream, np.random.Generator]:
    """A Stream and a Generator on the same SeedSequence."""
    return Stream(np.random.SeedSequence(seed)), np.random.default_rng(np.random.SeedSequence(seed))


def assert_next_draws_match(s: Stream, g: np.random.Generator) -> None:
    """The next scalar draws of each kind match: the same words and the same
    buffered half-word are left."""
    for _ in range(3):
        assert s.bit() == int(g.integers(2))
        assert s.random() == g.random()
        assert s.integers(4) == int(g.integers(4))
        assert s.integers(3) == int(g.integers(3))


_BOUNDS = [1, 2, 3, 4, 5, 7, 1000, 2**31, 3 * 2**30, 2**32 - 1]
_POPULATIONS = [0, 1, 2, 16, 100, 3000, 9999, 10000, 10001, 20000, 40000]


@pytest.mark.parametrize("seed", range(120))
def test_mixed_draws_equal_the_generator(seed):
    """A random mix of every draw, in a random order, on many seeds."""
    plan = random.Random(seed)
    s, g = pair(seed)
    for _ in range(40):
        draw = plan.randrange(5)
        if draw == 0:
            assert s.random() == g.random()
        elif draw == 1:
            k = plan.choice([*_BOUNDS, plan.randrange(1, 2**32)])
            assert s.integers(k) == int(g.integers(k))
        elif draw == 2:
            assert s.bit() == int(g.integers(2))
        elif draw == 3:
            n = plan.choice(_POPULATIONS)
            k = min(n, plan.choice([0, n, n // 50, n // 50 + 1, plan.randrange(n + 1)]))
            assert s.choice(n, k) == g.choice(n, size=k, replace=False).tolist()
        else:
            n = plan.choice([0, 1, 2, 3, 2 * CHUNK + 5])
            assert s.bits_and_randoms(n) == rounds(g, n)
    assert_next_draws_match(s, g)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 3 * 2**30])
def test_integers_equal_the_generator(k):
    """Each bound, after each buffer state; at 3 * 2**30 a quarter of the draws reject."""
    for seed in range(20):
        s, g = pair(seed)
        for i in range(200):
            if i % 7 == 0:
                assert s.bit() == int(g.integers(2))
            if i % 5 == 0:
                assert s.random() == g.random()
            value = s.integers(k)
            assert value == int(g.integers(k))
            assert type(value) is int and 0 <= value < k
        assert_next_draws_match(s, g)


def test_a_range_of_one_value_draws_nothing():
    s, g = pair(3)
    s.bit()
    g.integers(2)
    assert [s.integers(1) for _ in range(5)] == [0] * 5
    assert_next_draws_match(s, g)


@pytest.mark.parametrize(
    "n, k",
    [
        (0, 0), (1, 0), (1, 1), (2, 2), (16, 0), (16, 16), (3000, 3000),
        (10000, 0), (10000, 10000), (10000, 200), (10000, 201),
        (10001, 0), (10001, 10001), (10001, 200), (10001, 201),
        (40000, 800), (40000, 801), (65536, 16384),
    ],
)
def test_choice_equals_the_generator_on_both_sides_of_its_branch(n, k):
    """Floyd's algorithm and the tail shuffle, each at its edges: no picks, all
    picks, and k = n // 50 against n // 50 + 1 at n = 10000 and n = 10001."""
    for seed in range(3):
        s, g = pair(seed)
        s.bit()
        g.integers(2)  # start with a buffered half-word
        picks = s.choice(n, k)
        assert picks == g.choice(n, size=k, replace=False).tolist()
        assert all(type(v) is int for v in picks)
        assert_next_draws_match(s, g)


def test_choice_refuses_a_sample_larger_than_its_population():
    s = Stream(np.random.SeedSequence(0))
    for n, k in ((3, 4), (3, -1), (-1, 0), (2**32, 1)):
        with pytest.raises(ValueError, match="choice needs"):
            s.choice(n, k)


def rounds(g: np.random.Generator, n: int) -> tuple[list[int], list[float]]:
    """n rounds of the scalar draws the bulk read stands for: integers(2), then random()."""
    sides, draws = [], []
    for _ in range(n):
        sides.append(int(g.integers(2)))
        draws.append(g.random())
    return sides, draws


_PRIOR_DRAWS = {
    "no buffer": lambda rng: rng.random(),
    "a buffered half-word": lambda rng: rng.integers(2),
    "a stale buffer": lambda rng: (rng.integers(2), rng.integers(2), rng.random()),
}


@pytest.mark.parametrize("prior", sorted(_PRIOR_DRAWS))
@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, 8, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7, 999, 1000]
)
@pytest.mark.parametrize("skip", [0, 5, CHUNK - 2])
def test_bulk_read_equals_the_scalar_rounds(prior, n, skip):
    """Values, types and the next scalar draws all match n rounds of
    integers(2) then random(), after each buffer state and starting part-way
    through a chunk (skip more words first)."""
    seed = 1000 * n + 10 * skip + sorted(_PRIOR_DRAWS).index(prior)
    s, g = pair(seed)
    for _ in range(skip):
        assert s.random() == g.random()
    _PRIOR_DRAWS[prior](s)
    _PRIOR_DRAWS[prior](g)
    sides, draws = s.bits_and_randoms(n)
    assert (sides, draws) == rounds(g, n)
    assert all(type(v) is int for v in sides) and all(type(v) is float for v in draws)
    assert_next_draws_match(s, g)
    assert s.bits_and_randoms(5) == rounds(g, 5)
    assert_next_draws_match(s, g)


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
@pytest.mark.parametrize("draw", ["random", "bulk"])
def test_numpy_drift_under_stream_fails_the_suite(monkeypatch, category, draw):
    """pyproject.toml turns a DeprecationWarning or FutureWarning attributed to a
    qduplex module into an error.  numpy attributes its own to the caller
    (stacklevel=2), so a deprecation of the raw PCG64 words a Stream reads fails."""

    class Drifting(np.random.PCG64):  # a bit generator whose random_raw its library has deprecated
        def random_raw(self, *args, **kwargs):
            warnings.warn("random_raw is deprecated", category, stacklevel=2)
            return super().random_raw(*args, **kwargs)

    monkeypatch.setattr(stream_module, "PCG64", Drifting)
    s = Stream(np.random.SeedSequence(0))
    with pytest.raises(category, match="random_raw is deprecated"):
        s.random() if draw == "random" else s.bits_and_randoms(4)


def test_a_session_draws_from_three_streams():
    config = ProtocolConfig(n_pairs=8, check_count_2=1, seed=5)
    session = Session(config, MessageBits.from_bits([]), MessageBits.from_bits([]))
    streams = (session._alice_rng, session._bob_rng, session._eve_rng)
    assert all(type(s) is Stream for s in streams)
    assert len(set(map(id, streams))) == 3


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 2**32 - 1, 2**32, 2**63, 2**64 - 1, *range(1000, 1040)])
def test_a_session_streams_are_the_children_spawn_gives(seed):
    """Session builds its children as SeedSequence(seed, spawn_key=(i,)): the
    same states as SeedSequence(seed).spawn(3), so the same draws."""
    spawned = np.random.SeedSequence(seed).spawn(3)
    for i, child in enumerate(spawned):
        built = np.random.SeedSequence(seed, spawn_key=(i,))
        assert np.array_equal(built.generate_state(8, np.uint64), child.generate_state(8, np.uint64))
    config = ProtocolConfig(n_pairs=8, check_count_2=1, seed=seed)
    session = Session(config, MessageBits.from_bits([]), MessageBits.from_bits([]))
    streams = (session._alice_rng, session._bob_rng, session._eve_rng)
    for s, child in zip(streams, spawned):
        reference = Stream(child)
        assert [s.random() for _ in range(3)] == [reference.random() for _ in range(3)]

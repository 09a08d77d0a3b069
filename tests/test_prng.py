"""SplitMix64 draws: the blocked stream against a one-word-at-a-time reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorkit.prng import _LANES, _MASK, SplitMix64

GAMMA = 0x9E3779B97F4A7C15


def reference_words(seed):
    """The SplitMix64 stream, one counter step and one mix per word."""
    state = seed & _MASK
    while True:
        state = (state + GAMMA) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


SEEDS = (
    0,
    1,
    1 << 63,
    _MASK,
    _MASK - 5,  # the first counter wraps past 2**64
    (-17 * GAMMA) & _MASK,  # the counter wraps to exactly 0 at word 17, inside the first block
    (-(3 * _LANES + 9) * GAMMA) & _MASK,  # ... at a word inside the fourth block
)


def mixed_draws(rng, plan):
    """Draw with next_u64, randint and choice as `plan` says, recording each value."""
    out = []
    for kind, lo, hi in plan:
        if kind == 0:
            out.append(rng.next_u64())
        elif kind == 1:
            out.append(rng.randint(lo, hi))
        else:
            out.append(rng.choice(range(lo, hi + 1)))
    return out


def reference_draws(words, plan):
    return [next(words) if kind == 0 else lo + next(words) % (hi - lo + 1) for kind, lo, hi in plan]


def random_plan(seed, count):
    r = random.Random(seed)
    small, large = ((0, 0), (0, 1), (-9, 9), (1, 9)), ((0, _MASK), (-(1 << 70), 1 << 70))
    plan = []
    for _ in range(count):
        kind = r.randrange(3)
        plan.append((kind, *r.choice(small if kind == 2 else small + large)))
    return plan


@pytest.mark.parametrize("seed", SEEDS)
def test_blocked_stream_matches_the_reference(seed):
    plan = random_plan(seed, 1000)
    assert mixed_draws(SplitMix64(seed), plan) == reference_draws(reference_words(seed), plan)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, _MASK), count=st.integers(1, 3 * _LANES + 1))
def test_any_64_bit_seed_matches_the_reference(seed, count):
    rng, words = SplitMix64(seed), reference_words(seed)
    assert [rng.next_u64() for _ in range(count)] == [next(words) for _ in range(count)]


def test_seeds_are_taken_mod_2_64():
    for seed in (-1, 1 << 64, (1 << 80) + 12345):
        rng, ref = SplitMix64(seed), SplitMix64(seed & _MASK)
        assert [rng.next_u64() for _ in range(_LANES + 1)] == [ref.next_u64() for _ in range(_LANES + 1)]


@pytest.mark.parametrize("drawn", (0, 1, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES))
def test_an_empty_range_raises_and_draws_no_word(drawn):
    rng, words = SplitMix64(2901), reference_words(2901)
    for _ in range(drawn):
        assert rng.next_u64() == next(words)
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(3, 2)
    assert rng.next_u64() == next(words)


@pytest.mark.parametrize("drawn", (0, 1, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES))
def test_a_one_value_range_draws_exactly_one_word(drawn):
    rng, words = SplitMix64(2902), reference_words(2902)
    for _ in range(drawn):
        assert rng.next_u64() == next(words)
    assert rng.randint(5, 5) == 5
    next(words)
    assert rng.next_u64() == next(words)


def test_interleaved_streams_do_not_disturb_each_other():
    streams = [SplitMix64(seed) for seed in (0, 1, 0)]
    refs = [reference_words(seed) for seed in (0, 1, 0)]
    r = random.Random(2903)
    for _ in range(1000):
        k = r.randrange(len(streams))
        assert streams[k].next_u64() == next(refs[k])

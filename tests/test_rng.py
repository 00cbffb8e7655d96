"""Differential test: ``LegacyRandom`` draws numpy's legacy ``RandomState`` stream.

Each example seeds both generators alike and runs a drawn sequence of the
four draws polarpipe makes against numpy's. Every value must be equal, and so
must the next draw after the sequence, which checks that both consumed the
same number of words.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polarpipe._rng import LegacyRandom

_WORD = 2**32 - 1

_SEEDS = st.one_of(st.sampled_from([0, 1, 42, _WORD]), st.integers(0, _WORD))
# the number of values in [low, high): 1, 2, powers of two, one past a power
# of two, and the widest range numpy draws from one word
_SPANS = st.one_of(
    st.sampled_from([1, 2, _WORD, _WORD + 1]),
    st.integers(0, 32).map(lambda k: 2**k),
    st.integers(0, 31).map(lambda k: 2**k + 1),
    st.integers(1, _WORD + 1),
)
_LOWS = st.one_of(st.sampled_from([0, 1, -3]), st.integers(-(2**31), 2**31))


@st.composite
def _draws(draw):
    kind = draw(st.sampled_from(["random", "randint", "randints", "permutation"]))
    if kind == "random":
        return (kind,)
    if kind == "permutation":
        return (kind, draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 300))))
    low = draw(_LOWS)
    high = low + draw(_SPANS)
    if kind == "randint":
        return (kind, low, high)
    return (kind, low, high, draw(st.integers(0, 20)))


def _numpy_draw(rs, op):
    kind, *args = op
    if kind == "random":
        return rs.random_sample()
    if kind == "randint":
        return int(rs.randint(*args))
    if kind == "randints":
        low, high, size = args
        return rs.randint(low, high, size=size).tolist()
    return rs.permutation(*args).tolist()


def _our_draw(rng, op):
    kind, *args = op
    return getattr(rng, kind)(*args)


@settings(max_examples=300, deadline=None)
@given(seed=_SEEDS, ops=st.lists(_draws(), max_size=12))
@example(seed=0, ops=[("permutation", 0), ("permutation", 1), ("permutation", 2)])
@example(seed=_WORD, ops=[("randint", 0, 1), ("randints", 5, 6, 4), ("randints", 0, 2**32, 3)])
@example(seed=1, ops=[("randint", 0, 2**16 + 1), ("randint", -(2**31), 2**31), ("random",)])
def test_draws_match_numpy(seed, ops):
    ours, theirs = LegacyRandom(seed), np.random.RandomState(seed)
    for op in ops:
        assert _our_draw(ours, op) == _numpy_draw(theirs, op), op
    assert ours.random() == theirs.random_sample()


@pytest.mark.parametrize("seed", [-1, 2**32, 1.0, 1.5, "3", None])
def test_refuses_seeds_numpy_refuses(seed):
    with pytest.raises(ValueError):
        LegacyRandom(seed)


def test_takes_numpy_integer_seeds():
    assert LegacyRandom(np.int64(7)).random() == np.random.RandomState(7).random_sample()


@pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, 2**32 + 1), (-1, 2**32)])
def test_refuses_empty_and_wide_ranges(low, high):
    rng = LegacyRandom(0)
    with pytest.raises(ValueError):
        rng.randint(low, high)
    with pytest.raises(ValueError):
        rng.randints(low, high, 3)

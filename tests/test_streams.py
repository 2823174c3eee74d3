import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from gwshot import streams

_MASK64 = (1 << 64) - 1


@pytest.mark.parametrize("seed", [0, 1 << 63, _MASK64, -1])
@pytest.mark.parametrize("purpose", range(5))
def test_substream_is_philox_keyed_by_seed_then_purpose(seed, purpose):
    # the key is [seed, purpose], both mod 2^64, however the Philox is seeded
    got = streams.substream(seed, purpose)
    want = Generator(Philox(key=np.array([seed & _MASK64, purpose & _MASK64], dtype=np.uint64)))
    assert got.bit_generator.state["state"]["key"].tolist() == [seed & _MASK64, purpose & _MASK64]
    assert np.array_equal(got.integers(1 << 63, size=64), want.integers(1 << 63, size=64))
    assert np.array_equal(got.random(64), want.random(64))


def test_substream_purposes_are_distinct_streams():
    draws = {tuple(streams.substream(7, p).integers(1 << 62, size=4).tolist()) for p in range(5)}
    assert len(draws) == 5


def _numpy_seed(master, index):
    return int(SeedSequence(entropy=master & _MASK64, spawn_key=(index,)).generate_state(1, np.uint64)[0])


_LAST_INDEX = (1 << 32) - 1
_MASTERS = st.one_of(st.integers(0, _MASK64), st.sampled_from([0, (1 << 32) - 1, 1 << 32, 1 << 63, _MASK64]),
                     st.integers(-(1 << 64), -1))  # a negative master is taken mod 2^64, as numpy needs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_MASTERS, st.one_of(st.integers(0, 40), st.integers(0, _LAST_INDEX)), st.integers(0, 12),
       st.booleans())
@example(0, 0, 12, False)
@example(-1, _LAST_INDEX, 1, True)
@example(1 << 63, _LAST_INDEX, 5, True)
def test_replicate_seeds_are_numpy_spawn_key_seeds(master, index, count, to_the_end):
    # the hash is numpy's SeedSequence, one index or a range at once, from 0 and up to 2^32 - 1
    start = _LAST_INDEX + 1 - count if to_the_end else min(index, _LAST_INDEX + 1 - count)
    got = streams.replicate_seeds(master, start, start + count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [_numpy_seed(master, i) for i in range(start, start + count)]
    if count:
        assert streams.replicate_seed(master, start) == _numpy_seed(master, start)
        assert type(streams.replicate_seed(master, start)) is int


def test_replicate_seed_keeps_each_master_apart():
    # the master's part of the hash is kept per master: seeds of two masters,
    # asked in turn, are each master's own, and a master and its value mod
    # 2^64 share their seeds
    masters = [20250809, 3, 20250809 + (1 << 64), 3 + (1 << 32)]  # the last shares its low word with 3
    got = [[streams.replicate_seed(m, i) for m in masters] for i in range(6)]
    assert got == [[_numpy_seed(m, i) for m in masters] for i in range(6)]
    assert [row[0] for row in got] == [row[2] for row in got] != [row[1] for row in got]


@pytest.mark.parametrize("start,stop", [(-1, 3), (0, (1 << 32) + 1), (1 << 32, (1 << 32) + 1), (5, 4)])
def test_replicate_seeds_refuse_an_index_outside_32_bits(start, stop):
    with pytest.raises(ValueError):
        streams.replicate_seeds(7, start, stop)


@pytest.mark.parametrize("index", [-1, 1 << 32])
def test_replicate_seed_refuses_an_index_outside_32_bits(index):
    with pytest.raises(ValueError):
        streams.replicate_seed(7, index)

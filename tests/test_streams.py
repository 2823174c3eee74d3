import numpy as np
import pytest
from numpy.random import Generator, Philox

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

"""Counter-based splittable random streams for reproducible Monte Carlo.

Every stream is a Philox generator keyed by (seed, stream id), so any
(replicate, purpose) pair addresses an independent stream without
sequential jumping.  Replicate-level seeds are derived from the master
seed with SeedSequence spawn keys, so a replicate's draws depend on the
master seed and its index alone, not on which replicates ran before it.
`replicate_seeds` computes numpy's SeedSequence hash for a range of
consecutive indices at once: the master's part of the hash once, and the
index's part as a few uint32 array passes.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox  # numpy 2 loads it lazily: load it here, not at the first draw
from numpy.random.bit_generator import ISeedSequence

__all__ = ["substream", "replicate_seed", "replicate_seeds", "IMMIGRATION", "OFFSPRING", "ATOMS", "GENERIC",
           "EXCLUDED_OFFSPRING"]

# Purpose tags for the second Philox key word.
IMMIGRATION = 0
OFFSPRING = 1
ATOMS = 2
GENERIC = 3
# Offspring of the immigrants a truncated run excludes (gwi.run_coupled).
EXCLUDED_OFFSPRING = 4

_MASK64 = (1 << 64) - 1


class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands Philox its two key words as they are.

    `Philox(key=...)` also builds a fresh-entropy SeedSequence, which reads
    the OS entropy pool and is then thrown away; seeded by this instead,
    Philox gets the same key and the same state without that work.
    """

    __slots__ = ("words",)

    def __init__(self, words: tuple[int, int]) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return np.array(self.words, dtype=np.uint64)


def substream(seed: int, purpose: int = GENERIC) -> Generator:
    """Independent generator for (seed, purpose): Philox keyed by
    [seed, purpose], both taken mod 2^64."""
    return Generator(Philox(_PhiloxKey((seed & _MASK64, purpose & _MASK64))))


def replicate_seed(master_seed: int, index: int) -> int:
    """Well-mixed 64-bit seed for replicate `index` under a master seed."""
    return int(replicate_seeds(master_seed, index, index + 1)[0])


# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
_POOL_SIZE = 4


def _mix(x: int, y):
    """SeedSequence's mix of two uint32 words, `y` an int or a uint32 array."""
    r = (((_MIX_MULT_L * x) & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def replicate_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """`replicate_seed(master_seed, i)` for i in [start, stop), as uint64.

    Seed i is `SeedSequence(entropy=master_seed mod 2^64, spawn_key=(i,))
    .generate_state(1, np.uint64)[0]`.  Its entropy is the master's 32-bit
    words, low first and zero-padded to the pool size, then i's one word;
    only that last word differs from seed to seed, so the pool is mixed
    from the master once and i is hashed into it for all i at once.  An
    index outside [0, 2^32) would be two words, and is refused.
    """
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(f"replicate indices [{start}, {stop}) must lie in [0, 2^32)")
    master = master_seed & _MASK64
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = (v ^ h) & _MASK32
        h = (h * _MULT_A) & _MASK32
        v = (v * h) & _MASK32
        return v ^ (v >> 16)

    pool = [hashmix((master >> (32 * w)) & _MASK32) for w in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    index = np.arange(start, stop, dtype=np.uint32)
    seeds = np.zeros(stop - start, dtype=np.uint64)
    g = _INIT_B
    # i's word mixes into every pool word, but the state's two words (low first) read only the first two
    for k in range(2):
        w = _mix(pool[k], hashmix(index)) ^ np.uint32(g)
        g = (g * _MULT_B) & _MASK32
        w *= np.uint32(g)
        w ^= w >> 16
        seeds |= w.astype(np.uint64) << np.uint64(32 * k)
    return seeds

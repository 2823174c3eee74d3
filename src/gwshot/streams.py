"""Counter-based splittable random streams for reproducible Monte Carlo.

Every stream is a Philox generator keyed by (seed, stream id), so any
(replicate, purpose) pair addresses an independent stream without
sequential jumping.  Replicate-level seeds are derived from the master
seed with SeedSequence spawn keys, so a replicate's draws depend on the
master seed and its index alone, not on which replicates ran before it.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence  # numpy 2 loads it lazily: load it here, not at the first draw
from numpy.random.bit_generator import ISeedSequence

__all__ = ["substream", "replicate_seed", "IMMIGRATION", "OFFSPRING", "ATOMS", "GENERIC",
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
    ss = SeedSequence(entropy=master_seed & _MASK64, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])

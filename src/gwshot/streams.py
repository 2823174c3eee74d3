"""Counter-based splittable random streams for reproducible Monte Carlo.

Every stream is a Philox generator keyed by (seed, stream id), so any
(replicate, purpose) pair addresses an independent stream without
sequential jumping.  Replicate-level seeds are derived from the master
seed with SeedSequence spawn keys; results are therefore independent of
scheduling order when replicates run in parallel.
"""

from __future__ import annotations

import numpy as np

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


def substream(seed: int, purpose: int = GENERIC) -> np.random.Generator:
    """Independent generator for (seed, purpose)."""
    key = np.array([seed & _MASK64, purpose & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def replicate_seed(master_seed: int, index: int) -> int:
    """Well-mixed 64-bit seed for replicate `index` under a master seed."""
    ss = np.random.SeedSequence(entropy=master_seed & _MASK64, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])

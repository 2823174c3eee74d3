"""The full branching process with immigration and its observables.

At each time k, J_k immigrants join the population.  Offspring are
i.i.d., so the sum of independent cohorts is itself one Galton-Watson
population (the branching property), and one pass of the population
kernel `gw.population_log_path` gives the whole path Y.

The truncated process (immigrants with log J_k above a cutoff excluded)
is a second population T founded by the kept immigrants; the excluded
ones found a population R on a separate offspring substream, and
Y = T + R, which makes T <= Y hold seed by seed.

Immigrant draws and offspring draws come from separate counter-based
substreams of the run seed, so the immigrant sequence is reproducible on
its own (the coupling point for the truncated process and for the limit
path of a run's own atoms).
`run_replicates` derives one run per replicate seed, the one replicate
loop behind the CLI and the checks.  It sets replicates up a block at a
time: one pass derives a block's seeds and one draws all its immigrants,
and each replicate's draws are the ones it would make on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Iterator

import numpy as np

from . import streams
from .gw import FluidConfig, population_log_path
from .immigration import ImmigrationLaw
from .offspring import OffspringFamily
from .paths import CadlagPath

__all__ = [
    "GwiRun",
    "CoupledPaths",
    "immigrant_log_draws",
    "normalized_log",
    "run_coupled",
    "run_replicates",
]

_NEG_INF = float("-inf")

# A block of replicates set up at once holds at most _BLOCK_CELLS
# generations, so that its immigrant draws hold at most that many float64s
# (a path longer than this is a block of its own), and at most
# _BLOCK_REPLICATES replicates, whose generators (about 1 KB each) are all
# alive while the block draws.
_BLOCK_CELLS = 1 << 14
_BLOCK_REPLICATES = 1 << 10


@dataclass(frozen=True)
class GwiRun:
    """Scaling parameters and laws for one process realization."""

    n: int
    horizon: float
    family: OffspringFamily
    law: ImmigrationLaw
    config: FluidConfig = field(default_factory=FluidConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("time scale n must be >= 1")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")

    @property
    def num_steps(self) -> int:
        """[n*T]: index of the last simulated generation."""
        return int(math.floor(self.n * self.horizon + 1e-9))


@dataclass(frozen=True)
class CoupledPaths:
    """Raw log-domain outputs of one engine pass."""

    immigrant_log_j: np.ndarray        # (L,) log J_k
    y_log: np.ndarray                  # (L,) log Y_m
    truncated_log: np.ndarray | None   # (L,) log of the truncated population, if requested


def run_coupled(
    run: GwiRun,
    cutoff: float | None = None,
    immigrant_log_j: np.ndarray | None = None,
) -> CoupledPaths:
    """One engine pass; optionally also the truncated process.

    `immigrant_log_j` replaces the immigration draws: a lone cohort is the
    run whose one immigrant batch, at generation 0, is its founders.  When
    `cutoff` is given, the immigrants with log J_k <= cutoff found the
    truncated population T on the offspring substream and the excluded ones
    found a second population R on its own substream; Y = T + R, so T <= Y
    holds seed by seed.
    """
    size = run.num_steps + 1
    if immigrant_log_j is None:
        jlog = immigrant_log_draws(run)
    else:
        jlog = np.asarray(immigrant_log_j, dtype=np.float64)
        if jlog.shape != (size,):
            raise ValueError(f"immigrant log sequence must have length {size}")
    off_rng = streams.substream(run.seed, streams.OFFSPRING)
    if cutoff is None:
        y_log = population_log_path(run.family, jlog, run.config, off_rng)
        return CoupledPaths(immigrant_log_j=jlog, y_log=y_log, truncated_log=None)
    kept = jlog <= cutoff
    truncated = population_log_path(run.family, np.where(kept, jlog, _NEG_INF), run.config, off_rng)
    rest_rng = streams.substream(run.seed, streams.EXCLUDED_OFFSPRING)
    rest = population_log_path(run.family, np.where(kept, _NEG_INF, jlog), run.config, rest_rng)
    y_log = np.logaddexp(truncated, rest)
    return CoupledPaths(immigrant_log_j=jlog, y_log=y_log, truncated_log=truncated)


def immigrant_log_draws(run: GwiRun) -> np.ndarray:
    """The run's immigrant log J sequence, as `run_coupled` draws it."""
    return run.law.sample_log_j_array([streams.substream(run.seed, streams.IMMIGRATION)], run.num_steps + 1)[0]


def run_replicates(
    run: GwiRun,
    replicates: int,
    cutoff: float | None = None,
    immigrant_log_j: np.ndarray | None = None,
) -> Iterator[CoupledPaths]:
    """`run_coupled` for replicate r = 0.. of `run`, in order.

    Replicate r runs with seed `replicate_seed(run.seed, r)`, so each
    replicate's output depends on its index alone, not on how many others
    run before it.  Given `immigrant_log_j`, every replicate shares those
    immigrants and only its offspring draws differ.  Replicates are set up
    in blocks of consecutive ones, at most `_BLOCK_CELLS` generations and
    `_BLOCK_REPLICATES` replicates but at least one replicate: one
    `replicate_seeds` call and one immigrant draw over the block's
    substreams, whose row for replicate r is what `immigrant_log_draws`
    gives replicate r's run.
    """
    size = run.num_steps + 1
    per_block = max(1, min(_BLOCK_REPLICATES, _BLOCK_CELLS // size))
    for lo in range(0, replicates, per_block):
        seeds = streams.replicate_seeds(run.seed, lo, min(lo + per_block, replicates)).tolist()
        if immigrant_log_j is None:
            rows = run.law.sample_log_j_array([streams.substream(s, streams.IMMIGRATION) for s in seeds], size)
        else:
            rows = repeat(immigrant_log_j)
        for seed, row in zip(seeds, rows):
            yield run_coupled(replace(run, seed=seed), cutoff, row)


def normalized_log(
    log_values: np.ndarray,
    norm: float,
    supercritical_correction: float | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """log⁺(values[k] * mu^{-k}) / norm for k = 0.., into `out` if given.

    `log_values` holds the log of the values.  The correction factor (pass
    mu > 1) removes the deterministic mean growth so supercritical
    observables have a nondegenerate limit.
    """
    if norm <= 0:
        raise ValueError("norm must be positive")
    lv = np.asarray(log_values, dtype=np.float64)
    if supercritical_correction is not None:
        if supercritical_correction <= 0:
            raise ValueError("correction mean must be positive")
        lv = lv - np.arange(lv.shape[0]) * math.log(supercritical_correction)
    obs = np.maximum(lv, 0.0, out=out)
    obs /= norm
    return obs


def normalized_observable(log_values: np.ndarray, norm: float, n: int,
                          supercritical_correction: float | None = None) -> CadlagPath:
    """`normalized_log` as a step path on the grid k/n.  Not public: the
    benchmark's tracer (`perfbench/spans.py`) still names this function."""
    obs = normalized_log(log_values, norm, supercritical_correction)
    times = np.arange(obs.shape[0]) / n
    return CadlagPath(times, obs, np.zeros(obs.shape), times[-1])

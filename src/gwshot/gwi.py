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
its own (the coupling point for the conditional-mean proxy Z).
`run_replicates` derives one run per replicate seed, the one replicate
loop behind the CLI and the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterator

import numpy as np

from . import streams
from .gw import FluidConfig, mean_recursion, population_log_path
from .immigration import ImmigrationLaw
from .offspring import OffspringFamily
from .paths import CadlagPath

__all__ = [
    "GwiRun",
    "CoupledPaths",
    "conditional_mean_path",
    "immigrant_log_draws",
    "normalized_observable",
    "run_coupled",
    "run_replicates",
]

_NEG_INF = float("-inf")


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
    gamma: float | None = None,
    c_n: float | None = None,
    immigrant_log_j: np.ndarray | None = None,
) -> CoupledPaths:
    """One engine pass; optionally also the truncated process.

    `immigrant_log_j` overrides the immigration draws (deterministic test
    hook).  When `gamma` is given, the immigrants with log J_k <= gamma * c_n
    found the truncated population T on the offspring substream and the
    excluded ones found a second population R on its own substream;
    Y = T + R, so T <= Y holds seed by seed.
    """
    size = run.num_steps + 1
    if immigrant_log_j is None:
        jlog = immigrant_log_draws(run)
    else:
        jlog = np.asarray(immigrant_log_j, dtype=np.float64)
        if jlog.shape != (size,):
            raise ValueError(f"immigrant log sequence must have length {size}")
    off_rng = streams.substream(run.seed, streams.OFFSPRING)
    if gamma is None:
        y_log = population_log_path(run.family, jlog, run.config, off_rng)
        return CoupledPaths(immigrant_log_j=jlog, y_log=y_log, truncated_log=None)
    if not (0 < gamma < 1):
        raise ValueError("gamma must lie in (0, 1)")
    if c_n is None or c_n <= 0:
        raise ValueError("c_n must be positive")
    kept = jlog <= gamma * c_n
    truncated = population_log_path(run.family, np.where(kept, jlog, _NEG_INF), run.config, off_rng)
    rest_rng = streams.substream(run.seed, streams.EXCLUDED_OFFSPRING)
    rest = population_log_path(run.family, np.where(kept, _NEG_INF, jlog), run.config, rest_rng)
    y_log = np.logaddexp(truncated, rest)
    return CoupledPaths(immigrant_log_j=jlog, y_log=y_log, truncated_log=truncated)


def immigrant_log_draws(run: GwiRun) -> np.ndarray:
    """The run's immigrant log J sequence (the coupling point for Z)."""
    imm_rng = streams.substream(run.seed, streams.IMMIGRATION)
    return run.law.sample_log_j_array(imm_rng, run.num_steps + 1)


def run_replicates(
    run: GwiRun,
    replicates: int,
    gamma: float | None = None,
    c_n: float | None = None,
    jobs: int = 1,
) -> Iterator[CoupledPaths]:
    """`run_coupled` for replicate r = 0.. of `run`, in order.

    Replicate r runs with seed `replicate_seed(run.seed, r)`, so the output
    does not depend on `jobs`; `jobs > 1` spreads the replicates over that
    many worker processes, which take the caller's numpy error state.
    """
    runs = (replace(run, seed=streams.replicate_seed(run.seed, r)) for r in range(replicates))
    one = partial(run_coupled, gamma=gamma, c_n=c_n)
    if jobs <= 1:
        yield from map(one, runs)
        return
    from concurrent.futures import ProcessPoolExecutor  # multiprocessing costs ~20 ms to import

    with ProcessPoolExecutor(max_workers=jobs, initializer=partial(np.seterr, **np.geterr())) as pool:
        yield from pool.map(one, runs)


def conditional_mean_path(run: GwiRun, immigrant_log_j: np.ndarray) -> np.ndarray:
    """log Z_m, Z_m = sum_{k<=m} mu^{m-k} J_k, from the coupled immigrant draws."""
    jlog = np.asarray(immigrant_log_j, dtype=np.float64)
    return mean_recursion(_NEG_INF, -1, jlog, math.log(run.family.mean))[1:]  # from Z_{-1} = 0


def normalized_observable(
    log_values: np.ndarray,
    norm: float,
    n: int,
    supercritical_correction: float | None = None,
) -> CadlagPath:
    """Step path t -> log⁺(values[floor(n t)] * mu^{-floor(n t)}) / norm.

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
    obs = np.maximum(lv, 0.0) / norm
    times = np.arange(lv.shape[0]) / n
    return CadlagPath.step(times, obs)

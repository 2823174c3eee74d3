"""The full branching process with immigration and its observables.

At each time k, J_k immigrants join the population.  Offspring are
i.i.d., so the sum of independent cohorts is itself one Galton-Watson
population (the branching property) and the engine steps one aggregate
total, Y_0 = J_0, Y_{m+1} = offspring(Y_m) + J_{m+1}, through the hybrid
exact/fluid rules of `FluidConfig`: exact draws while the total is at or
below the exactness threshold, growth by the mean above it, and exact
re-entry when a subcritical fluid total descends below the threshold.
A fluid total that cannot descend has a closed-form rest of path.

The truncated process (immigrants with log J_k above a cutoff excluded)
is a second population T founded by the kept immigrants; the excluded
ones found a population R on a separate offspring substream, and
Y = T + R, which makes T <= Y hold seed by seed.

Immigrant draws and offspring draws come from separate counter-based
substreams of the run seed, so the immigrant sequence is reproducible on
its own (the coupling point for the conditional-mean proxy Z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import streams
from .gw import FluidConfig
from .immigration import ImmigrationLaw
from .lognum import LogMagnitude, as_log_array
from .offspring import OffspringFamily
from .paths import CadlagPath

__all__ = [
    "GwiRun",
    "CoupledPaths",
    "simulate_y_path",
    "truncated_y_path",
    "conditional_mean_path",
    "immigrant_log_draws",
    "normalized_observable",
    "run_coupled",
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

    def to_config(self) -> dict:
        return {
            "n": self.n,
            "horizon": self.horizon,
            "offspring": self.family.to_config(),
            "immigration": self.law.to_config(),
            "fluid": self.config.to_config(),
            "seed": self.seed,
        }

    @staticmethod
    def from_config(cfg: dict) -> "GwiRun":
        return GwiRun(
            n=int(cfg["n"]),
            horizon=float(cfg["horizon"]),
            family=OffspringFamily.from_config(cfg["offspring"]),
            law=ImmigrationLaw.from_config(cfg["immigration"]),
            config=FluidConfig.from_config(cfg.get("fluid", {})),
            seed=int(cfg.get("seed", 0)),
        )


@dataclass(frozen=True)
class CoupledPaths:
    """Raw log-domain outputs of one engine pass."""

    immigrant_log_j: np.ndarray        # (L,) log J_k
    y_log: np.ndarray                  # (L,) log Y_m
    truncated_log: np.ndarray | None   # (L,) log of the truncated population, if requested


def _mean_recursion(log_start: float, start: int, jlog_rest: np.ndarray, log_mu: float) -> np.ndarray:
    """log X_start.. of X_{m+1} = mu X_m + J_{m+1}, X_start = e^log_start.

    Closed form m log mu + logaddexp.accumulate(log X_start - start log mu,
    log J_k - k log mu); `jlog_rest` holds log J_{start+1}, ... .
    """
    steps = np.arange(start, start + jlog_rest.shape[0] + 1, dtype=np.float64) * log_mu
    terms = np.empty(steps.shape[0])
    terms[0] = log_start - steps[0]
    np.subtract(jlog_rest, steps[1:], out=terms[1:])
    return steps + np.logaddexp.accumulate(terms)


def _population_log_path(
    family: OffspringFamily, jlog: np.ndarray, config: FluidConfig, rng: np.random.Generator
) -> np.ndarray:
    """log Y_0..Y_{L-1} of Y_0 = J_0, Y_{m+1} = offspring(Y_m) + J_{m+1}.

    The total is sampled exactly while it is at most the exactness
    threshold and grows by the mean above it.  A fluid total that cannot
    descend back below the threshold (mean >= 1, or refinement off) has
    the closed-form rest of path `_mean_recursion`; a descending one is
    rounded and sampled exactly again once it is at or below the threshold.
    """
    size = jlog.shape[0]
    out = np.full(size, _NEG_INF)
    threshold = config.exactness_threshold
    log_m = math.log(threshold)
    log_mu = math.log(family.mean)
    descends = log_mu < 0 and config.refine_on_descent
    count: int | None = 0  # exact-regime total; None while fluid
    log_value = _NEG_INF   # fluid-regime total
    for m, jl in enumerate(jlog.tolist()):
        if count is None:
            log_value = float(np.logaddexp(log_value + log_mu, jl))
            if log_value <= log_m:
                count = int(round(math.exp(log_value)))
                out[m] = math.log(count) if count else _NEG_INF
                continue
        else:
            if count:
                count = family.sample_generation(count, rng)
            if jl <= log_m:
                count += int(round(math.exp(jl)))  # J is integer by construction
                if count <= threshold:
                    out[m] = math.log(count) if count else _NEG_INF
                    continue
                log_value = math.log(count)
            else:
                log_value = float(np.logaddexp(math.log(count) if count else _NEG_INF, jl))
            count = None
            if not descends:
                out[m:] = _mean_recursion(log_value, m, jlog[m + 1 :], log_mu)
                break
        out[m] = log_value
    return out


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
        y_log = _population_log_path(run.family, jlog, run.config, off_rng)
        return CoupledPaths(immigrant_log_j=jlog, y_log=y_log, truncated_log=None)
    if not (0 < gamma < 1):
        raise ValueError("gamma must lie in (0, 1)")
    if c_n is None or c_n <= 0:
        raise ValueError("c_n must be positive")
    kept = jlog <= gamma * c_n
    truncated = _population_log_path(run.family, np.where(kept, jlog, _NEG_INF), run.config, off_rng)
    rest_rng = streams.substream(run.seed, streams.EXCLUDED_OFFSPRING)
    rest = _population_log_path(run.family, np.where(kept, _NEG_INF, jlog), run.config, rest_rng)
    y_log = np.logaddexp(truncated, rest)
    return CoupledPaths(immigrant_log_j=jlog, y_log=y_log, truncated_log=truncated)


def simulate_y_path(run: GwiRun, immigrant_log_j: np.ndarray | None = None) -> list[LogMagnitude]:
    """Y_0..Y_[nT] in log domain; identical seeds reproduce identical output."""
    bundle = run_coupled(run, immigrant_log_j=immigrant_log_j)
    return [LogMagnitude(float(v)) for v in bundle.y_log]


def truncated_y_path(run: GwiRun, gamma: float, c_n: float) -> list[LogMagnitude]:
    """The immigration process keeping only cohorts with log J_k <= gamma*c_n."""
    bundle = run_coupled(run, gamma=gamma, c_n=c_n)
    assert bundle.truncated_log is not None
    return [LogMagnitude(float(v)) for v in bundle.truncated_log]


def immigrant_log_draws(run: GwiRun) -> np.ndarray:
    """The run's immigrant log J sequence (the coupling point for Z)."""
    imm_rng = streams.substream(run.seed, streams.IMMIGRATION)
    return run.law.sample_log_j_array(imm_rng, run.num_steps + 1)


def conditional_mean_path(
    run: GwiRun, immigrant_logs: Sequence[LogMagnitude] | np.ndarray
) -> list[LogMagnitude]:
    """Z_m = sum_{k<=m} mu^{m-k} J_k from the coupled immigrant draws."""
    jlog = as_log_array(immigrant_logs)
    out = _mean_recursion(_NEG_INF, -1, jlog, math.log(run.family.mean))[1:]  # from Z_{-1} = 0
    return [LogMagnitude(float(v)) for v in out]


def normalized_observable(
    values: Sequence[LogMagnitude] | np.ndarray,
    norm: float,
    n: int,
    supercritical_correction: float | None = None,
) -> CadlagPath:
    """Step path t -> log⁺(values[floor(n t)] * mu^{-floor(n t)}) / norm.

    The correction factor (pass mu > 1) removes the deterministic mean
    growth so supercritical observables have a nondegenerate limit.
    """
    if norm <= 0:
        raise ValueError("norm must be positive")
    lv = as_log_array(values)
    if supercritical_correction is not None:
        if supercritical_correction <= 0:
            raise ValueError("correction mean must be positive")
        lv = lv - np.arange(lv.shape[0]) * math.log(supercritical_correction)
    obs = np.maximum(lv, 0.0) / norm
    times = np.arange(lv.shape[0]) / n
    return CadlagPath.step(times, obs)

"""Single-cohort branching simulation with a hybrid exact/fluid kernel.

A cohort of m individuals transitions in O(1) through the family's m-fold
convolution while m stays below the exactness threshold.  Above it the
relative fluctuation of one generation is O(m^{-1/2}) <= 1e-3, invisible
on the log/n scale, so the kernel switches to the deterministic fluid
regime: value -> value * mu per generation, computed in log domain.  On
subcritical descent the kernel re-enters the exact regime (rounding to the
nearest integer) so extinction happens at a random time, reproducing the
kink of the limiting growth profile instead of an artificially sharp one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lognum import LogMagnitude
from .offspring import EXACT_COUNT_LIMIT, OffspringFamily
from .paths import CadlagPath

__all__ = ["FluidConfig", "PopulationPath", "simulate_cohort", "normalized_log_path", "limit_profile",
           "REGIME_EXACT", "REGIME_FLUID"]

REGIME_EXACT = 0
REGIME_FLUID = 1

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class FluidConfig:
    """Switching rules between exact sampling and the fluid regime."""

    exactness_threshold: int = 1_000_000
    refine_on_descent: bool = True

    def __post_init__(self) -> None:
        if self.exactness_threshold < 1_000:
            raise ValueError("exactness threshold below 1e3 makes fluid error bounds meaningless")
        if self.exactness_threshold > EXACT_COUNT_LIMIT:
            raise ValueError(f"exactness threshold must not exceed {EXACT_COUNT_LIMIT}")

    def to_config(self) -> dict:
        return {
            "exactness_threshold": self.exactness_threshold,
            "refine_on_descent": self.refine_on_descent,
        }

    @staticmethod
    def from_config(cfg: dict) -> "FluidConfig":
        return FluidConfig(
            exactness_threshold=int(cfg.get("exactness_threshold", 1_000_000)),
            refine_on_descent=bool(cfg.get("refine_on_descent", True)),
        )


@dataclass(frozen=True)
class PopulationPath:
    """Cohort size per generation (log domain) with per-value regime tags."""

    log_values: np.ndarray  # (G+1,) float64, -inf encodes 0
    regimes: np.ndarray     # (G+1,) uint8, REGIME_EXACT / REGIME_FLUID

    def __post_init__(self) -> None:
        lv = np.asarray(self.log_values, dtype=np.float64)
        rg = np.asarray(self.regimes, dtype=np.uint8)
        if lv.shape != rg.shape or lv.ndim != 1:
            raise ValueError("log_values and regimes must be 1-d arrays of equal length")
        object.__setattr__(self, "log_values", lv)
        object.__setattr__(self, "regimes", rg)

    def __len__(self) -> int:
        return len(self.log_values)


def fluid_descent_steps(log_value: float, log_mu: float, log_threshold: float) -> int:
    """Smallest j >= 1 with log_value + j*log_mu <= log_threshold (log_mu < 0)."""
    j = max(1, math.ceil((log_value - log_threshold) / (-log_mu)))
    while log_value + j * log_mu > log_threshold:
        j += 1
    while j > 1 and log_value + (j - 1) * log_mu <= log_threshold:
        j -= 1
    return j


def fluid_fill(log_value: float, log_mu: float, steps: int) -> np.ndarray:
    """Fluid values for offsets 1..steps: scale_pow(log_value, mu, j)."""
    return log_value + log_mu * np.arange(1, steps + 1, dtype=np.float64)


def simulate_cohort(
    family: OffspringFamily,
    initial: LogMagnitude,
    generations: int,
    config: FluidConfig,
    rng: np.random.Generator,
) -> PopulationPath:
    """Total population of one cohort simulated across `generations` steps."""
    if generations < 0:
        raise ValueError("generations must be >= 0")
    size = generations + 1
    logs = np.full(size, _NEG_INF)
    regimes = np.zeros(size, dtype=np.uint8)

    log_m = math.log(config.exactness_threshold)
    log_mu = math.log(family.mean)

    if initial.is_zero:
        logs[0] = _NEG_INF
        return PopulationPath(logs, regimes)

    # classify the initial value; counts at or below the threshold are rounded
    count: int | None = None
    if initial.log_value <= log_m:
        count = int(round(math.exp(initial.log_value)))
        logs[0] = math.log(count) if count > 0 else _NEG_INF
        if count == 0:
            return PopulationPath(logs, regimes)
    else:
        logs[0] = initial.log_value
        regimes[0] = REGIME_FLUID

    g = 0
    while g < generations:
        if count is not None and count <= config.exactness_threshold:
            nxt = family.sample_generation(count, rng)
            g += 1
            logs[g] = math.log(nxt) if nxt > 0 else _NEG_INF
            regimes[g] = REGIME_EXACT
            count = nxt
            if count == 0:
                break  # extinction is absorbing; tail stays -inf / exact
            continue

        # fluid regime from the current log value
        lv = logs[g]
        remaining = generations - g
        if log_mu >= 0 or not config.refine_on_descent:
            logs[g + 1 :] = fluid_fill(lv, log_mu, remaining)
            regimes[g + 1 :] = REGIME_FLUID
            g = generations
            break

        j = fluid_descent_steps(lv, log_mu, log_m)
        if j >= remaining:
            logs[g + 1 :] = fluid_fill(lv, log_mu, remaining)
            regimes[g + 1 :] = REGIME_FLUID
            g = generations
            break
        if j > 1:
            logs[g + 1 : g + j] = fluid_fill(lv, log_mu, j - 1)
            regimes[g + 1 : g + j] = REGIME_FLUID
        # descent below the threshold: round and resume exact sampling
        count = int(round(math.exp(lv + j * log_mu)))
        g += j
        logs[g] = math.log(count) if count > 0 else _NEG_INF
        regimes[g] = REGIME_FLUID
        if count == 0:
            break

    return PopulationPath(logs, regimes)


def normalized_log_path(path: PopulationPath, scale: float, time_scale_n: int) -> CadlagPath:
    """Step function t -> log⁺(values[floor(n t)]) / scale on [0, G/n]."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if time_scale_n < 1:
        raise ValueError("time scale n must be >= 1")
    obs = np.maximum(path.log_values, 0.0) / scale
    times = np.arange(len(path)) / time_scale_n
    return CadlagPath.step(times, obs)


def limit_profile(a: float, mu: float, t: float | np.ndarray) -> float | np.ndarray:
    """(a + t log mu)^+ — the limiting log-growth profile of an e^{an} cohort."""
    if a <= 0:
        raise ValueError("a must be positive")
    if mu <= 0:
        raise ValueError("mu must be positive")
    out = np.maximum(np.asarray(a + np.asarray(t, dtype=np.float64) * math.log(mu)), 0.0)
    return float(out) if out.ndim == 0 else out

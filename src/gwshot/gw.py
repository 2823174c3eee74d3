"""The population kernel: a Galton-Watson population fed by immigrants.

`population_log_path` steps Y_0 = J_0, Y_{m+1} = offspring(Y_m) + J_{m+1}
in log domain.  While the total is at most the exactness threshold it
transitions in O(1) through the family's m-fold convolution.  Above it the
relative fluctuation of one generation is O(m^{-1/2}) <= 1e-3, invisible
on the log/n scale, so the kernel switches to the deterministic fluid
regime: value -> value * mu + J per generation.  On subcritical descent the
kernel re-enters the exact regime (rounding to the nearest integer) so
extinction happens at a random time, reproducing the kink of the limiting
growth profile instead of an artificially sharp one.

The per-generation steps run on Python scalars: an exact generation is one
scalar draw (`OffspringFamily.sample_generation`), a fluid one is a libm
`_logaddexp`, bit for bit `np.logaddexp`, and a total that is extinct with
no immigrant left is not stepped at all.

By the branching property a lone cohort is the same process with a single
founding batch and no later immigrants (`simulate_cohort`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .budgets import require_count
from .offspring import EXACT_COUNT_LIMIT, OffspringFamily

__all__ = ["FluidConfig", "population_log_path", "mean_recursion", "simulate_cohort", "limit_profile"]

_NEG_INF = float("-inf")
_LOG2 = math.log(2.0)
_CHUNK = 1024  # generations converted to Python floats at a time


@dataclass(frozen=True)
class FluidConfig:
    """Switching rules between exact sampling and the fluid regime."""

    exactness_threshold: int = 1_000_000
    refine_on_descent: bool = True

    def __post_init__(self) -> None:
        require_count("exactness_threshold", self.exactness_threshold)
        if self.exactness_threshold < 1_000:
            raise ValueError("exactness threshold below 1e3 makes fluid error bounds meaningless")
        if self.exactness_threshold > EXACT_COUNT_LIMIT:
            raise ValueError(f"exactness threshold must not exceed {EXACT_COUNT_LIMIT}")
        if not isinstance(self.refine_on_descent, bool):  # bool("false") is True
            raise ValueError(f"refine_on_descent must be true or false, got {self.refine_on_descent!r}")

    @staticmethod
    def from_config(cfg: dict) -> "FluidConfig":
        return FluidConfig(
            exactness_threshold=cfg.get("exactness_threshold", 1_000_000),
            refine_on_descent=cfg.get("refine_on_descent", True),
        )


def mean_recursion(log_start: float, start: int, jlog_rest: np.ndarray, log_mu: float) -> np.ndarray:
    """log X_start.. of X_{m+1} = mu X_m + J_{m+1}, X_start = e^log_start.

    Closed form m log mu + logaddexp.accumulate(log X_start - start log mu,
    log J_k - k log mu); `jlog_rest` holds log J_{start+1}, ... .
    """
    steps = np.arange(start, start + jlog_rest.shape[0] + 1, dtype=np.float64) * log_mu
    terms = np.empty(steps.shape[0])
    terms[0] = log_start - steps[0]
    np.subtract(jlog_rest, steps[1:], out=terms[1:])
    return steps + np.logaddexp.accumulate(terms)


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y) on Python floats, bit for bit `np.logaddexp`.

    A line-for-line copy of numpy's `npy_logaddexp` on the libm
    `log1p`/`exp` behind `math`, without the cost of a ufunc call.
    """
    if x == y:  # infinities of the same sign
        return x + _LOG2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d  # NaN


def population_log_path(
    family: OffspringFamily, jlog: np.ndarray, config: FluidConfig, rng: np.random.Generator
) -> np.ndarray:
    """log Y_0..Y_{L-1} of Y_0 = J_0, Y_{m+1} = offspring(Y_m) + J_{m+1}.

    The total is sampled exactly while it is at most the exactness
    threshold and grows by the mean above it.  A fluid total that cannot
    descend back below the threshold (mean >= 1, or refinement off) has
    the closed-form rest of path `mean_recursion`; a descending one is
    rounded and sampled exactly again once it is at or below the threshold.
    An exact total of 0 with no immigrant left stays 0: the rest of the
    path is -inf without a step.
    """
    size = jlog.shape[0]
    out = np.full(size, _NEG_INF)
    threshold = config.exactness_threshold
    log_m = math.log(threshold)
    log_mu = math.log(family.mean)
    descends = log_mu < 0 and config.refine_on_descent
    last_arrival: int | None = None  # found when an exact total first meets a generation without one
    count: int | None = 0  # exact-regime total; None while fluid
    log_value = _NEG_INF   # fluid-regime total
    # Python floats only for the generations the loop reaches, a chunk at a time
    steps = chain.from_iterable(jlog[lo : lo + _CHUNK].tolist() for lo in range(0, size, _CHUNK))
    for m, jl in enumerate(steps):
        if count is None:
            log_value = _logaddexp(log_value + log_mu, jl)
            if log_value <= log_m:
                count = int(round(math.exp(log_value)))
                out[m] = math.log(count) if count else _NEG_INF
                continue
        else:
            if count:
                count = family.sample_generation(count, rng)
            elif jl == _NEG_INF:
                if last_arrival is None:
                    arrivals = np.flatnonzero(jlog != _NEG_INF)  # a NaN counts as an arrival and is stepped
                    last_arrival = int(arrivals[-1]) if arrivals.size else -1
                if m > last_arrival:
                    break
            if jl <= log_m:
                count += int(round(math.exp(jl)))  # J is integer by construction
                if count <= threshold:
                    out[m] = math.log(count) if count else _NEG_INF
                    continue
                log_value = math.log(count)
            else:
                log_value = _logaddexp(math.log(count) if count else _NEG_INF, jl)
            count = None
            if not descends:
                out[m:] = mean_recursion(log_value, m, jlog[m + 1 :], log_mu)
                break
        out[m] = log_value
    return out


def simulate_cohort(
    family: OffspringFamily,
    initial_log: float,
    generations: int,
    config: FluidConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """log of one cohort's size at generations 0..`generations`, founded by
    e^`initial_log` individuals; -inf encodes 0."""
    if generations < 0:
        raise ValueError("generations must be >= 0")
    jlog = np.full(generations + 1, _NEG_INF)
    jlog[0] = initial_log
    return population_log_path(family, jlog, config, rng)


def limit_profile(a: float, mu: float, t: float | np.ndarray) -> float | np.ndarray:
    """(a + t log mu)^+ — the limiting log-growth profile of an e^{an} cohort."""
    if a <= 0:
        raise ValueError("a must be positive")
    if mu <= 0:
        raise ValueError("mu must be positive")
    out = np.maximum(np.asarray(a + np.asarray(t, dtype=np.float64) * math.log(mu)), 0.0)
    return float(out) if out.ndim == 0 else out

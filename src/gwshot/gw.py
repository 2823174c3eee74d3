"""The population kernel: a Galton-Watson population fed by immigrants.

`population_log_path` steps Y_0 = J_0, Y_{m+1} = offspring(Y_m) + J_{m+1}
in log domain.  While the total is at most the exactness threshold it
transitions in O(1) through the family's m-fold convolution, one scalar
draw per generation.  Above it the relative fluctuation of one generation
is O(m^{-1/2}) <= 1e-3, invisible on the log/n scale, so the kernel
switches to the deterministic fluid regime X_{m+1} = mu X_m + J_{m+1},
whose every stretch is the closed form `mean_recursion`.  On subcritical
descent the kernel re-enters the exact regime (rounding to the nearest
integer) so extinction happens at a random time, reproducing the kink of
the limiting growth profile instead of an artificially sharp one.

By the branching property a lone cohort is the same process with its
founders as J_0 and no later immigrants (`gwi.run_coupled`'s `immigrant_log_j`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import reject_unknown_keys, require_count
from .offspring import EXACT_COUNT_LIMIT, OffspringFamily

__all__ = ["FluidConfig", "population_log_path", "mean_recursion"]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class FluidConfig:
    """Switching rules between exact sampling and the fluid regime."""

    exactness_threshold: int = 1_000_000

    def __post_init__(self) -> None:
        require_count("exactness_threshold", self.exactness_threshold)
        if self.exactness_threshold < 1_000:
            raise ValueError("exactness threshold below 1e3 makes fluid error bounds meaningless")
        if self.exactness_threshold > EXACT_COUNT_LIMIT:
            raise ValueError(f"exactness threshold must not exceed {EXACT_COUNT_LIMIT}")

    @staticmethod
    def from_config(cfg: dict) -> "FluidConfig":
        """Read `exactness_threshold`; any other key is refused, not ignored."""
        reject_unknown_keys("fluid", cfg, ("exactness_threshold",))
        return FluidConfig(exactness_threshold=cfg.get("exactness_threshold", 1_000_000))


def mean_recursion(log_start: float, start: int, jlog_rest: np.ndarray, log_mu: float) -> np.ndarray:
    """log X_start.. of X_{m+1} = mu X_m + J_{m+1}, X_start = e^log_start.

    Closed form m log mu + logaddexp.accumulate(log X_start - start log mu,
    log J_k - k log mu); `jlog_rest` holds log J_{start+1}, ... .
    """
    terms = np.empty(jlog_rest.shape[0] + 1)
    if log_mu == 0.0:  # every step k log mu is a zero, whose sign changes no bit of the result
        steps = first = rest = log_mu
    else:
        steps = np.arange(start, start + terms.shape[0], dtype=np.float64) * log_mu
        first, rest = steps[0], steps[1:]
    terms[0] = log_start - first
    np.subtract(jlog_rest, rest, out=terms[1:])
    return np.add(np.logaddexp.accumulate(terms, out=terms), steps, out=terms)  # in place: less peak memory


def population_log_path(
    family: OffspringFamily, jlog: np.ndarray, config: FluidConfig, rng: np.random.Generator
) -> np.ndarray:
    """log Y_0..Y_{L-1} of Y_0 = J_0, Y_{m+1} = offspring(Y_m) + J_{m+1}.

    The total is sampled exactly while it is at most the exactness
    threshold and grows by the mean above it.  A fluid stretch is the
    closed form `mean_recursion`: to the end of the path for a total that
    cannot descend back below the threshold (mean >= 1), and for a
    descending one up to the first generation at or below the threshold,
    where the value is rounded to a count that is sampled exactly again.
    An exact total of 0 with no immigrant left stays 0: the rest of the
    path is -inf without a step.
    """
    size = jlog.shape[0]
    out = np.full(size, _NEG_INF)
    threshold = config.exactness_threshold
    log_m = math.log(threshold)
    log_mu = math.log(family.mean)
    descends = log_mu < 0
    step = family.exact_step(rng)  # only ever given a count in [1, threshold]
    last_arrival: int | None = None  # found when an exact total first meets a generation without one
    count = 0  # the exact-regime total
    m = 0
    while m < size:
        jl = jlog.item(m)
        if count:
            count = step(count)
        elif jl == _NEG_INF:
            if last_arrival is None:
                arrivals = np.flatnonzero(jlog != _NEG_INF)  # a NaN counts as an arrival and is stepped
                last_arrival = int(arrivals[-1]) if arrivals.size else -1
            if m > last_arrival:
                break
        if jl <= log_m:
            count += int(round(math.exp(jl)))  # J is integer by construction
        if count > threshold or jl > log_m:
            # the fluid stretch from m on; a descending total goes in windows, each continuing
            # the last and at least twice as long.  It falls by at most a factor mu per
            # generation (immigrants only add): above the threshold for `gap` generations.
            log_count = math.log(count) if count else _NEG_INF
            log_value = log_count if jl <= log_m else float(np.logaddexp(log_count, jl))
            width = 0
            while True:
                end = size
                if descends:
                    gap = (log_value - log_m) / -log_mu
                    if gap < size - m:  # False for a NaN or infinite total too
                        width = max(math.ceil(gap), 2 * width)
                        end = min(size, m + 1 + width)
                fluid = mean_recursion(log_value, m, jlog[m + 1 : end], log_mu)
                k = int((fluid <= log_m).argmax()) if descends else 0
                if descends and fluid.item(k) <= log_m:
                    break
                out[m:end] = fluid
                if end == size:
                    return out
                m, log_value = end - 1, fluid.item(-1)
            out[m : m + k] = fluid[:k]
            count = int(round(math.exp(fluid.item(k))))  # re-enter the exact regime
            m += k
        out[m] = math.log(count) if count else _NEG_INF
        m += 1
    return out

"""Empirical-distribution machinery and path metrics for the checks.

KS distances here are descriptive statistics compared against stated
thresholds, not formal hypothesis tests: the convergence rates of the
limit theorems being verified are unknown, so thresholds are calibrated
by the DKW band plus explicit slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .paths import CadlagPath

__all__ = [
    "Sample",
    "ecdf",
    "ks_distance",
    "dkw_band",
    "uniform_distance",
]


@dataclass(frozen=True)
class Sample:
    """A finite set of real observations; a sorted copy is retained."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.sort(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 1:
            raise ValueError("sample must be one-dimensional")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


def ecdf(sample: Sample, x: float | np.ndarray) -> float | np.ndarray:
    """Right-continuous empirical CDF: fraction of values <= x."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    out = np.searchsorted(sample.values, np.asarray(x, dtype=np.float64), side="right") / len(sample)
    return float(out) if out.ndim == 0 else out


def ks_distance(sample: Sample, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic against a CDF callable.

    The CDF is called once, on the whole sample array, and must return an
    array of the same shape.
    """
    if len(sample) == 0:
        raise ValueError("empty sample")
    xs = sample.values
    f = np.asarray(cdf(xs), dtype=np.float64)
    if f.shape != xs.shape:
        raise ValueError(f"cdf must be vectorised: shape {f.shape} for a sample of shape {xs.shape}")
    n = len(xs)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(hi - f), np.max(f - lo)))


def dkw_band(n: int, confidence: float) -> float:
    """Half-width of the DKW uniform confidence band at the given level."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if not (0 < confidence < 1):
        raise ValueError("confidence must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


def _eval_points(f: CadlagPath, g: CadlagPath, grid: np.ndarray | None) -> np.ndarray:
    pts = [f.breakpoints, g.breakpoints, [f.end_time]]
    if grid is not None:
        pts.append(np.asarray(grid, dtype=np.float64))
    merged = np.unique(np.concatenate(pts))
    return merged[(merged >= 0.0) & (merged <= f.end_time)]


def uniform_distance(f: CadlagPath, g: CadlagPath, grid: np.ndarray | None = None) -> float:
    """Supremum of |f - g| over grid, breakpoints, and their left limits."""
    if f.end_time != g.end_time:
        raise ValueError("paths must share a common domain")
    pts = _eval_points(f, g, grid)
    d_right = np.abs(f.value(pts) - g.value(pts))
    d_left = np.abs(f.left_limit(pts) - g.left_limit(pts))
    return float(max(d_right.max(), d_left.max()))


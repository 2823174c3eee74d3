"""Empirical-distribution machinery and path metrics for the checks.

KS distances here are descriptive statistics compared against stated
thresholds, not formal hypothesis tests: the convergence rates of the
limit theorems being verified are unknown.  The KS thresholds are set by
hand (0.01 for the limit sampler, 0.15 for the prelimit ladders), not from
`dkw_band`; 0.01 lies above the 99.9% DKW half-width at 10^5 samples, 0.0062.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .limit import _ROUND_ATOMS  # one slice of KS is one round of the sampler
from .paths import CadlagPath

__all__ = [
    "Sample",
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


def ks_distance(sample: Sample, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic against a CDF callable.

    The CDF is called once per slice of at most 2^14 sorted values, and
    must return an array of the slice's shape.  The statistic is a maximum
    of elementwise gaps, so slicing keeps it bit for bit and bounds the
    working set at any sample size.
    """
    if len(sample) == 0:
        raise ValueError("empty sample")
    xs = sample.values
    n = len(xs)
    gaps = []
    for lo in range(0, n, _ROUND_ATOMS):
        part = xs[lo:lo + _ROUND_ATOMS]
        f = np.asarray(cdf(part), dtype=np.float64)
        if f.shape != part.shape:
            raise ValueError(f"cdf must be vectorised: shape {f.shape} for a sample slice of shape {part.shape}")
        rank = np.arange(lo, lo + part.size)
        gaps += (np.max((rank + 1) / n - f), np.max(f - rank / n))
    return float(np.max(gaps))  # NaN from the CDF stays NaN


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


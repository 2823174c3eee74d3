"""Empirical-distribution machinery and path metrics for the checks.

KS distances here are descriptive statistics compared against stated
thresholds, not formal hypothesis tests: the convergence rates of the
limit theorems being verified are unknown, so thresholds are calibrated
by the DKW band plus explicit slack.

The Skorokhod J1 distance is provided as a certified bracket.  An exact
J1 would require optimizing over all time-change homeomorphisms; instead
the upper bound evaluates the objective exactly for the best candidate
time change found by a dynamic program over breakpoint alignments (any
time change yields a valid upper bound), and the lower bound exploits
that within a window of half-width `upper` around t, some function value
of f must come within the true distance of g(t).
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
    "j1_distance_bracket",
]

MAX_J1_BREAKPOINTS = 10_000


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


# ----------------------------------------------------------------------
# J1 bracket
# ----------------------------------------------------------------------


def _events(path: CadlagPath) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, left values, right values) at breakpoints plus the endpoint."""
    t = path.breakpoints
    if t[-1] < path.end_time:
        t = np.append(t, path.end_time)
    left = np.asarray(path.left_limit(t), dtype=np.float64)
    right = np.asarray(path.value(t), dtype=np.float64)
    return t, left, right


def _compose_time_change(f: CadlagPath, knots_g: np.ndarray, knots_f: np.ndarray) -> CadlagPath:
    """f composed with the piecewise-linear time change g-time -> f-time."""
    new_bps: list[float] = []
    new_vals: list[float] = []
    new_slopes: list[float] = []
    for seg in range(len(knots_g) - 1):
        s0, s1 = knots_g[seg], knots_g[seg + 1]
        t0, t1 = knots_f[seg], knots_f[seg + 1]
        ratio = (t1 - t0) / (s1 - s0)
        inner = f.breakpoints[(f.breakpoints > t0) & (f.breakpoints < t1)]
        starts = np.concatenate([[t0], inner])
        for tau in starts:
            s_tau = s0 + (tau - t0) / ratio if ratio > 0 else s0
            idx = int(np.clip(np.searchsorted(f.breakpoints, tau, side="right") - 1, 0, None))
            val = f.values[idx] + f.slopes[idx] * (tau - f.breakpoints[idx])
            if new_bps and abs(s_tau - new_bps[-1]) < 1e-15:
                new_vals[-1], new_slopes[-1] = val, f.slopes[idx] * ratio
            else:
                new_bps.append(float(s_tau))
                new_vals.append(float(val))
                new_slopes.append(float(f.slopes[idx] * ratio))
    return CadlagPath(np.array(new_bps), np.array(new_vals), np.array(new_slopes), f.end_time)


def _evaluate_time_change(
    f: CadlagPath, g: CadlagPath, knots_g: np.ndarray, knots_f: np.ndarray
) -> float:
    """max(dist of the time change from identity, sup |f(time change) - g|)."""
    warp = float(np.max(np.abs(knots_f - knots_g)))
    composed = _compose_time_change(f, knots_g, knots_f)
    return max(warp, uniform_distance(composed, g))


def _alignment_knots(f: CadlagPath, g: CadlagPath) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoint alignment by a min-max dynamic program over event pairs."""
    tf, lf, rf = _events(f)
    tg, lg, rg = _events(g)
    m, n = len(tf), len(tg)
    cost = np.maximum(
        np.abs(tf[:, None] - tg[None, :]),
        np.maximum(np.abs(rf[:, None] - rg[None, :]), np.abs(lf[:, None] - lg[None, :])),
    )
    dp = np.empty((m, n))
    move = np.zeros((m, n), dtype=np.uint8)  # 0 diag, 1 up (advance f), 2 left (advance g)
    dp[0, 0] = cost[0, 0]
    for i in range(1, m):
        dp[i, 0] = max(dp[i - 1, 0], cost[i, 0])
        move[i, 0] = 1
    for j in range(1, n):
        dp[0, j] = max(dp[0, j - 1], cost[0, j])
        move[0, j] = 2
    for i in range(1, m):
        row_prev = dp[i - 1]
        row = dp[i]
        for j in range(1, n):
            best = row_prev[j - 1]
            mv = 0
            if row_prev[j] < best:
                best, mv = row_prev[j], 1
            if row[j - 1] < best:
                best, mv = row[j - 1], 2
            row[j] = max(best, cost[i, j])
            move[i, j] = mv
    # backtrack diagonal moves: matched event pairs become time-change knots
    pairs = [(m - 1, n - 1)]
    i, j = m - 1, n - 1
    while i > 0 or j > 0:
        mv = move[i, j]
        if mv == 0 and i > 0 and j > 0:
            i, j = i - 1, j - 1
            pairs.append((i, j))
        elif mv == 1 and i > 0:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    knots_g = [tg[0]]
    knots_f = [tf[0]]
    for i, j in pairs:
        if tf[i] > knots_f[-1] and tg[j] > knots_g[-1]:
            knots_f.append(tf[i])
            knots_g.append(tg[j])
    # endpoints are always pinned
    if knots_f[-1] < tf[-1] or knots_g[-1] < tg[-1]:
        if tf[-1] > knots_f[-1] and tg[-1] > knots_g[-1]:
            knots_f.append(tf[-1])
            knots_g.append(tg[-1])
        else:
            knots_f[-1], knots_g[-1] = tf[-1], tg[-1]
    return np.array(knots_g), np.array(knots_f)


def _value_window_distance(f: CadlagPath, y: float, lo: float, hi: float) -> float:
    """Distance from y to the closure of f's value set over [lo, hi]."""
    lo = max(lo, 0.0)
    hi = min(hi, f.end_time)
    if hi < lo:
        return math.inf
    best = math.inf
    i0 = int(np.clip(np.searchsorted(f.breakpoints, lo, side="right") - 1, 0, None))
    for i in range(i0, len(f.breakpoints)):
        seg_lo = f.breakpoints[i]
        seg_hi = f.breakpoints[i + 1] if i + 1 < len(f.breakpoints) else f.end_time
        a, b = max(seg_lo, lo), min(seg_hi, hi)
        if a > b:
            break
        va = f.values[i] + f.slopes[i] * (a - f.breakpoints[i])
        vb = f.values[i] + f.slopes[i] * (b - f.breakpoints[i])
        v_lo, v_hi = min(va, vb), max(va, vb)
        if y < v_lo:
            best = min(best, v_lo - y)
        elif y > v_hi:
            best = min(best, y - v_hi)
        else:
            return 0.0
    return best


def j1_distance_bracket(f: CadlagPath, g: CadlagPath, grid_points: int = 1000) -> tuple[float, float]:
    """(lower, upper) with lower <= J1(f, g) <= upper.

    Upper: exact objective of the best candidate time change (the aligned
    one from the dynamic program, and the identity).  Lower: the largest
    over a grid of the distance from g(t) to f's values within a window of
    half-width `upper` around t.
    """
    for p in (f, g):
        if len(p.breakpoints) > MAX_J1_BREAKPOINTS:
            raise ValueError(f"path has more than {MAX_J1_BREAKPOINTS} breakpoints")
    if f.end_time != g.end_time:
        raise ValueError("paths must share a common domain")

    upper = uniform_distance(f, g)
    if upper > 0.0:
        knots_g, knots_f = _alignment_knots(f, g)
        upper = min(upper, _evaluate_time_change(f, g, knots_g, knots_f))

    ts = np.linspace(0.0, g.end_time, grid_points)
    gv = np.asarray(g.value(ts), dtype=np.float64)
    lower = 0.0
    for t, y in zip(ts, gv):
        d = _value_window_distance(f, float(y), float(t) - upper, float(t) + upper)
        if d > lower:
            lower = d
    return min(lower, upper), upper

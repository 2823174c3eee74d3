"""Right-continuous piecewise-affine paths given by breakpoints.

They carry the limit shot-noise paths (segments of common slope between
jumps, clamped at a floor); a step function is the case of zero slopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CadlagPath"]


@dataclass(frozen=True)
class CadlagPath:
    """Piecewise-affine right-continuous function on [0, end_time].

    Segment i covers [breakpoints[i], breakpoints[i+1]) (the last one runs
    to end_time inclusive) with value `values[i] + slopes[i] * (t - b_i)`.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    end_time: float

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        slp = np.asarray(self.slopes, dtype=np.float64)
        if bp.ndim != 1 or bp.size == 0:
            raise ValueError("breakpoints must be a nonempty 1-d array")
        if bp[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not (bp[1:] > bp[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        if not (vals.shape == bp.shape == slp.shape):
            raise ValueError("breakpoints, values and slopes must have equal length")
        if self.end_time < bp[-1]:
            raise ValueError("end_time must not precede the last breakpoint")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "slopes", slp)
        object.__setattr__(self, "end_time", float(self.end_time))

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        """Right-continuous evaluation on [0, end_time]."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0) or np.any(t > self.end_time + 1e-12):
            raise ValueError("evaluation time outside [0, end_time]")
        idx = np.clip(np.searchsorted(self.breakpoints, t, side="right") - 1, 0, None)
        out = self.values[idx] + self.slopes[idx] * (t - self.breakpoints[idx])
        return float(out) if out.ndim == 0 else out

    def left_limit(self, t: float | np.ndarray) -> float | np.ndarray:
        """Limit from the left; at t = 0 the value itself."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.clip(np.searchsorted(self.breakpoints, t, side="left") - 1, 0, None)
        out = self.values[idx] + self.slopes[idx] * (t - self.breakpoints[idx])
        return float(out) if out.ndim == 0 else out

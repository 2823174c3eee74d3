"""Heavy-tailed immigration laws with exact inverse-CDF sampling.

Each variant pins an *exact* tail for log J (not just an asymptote), so
the sampler and the norming solver can be tested with zero modeling slack:

* reciprocal(c):    P{log J > x} = min(1, c/x)
* pareto_log(a):    P{log J > x} = min(1, x^(-a)),  a in (0,1)
* pareto_log_sv:    P{log J > x} = min(1, log(e+x)/x)   (a = 1 with a
                    slowly varying factor that grows to infinity)

All variants give E log⁺ J = infinity, the "very active" regime.  The
immigrant count is J = max(1, floor(e^V)) where V is the sampled tail
value, so J is integer, J >= 1, and log J differs from V by at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budgets import require_number

__all__ = ["ImmigrationLaw", "FLOOR_EXACT_LOG"]

_VARIANTS = ("reciprocal", "pareto_log", "pareto_log_sv")

# Below this log scale e^V fits well inside 2**53 and the floor is taken
# exactly; above it, log(floor(e^V)) equals V to within float64 resolution.
FLOOR_EXACT_LOG = 36.0


def _sv_tail_ratio(x: np.ndarray | float) -> np.ndarray | float:
    """log(e+x)/x, the decreasing tail profile of the slowly-varying variant."""
    return np.log(np.e + x) / x


@dataclass(frozen=True)
class ImmigrationLaw:
    """A tail family for log J; `param` is c or alpha depending on variant."""

    variant: str
    param: float

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown immigration variant {self.variant!r}")
        if self.variant == "reciprocal" and not self.param > 0:
            raise ValueError("reciprocal law needs c > 0")
        if self.variant == "pareto_log" and not (0 < self.param < 1):
            raise ValueError("pareto_log law needs alpha in (0, 1)")
        if self.variant == "pareto_log_sv" and self.param != 1.0:
            raise ValueError("pareto_log_sv has fixed alpha = 1")

    @staticmethod
    def reciprocal(c: float) -> "ImmigrationLaw":
        return ImmigrationLaw("reciprocal", float(c))

    @staticmethod
    def pareto_log(alpha: float) -> "ImmigrationLaw":
        return ImmigrationLaw("pareto_log", float(alpha))

    @staticmethod
    def pareto_log_sv() -> "ImmigrationLaw":
        return ImmigrationLaw("pareto_log_sv", 1.0)

    # ------------------------------------------------------------------
    # Tail and its inverse
    # ------------------------------------------------------------------

    def tail(self, x: float | np.ndarray) -> float | np.ndarray:
        """Exact P{log J's sampled tail value > x} for x >= 0."""
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0):
            raise ValueError("tail is defined for x >= 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.variant == "reciprocal":
                t = self.param / x
            elif self.variant == "pareto_log":
                t = x ** (-self.param)
            else:
                t = _sv_tail_ratio(x)
        t = np.minimum(1.0, np.where(x == 0.0, 1.0, t))
        return float(t) if t.ndim == 0 else t

    def inverse_tail(self, u: float | np.ndarray) -> float | np.ndarray:
        """V with tail(V) = u, for u in (0, 1]; closed form where available."""
        u = np.asarray(u, dtype=np.float64)
        if np.any(u <= 0) or np.any(u > 1):
            raise ValueError("inverse_tail needs u in (0, 1]")
        v = self._inverse_tail(u)
        return float(v) if v.ndim == 0 else v

    def _inverse_tail(self, u: np.ndarray) -> np.ndarray:
        """`inverse_tail` of a float64 array already in (0, 1]."""
        if self.variant == "reciprocal":
            return self.param / u
        if self.variant == "pareto_log":
            return u ** (-1.0 / self.param)
        return self._sv_inverse(u, iterations=50)

    @staticmethod
    def _sv_inverse(u: np.ndarray, iterations: int) -> np.ndarray:
        """Monotone bisection of log(e+x)/x = u (decreasing in x)."""
        u = np.atleast_1d(u)
        lo = np.full_like(u, 1e-12)
        hi = np.full_like(u, 4.0)
        # expand hi until the tail has dropped below every target
        for _ in range(200):
            mask = _sv_tail_ratio(hi) > u
            if not mask.any():
                break
            hi[mask] *= 2.0
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            above = _sv_tail_ratio(mid) > u
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        out = 0.5 * (lo + hi)
        return out.reshape(u.shape)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample_tail_value(self, rng: np.random.Generator, size: int | None = None):
        """V = tail^{-1}(U), U uniform on (0, 1]."""
        v = self._inverse_tail(np.asarray(1.0 - rng.random(size)))
        return float(v) if v.ndim == 0 else v

    def sample_log_j_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """log J draws, J = max(1, floor(e^V)), as a float64 log-value array."""
        return floored_log(self.sample_tail_value(rng, size))

    # ------------------------------------------------------------------
    # Norming sequence
    # ------------------------------------------------------------------

    def norming_bn(self, n: int) -> float:
        """The b with n * tail(b) = 1; closed form except for the sv variant."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.variant == "reciprocal":
            return self.param * n
        if self.variant == "pareto_log":
            return float(n) ** (1.0 / self.param)
        target = 1.0 / n
        lo, hi = 1e-12, 4.0
        while _sv_tail_ratio(hi) > target:
            hi *= 2.0
            if np.isinf(hi):
                raise OverflowError(f"b_n for n = {n} exceeds the float range")
        # bisect to relative tolerance 1e-12 (approx 2 extra decades of margin
        # versus the 1e-9 residual requirement)
        while (hi - lo) > 1e-13 * lo:
            mid = 0.5 * (lo + hi)
            if _sv_tail_ratio(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # ------------------------------------------------------------------
    # Config parsing
    # ------------------------------------------------------------------

    @staticmethod
    def from_config(cfg: dict) -> "ImmigrationLaw":
        variant = str(cfg["variant"])
        if variant == "reciprocal":
            return ImmigrationLaw.reciprocal(require_number("c", cfg["c"]))
        if variant == "pareto_log":
            return ImmigrationLaw.pareto_log(require_number("alpha", cfg["alpha"]))
        if variant == "pareto_log_sv":
            return ImmigrationLaw.pareto_log_sv()
        raise ValueError(f"unknown immigration variant {variant!r}")


def floored_log(v: np.ndarray) -> np.ndarray:
    """log(max(1, floor(e^v))) elementwise; identity above FLOOR_EXACT_LOG."""
    v = np.asarray(v, dtype=np.float64)
    # every element through one chain of whole-array passes, clamped so that
    # e^v stays finite; the elements above the clamp then take v back
    out = np.minimum(v, FLOOR_EXACT_LOG, out=np.empty_like(v))  # an array even for a 0-d v
    np.exp(out, out=out)
    np.floor(out, out=out)
    np.maximum(out, 1.0, out=out)
    np.log(out, out=out)
    np.copyto(out, v, where=v > FLOOR_EXACT_LOG)
    return out

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
from typing import Sequence

import numpy as np

from .budgets import reject_unknown_keys, require_number

__all__ = ["ImmigrationLaw", "FLOOR_EXACT_LOG"]

_VARIANTS = ("reciprocal", "pareto_log", "pareto_log_sv")

# Below this log scale e^V fits well inside 2**53 and the floor is taken
# exactly; above it, log(floor(e^V)) equals V to within float64 resolution.
FLOOR_EXACT_LOG = 36.0

_FLOAT_MAX = np.finfo(np.float64).max


def _sv_tail_ratio(x: np.ndarray | float) -> np.ndarray | float:
    """log(e+x)/x, the decreasing tail profile of the slowly-varying variant."""
    return np.log(np.e + x) / x


# Below this u the root of log(e+x) = u x lies beyond the float range.
_SV_LEAST_U = _sv_tail_ratio(_FLOAT_MAX)


def _sv_root(u: np.ndarray | float) -> np.ndarray | float:
    """The x > 0 with log(e+x) = u x, for u in (0, 1]; inf beyond the float range.

    g(x) = log(e+x) - u x is concave and decreasing right of its root, so
    Newton steps from a point above the root fall monotonically onto it.
    x0 = w log(e+w) with w = 2/u lies above it, as w log(e+w) < (e+w)^2 - e;
    five steps reach the root to within a few ulps for every u.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.minimum(2.0 * np.log(np.e + 2.0 / u) / u, _FLOAT_MAX)
        for _ in range(5):
            x = x - (np.log(np.e + x) - u * x) / (1.0 / (np.e + x) - u)
        return np.where(u < _SV_LEAST_U, np.inf, x)


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
        """V with tail(V) = u, for u in (0, 1]; inf where V exceeds the float range."""
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
        return _sv_root(u)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample_log_j_array(self, rngs: Sequence[np.random.Generator], size: int) -> np.ndarray:
        """log J draws, J = max(1, floor(e^V)), as a (len(rngs), size) float64
        log-value array: row i holds `size` draws from generator i.

        Each row takes its uniforms from its own generator, then the whole
        block goes through the transform at once; a row equals the draws
        of its generator alone bit for bit.
        """
        u = np.empty((len(rngs), size))
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        np.subtract(1.0, u, out=u)  # U on (0, 1]
        return floored_log(self._inverse_tail(u))

    # ------------------------------------------------------------------
    # Norming sequence
    # ------------------------------------------------------------------

    def norming_bn(self, n: int) -> float:
        """The b with n * tail(b) = 1: the same solve as `inverse_tail(1/n)` for the sv variant."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.variant == "reciprocal":
            return self.param * n
        if self.variant == "pareto_log":
            return float(n) ** (1.0 / self.param)
        b = float(_sv_root(1.0 / n))
        if not np.isfinite(b):
            raise OverflowError(f"b_n for n = {n} exceeds the float range")
        return b

    # ------------------------------------------------------------------
    # Config parsing
    # ------------------------------------------------------------------

    @staticmethod
    def from_config(cfg: dict) -> "ImmigrationLaw":
        """Read `variant` and its parameters; any other key is refused, not ignored."""
        variant = str(cfg["variant"])
        if variant not in _VARIANT_PARAMS:
            raise ValueError(f"unknown immigration variant {variant!r}")
        reject_unknown_keys(f"{variant} immigration", cfg, ("variant", *_VARIANT_PARAMS[variant]))
        if variant == "reciprocal":
            return ImmigrationLaw.reciprocal(require_number("c", cfg["c"]))
        if variant == "pareto_log":
            return ImmigrationLaw.pareto_log(require_number("alpha", cfg["alpha"]))
        return ImmigrationLaw.pareto_log_sv()


# The parameter keys each variant reads: `c`, `alpha` or none.
_VARIANT_PARAMS = {"reciprocal": ("c",), "pareto_log": ("alpha",), "pareto_log_sv": ()}


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

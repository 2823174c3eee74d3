"""Overflow-proof arithmetic on nonnegative reals held in log-domain.

Population counts in this package routinely reach e^(n^2) for n in the
hundreds, far beyond float range.  A ``LogMagnitude`` stores the natural
log of the represented value (``-inf`` encodes zero) and all arithmetic
stays in the log domain.  Every observable of interest enters through
``log_plus`` (log⁺ x = max(log x, 0)) divided by a norming sequence, so
absolute error in the log is the right accuracy notion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LogMagnitude",
    "ZERO",
    "ONE",
    "lse_add",
    "scale_pow",
    "log_plus",
    "encode",
    "decode",
]

_NEG_INF = float("-inf")


@dataclass(frozen=True, order=True)
class LogMagnitude:
    """A nonnegative extended real v >= 0 stored as log v (-inf for v = 0)."""

    log_value: float

    def __post_init__(self) -> None:
        if math.isnan(self.log_value):
            raise ValueError("log_value must not be NaN")

    @staticmethod
    def zero() -> "LogMagnitude":
        return ZERO

    @staticmethod
    def from_value(v: float) -> "LogMagnitude":
        """Encode a finite nonnegative real."""
        if v < 0 or math.isnan(v) or math.isinf(v):
            raise ValueError(f"expected a finite nonnegative value, got {v!r}")
        if v == 0:
            return ZERO
        return LogMagnitude(math.log(v))

    @staticmethod
    def from_log(log_value: float) -> "LogMagnitude":
        return LogMagnitude(float(log_value))

    @property
    def is_zero(self) -> bool:
        return self.log_value == _NEG_INF

    def value(self) -> float:
        """Decode; overflows to inf when log_value > ~709."""
        return math.exp(self.log_value)

    def __add__(self, other: "LogMagnitude") -> "LogMagnitude":
        return lse_add(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogMagnitude({self.log_value!r})"


ZERO = LogMagnitude(_NEG_INF)
ONE = LogMagnitude(0.0)


def lse_add(x: LogMagnitude, y: LogMagnitude) -> LogMagnitude:
    """Sum of the represented values: max + log1p(exp(min - max))."""
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    hi = max(x.log_value, y.log_value)
    lo = min(x.log_value, y.log_value)
    return LogMagnitude(hi + math.log1p(math.exp(lo - hi)))


def scale_pow(x: LogMagnitude, mu: float, m: int) -> LogMagnitude:
    """The represented value times mu**m, as one multiply-add on the log."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    if x.is_zero:
        return x
    return LogMagnitude(x.log_value + m * math.log(mu))


def log_plus(x: LogMagnitude) -> float:
    """log⁺ of the represented value: max(log v, 0), with log⁺ 0 = 0."""
    return max(x.log_value, 0.0)


def encode(x: LogMagnitude) -> str:
    """Serialized form: decimal string of log_value, "zero" sentinel for 0."""
    if x.is_zero:
        return "zero"
    return repr(x.log_value)


def decode(token: str) -> LogMagnitude:
    if token == "zero":
        return ZERO
    return LogMagnitude(float(token))

"""Offspring laws whose m-fold convolutions sample in O(1).

Three families are provided, all parametrized through their mean so they
share the interface of the growth theory:

* poisson(mean mu): one generation of an m-cohort is Poisson(m*mu);
* binary(children in {0,2}, P{2}=p, mean 2p): generation is 2*Binomial(m,p);
* geometric(mean mu, P{X=k}=(1-q)q^k with q=mu/(1+mu)): generation is
  NegativeBinomial(m, 1-q), the sum of m geometrics.

`sample_generation` draws one generation as a numpy scalar (the kernel's
exact step); it gives the same numbers from the same stream as
`sample_generations` on a one-element array.

Survival probabilities iterate the generating function at 0.  The
iteration runs on the survival probability itself via the algebraically
simplified map p' = 1 - f(1-p), which stays accurate down to denormals
where the naive 1 - f_n(0) would cancel catastrophically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OffspringFamily", "EXACT_COUNT_LIMIT"]

# Largest cohort size sampled exactly: integers above 2**53 are not exactly
# representable in float64; callers must be in the fluid regime well below this.
EXACT_COUNT_LIMIT = 2**53

_FAMILIES = ("poisson", "binary", "geometric")


@dataclass(frozen=True)
class OffspringFamily:
    """An aggregable offspring law, identified by family name and mean."""

    family: str
    mean: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown offspring family {self.family!r}")
        if not (self.mean > 0) or math.isinf(self.mean):
            raise ValueError(f"offspring mean must be in (0, inf), got {self.mean!r}")
        if self.family == "binary" and not (0 < self.mean < 2):
            raise ValueError("binary family needs p = mean/2 in (0, 1)")

    @staticmethod
    def poisson(mean: float) -> "OffspringFamily":
        return OffspringFamily("poisson", float(mean))

    @staticmethod
    def binary(p: float) -> "OffspringFamily":
        return OffspringFamily("binary", 2.0 * float(p))

    @staticmethod
    def geometric(mean: float) -> "OffspringFamily":
        return OffspringFamily("geometric", float(mean))

    @property
    def branch_probability(self) -> float:
        """p for the binary family."""
        if self.family != "binary":
            raise ValueError("branch_probability is defined for the binary family only")
        return self.mean / 2.0

    @property
    def geometric_q(self) -> float:
        """q = mu/(1+mu) for the geometric family."""
        if self.family != "geometric":
            raise ValueError("geometric_q is defined for the geometric family only")
        return self.mean / (1.0 + self.mean)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample_generation(self, m: int, rng: np.random.Generator) -> int:
        """One draw of the total offspring of an m-individual cohort."""
        if m < 0:
            raise ValueError("cohort size must be nonnegative")
        if m > EXACT_COUNT_LIMIT:
            raise ValueError(
                f"cohort size {m} exceeds the exact-sampling limit {EXACT_COUNT_LIMIT}; "
                "use the fluid regime"
            )
        if m == 0:
            return 0
        # scalar draws: the same numbers as `sample_generations` on [m]
        if self.family == "poisson":
            return int(rng.poisson(self.mean * m))
        if self.family == "binary":
            return 2 * int(rng.binomial(m, self.branch_probability))
        return int(rng.negative_binomial(m, 1.0 - self.geometric_q))

    def sample_generations(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorized `sample_generation` over an int64 array of cohort sizes."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size and int(counts.max(initial=0)) > EXACT_COUNT_LIMIT:
            raise ValueError("cohort size exceeds the exact-sampling limit; use the fluid regime")
        if self.family == "poisson":
            return rng.poisson(self.mean * counts)
        if self.family == "binary":
            return 2 * rng.binomial(counts, self.branch_probability)
        # geometric: sum of m geometrics on {0,1,...} with failure prob q
        out = np.zeros_like(counts)
        pos = counts > 0
        if pos.any():
            out[pos] = rng.negative_binomial(counts[pos], 1.0 - self.geometric_q)
        return out

    # ------------------------------------------------------------------
    # Survival probabilities
    # ------------------------------------------------------------------

    def _survival_step(self, p: float) -> float:
        """p_{k+1} = 1 - f(1 - p_k), simplified per family for small p."""
        if self.family == "poisson":
            return -math.expm1(-self.mean * p)
        if self.family == "binary":
            return self.branch_probability * p * (2.0 - p)
        q = self.geometric_q
        return q * p / (1.0 - q + q * p)

    def survival_probability(self, n: int) -> np.ndarray:
        """p_1..p_n where p_k = P{a single-ancestor line is alive at time k}."""
        if n < 1:
            raise ValueError("n must be >= 1")
        out = np.empty(n, dtype=np.float64)
        p = 1.0  # p_0: alive at time 0 by definition
        for k in range(n):
            p = self._survival_step(p)
            out[k] = p
        return out

    # ------------------------------------------------------------------
    # Config parsing
    # ------------------------------------------------------------------

    @staticmethod
    def from_config(cfg: dict) -> "OffspringFamily":
        return OffspringFamily(str(cfg["family"]), float(cfg["mean"]))

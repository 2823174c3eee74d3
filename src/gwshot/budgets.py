"""The scale gate: every budget a run is held to before it draws.

`simulate`, `limit-sample` and each registered check call `require_scale`
with the counts they are about to run, so one rule decides what the CLI
and the checks admit: counts are integers >= 1, and the work they imply
stays within the budgets below.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

__all__ = ["require_count", "require_scale"]

# Limit-sampler draws per check run.  A marginal sample peaks at about 90
# traced bytes (8.2 MB for 10^5 marginal-limit samples, 9.1 MB for 10^5 fdd
# samples), so a run at the budget peaks near 0.5 GB.
MARGINAL_SAMPLE_BUDGET = 5_000_000

# Generations in one engine path: a prelimit replicate (n x horizon of
# them) or a cohort (3n).  The kernel peaks at 48-97 traced bytes per
# generation (measured at n = 10^4 and 10^5 in all three regimes), so a
# path at the budget peaks near 0.5 GB; `simulate` writing one peaks at
# 615 MB RSS.
PATH_GENERATION_BUDGET = 5_000_000

# Generations over all engine paths of a run: replicates x sum over the
# n-ladder of (n x horizon + PATH_SETUP_GENERATIONS).  A path costs about
# as much to set up as 100 generations cost to step (45 us for a path at
# n = 1, 0.3-0.7 us per generation at n = 100-800).  Counted so, the engine
# checks take 0.04-2.4 us per budgeted generation at n from 1 to 5000
# (lemma-aux3 the slowest, with three branches per generation), so a run at
# the budget takes at most about 50 s (53 s measured for lemma-aux3; 28 s
# for 2e5 simulate replicates at horizon 0).  The default scales use up to
# 2.7e6 (marginal-prelimit-thm1).
ENGINE_GENERATION_BUDGET = 20_000_000
PATH_SETUP_GENERATIONS = 100

# Atoms over all limit-sample paths: replicates x (expected atoms +
# PATH_SETUP_ATOMS).  Every atom is kept as two float64s and written to the
# JSON sidecar, about 18 traced bytes and 2-2.5 us each (paths of 10^3 and
# 10^4 atoms).  A path without atoms still holds about 850 bytes and takes
# 170-230 us (at horizon 0), as much time as about 100 atoms.  A run at the
# budget peaks near 0.11 GB RSS and takes about 11 s.
LIMIT_ATOM_BUDGET = 5_000_000
PATH_SETUP_ATOMS = 100


def require_count(name: str, value) -> None:
    """Reject a `value` that is not an integer >= 1."""
    # bool is an int subclass, and a JSON float such as 25.5 or 1e6 is not a count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")


def require_scale(
    replicates: int = 1,
    ns: Sequence[int] | None = None,
    horizon: float = 1.0,
    samples: int = 1,
    atoms: float | None = None,
) -> None:
    """Reject a run whose counts are not integers >= 1 or exceed a budget.

    Each of `replicates` replicates runs one engine path of n x `horizon`
    generations per n in `ns` (none when `ns` is None) and, when `atoms`
    is given, one limit path of that many expected atoms; `samples` counts
    limit-sampler draws.  Every comparison is exact for ints of any size.
    """
    require_count("replicates", replicates)
    require_count("sample count", samples)
    if samples > MARGINAL_SAMPLE_BUDGET:
        raise ValueError(f"sample count {samples} exceeds the budget of {MARGINAL_SAMPLE_BUDGET:.0e}")
    if ns is not None:
        if not ns:
            raise ValueError("ns must hold at least one n")
        for n in ns:
            require_count("n", n)
        if not 0 <= horizon < math.inf:
            raise ValueError(f"horizon must be finite and >= 0, got {horizon!r}")
        # n x horizon = n p / q exactly, so both budgets compare integers
        p, q = float(horizon).as_integer_ratio()
        if max(ns) * p > PATH_GENERATION_BUDGET * q:
            raise ValueError(
                f"n = {max(ns)} exceeds the budget of {PATH_GENERATION_BUDGET:.0e} generations per path "
                f"({horizon:g}n generations)"
            )
        per_replicate = sum(ns) * p + len(ns) * PATH_SETUP_GENERATIONS * q
        if replicates * per_replicate > ENGINE_GENERATION_BUDGET * q:
            raise ValueError(
                f"{replicates} replicates x {per_replicate / q:.6g} generations each exceed the engine "
                f"budget of {ENGINE_GENERATION_BUDGET:.0e} generations (a path counts "
                f"{PATH_SETUP_GENERATIONS} for its set-up)"
            )
    # `not <=`, so that a NaN atom count is refused too
    if atoms is not None and not replicates <= LIMIT_ATOM_BUDGET / (atoms + PATH_SETUP_ATOMS):
        raise ValueError(
            f"{replicates} replicates x {atoms:.4g} expected atoms each exceed the atom budget of "
            f"{LIMIT_ATOM_BUDGET:.0e} (a path counts {PATH_SETUP_ATOMS} for its set-up); "
            "raise delta or lower --replicates"
        )

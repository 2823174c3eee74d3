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

__all__ = ["reject_unknown_keys", "require_count", "require_number", "require_scale"]

# Limit-sampler draws per check run.  A marginal sample peaks at about 90
# traced bytes (8.2 MB for 10^5 marginal-limit samples, 9.1 MB for 10^5 fdd
# samples), so a run at the budget peaks near 0.5 GB.
MARGINAL_SAMPLE_BUDGET = 5_000_000

# Generations in one engine path: a prelimit replicate (n x horizon of
# them) or a cohort (3n).  The kernel peaks at 48-97 traced bytes per
# generation (measured at n = 10^4 and 10^5 in all three regimes), so a
# path at the budget peaks near 0.5 GB.  `simulate` writing one (reciprocal
# immigration) peaks at 245 / 257 / 254 MB RSS in 2.7 / 7.3 / 3.5 s for
# critical / subcritical / supercritical offspring.
PATH_GENERATION_BUDGET = 5_000_000

# Generations over all engine paths of a run: replicates x sum over the
# n-ladder of (n x horizon + PATH_SETUP_GENERATIONS), a rung once per path
# it runs (three for a check's three regimes).  Setting up a path cost about
# as much as 370 generations cost to step when each replicate was set up
# on its own (a ratio of 234-464, median 389).  Set up a block at a time
# (`gwi.run_replicates`), a `simulate` replicate takes 48-65 us at
# horizon 0 and 0.19-0.28 us more per generation at n = 800 (critical
# binary offspring, reciprocal immigration), a ratio of 173-321 over six
# alternating runs, median 248.  The count stays 370, so the budget admits
# the same runs, which take about 2-8 s at the budget (simulate: 2.3-3.5 s
# at horizon 0, 2.7-4.8 s at n = 800; lemma-aux3, the slowest check:
# 5.6-8.0 s).  The default scales use up to 4.3e6 (marginal-prelimit-thm1).
ENGINE_GENERATION_BUDGET = 20_000_000
PATH_SETUP_GENERATIONS = 370

# Atoms over all limit-sample paths: replicates x (expected atoms +
# PATH_SETUP_ATOMS).  Every atom is kept as two float64s and written to the
# JSON sidecar, about 18 traced bytes and 0.2-0.3 us each (4545 paths of
# 10^3 atoms in 1.3-1.6 s).  A path without atoms still holds about 850 bytes
# and takes about 20 us (at horizon 0), as much time as 80-100 atoms.  A run
# at the budget takes 1.3-1.6 s at delta = 1e-3 or at horizon 0 and peaks
# near 0.11 GB RSS (0.06 GB at horizon 0); one path that holds all its atoms
# (delta = 2.1e-7) peaks near 0.26 GB and takes about 1.5 s, with a 0.2 GB
# sidecar.
LIMIT_ATOM_BUDGET = 5_000_000
PATH_SETUP_ATOMS = 100


def require_count(name: str, value) -> None:
    """Reject a `value` that is not an integer >= 1."""
    # bool is an int subclass, and a JSON float such as 25.5 or 1e6 is not a count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")


def require_number(name: str, value) -> float:
    """`value` as a float; reject a bool or a string, which float() would read."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def reject_unknown_keys(section: str, cfg, read: Sequence[str]) -> None:
    """Refuse a config section that is not an object, or that holds a key
    no code reads: a misspelt key would otherwise be ignored, and the run
    would differ from the one written."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{section} config must be an object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(read))
    if unknown:
        raise ValueError(f"unknown {section} key(s) {unknown}; the keys read are {list(read)}")


_NO_PATHS = object()  # the default of `ns`: a run without engine paths (None is a malformed ladder)


def require_scale(
    replicates: int = 1,
    ns: Sequence[int] = _NO_PATHS,
    horizon: float = 1.0,
    samples: int = 1,
    atoms: float | None = None,
) -> None:
    """Reject a run whose counts are not integers >= 1 or exceed a budget.

    Each of `replicates` replicates runs one engine path of n x `horizon`
    generations per n in `ns` (none when `ns` is not given) and, when `atoms`
    is given, one limit path of that many expected atoms; `samples` counts
    limit-sampler draws.  Every comparison is exact for ints of any size.
    """
    require_count("replicates", replicates)
    require_count("sample count", samples)
    if samples > MARGINAL_SAMPLE_BUDGET:
        raise ValueError(f"sample count {samples} exceeds the budget of {MARGINAL_SAMPLE_BUDGET:.0e}")
    if ns is not _NO_PATHS:
        if not isinstance(ns, Sequence) or not ns:  # a number or null, as an override may give, is no ladder
            raise ValueError(f"ns must be a list of at least one n, got {ns!r}")
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

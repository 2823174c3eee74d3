"""Registered statistical verification procedures.

Each check compares simulated laws against closed forms or limiting
profiles at "desk scale" and returns a report with one statistic, one
threshold, and a pass flag.  The CLI `verify` command and the acceptance
test suite both dispatch into this registry, so a criterion has exactly
one implementation.

Scale parameters (replicates, sample sizes, the n-ladder) are overridable
for smoke testing, as integer counts within the budgets of
`budgets.require_scale`; defaults are the stated acceptance scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import limit, streams
from .budgets import require_number, require_scale
from .gw import limit_profile
from .gwi import GwiRun, conditional_mean_path, normalized_observable, run_replicates
from .immigration import ImmigrationLaw
from .offspring import OffspringFamily
from .stats import Sample, ks_distance

__all__ = ["CheckReport", "CHECK_NAMES", "run_check", "DEFAULT_SEED"]

DEFAULT_SEED = 20250809

LOG2 = math.log(2.0)

# The laws of the engine checks, one (offspring, immigration) pair per
# regime.  Checks look their rows up when they run.  The cohort check seeds
# each family by its index here, so the order is part of its streams.
_REGIMES = {
    "subcritical": (OffspringFamily.geometric(0.5), ImmigrationLaw.pareto_log(0.5)),
    "critical": (OffspringFamily.binary(0.5), ImmigrationLaw.reciprocal(1.0)),
    "supercritical": (OffspringFamily.poisson(2.0), ImmigrationLaw.reciprocal(1.0)),
}


@dataclass(frozen=True)
class CheckReport:
    check: str
    statistic: float
    threshold: float
    passed: bool
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a check's numpy arithmetic yields np.bool_/np.float64, and json
        # rejects np.bool_; the report holds plain Python scalars
        object.__setattr__(self, "statistic", float(self.statistic))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "passed", bool(self.passed))

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "pass": self.passed,
            "details": self.details,
        }


# ----------------------------------------------------------------------
# Limit-sampler marginals (three slope regimes)
# ----------------------------------------------------------------------


def check_marginal_limit(seed: int, sample_count: int = 100_000, delta: float = 1e-3) -> CheckReport:
    """Sampled shot-noise marginals against their closed-form CDFs."""
    require_scale(samples=sample_count)
    delta = require_number("delta", delta)
    a = b = 1.0
    u = 1.0
    threshold = 0.01
    regimes = {"negative": -LOG2, "extremal": 0.0, "positive": LOG2}
    stats = {}
    for idx, (name, slope) in enumerate(regimes.items()):
        rng = streams.substream(streams.replicate_seed(seed, idx), streams.ATOMS)
        values = Sample(limit.sample_shot_noise_marginal(a, b, slope, u, sample_count, delta, rng))
        stats[name] = ks_distance(values, partial(limit.marginal_cdf, a, b, slope, u))
        del values  # before the next regime draws: at the sample budget it is 40 MB
    statistic = max(stats.values())
    return CheckReport(
        check="marginal-limit",
        statistic=statistic,
        threshold=threshold,
        passed=statistic <= threshold,
        details={"ks_by_regime": stats, "samples": sample_count, "delta": delta},
    )


# ----------------------------------------------------------------------
# Prelimit marginals
# ----------------------------------------------------------------------


def _rung(regime: str, n: int, seed: int, replicates: int, read: Callable, horizon: float = 1.0,
          **runs) -> np.ndarray:
    """`read(run, bundle)` for each replicate of one cell, in order, as one array.  A cell is
    one (regime, n) pair run on block seed `seed`, `runs` passed to `run_replicates`; `read`
    gives one value or one tuple (a column per statistic) per replicate, never a path."""
    run = GwiRun(n, horizon, *_REGIMES[regime], seed=seed)
    return np.array([read(run, bundle) for bundle in run_replicates(run, replicates, **runs)])


def _prelimit_ladder(check: str, seed: int, regime: str, b: float, ns: tuple[int, ...],
                     replicates: int) -> CheckReport:
    """KS(log⁺Y_n / b_n, exp(-x^(-b))) at t = 1 along the n-ladder, b_n =
    law.norming_bn(n), rung idx on block seed replicate_seed(seed, idx).

    Passes when the KS does not increase by more than 0.02 from one rung to
    the next and ends at or below 0.15.
    """
    require_scale(replicates, ns)
    cdf = partial(limit.marginal_cdf, 1.0, b, 0.0, 1.0)
    ks_by_n, norming = {}, {}
    for idx, n in enumerate(ns):
        norming[str(n)] = c_n = _REGIMES[regime][1].norming_bn(n)
        values = _rung(regime, n, streams.replicate_seed(seed, idx), replicates,
                       lambda run, bundle: max(bundle.y_log[-1], 0.0) / c_n)
        ks_by_n[str(n)] = ks_distance(Sample(values), cdf)
    seq = [ks_by_n[str(n)] for n in ns]
    monotone = all(seq[i] >= seq[i + 1] - 0.02 for i in range(len(seq) - 1))
    statistic = seq[-1]
    return CheckReport(
        check=check,
        statistic=statistic,
        threshold=0.15,
        passed=monotone and statistic <= 0.15,
        details={"ks_by_n": ks_by_n, "monotone_with_slack": monotone,
                 "replicates": replicates, "norming": norming},
    )


def check_marginal_prelimit_thm1(
    seed: int, ns: tuple[int, ...] = (50, 200, 800), replicates: int = 2000
) -> CheckReport:
    """Critical process with reciprocal immigration against the extremal marginal.

    KS(log⁺Y_n / n, exp(-1/x)) must not increase along the n-ladder (0.02
    slack between consecutive rungs) and must end below 0.15.
    """
    return _prelimit_ladder("marginal-prelimit-thm1", seed, "critical", 1.0, ns, replicates)


def check_marginal_prelimit_thm2(
    seed: int, ns: tuple[int, ...] = (25, 100), replicates: int = 1000
) -> CheckReport:
    """Subcritical process under superexponential norming b_n = n^(1/alpha).

    KS(log⁺Y_n / b_n, exp(-x^(-1/2))) <= 0.15 at the top rung, and the
    coarser rung is no better than 0.02 beyond it.
    """
    return _prelimit_ladder("marginal-prelimit-thm2", seed, "subcritical", 0.5, ns, replicates)


# ----------------------------------------------------------------------
# Finite-dimensional distributions
# ----------------------------------------------------------------------


def check_fdd(seed: int, mc_samples: int = 100_000) -> CheckReport:
    """fdd_cdf: d=1 reduction to the marginals, the hand-integrated d=2
    value, and a Monte Carlo joint frequency."""
    require_scale(samples=mc_samples)
    tol_exact = 1e-9
    sweep_err = 0.0
    # d=1 reduction across the three slope regimes (20 parameter points)
    for a, b, slope, u, x in [
        (1.0, 1.0, -1.0, 1.0, 1.0), (1.0, 1.0, -LOG2, 1.0, 0.5), (2.0, 1.0, -0.5, 2.0, 1.5),
        (0.5, 1.0, -1.5, 0.7, 2.0), (3.0, 1.0, -LOG2, 1.5, 4.0), (1.0, 1.0, -0.25, 3.0, 0.75),
        (2.5, 1.0, -2.0, 0.3, 1.0),
        (1.0, 1.0, 0.0, 1.0, 1.0), (1.0, 2.0, 0.0, 1.0, 0.8), (2.0, 1.0, 0.0, 3.0, 5.0),
        (0.5, 0.5, 0.0, 2.0, 2.5), (1.5, 1.0, 0.0, 0.5, 0.3), (1.0, 3.0, 0.0, 2.0, 1.2),
        (1.0, 1.0, LOG2, 1.0, 2.0 * LOG2), (1.0, 1.0, 1.0, 1.0, 1.5), (2.0, 1.0, 0.5, 2.0, 1.5),
        (0.5, 1.0, 2.0, 0.5, 1.2), (3.0, 1.0, LOG2, 2.0, 2.0), (1.0, 1.0, 0.75, 1.5, 1.4),
        (2.0, 1.0, 1.0, 0.25, 0.3),
    ]:
        got = limit.fdd_cdf(a, b, slope, np.array([u]), np.array([x]))
        sweep_err = max(sweep_err, abs(got - limit.marginal_cdf(a, b, slope, u, x)))

    # d=2, slope 0, a=b=1: thresholds (1, 2) at times (1, 2).
    # Hand envelope: min(1,2)^{-1} on [0,1] plus 2^{-1} on [1,2] -> 1.5,
    # i.e. P = exp(-1.5); equal thresholds (1,1) collapse to the single
    # window, measure 2; thresholds (2,1) bind only at the later time for
    # the nondecreasing slope-0 process, measure 2 as well.
    d2_err = max(
        abs(limit.fdd_cdf(1, 1, 0.0, np.array([1.0, 2.0]), np.array([1.0, 2.0])) - math.exp(-1.5)),
        abs(limit.fdd_cdf(1, 1, 0.0, np.array([1.0, 2.0]), np.array([1.0, 1.0])) - math.exp(-2.0)),
        abs(limit.fdd_cdf(1, 1, 0.0, np.array([1.0, 2.0]), np.array([2.0, 1.0])) - math.exp(-2.0)),
    )

    # Monte Carlo joint frequency for the (1, 2) example.  Marks at or
    # below min(x)=1 cannot affect the events, so delta=0.5 is exact.
    rng = streams.substream(streams.replicate_seed(seed, 0), streams.ATOMS)
    values = limit.sample_shot_noise_marginal(1.0, 1.0, 0.0, np.array([1.0, 2.0]), mc_samples, 0.5, rng)
    mc_freq = int(np.count_nonzero((values[:, 0] <= 1.0) & (values[:, 1] <= 2.0))) / mc_samples
    mc_err = abs(mc_freq - math.exp(-1.5))

    passed = sweep_err <= tol_exact and d2_err <= tol_exact and mc_err <= 0.01
    return CheckReport(
        check="fdd",
        statistic=mc_err,
        threshold=0.01,
        passed=passed,
        details={
            "marginal_sweep_max_err": sweep_err,
            "d2_exact_max_err": d2_err,
            "exact_tolerance": tol_exact,
            "mc_frequency": mc_freq,
            "mc_expected": math.exp(-1.5),
            "mc_samples": mc_samples,
        },
    )


# ----------------------------------------------------------------------
# Cohort growth profiles
# ----------------------------------------------------------------------

def check_cohort_profile(seed: int, n: int = 200, replicates: int = 200) -> CheckReport:
    """A cohort of e^n individuals follows (1 + t log mu)^+ on the log/n scale.

    Per family, the fraction of cohorts whose log⁺/n path over 3n
    generations leaves the profile by more than 0.1.  A cohort is the run
    whose one immigrant batch is its founders; family idx runs on block
    seed replicate_seed(seed, idx).
    """
    horizon, tol = 3.0, 0.1
    require_scale(replicates, (n,), horizon=horizon)
    founders = np.full(3 * n + 1, -math.inf)  # generations 0..3n, the founders at 0
    founders[0] = n
    fractions = {}
    for fam_idx, (regime, (family, _)) in enumerate(_REGIMES.items()):
        target = limit_profile(1.0, family.mean, np.arange(3 * n + 1) / n)
        gaps = _rung(regime, n, streams.replicate_seed(seed, fam_idx), replicates,
                     lambda run, bundle: np.max(np.abs(np.maximum(bundle.y_log, 0.0) / n - target)),
                     horizon, immigrant_log_j=founders)
        fractions[family.family] = np.count_nonzero(gaps > tol) / replicates
    statistic = max(fractions.values())
    return CheckReport(
        check="lemma-aux2",
        statistic=statistic,
        threshold=0.05,
        passed=statistic <= 0.05,
        details={"exceed_fraction_by_family": fractions, "tolerance": tol,
                 "n": n, "replicates": replicates},
    )


# ----------------------------------------------------------------------
# Truncated-process negligibility and the conditional-mean proxy
# ----------------------------------------------------------------------


def check_truncation_negligible(
    seed: int, ns: tuple[int, ...] = (50, 100, 200), replicates: int = 400
) -> CheckReport:
    """Cohorts founded while immigration is not extremely active stay below
    gamma + delta on the normalized log scale, more surely as n grows."""
    gamma, slack = 0.2, 0.1
    level = gamma + slack
    branches = {"critical_cn_n": "critical", "supercritical_cn_n": "supercritical",
                "subcritical_cn_bn": "subcritical"}
    require_scale(replicates, ns)  # the counts themselves, before tuple() reads them
    require_scale(replicates, tuple(ns) * len(branches))  # one path per branch per rung
    freqs: dict[str, list[float]] = {}
    worst_increase = -math.inf
    for b_idx, (name, regime) in enumerate(branches.items()):
        family, law = _REGIMES[regime]
        correction = family.mean if family.mean > 1.0 else None
        seq = []
        for n_idx, n in enumerate(ns):
            c_n = law.norming_bn(n)
            peaks = _rung(regime, n, streams.replicate_seed(seed, 1000 + 10 * b_idx + n_idx), replicates,
                          lambda run, bundle: np.max(
                              normalized_observable(bundle.truncated_log, c_n, n, correction).values),
                          cutoff=gamma * c_n)
            seq.append(np.count_nonzero(peaks > level) / replicates)
        freqs[name] = seq
        worst_increase = max(worst_increase, max(np.diff(seq), default=0.0))
    return CheckReport(
        check="lemma-aux3",
        statistic=float(worst_increase),
        threshold=0.0,
        passed=worst_increase <= 0.0,
        details={"exceed_frequency_by_branch": freqs, "ns": list(ns),
                 "gamma": gamma, "slack": slack, "replicates": replicates},
    )


def check_conditional_mean_proxy(seed: int, n: int = 100, replicates: int = 200) -> CheckReport:
    """log⁺Y_n stays within 0.05*n of log⁺Z_n, Z the conditional mean given
    the immigrant counts, in at least 90% of coupled replicates."""
    require_scale(replicates, (n,))
    tol = 0.05
    gaps = _rung("supercritical", n, seed, replicates, lambda run, bundle: abs(
        max(bundle.y_log[-1], 0.0) - max(conditional_mean_path(run, bundle.immigrant_log_j)[-1], 0.0)) / n)
    statistic = np.count_nonzero(gaps > tol) / replicates
    return CheckReport(
        check="proxy-zn",
        statistic=statistic,
        threshold=0.10,
        passed=statistic <= 0.10,
        details={"tolerance": tol, "n": n, "replicates": replicates},
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., CheckReport]] = {
    "marginal-limit": check_marginal_limit,
    "marginal-prelimit-thm1": check_marginal_prelimit_thm1,
    "marginal-prelimit-thm2": check_marginal_prelimit_thm2,
    "fdd": check_fdd,
    "lemma-aux2": check_cohort_profile,
    "lemma-aux3": check_truncation_negligible,
    "proxy-zn": check_conditional_mean_proxy,
}

_ALIASES = {
    "cohort-profile": "lemma-aux2",
    "truncation-negligible": "lemma-aux3",
    "conditional-mean-proxy": "proxy-zn",
}

CHECK_NAMES = tuple(_REGISTRY)


def run_check(name: str, seed: int = DEFAULT_SEED, **overrides) -> CheckReport:
    """Run the check registered as `name` or its alias."""
    return _lookup(name)(seed, **overrides)


def _lookup(name: str) -> Callable[..., CheckReport]:
    """The check registered as `name` or its alias; KeyError for any other name."""
    return _REGISTRY[_ALIASES.get(name, name)]

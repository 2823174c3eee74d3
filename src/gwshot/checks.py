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
from .budgets import require_scale
from .gw import FluidConfig, limit_profile, simulate_cohort
from .gwi import GwiRun, conditional_mean_path, run_replicates
from .immigration import ImmigrationLaw
from .offspring import OffspringFamily
from .stats import Sample, ks_distance

__all__ = ["CheckReport", "CHECK_NAMES", "run_check", "DEFAULT_SEED"]

DEFAULT_SEED = 20250809

LOG2 = math.log(2.0)


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


def _frechet_cdf(rate: float, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """x -> exp(-rate * x^(-alpha)) for x > 0, else 0."""

    def cdf(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-rate * x[pos] ** (-alpha))
        return out

    return cdf


# ----------------------------------------------------------------------
# Limit-sampler marginals (three slope regimes)
# ----------------------------------------------------------------------


def check_marginal_limit(seed: int, sample_count: int = 100_000, delta: float = 1e-3) -> CheckReport:
    """Sampled shot-noise marginals against their closed-form CDFs."""
    require_scale(samples=sample_count)
    a = b = 1.0
    u = 1.0
    threshold = 0.01
    regimes = {
        "negative": (-LOG2, partial(limit.marginal_cdf_negslope, a, LOG2, u)),
        "extremal": (0.0, partial(limit.marginal_cdf_extremal, a, b, u)),
        "positive": (LOG2, partial(limit.marginal_cdf_posslope, a, LOG2, u)),
    }
    stats = {}
    for idx, (name, (slope, cdf)) in enumerate(regimes.items()):
        rng = streams.substream(streams.replicate_seed(seed, idx), streams.ATOMS)
        values = limit.sample_shot_noise_marginal(a, b, slope, u, sample_count, delta, rng)
        stats[name] = ks_distance(Sample(values), cdf)
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


def _prelimit_ladder(
    seed: int,
    family: OffspringFamily,
    law: ImmigrationLaw,
    ns: tuple[int, ...],
    replicates: int,
    norm: Callable[[int], float],
    cdf: Callable[[np.ndarray], np.ndarray],
) -> tuple[dict[str, float], bool]:
    """KS(log⁺Y_n / norm(n), cdf) at t = 1 along the n-ladder, rung idx on
    block seed replicate_seed(seed, idx), and whether the KS does not
    increase by more than 0.02 from one rung to the next."""
    require_scale(replicates, ns)
    ks = {}
    for idx, n in enumerate(ns):
        run = GwiRun(n=n, horizon=1.0, family=family, law=law, seed=streams.replicate_seed(seed, idx))
        c_n = norm(n)
        values = np.array([max(bundle.y_log[-1], 0.0) / c_n for bundle in run_replicates(run, replicates)])
        ks[n] = ks_distance(Sample(values), cdf)
    seq = [ks[n] for n in ns]
    monotone = all(seq[i] >= seq[i + 1] - 0.02 for i in range(len(seq) - 1))
    return {str(n): ks[n] for n in ns}, monotone


def check_marginal_prelimit_thm1(
    seed: int, ns: tuple[int, ...] = (50, 200, 800), replicates: int = 2000
) -> CheckReport:
    """Critical process with reciprocal immigration against the extremal marginal.

    KS(log⁺Y_n / n, exp(-1/x)) must not increase along the n-ladder (0.02
    slack between consecutive rungs) and must end below 0.15.
    """
    ks_by_n, monotone = _prelimit_ladder(seed, OffspringFamily.binary(0.5), ImmigrationLaw.reciprocal(1.0),
                                         ns, replicates, float, _frechet_cdf(1.0, 1.0))
    statistic = ks_by_n[str(ns[-1])]
    return CheckReport(
        check="marginal-prelimit-thm1",
        statistic=statistic,
        threshold=0.15,
        passed=monotone and statistic <= 0.15,
        details={"ks_by_n": ks_by_n, "monotone_with_slack": monotone, "replicates": replicates},
    )


def check_marginal_prelimit_thm2(
    seed: int, ns: tuple[int, ...] = (25, 100), replicates: int = 1000
) -> CheckReport:
    """Subcritical process under superexponential norming b_n = n^(1/alpha).

    KS(log⁺Y_n / b_n, exp(-x^(-1/2))) <= 0.15 at the top rung, and the
    coarser rung is no better than 0.02 beyond it.
    """
    law = ImmigrationLaw.pareto_log(0.5)
    ks_by_n, monotone = _prelimit_ladder(seed, OffspringFamily.geometric(0.5), law,
                                         ns, replicates, law.norming_bn, _frechet_cdf(1.0, 0.5))
    statistic = ks_by_n[str(ns[-1])]
    return CheckReport(
        check="marginal-prelimit-thm2",
        statistic=statistic,
        threshold=0.15,
        passed=monotone and statistic <= 0.15,
        details={"ks_by_n": ks_by_n, "monotone_with_slack": monotone,
                 "replicates": replicates, "norming": {str(n): law.norming_bn(n) for n in ns}},
    )


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
    for r, s, u, x in [
        (1.0, 1.0, 1.0, 1.0), (1.0, LOG2, 1.0, 0.5), (2.0, 0.5, 2.0, 1.5),
        (0.5, 1.5, 0.7, 2.0), (3.0, LOG2, 1.5, 4.0), (1.0, 0.25, 3.0, 0.75),
        (2.5, 2.0, 0.3, 1.0),
    ]:
        got = limit.fdd_cdf(r, 1.0, -s, np.array([u]), np.array([x]))
        want = limit.marginal_cdf_negslope(r, s, u, x)
        sweep_err = max(sweep_err, abs(got - want))
    for a, b, u, x in [
        (1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 1.0, 0.8), (2.0, 1.0, 3.0, 5.0),
        (0.5, 0.5, 2.0, 2.5), (1.5, 1.0, 0.5, 0.3), (1.0, 3.0, 2.0, 1.2),
    ]:
        got = limit.fdd_cdf(a, b, 0.0, np.array([u]), np.array([x]))
        want = limit.marginal_cdf_extremal(a, b, u, x)
        sweep_err = max(sweep_err, abs(got - want))
    for r, s, u, x in [
        (1.0, LOG2, 1.0, 2.0 * LOG2), (1.0, 1.0, 1.0, 1.5), (2.0, 0.5, 2.0, 1.5),
        (0.5, 2.0, 0.5, 1.2), (3.0, LOG2, 2.0, 2.0), (1.0, 0.75, 1.5, 1.4),
        (2.0, 1.0, 0.25, 0.3),
    ]:
        got = limit.fdd_cdf(r, 1.0, s, np.array([u]), np.array([x]))
        want = limit.marginal_cdf_posslope(r, s, u, x)
        sweep_err = max(sweep_err, abs(got - want))

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

_PROFILE_FAMILIES = (
    OffspringFamily.geometric(0.5),
    OffspringFamily.binary(0.5),
    OffspringFamily.poisson(2.0),
)


def _cohort_exceed_report(
    check: str,
    seed: int,
    seed_base: int,
    n: int,
    replicates: int,
    power: int,
    profile: Callable[[OffspringFamily, np.ndarray], np.ndarray | float],
    tol: float,
) -> CheckReport:
    """Per family, the fraction of cohorts of e^(c_n) individuals, c_n =
    n^power, whose log⁺/c_n path over 3n generations leaves profile(family,
    k/n) by more than tol.  Replicate rep of family idx runs on
    replicate_seed(replicate_seed(seed, seed_base + idx), rep)."""
    horizon = 3.0
    require_scale(replicates, (n,), horizon=horizon)
    c_n = float(n) ** power
    config = FluidConfig()
    generations = int(n * horizon)
    grid = np.arange(generations + 1) / n
    fractions = {}
    for fam_idx, family in enumerate(_PROFILE_FAMILIES):
        target = profile(family, grid)
        exceed = 0
        for rep in range(replicates):
            rng = streams.substream(
                streams.replicate_seed(streams.replicate_seed(seed, seed_base + fam_idx), rep),
                streams.OFFSPRING,
            )
            logs = simulate_cohort(family, c_n, generations, config, rng)
            if np.max(np.abs(np.maximum(logs, 0.0) / c_n - target)) > tol:
                exceed += 1
        fractions[family.family] = exceed / replicates
    statistic = max(fractions.values())
    return CheckReport(
        check=check,
        statistic=statistic,
        threshold=0.05,
        passed=statistic <= 0.05,
        details={"exceed_fraction_by_family": fractions, "tolerance": tol,
                 "n": n, "replicates": replicates},
    )


def check_cohort_profile(seed: int, n: int = 200, replicates: int = 200) -> CheckReport:
    """A cohort of e^n individuals follows (1 + t log mu)^+ on the log/n scale."""
    return _cohort_exceed_report("lemma-aux2", seed, 0, n, replicates, 1,
                                 lambda family, grid: limit_profile(1.0, family.mean, grid), 0.1)


def check_cohort_flatness(seed: int, n: int = 100, replicates: int = 200) -> CheckReport:
    """A cohort of e^(n^2) individuals is flat at 1 on the log/n^2 scale."""
    return _cohort_exceed_report("lemma-aux2a", seed, 100, n, replicates, 2, lambda family, grid: 1.0, 0.05)


# ----------------------------------------------------------------------
# Truncated-process negligibility and the conditional-mean proxy
# ----------------------------------------------------------------------


def _truncated_exceed_frequency(
    family: OffspringFamily,
    law: ImmigrationLaw,
    n: int,
    c_n: float,
    gamma: float,
    level: float,
    replicates: int,
    block_seed: int,
) -> float:
    correction = family.mean if family.mean > 1.0 else None
    run = GwiRun(n=n, horizon=1.0, family=family, law=law, seed=block_seed)
    exceed = 0
    for bundle in run_replicates(run, replicates, gamma=gamma, c_n=c_n):
        lv = bundle.truncated_log
        if correction is not None:
            lv = lv - np.arange(lv.shape[0]) * math.log(correction)
        sup = float(np.max(np.maximum(lv, 0.0))) / c_n
        if sup > level:
            exceed += 1
    return exceed / replicates


def check_truncation_negligible(
    seed: int, ns: tuple[int, ...] = (50, 100, 200), replicates: int = 400
) -> CheckReport:
    """Cohorts founded while immigration is not extremely active stay below
    gamma + delta on the normalized log scale, more surely as n grows."""
    require_scale(replicates, ns)
    gamma, slack = 0.2, 0.1
    level = gamma + slack
    branches = {
        "critical_cn_n": (OffspringFamily.binary(0.5), ImmigrationLaw.reciprocal(1.0), "n"),
        "supercritical_cn_n": (OffspringFamily.poisson(2.0), ImmigrationLaw.reciprocal(1.0), "n"),
        "subcritical_cn_bn": (OffspringFamily.geometric(0.5), ImmigrationLaw.pareto_log(0.5), "bn"),
    }
    freqs: dict[str, list[float]] = {}
    worst_increase = -math.inf
    for b_idx, (name, (family, law, scaling)) in enumerate(branches.items()):
        seq = []
        for n_idx, n in enumerate(ns):
            c_n = float(n) if scaling == "n" else law.norming_bn(n)
            block = streams.replicate_seed(seed, 1000 + 10 * b_idx + n_idx)
            seq.append(
                _truncated_exceed_frequency(family, law, n, c_n, gamma, level, replicates, block)
            )
        freqs[name] = seq
        worst_increase = max(worst_increase, max(np.diff(seq), default=0.0))
    passed = worst_increase <= 0.0
    return CheckReport(
        check="lemma-aux3",
        statistic=float(worst_increase),
        threshold=0.0,
        passed=passed,
        details={"exceed_frequency_by_branch": freqs, "ns": list(ns),
                 "gamma": gamma, "slack": slack, "replicates": replicates},
    )


def check_conditional_mean_proxy(seed: int, n: int = 100, replicates: int = 200) -> CheckReport:
    """log⁺Y_n stays within 0.05*n of log⁺Z_n, Z the conditional mean given
    the immigrant counts, in at least 90% of coupled replicates."""
    require_scale(replicates, (n,))
    family = OffspringFamily.poisson(2.0)
    law = ImmigrationLaw.reciprocal(1.0)
    tol = 0.05
    run = GwiRun(n=n, horizon=1.0, family=family, law=law, seed=seed)
    exceed = 0
    for bundle in run_replicates(run, replicates):
        z_log = conditional_mean_path(run, bundle.immigrant_log_j)
        diff = abs(max(bundle.y_log[-1], 0.0) - max(z_log[-1], 0.0)) / n
        if diff > tol:
            exceed += 1
    statistic = exceed / replicates
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
    "lemma-aux2a": check_cohort_flatness,
    "lemma-aux3": check_truncation_negligible,
    "proxy-zn": check_conditional_mean_proxy,
}

_ALIASES = {
    "cohort-profile": "lemma-aux2",
    "cohort-flatness": "lemma-aux2a",
    "truncation-negligible": "lemma-aux3",
    "conditional-mean-proxy": "proxy-zn",
}

CHECK_NAMES = tuple(_REGISTRY)


def run_check(name: str, seed: int = DEFAULT_SEED, **overrides) -> CheckReport:
    """Run a registered check; raises KeyError for unknown names."""
    resolved = _ALIASES.get(name, name)
    if resolved not in _REGISTRY:
        raise KeyError(name)
    return _REGISTRY[resolved](seed, **overrides)

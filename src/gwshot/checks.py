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
from itertools import product
from typing import Callable

import numpy as np

from . import limit, streams
from .budgets import require_number, require_scale
from .gw import FluidConfig
from .gwi import GwiRun, normalized_log, run_replicates
from .immigration import ImmigrationLaw
from .offspring import OffspringFamily
from .stats import Sample, ks_distance

__all__ = ["CheckReport", "CHECK_NAMES", "run_check", "DEFAULT_SEED"]

DEFAULT_SEED = 20250809

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class _Regime:
    """One regime of Pakes (1979): the engine laws, which `_cells` alone reads, and its
    theorem's slope log mu and limit measure mu_{1,b}, normed by c_n = n^(1/b).  A
    reference reads the theorem's constants, so a swapped engine leaves it in place."""

    family: OffspringFamily
    law: ImmigrationLaw
    log_mu: float
    b: float

    def norming(self, n: int) -> float:
        return float(n) ** (1 / self.b)


# Looked up when a check runs; `_cells` seeds the cells in this order, so it is part of their streams.
_REGIMES = {
    "subcritical": _Regime(OffspringFamily.geometric(0.5), ImmigrationLaw.pareto_log(0.5), -LOG2, 0.5),
    "critical": _Regime(OffspringFamily.binary(0.5), ImmigrationLaw.reciprocal(1.0), 0.0, 1.0),
    "supercritical": _Regime(OffspringFamily.poisson(2.0), ImmigrationLaw.reciprocal(1.0), LOG2, 1.0),
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


def _cells(seed: int, regimes: tuple[str, ...], ns: tuple[int, ...], replicates: int, read: Callable,
           horizon: float = 1.0, runs: Callable | None = None) -> dict[str, list[np.ndarray]]:
    """`read(row, run, bundle)` for each replicate of each cell, in order, as one array per
    cell: {regime: [one array per n]}.  The cells are product(regimes, ns), budgeted as one
    grid before any runs; cell idx runs its `_REGIMES` row's engine on block seed
    replicate_seed(seed, idx), with the `run_replicates` keywords `runs(row, n)` gives.
    `read` gives one value or one tuple (a column per statistic) per replicate, never a path."""
    require_scale(replicates, ns, horizon)  # the counts themselves, before tuple() reads them
    require_scale(replicates, tuple(ns) * len(regimes), horizon)  # one path per cell a replicate
    block_seeds = streams.replicate_seeds(seed, 0, len(regimes) * len(ns)).tolist()
    out: dict[str, list[np.ndarray]] = {regime: [] for regime in regimes}
    for (regime, n), block_seed in zip(product(regimes, ns), block_seeds):
        row = _REGIMES[regime]
        run = GwiRun(n, horizon, row.family, row.law, seed=block_seed)
        bundles = run_replicates(run, replicates, **(runs(row, n) if runs else {}))
        out[regime].append(np.array([read(row, run, bundle) for bundle in bundles]))
    return out


def _envelope(jlog: np.ndarray, log_mu: float) -> np.ndarray:
    """e_m = max(log J_k + (m - k) log mu over k <= m with log J_k > 0), -inf before
    the first such k: `gw.mean_recursion`'s closed form with max for logaddexp."""
    k_log_mu = np.arange(jlog.shape[0]) * log_mu
    return np.maximum.accumulate(np.where(jlog > 0, jlog - k_log_mu, -np.inf)) + k_log_mu


def _envelope_gap(row: _Regime, run: GwiRun, bundle) -> float:
    """The `_cells` reader max_m |log⁺Y_m - e_m⁺| in nats, e the run's `_envelope` at the row's log mu."""
    return np.max(np.abs(np.maximum(bundle.y_log, 0.0) - np.maximum(_envelope(bundle.immigrant_log_j, row.log_mu), 0.0)))


def _prelimit_ladder(check: str, seed: int, regime: str, ns: tuple[int, ...], replicates: int) -> CheckReport:
    """KS(log⁺Y_n / c_n, exp(-x^(-b))) at t = 1 along the n-ladder, b and c_n
    the regime's theorem's, one `_cells` rung per n.

    Passes when the KS does not increase by more than 0.02 from one rung to
    the next and ends at or below 0.15.
    """
    rungs = _cells(seed, (regime,), ns, replicates,
                   lambda row, run, bundle: max(bundle.y_log[-1], 0.0) / row.norming(run.n))[regime]
    row = _REGIMES[regime]
    cdf = partial(limit.marginal_cdf, 1.0, row.b, 0.0, 1.0)
    seq = [ks_distance(Sample(values), cdf) for values in rungs]
    ks_by_n = {str(n): ks for n, ks in zip(ns, seq)}
    norming = {str(n): row.norming(n) for n in ns}
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
    return _prelimit_ladder("marginal-prelimit-thm1", seed, "critical", ns, replicates)


def check_marginal_prelimit_thm2(
    seed: int, ns: tuple[int, ...] = (25, 100), replicates: int = 1000
) -> CheckReport:
    """Subcritical process under superexponential norming b_n = n^(1/alpha).

    KS(log⁺Y_n / b_n, exp(-x^(-1/2))) <= 0.15 at the top rung, and the
    coarser rung is no better than 0.02 beyond it.
    """
    return _prelimit_ladder("marginal-prelimit-thm2", seed, "subcritical", ns, replicates)


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

    A cohort is the run whose one immigrant batch is its founders, so its
    envelope at the theorem's log mu is n + m log mu, n times the profile at
    t = m/n.  Per regime, the fraction of cohorts whose `_envelope_gap` over
    3n generations exceeds 0.1 n; one `_cells` cell per regime.
    """
    tol = 0.1
    # one cohort per regime: e^n founders at generation 0, no immigrants in 1..3n
    gaps = _cells(seed, tuple(_REGIMES), (n,), replicates, _envelope_gap, horizon=3.0,
                  runs=lambda row, n: {"immigrant_log_j": np.append(float(n), np.full(3 * n, -math.inf))})
    fractions = {regime: np.count_nonzero(cell > tol * n) / replicates for regime, (cell,) in gaps.items()}
    statistic = max(fractions.values())
    return CheckReport(
        check="lemma-aux2",
        statistic=statistic,
        threshold=0.05,
        passed=statistic <= 0.05,
        details={"exceed_fraction_by_regime": fractions, "tolerance": tol, "n": n, "replicates": replicates},
    )


# ----------------------------------------------------------------------
# Truncated-process negligibility and the functional limit, coupled
# ----------------------------------------------------------------------


def check_truncation_negligible(
    seed: int, ns: tuple[int, ...] = (50, 100, 200), replicates: int = 400
) -> CheckReport:
    """Cohorts founded while immigration is not extremely active stay below
    gamma + delta on the normalized log scale, more surely as n grows; one
    `_cells` cell per (regime, n), its cohorts cut off at gamma c_n."""
    gamma, slack = 0.2, 0.1

    def peak(row: _Regime, run: GwiRun, bundle) -> float:
        correction = math.exp(row.log_mu) if row.log_mu > 0 else None
        return np.max(normalized_log(bundle.truncated_log, row.norming(run.n), correction))

    peaks = _cells(seed, tuple(_REGIMES), ns, replicates, peak,
                   runs=lambda row, n: {"cutoff": gamma * row.norming(n)})
    freqs = {regime: [np.count_nonzero(cell > gamma + slack) / replicates for cell in cells]
             for regime, cells in peaks.items()}
    worst_increase = max(max(np.diff(seq), default=0.0) for seq in freqs.values())
    return CheckReport(
        check="lemma-aux3",
        statistic=float(worst_increase),
        threshold=0.0,
        passed=worst_increase <= 0.0,
        details={"exceed_frequency_by_regime": freqs, "ns": list(ns),
                 "gamma": gamma, "slack": slack, "replicates": replicates},
    )


def check_functional_coupled(seed: int, ns: tuple[int, ...] = (200, 800, 3200), replicates: int = 300) -> CheckReport:
    """Each prelimit path against the limit path of its own immigrants.

    The atoms (k/n, log J_k / c_n) converge to the limit's Poisson measure
    (Resnick 1987, ch. 4), and their shot noise at t = m/n is e_m⁺ / c_n
    (`_envelope`).  A replicate reads D = max_m |log⁺Y_m - e_m⁺| in nats.
    Each `_cells` cell (regime, n) passes when its q99 of D is at most the
    sum of one budget per way a path leaves e⁺:
    * deficit, log M, M the exactness threshold: an exact total has
      log⁺Y_m >= 0, and a fluid one falls below no mean path J_k mu^(m-k) it
      takes in and keeps the deficit it entered with.  For mu > 1 a dead
      cohort's mean path rises on, but the total, fed J >= 2 a generation,
      turns fluid about log M / log mu generations in;
    * overshoot, log(100 (n + 1)): E[Y_m | J] = Z_m = sum_k J_k mu^(m-k), so
      by Markov's inequality over the n + 1 generations log Y_m - log Z_m
      stays below it in 99% of the replicates;
    * a sum against its max, log(n + 1): Z_m has at most n + 1 terms, each
      at most e^(e_m) since every law here gives J >= 2;
    * the grid, |log mu|: the limit path's move between grid points, so
      bound / c_n also bounds the J1 distance off the grid (Whitt 2002).
    For mu > 1 the corrected pair, (log Y_m - m log mu)⁺ and (e_m - m log
    mu)⁺, is no farther apart: x -> (x - c)⁺ is 1-Lipschitz and at most x⁺
    for c >= 0.  Normed by c_n = n^(1/b) the bound vanishes.  log mu is the
    row's theorem's, so an engine of the wrong mean drifts from e linearly
    in n.  The statistic is the largest q99 / bound of the cells."""
    dists = _cells(seed, tuple(_REGIMES), ns, replicates, _envelope_gap)
    log_m = math.log(FluidConfig().exactness_threshold)
    q99 = {regime: {str(n): float(np.quantile(d, 0.99)) for n, d in zip(ns, cells)} for regime, cells in dists.items()}
    bounds = {regime: {str(n): log_m + math.log(100 * (n + 1)) + math.log(n + 1) + abs(_REGIMES[regime].log_mu)
                       for n in ns} for regime in dists}
    worst = max(q / bounds[regime][n] for regime, by_n in q99.items() for n, q in by_n.items())
    return CheckReport(
        check="functional-coupled",
        statistic=worst,
        threshold=1.0,
        passed=worst <= 1.0,
        details={"q99_by_regime": q99, "bound_by_regime": bounds, "ns": list(ns), "replicates": replicates},
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
    "functional-coupled": check_functional_coupled,
}

_ALIASES = {
    "cohort-profile": "lemma-aux2",
    "truncation-negligible": "lemma-aux3",
}

CHECK_NAMES = tuple(_REGISTRY)


def run_check(name: str, seed: int = DEFAULT_SEED, **overrides) -> CheckReport:
    """Run the check registered as `name` or its alias."""
    return _lookup(name)(seed, **overrides)


def _lookup(name: str) -> Callable[..., CheckReport]:
    """The check registered as `name` or its alias; KeyError for any other name."""
    return _REGISTRY[_ALIASES.get(name, name)]

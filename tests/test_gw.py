import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwshot import gw, streams
from gwshot.gw import FluidConfig, population_log_path
from gwshot.gwi import normalized_observable
from gwshot.immigration import ImmigrationLaw
from gwshot.offspring import OffspringFamily

LOG2 = math.log(2.0)
# log of the default exactness threshold: values at or below it are exact counts
LOG_THRESHOLD = math.log(FluidConfig().exactness_threshold)


def _cohort(family, initial_log, generations, rng):
    """log sizes at generations 0..`generations` of one cohort of
    e^`initial_log` founders: the kernel with one founding batch."""
    jlog = np.full(generations + 1, -math.inf)
    jlog[0] = initial_log
    return population_log_path(family, jlog, FluidConfig(), rng)


class TestFluidConfig:
    def test_threshold_floor(self):
        with pytest.raises(ValueError):
            FluidConfig(exactness_threshold=500)
        assert FluidConfig().exactness_threshold == 10**6

    @pytest.mark.parametrize("threshold", [1500.7, 1e6, True, "2000"])
    def test_threshold_must_be_an_integer(self, threshold):
        with pytest.raises(ValueError, match="integer"):
            FluidConfig.from_config({"exactness_threshold": threshold})

    @pytest.mark.parametrize("key", ["refine_on_descent", "exactness_treshold"])
    def test_unknown_key_is_refused(self, key):
        # a removed option or a misspelt threshold must not run a different process
        with pytest.raises(ValueError, match="unknown fluid key"):
            FluidConfig.from_config({key: 2_000})


class TestLoneCohort:
    def test_zero_initial_is_absorbing(self):
        rng = streams.substream(1)
        logs = _cohort(OffspringFamily.binary(0.5), -math.inf, 50, rng)
        assert logs.shape == (51,) and np.all(logs == -math.inf)

    def test_extinction_is_absorbing(self):
        rng = streams.substream(2)
        logs = _cohort(OffspringFamily.geometric(0.2), math.log(3), 200, rng)
        dead = np.nonzero(logs == -math.inf)[0]
        assert dead.size > 0
        assert np.all(logs[dead[0]:] == -math.inf)

    def test_critical_fluid_fixed_point(self):
        rng = streams.substream(3)
        logs = _cohort(OffspringFamily.binary(0.5), 20.0, 100, rng)
        assert np.all(logs == 20.0)

    def test_subcritical_descent_reenters_exact_and_dies(self):
        # log decays by log 2 per generation from 30; the threshold log(1e6)
        # is crossed near generation (30 - log 1e6)/log 2, about 23.4
        family = OffspringFamily.geometric(0.5)
        extinct = 0
        entries = []
        for rep in range(1000):
            rng = streams.substream(streams.replicate_seed(400, rep), streams.OFFSPRING)
            logs = _cohort(family, 30.0, 100, rng)
            exact = np.nonzero(logs <= LOG_THRESHOLD)[0]
            assert exact.size > 0
            entries.append(exact[0])
            # the re-entry value is a rounded count, an integer
            count = math.exp(logs[exact[0]])
            assert abs(count - round(count)) < 1e-6
            np.testing.assert_allclose(np.diff(logs[:exact[0]]), -LOG2, atol=1e-9)
            if logs[-1] == -math.inf:
                extinct += 1
        assert 23 <= np.median(entries) <= 27
        assert extinct >= 990  # spec example: extinct by G=100 in >= 99% of runs

    def test_determinism_bit_identical(self):
        fam = OffspringFamily.poisson(1.1)
        a = _cohort(fam, math.log(10), 300, streams.substream(9))
        b = _cohort(fam, math.log(10), 300, streams.substream(9))
        assert np.array_equal(a, b)

    def test_monotone_fluid_coupling(self):
        # raising the initial by a factor e shifts every fluid value up by 1
        fam = OffspringFamily.poisson(2.0)
        lo = _cohort(fam, 20.0, 50, streams.substream(10))
        hi = _cohort(fam, 21.0, 50, streams.substream(10))
        both_fluid = (lo > LOG_THRESHOLD) & (hi > LOG_THRESHOLD)
        assert both_fluid.any()
        np.testing.assert_allclose(hi[both_fluid] - lo[both_fluid], 1.0, atol=1e-9)

    def test_late_immigrant_after_extinction_is_stepped(self):
        # a zero total is skipped only when no immigrant is left
        fam = OffspringFamily.geometric(0.5)
        jlog = np.full(301, -math.inf)
        jlog[0] = math.log(3.0)
        alone = population_log_path(fam, jlog, FluidConfig(), streams.substream(15))
        assert alone[200] == -math.inf  # 3 geometric(0.5) lines die within 200 generations
        jlog[250] = math.log(1000.0)
        late = population_log_path(fam, jlog, FluidConfig(), streams.substream(15))
        assert np.array_equal(late[:250], alone[:250])
        assert late[250] >= math.log(1000.0)


def _stepped_log_path(family, jlog, config, rng):
    """The kernel with every fluid generation stepped one at a time by a
    scalar logaddexp, for a total that descends (mean < 1, refinement on):
    the reference for `population_log_path`'s closed-form stretches.  An
    extinct total is stepped too, which draws nothing."""
    out = np.full(jlog.shape[0], -math.inf)
    threshold = config.exactness_threshold
    log_m = math.log(threshold)
    log_mu = math.log(family.mean)
    step = family.exact_step(rng)
    count = 0  # exact-regime total; None while fluid
    log_value = -math.inf  # fluid-regime total
    for m, jl in enumerate(jlog.tolist()):
        if count is None:
            log_value = float(np.logaddexp(log_value + log_mu, jl))
            if log_value <= log_m:
                count = int(round(math.exp(log_value)))
                out[m] = math.log(count) if count else -math.inf
                continue
        else:
            count = step(count) if count else 0
            if jl <= log_m:
                count += int(round(math.exp(jl)))
                if count <= threshold:
                    out[m] = math.log(count) if count else -math.inf
                    continue
                log_value = math.log(count)
            else:
                log_value = float(np.logaddexp(math.log(count) if count else -math.inf, jl))
            count = None
        out[m] = log_value
    return out


def _parts_at_a_tie(got, want, jlog, log_mu, log_m):
    """Whether `got` leaves the stepped `want` at a rounding tie.

    Up to the first difference both have the same exact/fluid pattern,
    the same exact counts and fluid values within a relative 1e-12.  A
    difference is allowed only at a re-entry whose fluid value lies
    within 1e-6 of a tie k + 1/2: the two round it to neighbouring counts,
    and the paths' later draws part.
    """
    fluid = want > log_m
    close = got == want
    close[fluid] = np.abs(got[fluid] - want[fluid]) <= 1e-12 * want[fluid]
    agree = ((got > log_m) == fluid) & close
    if agree.all():
        return False
    i = int(np.argmin(agree))
    assert i > 0 and fluid[i - 1] and not fluid[i] and got[i] <= log_m, f"paths part at generation {i}"
    value = math.exp(np.logaddexp(want[i - 1] + log_mu, jlog[i]))  # the reference's count before rounding
    assert abs(value - math.floor(value) - 0.5) <= 1e-6, f"re-entry at generation {i} rounds {value!r} apart"
    return True


def test_closed_form_stretches_match_the_stepped_kernel():
    # per (family, law): cohorts and the full, truncated T and rest R
    # populations of run_coupled(cutoff=0.5 * n) at n = 200
    n, paths = 200, 300
    config = FluidConfig()
    log_m = math.log(config.exactness_threshold)
    families = (OffspringFamily.geometric(0.5), OffspringFamily.poisson(0.8), OffspringFamily.binary(0.3))
    laws = (ImmigrationLaw.reciprocal(1.0), ImmigrationLaw.pareto_log(0.5))
    compared = ties = reentries = 0
    for f_idx, family in enumerate(families):
        log_mu = math.log(family.mean)
        for l_idx, law in enumerate(laws):
            for rep in range(paths):
                seed = streams.replicate_seed(streams.replicate_seed(600, 10 * f_idx + l_idx), rep)
                jlog = law.sample_log_j_array([streams.substream(seed, streams.IMMIGRATION)], n + 1)[0]
                kept = jlog <= 0.5 * n
                cohort = np.full(n + 1, -math.inf)
                cohort[0] = 14.0 + 30.0 * rep / paths
                for kind, inputs in enumerate((jlog, np.where(kept, jlog, -math.inf),
                                               np.where(kept, -math.inf, jlog), cohort)):
                    got = population_log_path(family, inputs, config, streams.substream(seed, 10 + kind))
                    want = _stepped_log_path(family, inputs, config, streams.substream(seed, 10 + kind))
                    ties += _parts_at_a_tie(got, want, inputs, log_mu, log_m)
                    reentries += np.count_nonzero((want[:-1] > log_m) & (want[1:] <= log_m))
                    compared += 1
    assert compared == 4 * 1800
    assert reentries > 3000  # the comparison reaches many re-entries
    assert ties <= 0.01 * compared


class TestLogArithmetic:
    # np.logaddexp, the log-domain sum behind every output: -inf is the log of 0

    def test_one_plus_one(self):
        assert np.logaddexp(0.0, 0.0) == pytest.approx(LOG2, abs=4 * np.spacing(LOG2))

    def test_zero_is_identity(self):
        assert np.logaddexp(-math.inf, 3.25) == 3.25
        assert np.logaddexp(3.25, -math.inf) == 3.25
        assert np.logaddexp(-math.inf, -math.inf) == -math.inf

    def test_huge_operands_match_high_precision_oracle(self):
        # oracle: mpmath at 200-bit precision, log(e^1000 + e^990)
        mp = pytest.importorskip("mpmath")
        mp.mp.prec = 200
        expected = float(mp.log(mp.e**1000 + mp.e**990))
        assert expected == pytest.approx(1000.0000453988993, abs=1e-12)  # frozen oracle value
        assert abs(np.logaddexp(1000.0, 990.0) - expected) <= 4 * np.spacing(expected)

    def test_commutative_exactly(self):
        rng = np.random.default_rng(11)
        for a, b in rng.uniform(-700, 700, size=(200, 2)).tolist():
            assert np.logaddexp(a, b) == np.logaddexp(b, a)

    def test_associative_within_scaled_eps(self):
        rng = np.random.default_rng(13)
        for a, b, c in rng.uniform(-50, 50, size=(500, 3)).tolist():
            left = np.logaddexp(np.logaddexp(a, b), c)
            right = np.logaddexp(a, np.logaddexp(b, c))
            assert abs(left - right) <= 8 * np.spacing(max(abs(left), 1.0))

    def test_log_plus_clamps_below_one_individual(self):
        # a log path that decays below one individual: the observable takes
        # log⁺ = max(log, 0) and reads 0 there, not a negative
        logs = 30.0 - LOG2 * np.arange(101)
        f = normalized_observable(logs, norm=30.0, n=100)
        values = np.asarray(f.value(np.arange(101) / 100))
        assert np.array_equal(values, np.maximum(logs, 0.0) / 30.0)
        assert values[-1] == 0.0 and np.all(values >= 0.0)


class TestMeanRecursion:
    def test_matches_the_step_by_step_recursion(self):
        rng = np.random.default_rng(21)
        jlog = np.where(rng.random(60) < 0.3, rng.uniform(0.0, 20.0, 60), -math.inf)
        for log_mu in (math.log(0.5), 0.0, math.log(1.7)):
            got = gw.mean_recursion(12.0, 5, jlog, log_mu)
            want = [12.0]
            for jl in jlog.tolist():
                want.append(np.logaddexp(want[-1] + log_mu, jl))
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_unit_mean_without_immigrants_is_exact(self):
        # mu = 1: every later value is the start, bit for bit
        got = gw.mean_recursion(20.0, 7, np.full(30, -math.inf), 0.0)
        assert np.all(got == 20.0) and got.shape == (31,)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        log_start=st.one_of(st.sampled_from([0.0, -0.0, -math.inf]), st.floats(-50.0, 50.0)),
        start=st.integers(-1, 10**6),  # the immigrant-only sum Z starts at -1, from Z_{-1} = 0
        jlog=st.lists(st.one_of(st.sampled_from([0.0, -0.0, -math.inf]), st.floats(-50.0, 50.0)), max_size=40),
        log_mu=st.sampled_from([0.0, -0.0]),
    )
    @example(log_start=-0.0, start=0, jlog=[], log_mu=0.0)  # the final + 0.0 makes it +0.0
    @example(log_start=-0.0, start=-1, jlog=[-0.0, -math.inf], log_mu=0.0)  # step -1 * 0.0 is -0.0
    @example(log_start=-0.0, start=-1, jlog=[-0.0, -math.inf], log_mu=-0.0)
    def test_unit_mean_is_the_general_form_bit_for_bit(self, log_start, start, jlog, log_mu):
        # with log mu = 0 no array of steps k log mu is built; the result
        # must keep the bits of the form that builds one
        steps = np.arange(start, start + len(jlog) + 1, dtype=np.float64) * log_mu
        terms = np.concatenate(([log_start - steps[0]], np.array(jlog) - steps[1:]))
        want = np.logaddexp.accumulate(terms) + steps
        got = gw.mean_recursion(log_start, start, np.array(jlog, dtype=np.float64), log_mu)
        assert got.tobytes() == want.tobytes()


class TestNormalizedLogPath:
    def test_zero_path_maps_to_zero_function(self):
        rng = streams.substream(12)
        logs = _cohort(OffspringFamily.binary(0.5), -math.inf, 10, rng)
        f = normalized_observable(logs, norm=10.0, n=10)
        assert np.all(np.asarray(f.value(np.linspace(0, 1, 21))) == 0.0)

    def test_constant_path_normalizes_to_one(self):
        rng = streams.substream(13)
        logs = _cohort(OffspringFamily.binary(0.5), 30.0, 30, rng)
        f = normalized_observable(logs, norm=30.0, n=30)
        assert f.value(0.0) == 1.0 and f.value(1.0) == 1.0
        assert f.breakpoints[1] == pytest.approx(1.0 / 30.0)

    def test_profile_agreement_smoke(self):
        # reduced-scale version of the growth-profile check (full scale runs
        # in the acceptance suite)
        n, horizon, reps = 60, 3.0, 30
        grid = np.arange(int(n * horizon) + 1) / n
        for family in (OffspringFamily.geometric(0.5), OffspringFamily.poisson(2.0)):
            profile = np.maximum(1.0 + grid * math.log(family.mean), 0.0)  # (1 + t log mu)⁺
            bad = 0
            for rep in range(reps):
                rng = streams.substream(streams.replicate_seed(500, rep), streams.OFFSPRING)
                logs = _cohort(family, float(n), int(n * horizon), rng)
                normalized = np.maximum(logs, 0.0) / n
                if np.max(np.abs(normalized - profile)) > 0.1:
                    bad += 1
            assert bad <= reps // 10


def test_kernel_steps_only_counts_within_the_threshold():
    # every exact step the kernel takes is for a count in [1, threshold]: the
    # bound step checks no count, so the kernel must not hand it one beyond
    # the threshold, or a 0 (which needs no draw, and which the geometric
    # draw refuses)
    threshold = 1000
    config = FluidConfig(exactness_threshold=threshold)
    stepped = []
    bind = OffspringFamily.exact_step

    def recording(family, rng):
        step = bind(family, rng)

        def counted(m):
            stepped.append(m)
            return step(m)

        return counted

    families = (OffspringFamily.geometric(0.5), OffspringFamily.binary(0.5), OffspringFamily.poisson(2.0))
    laws = (ImmigrationLaw.reciprocal(1.0), ImmigrationLaw.pareto_log(0.5))
    reentries = 0
    with mock.patch.object(OffspringFamily, "exact_step", recording):
        for f_idx, family in enumerate(families):
            for l_idx, law in enumerate(laws):
                for rep in range(40):
                    seed = streams.replicate_seed(700, 100 * f_idx + 10 * l_idx + rep)
                    jlog = law.sample_log_j_array([streams.substream(seed, streams.IMMIGRATION)], 301)[0]
                    logs = population_log_path(family, jlog, config, streams.substream(seed, streams.OFFSPRING))
                    reentries += np.count_nonzero((logs[:-1] > math.log(threshold)) & (logs[1:] <= math.log(threshold)))
    assert stepped and min(stepped) >= 1 and max(stepped) <= threshold
    assert max(stepped) > threshold // 2 and reentries > 20  # the counts reach up to the threshold and back

import math

import numpy as np
import pytest

from gwshot import streams
from gwshot.gw import FluidConfig
from gwshot.gwi import (
    GwiRun,
    conditional_mean_path,
    immigrant_log_draws,
    normalized_observable,
    run_coupled,
    run_replicates,
)
from gwshot.immigration import ImmigrationLaw
from gwshot.offspring import OffspringFamily

LOG2 = math.log(2.0)

CRITICAL = OffspringFamily.binary(0.5)
RECIP = ImmigrationLaw.reciprocal(1.0)


def _run(n=30, horizon=1.0, family=CRITICAL, law=RECIP, seed=0):
    return GwiRun(n=n, horizon=horizon, family=family, law=law, config=FluidConfig(), seed=seed)


class TestRunDescriptor:
    def test_zero_horizon_yields_initial_immigrants_only(self):
        run = _run(n=1, horizon=0.0, seed=5)
        y_log = run_coupled(run).y_log
        assert y_log.shape == (1,)
        assert y_log[0] == immigrant_log_draws(run)[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            _run(n=0)
        with pytest.raises(ValueError):
            _run(horizon=-1.0)


class TestDeterminismAndCoupling:
    def test_same_seed_reproduces_bitwise(self):
        a = run_coupled(_run(seed=123))
        b = run_coupled(_run(seed=123))
        assert np.array_equal(a.y_log, b.y_log)
        assert np.array_equal(a.immigrant_log_j, b.immigrant_log_j)

    def test_immigrant_draws_are_a_separate_stream(self):
        run = _run(seed=321)
        bundle = run_coupled(run)
        assert np.array_equal(immigrant_log_draws(run), bundle.immigrant_log_j)

    def test_truncated_below_full_for_every_seed(self):
        # exact pointwise domination on 10^3 coupled runs
        for rep in range(1000):
            run = _run(n=25, seed=streams.replicate_seed(9000, rep))
            bundle = run_coupled(run, gamma=0.3, c_n=25.0)
            assert np.all(bundle.truncated_log <= bundle.y_log)

    def test_truncation_keeps_unit_immigrants(self):
        # J = 1 cohorts always survive the cutoff since gamma*c_n >= 0
        run = _run(n=10, seed=1)
        ones = np.zeros(11)
        full = run_coupled(run, immigrant_log_j=ones).y_log
        bundle = run_coupled(run, gamma=0.5, c_n=10.0, immigrant_log_j=ones)
        assert np.array_equal(bundle.truncated_log, full)


class TestRunReplicates:
    def test_replicate_seeds_and_order(self):
        run = _run(n=20, seed=17)
        got = list(run_replicates(run, 3, gamma=0.2, c_n=20.0))
        for r, bundle in enumerate(got):
            want = run_coupled(_run(n=20, seed=streams.replicate_seed(17, r)), gamma=0.2, c_n=20.0)
            assert np.array_equal(bundle.y_log, want.y_log)
            assert np.array_equal(bundle.truncated_log, want.truncated_log)


class TestMeanIdentities:
    def test_unit_immigration_mean(self):
        # deterministic J = 1 hook: E Y_m = sum_{k<=m} mu^{m-k}
        n, reps, mu = 20, 10_000, 0.9
        family = OffspringFamily.poisson(mu)
        ones = np.zeros(n + 1)
        total = np.zeros(n + 1)
        total_sq = np.zeros(n + 1)
        for rep in range(reps):
            run = GwiRun(n=n, horizon=1.0, family=family, law=RECIP,
                         config=FluidConfig(), seed=streams.replicate_seed(700, rep))
            y = np.exp(run_coupled(run, immigrant_log_j=ones).y_log)
            total += y
            total_sq += y * y
        mean = total / reps
        se = np.sqrt(np.maximum(total_sq / reps - mean**2, 0.0) / reps)
        ages = np.arange(n + 1)
        expected = np.array([np.sum(mu ** (m - np.arange(m + 1))) for m in ages])
        assert np.all(np.abs(mean - expected) <= 5 * np.maximum(se, 1e-12))

    def test_frozen_immigration_mean_matches_conditional_mean(self):
        # one immigrant realization shared by all replicates: E[Y_m | J] = Z_m
        n, reps = 20, 10_000
        family = OffspringFamily.poisson(0.9)
        law = ImmigrationLaw.reciprocal(0.2)
        jlog = law.sample_log_j_array(streams.substream(42, streams.IMMIGRATION), n + 1)
        jlog = np.minimum(jlog, 8.0)  # keep counts in comfortably exact range
        z = np.exp(conditional_mean_path(_run(n=n, family=family, law=law), jlog))
        total = np.zeros(n + 1)
        total_sq = np.zeros(n + 1)
        for rep in range(reps):
            run = GwiRun(n=n, horizon=1.0, family=family, law=law,
                         config=FluidConfig(), seed=streams.replicate_seed(800, rep))
            y = np.exp(run_coupled(run, immigrant_log_j=jlog).y_log)
            total += y
            total_sq += y * y
        mean = total / reps
        se = np.sqrt(np.maximum(total_sq / reps - mean**2, 0.0) / reps)
        assert np.all(np.abs(mean - z) <= 5 * np.maximum(se, 1e-12))


class TestConditionalMeanPath:
    def test_single_immigrant_supercritical(self):
        run = _run(n=3, family=OffspringFamily.poisson(2.0))
        jlog = np.array([10.0, -math.inf, -math.inf, -math.inf])
        z = conditional_mean_path(run, jlog)
        assert z[3] == pytest.approx(10.0 + 3 * LOG2, rel=1e-12)

    def test_critical_is_running_sum(self):
        run = _run(n=4)
        z = conditional_mean_path(run, np.zeros(5))  # J = 1 each step
        values = np.exp(z)
        np.testing.assert_allclose(values, np.arange(1, 6), rtol=1e-12)


class TestNormalizedObservable:
    def test_zero_values_zero_path(self):
        path = normalized_observable(np.full(11, -math.inf), norm=10.0, n=10)
        assert np.all(np.asarray(path.value(np.linspace(0, 1, 21))) == 0.0)

    def test_correction_with_unit_mean_is_identity(self):
        values = np.linspace(0, 5, 11)
        a = normalized_observable(values, norm=10.0, n=10)
        b = normalized_observable(values, norm=10.0, n=10, supercritical_correction=1.0)
        assert np.array_equal(a.values, b.values)

    def test_exact_cancellation(self):
        mu = math.e**2
        values = 2.0 * np.arange(11)
        path = normalized_observable(values, norm=5.0, n=10, supercritical_correction=mu)
        assert np.all(np.abs(np.asarray(path.values)) < 1e-12)

    def test_breakpoints_on_the_grid(self):
        path = normalized_observable(np.zeros(6), norm=1.0, n=5)
        np.testing.assert_allclose(path.breakpoints, np.arange(6) / 5)


class TestCriticalMaxDomination:
    def test_log_y_close_to_running_max_of_immigrant_logs(self):
        # critical case: on the log/n scale Y_n tracks the largest immigrant
        # batch; reduced-scale cousin of the prelimit marginal acceptance run
        n, reps = 50, 300
        devs = []
        for rep in range(reps):
            run = GwiRun(n=n, horizon=1.0, family=CRITICAL, law=RECIP,
                         config=FluidConfig(), seed=streams.replicate_seed(900, rep))
            bundle = run_coupled(run)
            devs.append(abs(max(bundle.y_log[-1], 0.0) - bundle.immigrant_log_j.max()) / n)
        assert np.median(devs) <= 0.1

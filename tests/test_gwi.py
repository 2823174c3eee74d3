import math
from unittest import mock

import numpy as np
import pytest

from gwshot import gwi, streams
from gwshot.checks import _REGIMES
from gwshot.gw import FluidConfig, mean_recursion, population_log_path
from gwshot.gwi import (
    GwiRun,
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
            bundle = run_coupled(run, cutoff=0.3 * 25.0)
            assert np.all(bundle.truncated_log <= bundle.y_log)

    def test_truncation_keeps_unit_immigrants(self):
        # J = 1 cohorts always survive a cutoff >= 0
        run = _run(n=10, seed=1)
        ones = np.zeros(11)
        full = run_coupled(run, immigrant_log_j=ones).y_log
        bundle = run_coupled(run, cutoff=0.5 * 10.0, immigrant_log_j=ones)
        assert np.array_equal(bundle.truncated_log, full)


class TestRunReplicates:
    def test_replicate_seeds_and_order(self):
        run = _run(n=20, seed=17)
        got = list(run_replicates(run, 3, cutoff=0.2 * 20.0))
        for r, bundle in enumerate(got):
            want = run_coupled(_run(n=20, seed=streams.replicate_seed(17, r)), cutoff=0.2 * 20.0)
            assert np.array_equal(bundle.y_log, want.y_log)
            assert np.array_equal(bundle.truncated_log, want.truncated_log)

    def test_founders_reach_every_replicate(self):
        # a lone cohort per replicate: the one-batch kernel on the offspring
        # substream of replicate_seed(seed, r), with the founders unchanged
        run = _run(n=20, horizon=3.0, family=OffspringFamily.geometric(0.5), seed=41)
        founders = np.full(run.num_steps + 1, -math.inf)
        founders[0] = 20.0
        for r, bundle in enumerate(run_replicates(run, 4, immigrant_log_j=founders)):
            rng = streams.substream(streams.replicate_seed(41, r), streams.OFFSPRING)
            want = population_log_path(run.family, founders, FluidConfig(), rng)
            assert np.array_equal(bundle.immigrant_log_j, founders)
            assert np.array_equal(bundle.y_log, want)

    def test_founders_leave_only_offspring_draws_to_differ(self):
        # three founders stay in the exact regime, so replicates part ways
        run = _run(n=20, seed=42)
        founders = np.full(run.num_steps + 1, -math.inf)
        founders[0] = math.log(3.0)
        paths = {tuple(b.y_log) for b in run_replicates(run, 20, immigrant_log_j=founders)}
        assert len(paths) > 1

    def test_founders_of_the_wrong_length_are_rejected(self):
        run = _run(n=10, seed=43)
        with pytest.raises(ValueError, match="length 11"):
            list(run_replicates(run, 1, immigrant_log_j=np.zeros(12)))

    def test_truncation_sends_a_large_founding_batch_to_the_rest(self):
        # founders above the cutoff are excluded: T stays empty and Y is the
        # cohort on the excluded-offspring substream
        run = _run(n=10, seed=44)
        founders = np.full(run.num_steps + 1, -math.inf)
        founders[0] = 8.0
        bundle = next(run_replicates(run, 1, cutoff=0.5 * 10.0, immigrant_log_j=founders))
        rng = streams.substream(streams.replicate_seed(44, 0), streams.EXCLUDED_OFFSPRING)
        assert np.all(bundle.truncated_log == -math.inf)
        assert np.array_equal(bundle.y_log, population_log_path(CRITICAL, founders, FluidConfig(), rng))


def _bits(bundles):
    """Each bundle's arrays as bit patterns (None for an absent truncated path)."""
    return [tuple(None if a is None else a.view(np.int64).tolist()
                  for a in (b.immigrant_log_j, b.y_log, b.truncated_log)) for b in bundles]


class TestBlocks:
    @pytest.mark.parametrize("case", [*_REGIMES, "cutoff", "founders"])
    @pytest.mark.parametrize("n,horizon", [(2, 1.0), (1, 0.0)], ids=["3-generations", "horizon-0"])
    def test_blocks_change_no_bits(self, case, n, horizon):
        # blocks of one replicate up, capped by generations or by replicates:
        # each replicate's bundle is the same to the bit
        family, law = _REGIMES.get(case, _REGIMES["critical"])
        run = GwiRun(n=n, horizon=horizon, family=family, law=law, seed=51)
        runs = {}
        if case == "cutoff":
            runs["cutoff"] = 0.2 * n
        if case == "founders":
            runs["immigrant_log_j"] = np.full(run.num_steps + 1, -math.inf)
            runs["immigrant_log_j"][0] = math.log(3.0)
        replicates = 9
        want = _bits(run_replicates(run, replicates, **runs))
        size = run.num_steps + 1
        for cells, most in [(1, None), (2, None), (7, None), (None, 4)]:
            with mock.patch.object(gwi, "_BLOCK_CELLS", cells or gwi._BLOCK_CELLS), \
                    mock.patch.object(gwi, "_BLOCK_REPLICATES", most or gwi._BLOCK_REPLICATES), \
                    mock.patch.object(streams, "replicate_seeds", side_effect=streams.replicate_seeds) as seeds:
                got = _bits(run_replicates(run, replicates, **runs))
            assert got == want
            per_block = max(1, min(most or gwi._BLOCK_REPLICATES, (cells or gwi._BLOCK_CELLS) // size))
            spans = [(call.args[1], call.args[2]) for call in seeds.call_args_list]
            assert spans == [(lo, min(lo + per_block, replicates)) for lo in range(0, replicates, per_block)]
        assert per_block == 4  # the last caps hold several replicates to a block

    def test_a_block_draws_its_immigrants_once(self):
        # 801 generations: 20 replicates to a block of 2^14 cells, so 50
        # replicates draw in three calls
        run = _run(n=800, seed=52)
        draws = mock.patch.object(ImmigrationLaw, "sample_log_j_array", autospec=True,
                                  side_effect=ImmigrationLaw.sample_log_j_array)
        with mock.patch.object(gwi, "_BLOCK_CELLS", 1 << 14), draws as sample:
            bundles = list(run_replicates(run, 50))
        assert [len(call.args[1]) for call in sample.call_args_list] == [20, 20, 10]
        for r in (0, 19, 20, 49):
            alone = immigrant_log_draws(GwiRun(800, 1.0, CRITICAL, RECIP, seed=streams.replicate_seed(52, r)))
            assert np.array_equal(bundles[r].immigrant_log_j.view(np.int64), alone.view(np.int64))


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
        jlog = law.sample_log_j_array([streams.substream(42, streams.IMMIGRATION)], n + 1)[0]
        jlog = np.minimum(jlog, 8.0)  # keep counts in comfortably exact range
        z = np.exp(mean_recursion(-math.inf, -1, jlog, math.log(family.mean))[1:])  # Z_m, from Z_{-1} = 0
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
    # Z_m = E[Y_m | J] = sum_{k <= m} J_k mu^(m-k), `mean_recursion` from Z_{-1} = 0

    def test_single_immigrant_supercritical(self):
        jlog = np.array([10.0, -math.inf, -math.inf, -math.inf])
        z = mean_recursion(-math.inf, -1, jlog, LOG2)[1:]
        assert z[3] == pytest.approx(10.0 + 3 * LOG2, rel=1e-12)

    def test_critical_is_running_sum(self):
        z = mean_recursion(-math.inf, -1, np.zeros(5), 0.0)[1:]  # J = 1 each step
        np.testing.assert_allclose(np.exp(z), np.arange(1, 6), rtol=1e-12)


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

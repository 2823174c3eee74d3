import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwshot import gw, streams
from gwshot.gw import FluidConfig, limit_profile, population_log_path, simulate_cohort
from gwshot.gwi import normalized_observable
from gwshot.lognum import LogMagnitude, ZERO
from gwshot.offspring import OffspringFamily

LOG2 = math.log(2.0)
# log of the default exactness threshold: values at or below it are exact counts
LOG_THRESHOLD = math.log(FluidConfig().exactness_threshold)


class TestFluidConfig:
    def test_threshold_floor(self):
        with pytest.raises(ValueError):
            FluidConfig(exactness_threshold=500)
        assert FluidConfig().exactness_threshold == 10**6

    def test_config_roundtrip(self):
        cfg = FluidConfig(exactness_threshold=10_000, refine_on_descent=False)
        assert FluidConfig.from_config(cfg.to_config()) == cfg


class TestSimulateCohort:
    def test_zero_initial_is_absorbing(self):
        rng = streams.substream(1)
        logs = simulate_cohort(OffspringFamily.binary(0.5), ZERO, 50, FluidConfig(), rng)
        assert logs.shape == (51,) and np.all(logs == -math.inf)

    def test_extinction_is_absorbing(self):
        rng = streams.substream(2)
        logs = simulate_cohort(OffspringFamily.geometric(0.2), LogMagnitude.from_value(3), 200, FluidConfig(), rng)
        dead = np.nonzero(logs == -math.inf)[0]
        assert dead.size > 0
        assert np.all(logs[dead[0]:] == -math.inf)

    def test_critical_fluid_fixed_point(self):
        rng = streams.substream(3)
        logs = simulate_cohort(OffspringFamily.binary(0.5), LogMagnitude(20.0), 100, FluidConfig(), rng)
        assert np.all(logs == 20.0)

    def test_subcritical_descent_reenters_exact_and_dies(self):
        # log decays by log 2 per generation from 30; the threshold log(1e6)
        # is crossed near generation (30 - log 1e6)/log 2, about 23.4
        family = OffspringFamily.geometric(0.5)
        extinct = 0
        entries = []
        for rep in range(1000):
            rng = streams.substream(streams.replicate_seed(400, rep), streams.OFFSPRING)
            logs = simulate_cohort(family, LogMagnitude(30.0), 100, FluidConfig(), rng)
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
        a = simulate_cohort(fam, LogMagnitude.from_value(10), 300, FluidConfig(), streams.substream(9))
        b = simulate_cohort(fam, LogMagnitude.from_value(10), 300, FluidConfig(), streams.substream(9))
        assert np.array_equal(a, b)

    def test_monotone_fluid_coupling(self):
        # raising the initial by a factor e shifts every fluid value up by 1
        fam = OffspringFamily.poisson(2.0)
        lo = simulate_cohort(fam, LogMagnitude(20.0), 50, FluidConfig(), streams.substream(10))
        hi = simulate_cohort(fam, LogMagnitude(21.0), 50, FluidConfig(), streams.substream(10))
        both_fluid = (lo > LOG_THRESHOLD) & (hi > LOG_THRESHOLD)
        assert both_fluid.any()
        np.testing.assert_allclose(hi[both_fluid] - lo[both_fluid], 1.0, atol=1e-9)

    def test_refine_off_keeps_decaying(self):
        fam = OffspringFamily.geometric(0.5)
        cfg = FluidConfig(refine_on_descent=False)
        logs = simulate_cohort(fam, LogMagnitude(30.0), 100, cfg, streams.substream(11))
        np.testing.assert_allclose(np.diff(logs), -LOG2, atol=1e-9)
        assert logs[-1] < 0.0  # far below one individual, never rounded back to a count

    def test_cohort_is_the_population_with_one_founding_batch(self):
        fam = OffspringFamily.geometric(0.5)
        jlog = np.full(61, -math.inf)
        jlog[0] = 17.0
        via_cohort = simulate_cohort(fam, LogMagnitude(17.0), 60, FluidConfig(), streams.substream(14))
        via_kernel = population_log_path(fam, jlog, FluidConfig(), streams.substream(14))
        assert np.array_equal(via_cohort, via_kernel)


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


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.min, 1e-310, -1e-310,
          1e308, -1e308, sys.float_info.max, -sys.float_info.max, math.log(2.0), 709.8, -745.2, 13.815510557964274)
_FLOATS = st.one_of(st.sampled_from(_EDGES), st.floats(), st.floats(-60.0, 60.0), st.floats(-1e-306, 1e-306))


@st.composite
def _logaddexp_pairs(draw):
    x = draw(_FLOATS)
    kind = draw(st.sampled_from(("free", "equal", "ulps", "tiny")))
    if kind == "free":
        y = draw(_FLOATS)
    elif kind == "equal":
        y = x
    elif kind == "ulps":  # a difference of a few ulps, subnormal when x is tiny
        y = x
        for _ in range(draw(st.integers(1, 3))):
            y = math.nextafter(y, draw(st.sampled_from((math.inf, -math.inf))))
    else:  # both subnormal or near it: a subnormal difference
        x, y = draw(st.floats(-1e-307, 1e-307)), draw(st.floats(-1e-307, 1e-307))
    return (x, y) if draw(st.booleans()) else (y, x)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(_logaddexp_pairs())
@example((math.inf, math.inf))
@example((-math.inf, -math.inf))
@example((math.inf, -math.inf))
@example((-math.inf, 3.0))
@example((math.nan, -math.inf))
@example((1e308, 1e308))
@example((-1e308, 1e308))
@example((5e-324, -5e-324))
def test_logaddexp_is_bitwise_numpy(pair):
    x, y = pair
    with np.errstate(all="ignore"):
        want = float(np.logaddexp(x, y))
    assert _bits(gw._logaddexp(x, y)) == _bits(want)


def test_logaddexp_matches_numpy_on_a_dense_sweep():
    # near-equal pairs, then shuffled pairs over the whole float range
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0, 30, 200_000), rng.normal(0, 1e300, 100_000), np.array(_EDGES)])
    y = np.concatenate([x[:100_000] + rng.normal(0, 1e-9, 100_000), rng.permutation(x[100_000:])])
    got = np.array([gw._logaddexp(a, b) for a, b in zip(x.tolist(), y.tolist())])
    with np.errstate(all="ignore"):
        want = np.logaddexp(x, y)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestNormalizedLogPath:
    def test_zero_path_maps_to_zero_function(self):
        rng = streams.substream(12)
        logs = simulate_cohort(OffspringFamily.binary(0.5), ZERO, 10, FluidConfig(), rng)
        f = normalized_observable(logs, norm=10.0, n=10)
        assert np.all(np.asarray(f.value(np.linspace(0, 1, 21))) == 0.0)

    def test_constant_path_normalizes_to_one(self):
        rng = streams.substream(13)
        logs = simulate_cohort(OffspringFamily.binary(0.5), LogMagnitude(30.0), 30, FluidConfig(), rng)
        f = normalized_observable(logs, norm=30.0, n=30)
        assert f.value(0.0) == 1.0 and f.value(1.0) == 1.0
        assert f.breakpoints[1] == pytest.approx(1.0 / 30.0)

    def test_profile_agreement_smoke(self):
        # reduced-scale version of the growth-profile check (full scale runs
        # in the acceptance suite)
        n, horizon, reps = 60, 3.0, 30
        grid = np.arange(int(n * horizon) + 1) / n
        for family in (OffspringFamily.geometric(0.5), OffspringFamily.poisson(2.0)):
            profile = limit_profile(1.0, family.mean, grid)
            bad = 0
            for rep in range(reps):
                rng = streams.substream(streams.replicate_seed(500, rep), streams.OFFSPRING)
                logs = simulate_cohort(family, LogMagnitude(float(n)), int(n * horizon), FluidConfig(), rng)
                normalized = np.maximum(logs, 0.0) / n
                if np.max(np.abs(normalized - profile)) > 0.1:
                    bad += 1
            assert bad <= reps // 10


class TestLimitProfile:
    def test_trivial_values(self):
        assert limit_profile(1.0, 1.0, 7.0) == 1.0
        assert limit_profile(1.0, math.e, 2.0) == pytest.approx(3.0, rel=1e-15)
        assert limit_profile(1.0, 1.0 / math.e, 2.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            limit_profile(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            limit_profile(1.0, 0.0, 1.0)

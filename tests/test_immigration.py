import math

import numpy as np
import pytest

from gwshot import streams
from gwshot.immigration import FLOOR_EXACT_LOG, ImmigrationLaw, floored_log
from gwshot.stats import Sample, dkw_band, ks_distance

ALL_LAWS = [
    ImmigrationLaw.reciprocal(1.0),
    ImmigrationLaw.pareto_log(0.5),
    ImmigrationLaw.pareto_log_sv(),
]


class TestTail:
    def test_trivial_values(self):
        assert ImmigrationLaw.reciprocal(1.0).tail(2.0) == 0.5
        assert ImmigrationLaw.pareto_log(0.5).tail(4.0) == 0.5
        for law in ALL_LAWS:
            assert law.tail(0.0) == 1.0

    def test_tail_shape(self):
        xs = np.linspace(0, 50, 2001)
        for law in ALL_LAWS:
            t = law.tail(xs)
            assert np.all(t <= 1.0) and np.all(t >= 0.0)
            assert np.all(np.diff(t) <= 1e-15)  # nonincreasing

    def test_validation(self):
        with pytest.raises(ValueError):
            ImmigrationLaw.reciprocal(0.0)
        with pytest.raises(ValueError):
            ImmigrationLaw.pareto_log(1.0)
        with pytest.raises(ValueError):
            ImmigrationLaw.reciprocal(1.0).tail(-1.0)


class TestInverseAndSampling:
    def test_hand_inversions(self):
        # reciprocal(1): tail(V) = 1/V = 0.5 -> V = 2, J = floor(e^2) = 7
        law = ImmigrationLaw.reciprocal(1.0)
        assert law.inverse_tail(0.5) == pytest.approx(2.0, abs=1e-15)
        assert floored_log(np.array([2.0]))[0] == pytest.approx(math.log(7.0), abs=1e-15)
        # pareto_log(1/2): V^{-1/2} = 0.25 -> V = 16, J = floor(e^16) = 8886110
        law = ImmigrationLaw.pareto_log(0.5)
        assert law.inverse_tail(0.25) == pytest.approx(16.0, rel=1e-14)
        assert floored_log(np.array([16.0]))[0] == pytest.approx(math.log(8886110.0), abs=1e-12)

    def test_sv_inverse_consistency(self):
        law = ImmigrationLaw.pareto_log_sv()
        for u in (0.9, 0.5, 0.1, 1e-3):
            v = law.inverse_tail(u)
            assert law.tail(v) == pytest.approx(u, rel=1e-9)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=[l.variant for l in ALL_LAWS])
    def test_scalar_input_gives_a_float(self, law):
        assert type(law.inverse_tail(0.5)) is float

    def test_sv_inverse_is_the_lambert_w_root(self):
        # tail(V) = u solves e + V = -W_{-1}(-u e^{-u e}) / u exactly
        mp = pytest.importorskip("mpmath")
        us = np.concatenate((np.logspace(-53, 0, 60, base=2.0), [1e-70, 1e-300]))
        got = ImmigrationLaw.pareto_log_sv().inverse_tail(us)
        with mp.workdps(50):
            for u, v in zip(us.tolist(), got.tolist()):
                u = mp.mpf(u)
                want = -mp.lambertw(-u * mp.exp(-u * mp.e), -1).real / u - mp.e
                assert abs(v - want) <= 1e-15 * want

    def test_sv_inverse_beyond_the_float_range_is_inf(self):
        law = ImmigrationLaw.pareto_log_sv()
        assert law.inverse_tail(1e-307) == math.inf
        assert law.inverse_tail(5e-324) == math.inf

    def test_sv_draws_invert_the_tail_to_rounding(self):
        law = ImmigrationLaw.pareto_log_sv()
        u = 1.0 - streams.substream(104).random(1_000_000)
        v = law.inverse_tail(u)
        assert np.max(np.abs(law.tail(v) - u) / u) <= 1e-15

    @pytest.mark.parametrize("law", ALL_LAWS, ids=[l.variant for l in ALL_LAWS])
    def test_sampler_exact_in_distribution(self, law):
        # Kolmogorov distance of 10^6 tail-value draws within the 99% DKW band
        rng = streams.substream(101)
        v = law.inverse_tail(1.0 - rng.random(1_000_000))
        band = dkw_band(1_000_000, 0.99)
        dist = ks_distance(Sample(v), lambda x: 1.0 - law.tail(np.maximum(np.asarray(x), 0.0)))
        assert dist <= band
        # pointwise tail agreement at the stated abscissas
        for x in (1.0, 10.0, 100.0):
            assert abs(np.mean(v > x) - law.tail(x)) <= band

    def test_flooring_gap_at_most_one(self):
        rng = streams.substream(102)
        v = ImmigrationLaw.reciprocal(1.0).inverse_tail(1.0 - rng.random(100_000))
        gap = v - floored_log(v)
        assert np.all(gap >= -1e-12) and np.all(gap <= 1.0)

    @pytest.mark.parametrize(
        "law",
        [*ALL_LAWS, ImmigrationLaw.reciprocal(2.5), ImmigrationLaw.pareto_log(0.9)],
        ids=["reciprocal-1", "pareto_log-0.5", "pareto_log_sv", "reciprocal-2.5", "pareto_log-0.9"],
    )
    @pytest.mark.parametrize("size", [1, 7, 801])
    def test_block_rows_are_the_one_stream_draws(self, law, size):
        # row i of a block is generator i's draws alone, bit for bit; a
        # block of one is the one-stream sampler
        seeds = [streams.replicate_seed(105, i) for i in range(5)]
        block = law.sample_log_j_array([streams.substream(s, streams.IMMIGRATION) for s in seeds], size)
        assert block.shape == (5, size) and block.dtype == np.float64
        for seed, row in zip(seeds, block):
            want = floored_log(law.inverse_tail(1.0 - streams.substream(seed, streams.IMMIGRATION).random(size)))
            one = law.sample_log_j_array([streams.substream(seed, streams.IMMIGRATION)], size)
            assert one.shape == (1, size)
            assert np.array_equal(row.view(np.int64), want.view(np.int64))
            assert np.array_equal(one[0].view(np.int64), want.view(np.int64))

    def test_floor_transition_is_seamless(self):
        just_below = floored_log(np.array([FLOOR_EXACT_LOG - 1e-9]))[0]
        just_above = floored_log(np.array([FLOOR_EXACT_LOG + 1e-9]))[0]
        assert abs(just_above - just_below) < 1e-6


class TestNorming:
    def test_closed_forms_exact(self):
        assert ImmigrationLaw.reciprocal(2.0).norming_bn(100) == pytest.approx(200.0, rel=1e-12)
        assert ImmigrationLaw.pareto_log(0.5).norming_bn(100) == pytest.approx(1e4, rel=1e-12)
        assert ImmigrationLaw.reciprocal(1.0).norming_bn(1) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=[l.variant for l in ALL_LAWS])
    @pytest.mark.parametrize("n", [10, 10**3, 10**6])
    def test_residual(self, law, n):
        b = law.norming_bn(n)
        assert abs(n * law.tail(b) - 1.0) <= 1e-9

    @pytest.mark.parametrize("law", ALL_LAWS, ids=[l.variant for l in ALL_LAWS])
    def test_strictly_increasing(self, law):
        values = [law.norming_bn(n) for n in (1, 2, 5, 10, 100, 10**4)]
        assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))

    def test_sv_solver_beyond_the_float_range_raises(self):
        # b_n near 7e308: the root of log(e+b) = b/n lies beyond the float range
        with pytest.raises(OverflowError):
            ImmigrationLaw.pareto_log_sv().norming_bn(10**306)

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
    def test_sampler_exact_in_distribution(self, law):
        # Kolmogorov distance of 10^6 tail-value draws within the 99% DKW band
        rng = streams.substream(101)
        v = law.sample_tail_value(rng, size=1_000_000)
        band = dkw_band(1_000_000, 0.99)
        dist = ks_distance(Sample(v), lambda x: 1.0 - law.tail(np.maximum(np.asarray(x), 0.0)))
        assert dist <= band
        # pointwise tail agreement at the stated abscissas
        for x in (1.0, 10.0, 100.0):
            assert abs(np.mean(v > x) - law.tail(x)) <= band

    def test_flooring_gap_at_most_one(self):
        rng = streams.substream(102)
        v = np.asarray(ImmigrationLaw.reciprocal(1.0).sample_tail_value(rng, size=100_000))
        gap = v - floored_log(v)
        assert np.all(gap >= -1e-12) and np.all(gap <= 1.0)

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
        # b_n near 7e308: the bracket doubles to inf, where the bisection never ends
        with pytest.raises(OverflowError):
            ImmigrationLaw.pareto_log_sv().norming_bn(10**306)

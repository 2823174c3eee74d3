import tracemalloc

import numpy as np
import pytest

from gwshot.stats import Sample, dkw_band, ks_distance


class TestKsDistance:
    def test_degenerate_single_point(self):
        assert ks_distance(Sample(np.array([0.5])), lambda x: np.clip(x, 0, 1)) == pytest.approx(0.5)

    @pytest.mark.parametrize("rate", [0.5, 2.0])
    @pytest.mark.parametrize("n", [1, 1 << 14, (1 << 14) + 1, 100_000])
    def test_equals_the_whole_sample_formula(self, n, rate):
        # the statistic is a maximum of elementwise gaps, so the slices give
        # it bit for bit; two decimals make ties once n is large.  The CDF
        # lies below the sample's law at rate 0.5 and above it at rate 2, so
        # each one-sided gap decides the statistic in one of the cases
        rng = np.random.default_rng(n)
        x = np.round(rng.exponential(1.0, n), 2) + 0.01

        def cdf(t):
            return -np.expm1(-rate * t)

        f = cdf(np.sort(x))
        expected = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
        assert n == 1 or np.unique(x).size < n
        assert ks_distance(Sample(x), cdf) == expected

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            ks_distance(Sample(np.array([])), lambda x: np.clip(x, 0, 1))

    def test_nan_from_the_cdf_is_not_dropped(self):
        sample = Sample(np.linspace(0.0, 1.0, 3 << 14))
        assert np.isnan(ks_distance(sample, lambda x: np.where(x > 0.9, np.nan, x)))

    def test_working_set_is_one_slice(self):
        # the CDF values and both gaps of one slice of 2^14 values: 1 MiB
        # holds eight such arrays, where the whole 2e5-value arrays of the
        # gaps and the ranks take 6.2 MiB
        sample = Sample(np.random.default_rng(9).random(200_000))
        tracemalloc.start()
        try:
            ks_distance(sample, lambda x: np.clip(x, 0.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * (1 << 14)

    def test_scalar_only_cdf_raises_at_once(self):
        # a CDF must be vectorised: it is called once per slice of at most
        # 2^14 values
        calls = []

        def scalar_cdf(x):
            calls.append(x)
            return min(max(float(x), 0.0), 1.0)

        sample = Sample(np.linspace(0.1, 0.9, 1000))
        with pytest.raises(TypeError):
            ks_distance(sample, scalar_cdf)
        assert len(calls) == 1
        with pytest.raises(ValueError, match="vectorised"):
            ks_distance(sample, lambda x: 0.5)

    def test_uniform_sample_within_dkw_band_with_margin(self):
        # true exceedance probability of the 99% band is ~0.9%; doubling the
        # nominal frequency bound makes the check numerically stable
        rng = np.random.default_rng(5)
        exceed = 0
        trials = 400
        band = dkw_band(100_000, 0.99)
        for _ in range(trials):
            u = rng.random(100_000)
            if ks_distance(Sample(u), lambda x: np.clip(x, 0, 1)) > band:
                exceed += 1
        assert exceed / trials <= 0.02

    def test_invariance_under_increasing_transformation(self):
        rng = np.random.default_rng(7)
        x = rng.exponential(1.0, size=2000)
        d_raw = ks_distance(Sample(x), lambda t: -np.expm1(-np.maximum(t, 0.0)))
        d_log = ks_distance(Sample(np.log(x)), lambda t: -np.expm1(-np.exp(t)))
        assert d_raw == pytest.approx(d_log, abs=1e-12)


class TestDkwBand:
    def test_frozen_values(self):
        assert dkw_band(10**5, 0.99) == pytest.approx(0.005146997846583986, rel=1e-12)
        assert dkw_band(1, 0.5) == pytest.approx(0.8325546111576977, rel=1e-12)

    def test_monotone_in_confidence(self):
        bands = [dkw_band(100, c) for c in (0.5, 0.9, 0.99, 0.999)]
        assert all(b2 > b1 for b1, b2 in zip(bands, bands[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            dkw_band(0, 0.5)
        with pytest.raises(ValueError):
            dkw_band(10, 1.0)

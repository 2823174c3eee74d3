import numpy as np
import pytest

from gwshot.paths import CadlagPath
from gwshot.stats import Sample, dkw_band, ecdf, ks_distance, uniform_distance


def step(times, values, end):
    return CadlagPath.step(np.asarray(times, dtype=float), np.asarray(values, dtype=float), end)


class TestEcdf:
    def test_basic_fractions(self):
        s = Sample(np.array([1.0, 2.0, 3.0]))
        assert ecdf(s, 2.0) == pytest.approx(2.0 / 3.0)
        assert ecdf(s, 0.5) == 0.0
        assert ecdf(s, 3.5) == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ecdf(Sample(np.array([])), 1.0)

    def test_integral_of_survival_equals_mean(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.exponential(2.0, size=500))
        s = Sample(x)
        # right Riemann sum of (1 - ECDF) over the sample breakpoints
        xs = np.concatenate([[0.0], x])
        surv = 1.0 - np.arange(0, len(x) + 1) / len(x)
        integral = np.sum(np.diff(xs) * surv[:-1])
        assert integral == pytest.approx(x.mean(), abs=1e-9)


class TestKsDistance:
    def test_degenerate_single_point(self):
        assert ks_distance(Sample(np.array([0.5])), lambda x: np.clip(x, 0, 1)) == pytest.approx(0.5)

    def test_scalar_only_cdf_raises_at_once(self):
        # a CDF must be vectorised: it is called once, on the whole sample
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


class TestUniformDistance:
    def test_identical_paths(self):
        f = step([0.0, 0.5], [0.0, 1.0], 1.0)
        assert uniform_distance(f, f) == 0.0

    def test_constant_offset(self):
        f = step([0.0, 0.5], [0.0, 1.0], 1.0)
        g = step([0.0, 0.5], [0.25, 1.25], 1.0)
        assert uniform_distance(f, g) == pytest.approx(0.25)

    def test_shifted_jump(self):
        f = step([0.0, 0.5], [0.0, 1.0], 1.0)
        g = step([0.0, 0.6], [0.0, 1.0], 1.0)
        assert uniform_distance(f, g) == pytest.approx(1.0)

    def test_domain_mismatch_rejected(self):
        f = step([0.0], [0.0], 1.0)
        g = step([0.0], [0.0], 2.0)
        with pytest.raises(ValueError):
            uniform_distance(f, g)


import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from gwshot import streams
from gwshot.offspring import EXACT_COUNT_LIMIT, OffspringFamily


class TestMeans:
    def test_family_means(self):
        assert OffspringFamily.binary(0.5).mean == 1.0
        assert OffspringFamily.poisson(0.9).mean == 0.9
        assert OffspringFamily.geometric(2.0).mean == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OffspringFamily.binary(0.0)
        with pytest.raises(ValueError):
            OffspringFamily.binary(1.0)
        with pytest.raises(ValueError):
            OffspringFamily.poisson(-1.0)
        with pytest.raises(ValueError):
            OffspringFamily("weird", 1.0)


class TestSurvivalProbability:
    def test_binary_first_two_by_hand(self):
        # f(s) = (1 + s^2)/2 iterated at 0: p_1 = 1/2, p_2 = 1 - f(1/2) = 3/8
        p = OffspringFamily.binary(0.5).survival_probability(2)
        assert p[0] == pytest.approx(0.5, abs=1e-15)
        assert p[1] == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_critical_geometric_closed_form(self):
        # exact-fraction oracle: iterate f(s) = (1-q)/(1-qs) symbolically
        q = Fraction(1, 2)
        s: Fraction = Fraction(0)
        exact = []
        for _ in range(5):
            s = (1 - q) / (1 - q * s)
            exact.append(1 - s)
        assert exact == [Fraction(1, k + 2) for k in range(5)]
        p = OffspringFamily.geometric(1.0).survival_probability(5)
        np.testing.assert_allclose(p, [float(e) for e in exact], rtol=1e-12)

    @pytest.mark.parametrize(
        "family,mu",
        [
            (OffspringFamily.poisson(0.9), 0.9),
            (OffspringFamily.geometric(0.9), 0.9),
            (OffspringFamily.binary(0.5), 1.0),
        ],
    )
    def test_ratio_limit(self, family, mu):
        p = family.survival_probability(1001)
        assert abs(p[1000] / p[999] - mu) <= 0.01

    @pytest.mark.parametrize(
        "family,mu",
        [
            (OffspringFamily.poisson(0.9), 0.9),
            (OffspringFamily.geometric(0.9), 0.9),
            (OffspringFamily.binary(0.5), 1.0),
        ],
    )
    def test_subexponential_growth_of_scaled_sequence(self, family, mu):
        # e^{dn} mu^{-n} p_n increases on [100, 1000] for d = 0.05 (log scale)
        delta = 0.05
        p = family.survival_probability(1000)
        logs = delta * np.arange(1, 1001) - np.arange(1, 1001) * math.log(mu) + np.log(p)
        window = logs[99:1000]
        assert np.all(np.diff(window) > 0)


class TestSampling:
    def test_empty_cohort(self):
        rng = streams.substream(1)
        for fam in (OffspringFamily.binary(0.5), OffspringFamily.poisson(2.0), OffspringFamily.geometric(0.5)):
            assert fam.sample_generation(0, rng) == 0

    def test_rejects_counts_beyond_exact_limit(self):
        rng = streams.substream(2)
        with pytest.raises(ValueError):
            OffspringFamily.poisson(1.0).sample_generation(EXACT_COUNT_LIMIT + 1, rng)

    def test_rejects_negative_counts(self):
        rng = streams.substream(2)
        for fam in (OffspringFamily.binary(0.5), OffspringFamily.poisson(2.0), OffspringFamily.geometric(0.5)):
            with pytest.raises(ValueError):
                fam.sample_generation(-1, rng)

    @pytest.mark.parametrize(
        "family",
        [OffspringFamily.binary(0.5), OffspringFamily.binary(0.15), OffspringFamily.poisson(2.0),
         OffspringFamily.poisson(0.9), OffspringFamily.geometric(0.5), OffspringFamily.geometric(2.0)],
        ids=lambda f: f"{f.family}-{f.mean}",
    )
    def test_scalar_draws_equal_one_element_array_draws(self, family):
        # the kernel draws scalars; the same Philox stream must give the
        # numbers the one-element array call gives, draw for draw, and
        # leave the stream where that call leaves it
        sizes = [1, 2, 999, 10**3, 10**6, EXACT_COUNT_LIMIT] * 40
        scalar, array = streams.substream(11, streams.OFFSPRING), streams.substream(11, streams.OFFSPRING)
        for m in sizes:
            got = family.sample_generation(m, scalar)
            assert type(got) is int
            assert got == int(family.sample_generations(np.array([m], dtype=np.int64), array)[0])
        assert np.array_equal(scalar.integers(1 << 62, size=8), array.integers(1 << 62, size=8))

    def test_binary_clt_band_at_million(self):
        # 2*Binomial(10^6, 1/2): mean 10^6, variance 10^6
        rng = streams.substream(3)
        fam = OffspringFamily.binary(0.5)
        draws = fam.sample_generations(np.full(1000, 10**6, dtype=np.int64), rng)
        sigma = math.sqrt(10**6)
        assert abs(draws.mean() - 10**6) <= 3 * sigma / math.sqrt(1000)

    @pytest.mark.parametrize(
        "family",
        [OffspringFamily.binary(0.5), OffspringFamily.poisson(0.9), OffspringFamily.geometric(2.0)],
    )
    @pytest.mark.parametrize("m", [1, 10**3, 10**6])
    def test_mean_within_five_standard_errors(self, family, m):
        rng = streams.substream(hash((family.family, m)) & 0xFFFF)
        draws = family.sample_generations(np.full(10_000, m, dtype=np.int64), rng)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - m * family.mean) <= 5 * max(se, 1e-9)

    def test_poisson_cohort_against_exact_pmf(self):
        # one step of a 100-cohort with poisson(0.9) offspring is Poisson(90);
        # chi-square against the exact pmf at level 0.01
        rng = streams.substream(4)
        fam = OffspringFamily.poisson(0.9)
        draws = fam.sample_generations(np.full(100_000, 100, dtype=np.int64), rng)
        lo, hi = 60, 121
        edges = list(range(lo, hi + 1))
        observed = np.zeros(len(edges) + 1)
        observed[0] = np.sum(draws < lo)
        for i, k in enumerate(edges[:-1]):
            observed[i + 1] = np.sum(draws == k)
        observed[-1] = np.sum(draws >= hi)
        pmf = sps.poisson(90.0)
        expected = np.empty_like(observed)
        expected[0] = pmf.cdf(lo - 1)
        for i, k in enumerate(edges[:-1]):
            expected[i + 1] = pmf.pmf(k)
        expected[-1] = pmf.sf(hi - 1)
        expected *= len(draws)
        keep = expected >= 5
        chi2, pvalue = sps.chisquare(observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum())
        assert pvalue > 0.01

    def test_geometric_single_parent_pmf(self):
        # m=1 draws follow P{X=k} = (1-q) q^k with q = mu/(1+mu)
        rng = streams.substream(5)
        fam = OffspringFamily.geometric(2.0)
        draws = fam.sample_generations(np.ones(200_000, dtype=np.int64), rng)
        q = 2.0 / 3.0
        for k in range(6):
            freq = np.mean(draws == k)
            p = (1 - q) * q**k
            assert abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / len(draws))

import math

import numpy as np
import pytest

from gwshot.lognum import LogMagnitude, ZERO, decode, encode, log_plus, lse_add, scale_pow

LOG2 = math.log(2.0)


class TestEncoding:
    def test_from_value_roundtrip_within_one_ulp(self):
        rng = np.random.default_rng(7)
        for v in np.exp(rng.uniform(-700, 700, size=1000)):
            x = LogMagnitude.from_value(float(v))
            assert abs(x.log_value - math.log(v)) <= np.spacing(abs(math.log(v)) + 1.0)

    def test_zero_is_canonical(self):
        assert LogMagnitude.from_value(0.0).is_zero
        assert LogMagnitude.zero() is ZERO
        assert ZERO.is_zero and ZERO.log_value == -math.inf

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LogMagnitude.from_value(-1.0)
        with pytest.raises(ValueError):
            LogMagnitude.from_value(math.inf)
        with pytest.raises(ValueError):
            LogMagnitude(math.nan)

    def test_serialization_tokens(self):
        assert encode(ZERO) == "zero"
        assert decode("zero").is_zero
        x = LogMagnitude(123.456789)
        assert decode(encode(x)) == x


class TestLseAdd:
    def test_one_plus_one(self):
        s = lse_add(LogMagnitude.from_value(1.0), LogMagnitude.from_value(1.0))
        assert s.log_value == pytest.approx(LOG2, abs=4 * np.spacing(LOG2))

    def test_zero_is_identity(self):
        x = LogMagnitude(3.25)
        assert lse_add(ZERO, x) == x
        assert lse_add(x, ZERO) == x
        assert lse_add(ZERO, ZERO).is_zero

    def test_huge_operands_match_high_precision_oracle(self):
        # oracle: mpmath at 200-bit precision, log(e^1000 + e^990)
        mp = pytest.importorskip("mpmath")
        mp.mp.prec = 200
        expected = float(mp.log(mp.e**1000 + mp.e**990))
        assert expected == pytest.approx(1000.0000453988993, abs=1e-12)  # frozen oracle value
        got = lse_add(LogMagnitude(1000.0), LogMagnitude(990.0))
        assert abs(got.log_value - expected) <= 4 * np.spacing(expected)

    def test_commutative_exactly(self):
        rng = np.random.default_rng(11)
        for a, b in rng.uniform(-700, 700, size=(200, 2)):
            x, y = LogMagnitude(a), LogMagnitude(b)
            assert lse_add(x, y).log_value == lse_add(y, x).log_value

    def test_associative_within_scaled_eps(self):
        rng = np.random.default_rng(13)
        for a, b, c in rng.uniform(-50, 50, size=(500, 3)):
            x, y, z = LogMagnitude(a), LogMagnitude(b), LogMagnitude(c)
            left = lse_add(lse_add(x, y), z).log_value
            right = lse_add(x, lse_add(y, z)).log_value
            assert abs(left - right) <= 8 * np.spacing(max(abs(left), 1.0))


class TestScalePow:
    def test_trivial_powers(self):
        assert scale_pow(LogMagnitude.from_value(1.0), 2.0, 3).value() == pytest.approx(8.0)
        assert scale_pow(ZERO, 2.0, 5).is_zero

    def test_large_scale_matches_decimal_evaluation(self):
        got = scale_pow(LogMagnitude(100.0), 0.5, 10)
        assert got.log_value == pytest.approx(93.06852819440054, abs=1e-12)

    def test_roundtrip_within_two_ulps(self):
        rng = np.random.default_rng(17)
        for lv, mu, m in zip(
            rng.uniform(-600, 600, 300), rng.uniform(0.1, 10.0, 300), rng.integers(-50, 50, 300)
        ):
            x = LogMagnitude(float(lv))
            back = scale_pow(scale_pow(x, mu, int(m)), mu, -int(m))
            assert abs(back.log_value - x.log_value) <= 2 * np.spacing(max(abs(x.log_value), 1.0))

    def test_unit_mean_is_exact(self):
        x = LogMagnitude(20.0)
        assert scale_pow(x, 1.0, 7).log_value == 20.0

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            scale_pow(LogMagnitude(1.0), 0.0, 1)


class TestLogPlus:
    def test_stipulated_cases(self):
        assert log_plus(ZERO) == 0.0
        assert log_plus(LogMagnitude.from_value(0.3)) == 0.0
        assert log_plus(LogMagnitude(5.0)) == 5.0

    def test_subadditivity_inequality_on_random_pairs(self):
        # log⁺x <= log⁺(x+y) <= log⁺x + log⁺y + 2 log 2, checked exactly on
        # 10^4 pairs spanning log values in [-700, 700] plus zero operands.
        rng = np.random.default_rng(19)
        lvs = rng.uniform(-700, 700, size=(10_000, 2))
        pairs = [(LogMagnitude(a), LogMagnitude(b)) for a, b in lvs]
        pairs += [(ZERO, LogMagnitude(3.0)), (LogMagnitude(-5.0), ZERO), (ZERO, ZERO)]
        for x, y in pairs:
            s = lse_add(x, y)
            assert log_plus(x) <= log_plus(s)
            assert log_plus(s) <= log_plus(x) + log_plus(y) + 2 * LOG2

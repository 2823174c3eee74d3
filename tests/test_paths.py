import numpy as np
import pytest

from gwshot.paths import CadlagPath


def step(times, values, end):
    """The step path with `values[i]` on [times[i], times[i + 1])."""
    return CadlagPath(np.asarray(times, dtype=float), np.asarray(values, dtype=float), np.zeros(len(values)), end)


class TestValidation:
    def test_first_breakpoint_must_be_zero(self):
        with pytest.raises(ValueError):
            CadlagPath(np.array([0.5]), np.array([1.0]), np.array([0.0]), 1.0)

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(ValueError):
            CadlagPath(np.array([0.0, 0.3, 0.3]), np.zeros(3), np.zeros(3), 1.0)

    def test_end_time_after_last_breakpoint(self):
        with pytest.raises(ValueError):
            CadlagPath(np.array([0.0, 0.5]), np.zeros(2), np.zeros(2), 0.4)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            CadlagPath(np.array([0.0]), np.zeros(2), np.zeros(1), 1.0)


class TestEvaluation:
    def test_right_continuity(self):
        f = step(np.array([0.0, 0.5]), np.array([1.0, 2.0]), 1.0)
        assert f.value(0.5) == 2.0
        assert f.value(0.0) == 1.0

    def test_affine_segments(self):
        f = CadlagPath(np.array([0.0, 1.0]), np.array([0.0, 3.0]), np.array([2.0, -1.0]), 2.0)
        assert f.value(0.5) == pytest.approx(1.0)
        assert f.value(1.0) == pytest.approx(3.0)
        assert f.value(2.0) == pytest.approx(2.0)

    def test_vectorized_evaluation(self):
        f = step(np.array([0.0, 0.25, 0.75]), np.array([0.0, 1.0, 0.5]), 1.0)
        ts = np.array([0.0, 0.2, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(f.value(ts), [0.0, 0.0, 1.0, 1.0, 0.5, 0.5])

    def test_out_of_domain_rejected(self):
        f = step(np.array([0.0]), np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            f.value(1.5)
        with pytest.raises(ValueError):
            f.value(-0.1)

    def test_single_point_domain(self):
        f = step(np.array([0.0]), np.array([4.0]), 0.0)
        assert f.value(0.0) == 4.0

    def test_constant_path(self):
        f = step(np.array([0.0]), np.array([2.5]), 3.0)
        np.testing.assert_array_equal(f.value(np.linspace(0, 3, 7)), np.full(7, 2.5))
        assert f.value(3.0) == 2.5

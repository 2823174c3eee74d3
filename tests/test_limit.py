import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import ks_2samp

from gwshot import limit, streams
from gwshot.limit import (
    AtomSet,
    PrmParams,
    fdd_cdf,
    marginal_cdf,
    sample_atoms,
    sample_shot_noise_marginal,
    shot_noise_paths,
)
from gwshot.stats import Sample, dkw_band, ks_distance

LOG2 = math.log(2.0)


def shot_noise_value(atoms, slope, t):
    """Process value at one time, straight from its definition: the oracle
    for `shot_noise_paths` and the marginal sampler."""
    if t < 0:
        raise ValueError("evaluation time before 0")
    floor = slope * t if slope > 0 else 0.0
    mask = atoms.times <= t
    if not mask.any():
        return float(floor)
    vals = atoms.marks[mask] + (t - atoms.times[mask]) * slope
    return float(max(floor, vals.max()))


def _atoms(pairs):
    """Atoms at hand-picked (time, mark) pairs, as a prelimit caller builds them."""
    return AtomSet(times=np.array([t for t, _ in pairs]), marks=np.array([j for _, j in pairs]))


class TestPrmSampling:
    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            PrmParams(a=1.0, b=1.0, horizon=1.0, delta=0.0)

    def test_zero_horizon_is_empty(self):
        params = PrmParams(a=1.0, b=1.0, horizon=0.0, delta=1.0)
        atoms = sample_atoms(params, streams.substream(1, streams.ATOMS))
        assert len(atoms) == 0

    def test_expected_count_at_unit_parameters(self):
        params = PrmParams(a=1.0, b=1.0, horizon=1.0, delta=1.0)
        assert params.expected_atoms == 1.0
        rng = streams.substream(2, streams.ATOMS)
        counts = np.array([len(sample_atoms(params, rng)) for _ in range(100_000)])
        assert abs(counts.mean() - 1.0) <= 3.0 / math.sqrt(100_000)  # Poisson(1) has sd 1

    def test_mark_tail_truncated_pareto(self):
        rng = streams.substream(3, streams.ATOMS)
        # accumulate to 10^6 marks
        all_marks = [sample_atoms(PrmParams(1.0, 1.0, 1.0, 0.5), rng).marks]
        while sum(len(m) for m in all_marks) < 1_000_000:
            all_marks.append(sample_atoms(PrmParams(1.0, 1.0, 500_000.0, 0.5), rng).marks)
        marks = np.concatenate(all_marks)[:1_000_000]
        assert np.all(marks >= 0.5)
        band = dkw_band(1_000_000, 0.99)
        assert abs(np.mean(marks > 2.0) - 0.25) <= band  # (delta/x)^b = 0.25

    def test_atom_invariants(self):
        params = PrmParams(a=2.0, b=0.7, horizon=3.0, delta=0.05)
        atoms = sample_atoms(params, streams.substream(4, streams.ATOMS))
        assert np.all(atoms.marks > params.delta * (1 - 1e-12))
        assert np.all((atoms.times >= 0) & (atoms.times <= params.horizon))


class TestShotNoiseValue:
    def test_empty_sup_conventions(self):
        assert shot_noise_value(_atoms([]), -LOG2, 1.0) == 0.0
        assert shot_noise_value(_atoms([]), LOG2, 1.0) == pytest.approx(LOG2)

    def test_single_atom_decay(self):
        atoms = _atoms([(0.5, 3.0)])
        assert shot_noise_value(atoms, -LOG2, 1.5) == pytest.approx(3.0 - LOG2)
        assert shot_noise_value(atoms, -LOG2, 0.25) == 0.0  # atom not yet arrived

    def test_floor_dominates_when_atoms_small(self):
        assert shot_noise_value(_atoms([(0.1, 0.01)]), 2.0, 1.0) == pytest.approx(2.0)


class TestShotNoisePath:
    def test_extremal_staircase(self):
        path = shot_noise_paths([_atoms([(0.2, 1.0), (0.6, 2.0)])], 1.0, 0.0)[0]
        ts = np.array([0.0, 0.1, 0.2, 0.4, 0.6, 0.9])
        np.testing.assert_allclose(path.value(ts), [0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        jumps = np.diff(np.asarray(path.values))
        assert np.all(jumps >= 0)

    def test_negative_slope_decay_and_clamp(self):
        path = shot_noise_paths([_atoms([(0.5, 1.0)])], 2.0, -1.0)[0]
        assert path.value(0.4) == 0.0
        assert path.value(0.5) == pytest.approx(1.0)
        assert path.value(1.0) == pytest.approx(0.5)
        assert path.value(1.5) == 0.0  # clamp exactly at t = 1.5
        assert path.value(1.9) == 0.0
        # slope is exactly s on the decaying segment
        idx = np.searchsorted(path.breakpoints, 0.5)
        assert path.slopes[idx] == -1.0

    def test_positive_slope_floor(self):
        rng = streams.substream(6, streams.ATOMS)
        atoms = sample_atoms(PrmParams(1.0, 1.0, 2.0, 0.05), rng)
        path = shot_noise_paths([atoms], 2.0, LOG2)[0]
        ts = np.linspace(0, 2, 41)
        assert np.all(np.asarray(path.value(ts)) >= LOG2 * ts - 1e-12)

    @pytest.mark.parametrize("slope", [-LOG2, 0.0, LOG2])
    def test_no_atoms_give_the_floor(self, slope):
        path = shot_noise_paths([_atoms([])], 1.5, slope)[0]
        assert path.breakpoints.tolist() == path.values.tolist() == [0.0]
        assert path.slopes.tolist() == [max(slope, 0.0)] and path.end_time == 1.5

    def test_masked_atoms_agree_with_pointwise_value(self):
        rng = streams.substream(7, streams.ATOMS)
        for slope in (-LOG2, 0.0, LOG2):
            atoms = sample_atoms(PrmParams(1.0, 1.0, 1.5, 0.02), rng)
            path = shot_noise_paths([atoms], 1.5, slope)[0]
            for t in np.linspace(0, 1.5, 31):
                assert path.value(float(t)) == pytest.approx(shot_noise_value(atoms, slope, float(t)), abs=1e-12)


PATH_SLOPES = [-2.0, -LOG2, -1e-9, 0.0, 1e-9, LOG2, 2.0]


@st.composite
def path_specs(draw):
    """Small atom sets with ties in time and in mark, atoms at 0 and at the
    horizon, and the empty set; plus a few evaluation times."""
    horizon = draw(st.sampled_from([0.5, 1.0, 3.0]))
    slope = draw(st.sampled_from(PATH_SLOPES))
    n = draw(st.integers(0, 10))
    times = st.one_of(st.sampled_from([0.0, horizon / 2, horizon]), st.floats(0.0, horizon))
    marks = st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 4.0))
    atoms = draw(st.lists(st.tuples(times, marks), min_size=n, max_size=n))
    probes = draw(st.lists(st.floats(0.0, horizon), max_size=5))
    return _atoms(atoms), horizon, slope, probes


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(path_specs())
def test_path_matches_pointwise_oracle(case):
    atoms, horizon, slope, probes = case
    path = shot_noise_paths([atoms], horizon, slope)[0]
    ts = np.concatenate([atoms.times, probes, [horizon]])
    expected = [shot_noise_value(atoms, slope, float(t)) for t in ts]
    np.testing.assert_allclose(path.value(ts), expected, rtol=0, atol=1e-9)
    # the path only jumps up, at atom times
    at = atoms.times
    assert np.all(path.left_limit(at) <= path.value(at) + 1e-9)
    if slope == 0.0:
        # exact arithmetic: every breakpoint after 0 is a strict record
        inner = path.breakpoints[1:]
        assert np.all(path.left_limit(inner) < path.value(inner))


def _loop_path(atoms, end, s):
    """The per-atom loop the record scan replaced, condensed, kept as its
    bit-exact reference: breakpoints, values and slopes as lists."""
    order = np.argsort(atoms.times, kind="stable")
    bps, vals, slopes = [0.0], [0.0], [s if s > 0 else 0.0]

    def push(t, v, k):
        if bps[-1] <= t <= end:
            if t == bps[-1]:
                vals[-1], slopes[-1] = v, k
            else:
                bps.append(t)
                vals.append(v)
                slopes.append(k)

    best, prev = (0.0 if s > 0 else -math.inf), 0.0
    for t_k, j_k in zip(atoms.times[order].tolist() + [math.inf],
                        atoms.marks[order].tolist() + [0.0]):
        seg_end = min(t_k, end)
        if s < 0 and vals[-1] > 0.0 and best > -math.inf and prev < -best / s < seg_end:
            push(-best / s, 0.0, 0.0)  # clamp crossing before this atom
        if t_k > end:
            break
        c = j_k - s * t_k
        if c > best:
            best = c
            v = s * t_k + c
            if s > 0:
                push(t_k, v, s)
            else:
                push(t_k, max(0.0, v), s if s < 0 and v > 0.0 else 0.0)
        prev = max(prev, t_k)
    return bps, vals, slopes


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(path_specs())
def test_path_is_bit_equal_to_the_loop_reference(case):
    atoms, horizon, slope, _ = case
    path = shot_noise_paths([atoms], horizon, slope)[0]
    bps, vals, slopes = _loop_path(atoms, horizon, slope)
    assert path.breakpoints.tolist() == bps
    assert path.values.tolist() == vals
    assert path.slopes.tolist() == slopes


@pytest.mark.parametrize("slope", PATH_SLOPES)
def test_tied_times_in_any_order_give_one_path(slope):
    # the atoms are sorted by time with no regard to their order within a
    # tie: of the records at one time the last has the largest c, whichever it is
    rng = np.random.default_rng(22)
    times = rng.choice([0.0, 0.25, 0.5, 1.0, 1.5, 2.0], size=200)  # at 0 and past the horizon too
    marks = np.where(rng.random(200) < 0.5, rng.choice([0.25, 1.0, 2.0], size=200), rng.uniform(0.01, 3.0, 200))
    want = _loop_path(AtomSet(times, marks), 1.5, slope)
    for _ in range(20):
        shuffled = rng.permutation(200)
        path = shot_noise_paths([AtomSet(times[shuffled], marks[shuffled])], 1.5, slope)[0]
        assert (path.breakpoints.tolist(), path.values.tolist(), path.slopes.tolist()) == want


@pytest.mark.parametrize("slope", [-5.0, -LOG2, 0.0, 1e-9, LOG2])
def test_sampled_paths_are_bit_equal_to_the_loop_reference(slope):
    rng = streams.substream(8, streams.ATOMS)
    for _ in range(20):
        atoms = sample_atoms(PrmParams(2.0, 0.5, 3.0, 0.01), rng)
        path = shot_noise_paths([atoms], 3.0, slope)[0]
        assert (path.breakpoints.tolist(), path.values.tolist(), path.slopes.tolist()) == _loop_path(atoms, 3.0, slope)


def _bits(*arrays):
    """The bit patterns of float arrays, so that -0.0 and 0.0 compare apart."""
    return [np.asarray(a, dtype=np.float64).view(np.int64).tolist() for a in arrays]


@st.composite
def path_batches(draw):
    """A batch of atom sets for one horizon and slope: empty sets, single
    atoms, ties in time, atoms at 0, at and past the horizon, and counts
    that differ from set to set, so that most rows of the padded layout
    end in padding."""
    horizon = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    slope = draw(st.sampled_from([-LOG2, -0.0, 0.0, LOG2]))
    times = st.one_of(st.sampled_from([0.0, horizon / 2, horizon, horizon + 1.0]), st.floats(0.0, horizon + 1.0))
    marks = st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 4.0))
    atom_set = st.one_of(
        st.just([]),
        st.lists(st.tuples(times, marks), min_size=1, max_size=1),
        st.lists(st.tuples(times, marks), max_size=12),
    )
    sets = draw(st.lists(atom_set.map(_atoms), min_size=1, max_size=6))
    return sets, horizon, slope


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(path_batches())
# the first set's crossing at 0.93 comes after the second set's first record
@example(([_atoms([(0.5, 0.3)]), _atoms([(0.1, 2.0)])], 1.0, -LOG2))
def test_batched_paths_are_bit_equal_to_each_set_alone(case):
    # the padding, the set boundaries in the flat arrays and the tie drop
    # must not leak from one set into another: each path of a batch is the
    # set's path built alone and the loop reference's, to the bit, and so
    # is its end value, read off the last segment as limit-sample does
    sets, horizon, slope = case
    batch = shot_noise_paths(sets, horizon, slope)
    assert len(batch) == len(sets)
    for atoms, path in zip(sets, batch):
        bps, vals, slopes = _loop_path(atoms, horizon, slope)
        want = _bits(bps, vals, slopes, [vals[-1] + slopes[-1] * (horizon - bps[-1])])
        for got in (path, limit.shot_noise_path(atoms, horizon, slope)):
            end = got.values[-1] + got.slopes[-1] * (got.end_time - got.breakpoints[-1])
            assert _bits(got.breakpoints, got.values, got.slopes, [end]) == want
            assert _bits([got.value(got.end_time)]) == want[3:]


class TestTruncationRefinement:
    def _grid_values(self, slope, times, marks, grid):
        contrib = np.where(
            times[:, None] <= grid[None, :],
            marks[:, None] + (grid[None, :] - times[:, None]) * slope,
            -np.inf,
        )
        sup = contrib.max(axis=0) if len(times) else np.full(grid.shape, -np.inf)
        floor = slope * grid if slope > 0 else np.zeros_like(grid)
        return np.maximum(sup, floor)

    @pytest.mark.parametrize("slope", [-LOG2, 0.0, LOG2])
    def test_two_level_sampling_differs_by_at_most_delta(self, slope):
        # refine delta -> delta/10: the fine atoms with marks above delta are
        # the delta-truncated measure, so they serve as the coarse set; values
        # may only move up, and by at most delta
        horizon = 1.0
        delta = 1e-2
        rng = streams.substream(8, streams.ATOMS)
        grid = np.linspace(0, horizon, 64)
        for _ in range(1000):
            atoms = sample_atoms(PrmParams(1.0, 1.0, horizon, delta / 10), rng)
            above = atoms.marks > delta
            coarse = self._grid_values(slope, atoms.times[above], atoms.marks[above], grid)
            fine = self._grid_values(slope, atoms.times, atoms.marks, grid)
            assert np.all(fine >= coarse - 1e-12)
            assert np.all(fine - coarse <= delta + 1e-12)


class TestMarginalCdf:
    def test_negative_slope_substitution(self):
        assert marginal_cdf(1.0, 1.0, -1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert marginal_cdf(1.0, 1.0, -LOG2, 0.0, 5.0) == 1.0
        assert marginal_cdf(1.0, 1.0, -LOG2, 2.0, 0.0) == 0.0

    def test_slope_zero_values(self):
        assert marginal_cdf(1.0, 1.0, 0.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0))
        assert marginal_cdf(1.0, 1.0, 0.0, 0.0, 3.0) == 1.0
        assert marginal_cdf(1.0, 1.0, 0.0, 1.0, 0.0) == 0.0  # the value is > 0 a.s.
        assert marginal_cdf(1.0, 1.0, 0.0, 0.0, 0.0) == 1.0  # no time, no atom
        with pytest.raises(ValueError):
            marginal_cdf(1.0, 1.0, 0.0, 1.0, -1.0)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_slope_zero_is_the_frechet_law_bit_for_bit(self, alpha):
        # the thm1 (alpha = 1) and thm2 (alpha = 1/2) references are
        # marginal_cdf(1, alpha, 0, 1, .): exp(-x^-alpha) in the same
        # float operations, so their KS statistics keep every bit
        xs = np.random.default_rng(11).exponential(3.0, size=200_000) + 1e-300
        want = np.exp(-1.0 * xs ** (-alpha))
        got = marginal_cdf(1.0, alpha, 0.0, 1.0, xs)
        assert np.array_equal(got, want)
        assert marginal_cdf(1.0, alpha, 0.0, 1.0, 0.0) == 0.0

    def test_positive_slope_values(self):
        assert marginal_cdf(1.0, 1.0, LOG2, 1.0, 0.5 * LOG2) == 0.0
        assert marginal_cdf(1.0, 1.0, LOG2, 1.0, LOG2) == 0.0  # at the floor
        got = marginal_cdf(1.0, 1.0, LOG2, 1.0, 2.0 * LOG2)
        assert got == pytest.approx(0.5 ** (1.0 / LOG2), rel=1e-12)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)  # same number, by the identity
        assert marginal_cdf(1.0, 1.0, LOG2, 0.0, 0.0) == 1.0

    @pytest.mark.parametrize("slope", [1e-9, -1e-9, 0.99 * limit._SLOPE_EPS, -0.99 * limit._SLOPE_EPS])
    def test_tiny_slope_is_the_slope_zero_law(self, slope):
        xs = np.array([0.0, 0.3, LOG2, 1.0, 5.0])
        assert np.array_equal(marginal_cdf(1.5, 1.0, slope, 1.0, xs), marginal_cdf(1.5, 1.0, 0.0, 1.0, xs))
        assert abs(marginal_cdf(1.0, 1.0, slope, 1.0, 1.0) - math.exp(-1.0)) <= 1e-6

    @pytest.mark.parametrize("slope", [2.0 * limit._SLOPE_EPS, -2.0 * limit._SLOPE_EPS])
    def test_sloped_law_meets_the_slope_zero_law_at_the_switch(self, slope):
        # just above _SLOPE_EPS the sloped closed forms still hold to
        # within O(slope) of their slope-0 limit
        xs = np.array([0.3, LOG2, 1.0, 5.0])
        np.testing.assert_allclose(marginal_cdf(1.5, 1.0, slope, 1.0, xs),
                                   marginal_cdf(1.5, 1.0, 0.0, 1.0, xs), rtol=1e-6)

    def test_arrays_match_scalars(self):
        xs = np.array([0.0, 0.3, LOG2, 1.0, 2.0 * LOG2, 5.0])
        for a, b, slope in ((1.5, 1.0, -LOG2), (1.5, 1.0, LOG2), (1.5, 1.0, -1e-9), (1.5, 1.0, 1e-9), (2.0, 0.5, 0.0)):
            got = marginal_cdf(a, b, slope, 1.0, xs)
            assert isinstance(got, np.ndarray) and got.shape == xs.shape
            np.testing.assert_allclose(got, [marginal_cdf(a, b, slope, 1.0, float(x)) for x in xs], rtol=1e-14)
        assert got[0] == 0.0
        assert isinstance(marginal_cdf(1.0, 1.0, LOG2, 1.0, 2.0), float)
        with pytest.raises(ValueError):
            marginal_cdf(1.0, 1.0, 0.0, 1.0, np.array([1.0, -1e-300]))

    @pytest.mark.parametrize(
        "a,b,slope,u,x",
        [(1.0, 1.0, -1.0, -1.0, 1.0), (1.0, 1.0, -1.0, 1.0, -1.0), (0.0, 1.0, LOG2, 1.0, 1.0),
         (1.0, 0.0, 0.0, 1.0, 1.0), (math.nan, 1.0, 0.0, 1.0, 1.0),
         (1.0, 2.0, LOG2, 1.0, 1.0), (1.0, 0.5, -LOG2, 1.0, 1.0), (1.0, 2.0, 1e-9, 1.0, 1.0),
         (1.0, 1.0, math.nan, 1.0, 1.0), (1.0, 1.0, math.inf, 1.0, 1.0), (1.0, 1.0, -math.inf, 1.0, 1.0)],
        ids=["u-negative", "x-negative", "a-zero", "b-zero", "a-nan", "b-2-positive-slope",
             "b-half-negative-slope", "b-2-tiny-slope", "slope-nan", "slope-inf", "slope-minus-inf"],
    )
    def test_rejections(self, a, b, slope, u, x):
        # a sloped law has no closed form for b != 1, and a non-finite
        # slope picks no regime
        with pytest.raises(ValueError):
            marginal_cdf(a, b, slope, u, x)


_LAW_CASES = [(1.0, 1.0, 1e-2), (2.0, 0.5, 1e-2), (1.0, 2.0, 0.5)]


class TestLePageSampler:
    @pytest.mark.parametrize("a,b,delta", _LAW_CASES)
    @pytest.mark.parametrize("slope", [-LOG2, 0.0, LOG2])
    def test_same_law_as_every_atom_above_delta(self, a, b, delta, slope):
        # the stopping rule only saves draws: values keep the law of the
        # delta-truncated measure evaluated atom by atom (at delta = 0.5
        # the cap binds often, so a misplaced cap shows too)
        n, u = 3000, 1.0
        params = PrmParams(a=a, b=b, horizon=u, delta=delta)
        rng = streams.substream(21, streams.ATOMS)
        brute = [shot_noise_value(sample_atoms(params, rng), slope, u) for _ in range(n)]
        lepage = sample_shot_noise_marginal(a, b, slope, u, n, delta, streams.substream(22, streams.ATOMS))
        assert ks_2samp(brute, lepage).pvalue >= 0.01

    @pytest.mark.parametrize("round_atoms", [1, 1 << 14, 1 << 20])
    @pytest.mark.parametrize("a,b,delta", _LAW_CASES)
    @pytest.mark.parametrize("slope", [-LOG2, 0.0, LOG2])
    def test_same_law_at_any_round_size(self, monkeypatch, round_atoms, a, b, delta, slope):
        # a round draws max(1, _ROUND_ATOMS // active) atoms per sample:
        # one at a time, a block once few samples are left, or every atom
        # a sample can need at once; the atoms past a sample's stopping
        # point change no value, and those past the cap are masked
        monkeypatch.setattr(limit, "_ROUND_ATOMS", round_atoms)
        self.test_same_law_as_every_atom_above_delta(a, b, delta, slope)

    @pytest.mark.parametrize(
        "slope,thresholds,delta",
        [(0.0, (1.0, 2.0), 0.5), (-LOG2, (0.5, 0.8), 0.25)],
    )
    def test_two_times_match_fdd_cdf(self, slope, thresholds, delta):
        # marks at or below delta < min(x) cannot exceed a threshold when
        # slope <= 0, so the truncated joint law is the exact one here
        times, x = np.array([1.0, 2.0]), np.array(thresholds)
        values = sample_shot_noise_marginal(1.0, 1.0, slope, times, 100_000, delta,
                                            streams.substream(23, streams.ATOMS))
        assert values.shape == (100_000, 2)
        freq = np.mean(np.all(values <= x, axis=1))
        assert abs(freq - fdd_cdf(1.0, 1.0, slope, times, x)) <= 0.01

    @pytest.mark.parametrize("slope", [-LOG2, 0.0, LOG2])
    def test_tiny_delta_stops_by_the_rule(self, slope):
        # at delta = 1e-12 the cap allows 1e12 atoms per sample; the
        # stopping rule ends every sample long before
        n = 20_000
        values = sample_shot_noise_marginal(1.0, 1.0, slope, 1.0, n, 1e-12, streams.substream(24, streams.ATOMS))
        assert ks_distance(Sample(values), partial(marginal_cdf, 1.0, 1.0, slope, 1.0)) <= dkw_band(n, 0.999)

    @pytest.mark.parametrize("times", [1.0, np.array([0.5, 1.0])], ids=["one-time", "two-times"])
    def test_working_set_is_the_samples_and_one_slice(self, times):
        # per sample: its value at each time, its entry in the active list
        # and its last arrival, 8 bytes each; per slice: a few arrays of
        # 2^14 atoms.  A sampler that tiles the running values and draws a
        # round of one atom per sample whole peaks at 74 bytes per sample
        # here at one time (14.1 MiB)
        n, width = 200_000, np.size(times)
        rng = streams.substream(27, streams.ATOMS)
        tracemalloc.start()
        try:
            values = sample_shot_noise_marginal(1.0, 1.0, -LOG2, times, n, 1e-3, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == ((n,) if width == 1 else (n, width))
        assert peak <= (8 * width + 16) * n + 16 * 8 * limit._ROUND_ATOMS

    def test_zero_time_is_the_floor(self):
        values = sample_shot_noise_marginal(1.0, 1.0, -1.0, 0.0, 10, 1e-3, streams.substream(25, streams.ATOMS))
        assert values.shape == (10,) and np.all(values == 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"count": 0}, {"count": -5}, {"u": np.array([2.0, 1.0])}, {"u": -1.0},
         {"slope": math.nan}, {"a": math.nan}, {"delta": 0.0}],
    )
    def test_rejections(self, kwargs):
        args = dict(a=1.0, b=1.0, slope=0.0, u=1.0, count=10, delta=1e-3,
                    rng=streams.substream(26, streams.ATOMS))
        with pytest.raises(ValueError):
            sample_shot_noise_marginal(**{**args, **kwargs})


class TestTimeReversalIdentity:
    def _records_form_samples(self, r, s, u, count, delta, rng):
        # sup over t_k <= u of (j_k - s t_k), sampled directly from atoms
        lam = u * r * delta ** (-1.0)
        out = np.empty(count)
        chunk = max(1, int(4_000_000 / lam))
        done = 0
        while done < count:
            m = min(chunk, count - done)
            nat = rng.poisson(lam, size=m)
            tot = int(nat.sum())
            t = rng.uniform(0.0, u, tot)
            j = delta * (1.0 - rng.random(tot)) ** (-1.0)
            contrib = j - s * t
            starts = np.zeros(m, dtype=np.int64)
            np.cumsum(nat[:-1], out=starts[1:])
            seg = np.maximum.reduceat(contrib, np.minimum(starts, max(tot - 1, 0))) if tot else np.full(m, -np.inf)
            seg = np.where(nat > 0, seg, -np.inf)
            out[done:done + m] = np.maximum(seg, 0.0)
            done += m
        return out

    def test_both_forms_match_the_closed_form(self):
        r, s, u, delta, n = 1.0, LOG2, 1.0, 1e-3, 100_000

        def cdf(x):
            return marginal_cdf(r, 1.0, -s, u, x)

        shifted = sample_shot_noise_marginal(r, 1.0, -s, u, n, delta, streams.substream(11, streams.ATOMS))
        records = self._records_form_samples(r, s, u, n, delta, streams.substream(12, streams.ATOMS))
        assert ks_distance(Sample(shifted), cdf) <= 0.01
        assert ks_distance(Sample(records), cdf) <= 0.01


class TestFddCdf:
    def test_d1_reduces_to_marginals(self):
        for a, b, slope, u, x in [(1.0, 1.0, -1.0, 1.0, 1.0), (2.0, 1.5, 0.0, 0.7, 1.3),
                                  (1.0, 1.0, LOG2, 1.0, 2.0 * LOG2)]:
            got = fdd_cdf(a, b, slope, np.array([u]), np.array([x]))
            assert got == pytest.approx(marginal_cdf(a, b, slope, u, x), abs=1e-10)

    def test_hand_integrated_two_point_values(self):
        # slope 0, a=b=1: thresholds (1,2) at times (1,2): envelope 1 on [0,1]
        # then 2 on [1,2]: Lambda = 1 + 1/2 -> e^{-1.5}; with equal or
        # decreasing thresholds the later window dominates: Lambda = 2
        assert fdd_cdf(1, 1, 0.0, np.array([1.0, 2.0]), np.array([1.0, 2.0])) == pytest.approx(
            math.exp(-1.5), abs=1e-10
        )
        assert fdd_cdf(1, 1, 0.0, np.array([1.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(
            math.exp(-2.0), abs=1e-10
        )
        assert fdd_cdf(1, 1, 0.0, np.array([1.0, 2.0]), np.array([2.0, 1.0])) == pytest.approx(
            math.exp(-2.0), abs=1e-10
        )

    def test_rejects_infinite_measure(self):
        with pytest.raises(ValueError):
            fdd_cdf(1, 1, 0.0, np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            fdd_cdf(1, 1, 1.0, np.array([2.0]), np.array([1.5]))  # x <= s*u
        with pytest.raises(ValueError):
            fdd_cdf(1, 1, 0.0, np.array([2.0, 1.0]), np.array([1.0, 1.0]))  # unsorted times

    def test_zero_time_is_certain(self):
        assert fdd_cdf(1, 1, -1.0, np.array([0.0]), np.array([0.5])) == 1.0

    @staticmethod
    def _quad_reference(a, b, s, u, x):
        """exp(-Lambda) with Lambda by quadrature of a h(t)^{-b}, where the
        envelope h(t) = min over u_j >= t of x_j - s (u_j - t) is taken
        pointwise; h is affine between consecutive times."""
        def integrand(t):
            h = min(xj - s * (uj - t) for uj, xj in zip(u, x) if uj >= t)
            return a * h ** (-b)

        edges = [0.0, *u]
        total = sum(
            integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        return math.exp(-total)

    def test_closed_form_matches_quadrature(self):
        # slopes cycle through 0, +-1e-9 (where log x1 - log x0 loses about
        # 3e-7 to cancellation) and N(0, 4); b alternates between 1 and
        # U(0.2, 3); 1-4 times with thresholds in any order, so the
        # envelope is often not the last line (a non-monotone envelope)
        rng = np.random.default_rng(20250809)
        slopes = (0.0, 1e-9, -1e-9, None)
        errors, binding = [], 0
        for case in range(1200):
            a = rng.uniform(0.2, 3.0)
            b = 1.0 if case % 2 else rng.uniform(0.2, 3.0)
            s = slopes[case % 4]
            s = rng.normal(0.0, 2.0) if s is None else s
            d = 1 + case // 4 % 4
            u = np.cumsum(rng.uniform(0.05, 1.5, d))
            x = np.maximum(s * u, 0.0) + rng.uniform(0.2, 4.0, d)
            intercepts = x - s * u  # a later line below an earlier one binds early
            binding += bool(np.any(np.minimum.accumulate(intercepts[::-1])[::-1] < intercepts))
            want = self._quad_reference(a, b, s, u.tolist(), x.tolist())
            errors.append(abs(fdd_cdf(a, b, s, u, x) - want))
        errors = np.array(errors)
        assert np.all(errors <= 1e-12), f"{np.count_nonzero(~(errors <= 1e-12))} cases off, worst {errors.max()}"
        assert binding >= 200

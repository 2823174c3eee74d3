"""Extremal shot noise limit processes driven by truncated Poisson measures.

Atoms (t_k, j_k) fall on [0,T] x (delta, inf) with intensity
LEB x mu_{a,b}, mu_{a,b}((x, inf]) = a x^{-b}.  The process value is

    v(t) = max( floor(t),  max over atoms with t_k <= t of j_k + (t - t_k)*s )

with floor(t) = t*s for s > 0 and 0 otherwise (the empty sup is zero, and
for s > 0 the accumulation of small atoms at (0,0) forces the true sup to
at least t*s).  Atoms below the truncation level delta contribute at most
delta on top of the floor, so truncated evaluation is exact to within an
additive delta.

With a common slope the process is a max-plus perpetuity: for u < u',
v(u') = max(v(u) + s (u' - u), w), where w is the value at u' of the
atoms in (u, u'] alone, with floor floor(u' - u).  w reads no atom of
[0, u], so it is independent of v(u), and the intensity does not depend on
time, so w has the law of v(u' - u).  Proof: split the sup in v(u') at u.
The atoms up to u give A + s (u' - u), A their sup in v(u), and the floors
agree: for s > 0, floor(u) + s (u' - u) = u' s is the floor at u' and w's
floor (u' - u) s is below it; for s <= 0, floor(u) + s (u' - u) <= 0 loses
to w's floor 0, the floor at u'.  So values at several times come from
independent draws at one time each.

Paths draw every atom above delta (`sample_atoms`) and are built a block
at a time (`shot_noise_paths`).  The value at one time T
(`sample_shot_noise_marginal`) uses the LePage series instead (LePage,
Woodroofe & Zinn 1981): with Gamma_i the arrival times of a unit-rate
Poisson process, the marks in decreasing order are j_i = (a T /
Gamma_i)^{1/b}, each with an independent uniform time on [0, T].  An atom
drawn after atom i adds at most j_i + max(s, 0) T to the value; once that
bound is at or below the running value (floor included), drawing stops
(the stopping rule of Dombry, Engelke & Oesting 2016).  Drawing also stops
at the delta cap Gamma_i >= a T delta^{-b}, once marks fall to delta, so
the values have exactly the law of the delta-truncated atoms above; the
stopping rule only saves draws.  A sample at the floor never meets the
rule (marks are positive) and runs to the cap, so the cap also bounds the
work: at most a T delta^{-b} atoms per sample.

The sampler draws in rounds.  A round gives each active sample
max(1, _ROUND_ATOMS // active) atoms and then applies the rule and the
cap once, to the last atom of each sample.  While more samples than
_ROUND_ATOMS = 2^14 are active, that is one atom each, the fewest a sample
can need.  Once fewer are left, a round draws about 2^14 atoms in all, so
the number of rounds stays small at any delta; the up to block - 1 atoms a
sample draws past its stopping point change no value, so the law does not
depend on the round size, only the draws do.  At 10^5 samples, T = 1 and
delta = 1e-3, a sloped regime needs about 4.1 atoms per sample and draws
about 4.6; slope 0 needs and draws one (its first mark is its value).

A round walks its active samples in slices of about 2^14 atoms.  Between
rounds a sample keeps its value (in the output, which starts at the
floor), its last arrival and its entry in the list of active samples,
compacted in place: 24 bytes per sample, plus a few arrays of one slice.

Marginal distributions have closed forms; finite-dimensional ones are
void probabilities of the measure over a union of wedges, integrated in
closed form over the piecewise-affine lower envelope, so that this oracle
stays independent of both the sampler and the marginal closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .paths import CadlagPath

__all__ = [
    "PrmParams",
    "AtomSet",
    "sample_atoms",
    "shot_noise_paths",
    "sample_shot_noise_marginal",
    "marginal_cdf",
    "fdd_cdf",
]

_SLOPE_EPS = 1e-8  # below this |slope| the marginal CDF uses the slope-0 law
_ROUND_ATOMS = 1 << 14  # atoms one round of the marginal sampler draws once few samples remain


@dataclass(frozen=True)
class PrmParams:
    """Intensity parameters (a, b), horizon T, and truncation level delta."""

    a: float
    b: float
    horizon: float
    delta: float = 1e-3

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.a, self.b, self.horizon, self.delta))):
            raise ValueError("a, b, horizon and delta must be finite")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if not self.delta > 0:
            raise ValueError("truncation level delta must be positive (delta = 0 has infinite intensity)")

    @property
    def expected_atoms(self) -> float:
        """T a delta^{-b}, or inf when delta^{-b} overflows a float."""
        if self.horizon == 0:
            return 0.0
        try:
            level = self.delta ** (-self.b)
        except OverflowError:
            return math.inf  # even where T a underflows to 0
        return self.horizon * self.a * level


@dataclass(frozen=True)
class AtomSet:
    """Atoms (t_k, j_k): a finite realization of the measure above the
    truncation level, or any other atoms a path is built from."""

    times: np.ndarray
    marks: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        j = np.asarray(self.marks, dtype=np.float64)
        if t.shape != j.shape or t.ndim != 1:
            raise ValueError("times and marks must be 1-d arrays of equal length")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "marks", j)

    def __len__(self) -> int:
        return len(self.times)


def sample_atoms(params: PrmParams, rng: np.random.Generator) -> AtomSet:
    """All atoms above the truncation level: count ~ Poisson(T a delta^{-b}),
    uniform times on [0, T], and marks delta U^{-1/b} with U uniform on (0, 1]."""
    if params.horizon == 0.0:  # no atoms, even where delta^{-b} overflows
        return AtomSet(times=np.empty(0), marks=np.empty(0))
    level = params.delta ** (-params.b)  # mu_{a,b}((delta, inf]) / a
    count = int(rng.poisson(params.horizon * params.a * level))
    times = rng.uniform(0.0, params.horizon, count)
    marks = ((1.0 - rng.random(count)) * level) ** (-1.0 / params.b)
    return AtomSet(times=times, marks=marks)


def shot_noise_paths(atom_sets: Sequence[AtomSet], horizon: float, slope: float) -> list[CadlagPath]:
    """Exact piecewise-affine paths on [0, horizon], one per atom set, with
    common response slope s = log mu.  The path of one set is
    `shot_noise_paths([atoms], horizon, slope)[0]`.

    Between events the running max of affine responses with common slope s
    is itself affine with slope s, clamped at the floor; breakpoints sit at
    record atom times and at clamp crossings.

    In time order, atom k's response is s t + c_k with c_k = j_k - s t_k,
    so the path after t_k follows the running maximum of the c's: the
    records are the atoms whose c_k beats every earlier one (and beats 0
    for s > 0, where the floor is s t).  A record's value is s t_k + c_k,
    clamped at 0 for s <= 0; for s < 0 the line s t + c_k meets the clamp
    at t = -c_k / s, a breakpoint when it comes before the next record.
    Of several records at one time the last (largest) one stands.  Atoms
    after the horizon are ignored.

    The sets are laid out as one (sets x largest count) array, padded with
    atoms after the horizon, so that one sort and one running maximum
    along its rows find every set's records.  The records, the crossings
    and each path's breakpoint at 0 are then placed in one flat array,
    set after set, and each path is a slice of it.
    """
    if not atom_sets:
        return []
    s = slope
    counts = [len(atoms) for atoms in atom_sets]
    width = max(counts)
    times = np.full((len(counts), width), np.inf)
    marks = np.zeros_like(times)
    for row, (atoms, count) in enumerate(zip(atom_sets, counts)):  # no row view outlives the loop
        times[row, :count], marks[row, :count] = atoms.times, atoms.marks
    order = np.argsort(times, axis=1)  # ties in any order: of them the last record has the largest c
    order += np.arange(len(counts))[:, None] * width  # positions in the flat arrays
    # each padded array goes once it is used: at most four are held at once
    times = times.ravel().take(order)
    marks = marks.ravel().take(order)
    del order
    inside = times <= horizon
    c = np.full(times.shape, -np.inf)  # c_k, and -inf for a pad or an atom after the horizon
    np.multiply(times, s, out=c, where=inside)
    np.subtract(marks, c, out=c, where=inside)
    del marks, inside

    # a record beats every earlier c and the floor (0 for s > 0)
    best = np.maximum.accumulate(c, axis=1)
    if s > 0:
        np.maximum(best, 0.0, out=best)
    record = np.empty(c.shape, dtype=bool)
    record[:, :1] = c[:, :1] > (0.0 if s > 0 else -np.inf)
    np.greater(c[:, 1:], best[:, :-1], out=record[:, 1:])
    rows = np.nonzero(record)[0]  # each record's set, in set-major time order
    t, c = times[record], c[record]
    v = s * t + c
    cross = np.zeros(t.shape, dtype=bool)
    if s > 0:
        vals, slopes = v, np.full_like(v, s)
    else:
        above = v > 0.0
        vals = np.where(above, v, 0.0)
        slopes = np.where(above, s, 0.0) if s < 0 else np.zeros_like(v)  # +0.0, also for s = -0.0
        if s < 0:
            t_x = -c / s
            until = np.append(t[1:], horizon)  # the set's next record, or the horizon after its last
            until[:-1][rows[1:] != rows[:-1]] = horizon
            cross = above & (t < t_x) & (t_x < until)

    # one flat array holds every path, set after set: its breakpoint at 0,
    # then each record, each followed by its crossing if it has one
    sizes = 1 + np.bincount(rows, minlength=len(counts)) + np.bincount(rows[cross], minlength=len(counts))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    at = np.arange(t.size) + rows + 1 + np.cumsum(cross) - cross
    bps, out_vals, out_slopes = np.empty(ends[-1]), np.empty(ends[-1]), np.empty(ends[-1])
    bps[starts], out_vals[starts], out_slopes[starts] = 0.0, 0.0, s if s > 0 else 0.0
    bps[at], out_vals[at], out_slopes[at] = t, vals, slopes
    if cross.any():
        at_x = at[cross] + 1
        bps[at_x], out_vals[at_x], out_slopes[at_x] = t_x[cross], 0.0, 0.0

    last_at_time = np.ones(bps.size, dtype=bool)
    last_at_time[:-1] = bps[1:] != bps[:-1]
    last_at_time[ends - 1] = True  # a path's last breakpoint, whatever the next path's first
    bounds = [0, *np.cumsum(last_at_time)[ends - 1].tolist()]
    bps, out_vals, out_slopes = bps[last_at_time], out_vals[last_at_time], out_slopes[last_at_time]
    return [
        CadlagPath(bps[lo:hi], out_vals[lo:hi], out_slopes[lo:hi], horizon)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def shot_noise_path(atoms: AtomSet, horizon: float, slope: float) -> CadlagPath:
    """`shot_noise_paths([atoms], horizon, slope)[0]`.  Not public: the
    benchmark's tracer (`perfbench/spans.py`) still names this function."""
    return shot_noise_paths([atoms], horizon, slope)[0]


def sample_shot_noise_marginal(
    a: float,
    b: float,
    slope: float,
    u: float,
    count: int,
    delta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """`count` independent draws of the process value at one time u.

    Equal in law to the value at u of `shot_noise_paths([sample_atoms(...)],
    u, slope)[0]`, repeated: atoms in decreasing mark order (LePage series)
    until the stopping rule or the delta cap holds, in rounds walked a slice
    at a time; see the module docstring, whose perpetuity joins one-time
    draws into values at several times.
    """
    if np.ndim(u) != 0 or not 0 <= float(u) < math.inf:
        raise ValueError(f"evaluation time must be a finite nonnegative scalar, got {u!r}")
    if count < 1:
        raise ValueError("sample count must be >= 1")
    if not math.isfinite(slope):
        raise ValueError("slope must be finite")
    u = float(u)
    gamma_cap = PrmParams(a=a, b=b, horizon=u, delta=delta).expected_atoms
    scale = a * u
    rise = max(slope, 0.0) * u  # most a later atom can add above its mark
    values = np.full(count, slope * u if slope > 0 else 0.0)  # every sample's value so far, from the floor up
    active = np.arange(count)  # samples still drawing atoms, in order
    gamma = np.zeros(count)  # their last arrivals, gamma[i] that of active[i]
    live = count
    while live:
        block = max(1, _ROUND_ATOMS // live)
        width = max(1, _ROUND_ATOMS // block)  # samples per slice of about _ROUND_ATOMS atoms
        kept = 0  # active[:kept] and gamma[:kept] hold the samples that go on
        for lo in range(0, live, width):
            hi = min(lo + width, live)
            samples = active[lo:hi]
            # row i holds atom i of every sample in the slice, so the sums
            # and maxima over a sample's atoms run down a column
            arrivals = rng.standard_exponential((block, hi - lo))
            if block > 1:
                np.cumsum(arrivals, axis=0, out=arrivals)
            arrivals += gamma[lo:hi]
            marks = np.divide(scale, arrivals)
            marks **= 1.0 / b
            reach = rng.uniform(0.0, u, arrivals.shape)  # atom times, then each atom's response at u
            np.subtract(u, reach, out=reach)
            reach *= slope
            reach += marks
            last_arrival = arrivals[-1]
            # arrivals increase down a column, so a sample's last one decides
            # whether any of its marks fell to delta
            uncapped = last_arrival < gamma_cap
            if not uncapped.all():
                reach[arrivals >= gamma_cap] = -np.inf  # marks at or below delta
            value = values[samples]
            np.maximum(value, reach[0] if block == 1 else reach.max(axis=0), out=value)
            values[samples] = value
            go = np.flatnonzero((marks[-1] + rise > value) & uncapped)  # a later atom could raise the value
            # in place: the slice has been read, and kept <= lo
            active[kept:kept + go.size] = samples[go]
            gamma[kept:kept + go.size] = last_arrival[go]
            kept += go.size
        live = kept
    return values


# ----------------------------------------------------------------------
# Closed-form marginal distributions
# ----------------------------------------------------------------------


def marginal_cdf(a: float, b: float, slope: float, u: float, x: float | np.ndarray) -> float | np.ndarray:
    """P{v(u) <= x}, the law of the process value at time u.

    With s = |slope|: exp(-u a x^{-b}) for slope 0, (x/(x + s u))^{a/s}
    for a negative slope and ((x - s u)/x)^{a/s} for a positive one,
    which vanishes at and below the floor s u (Pakes 1979).  A sloped law
    has a closed form only for b = 1.  Below _SLOPE_EPS the sloped forms
    degenerate to 0/0 and the slope-0 law, their limit, is used.  The
    value is positive almost surely for u > 0, so the CDF is 0 at x = 0;
    with no time (u = 0) it is 1.  x may be a float or an array; a float
    x gives a float.
    """
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")
    if not math.isfinite(slope):
        raise ValueError("slope must be finite")
    if slope != 0 and b != 1:
        raise ValueError("a nonzero slope has a closed-form marginal only for b = 1")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or u < 0:
        raise ValueError("x and u must be nonnegative")
    s = abs(slope)
    if u == 0:
        out = np.ones_like(x)
    elif s < _SLOPE_EPS:
        with np.errstate(divide="ignore"):  # continued by 0 at x = 0
            out = np.exp(-u * a * x ** (-b))
    elif slope < 0:
        out = (x / (x + s * u)) ** (a / s)
    else:
        above = np.maximum(x - u * s, 0.0)
        out = (above / np.where(x > 0, x, 1.0)) ** (a / s)
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# Finite-dimensional distributions
# ----------------------------------------------------------------------


def fdd_cdf(
    a: float,
    b: float,
    slope: float,
    times: np.ndarray,
    thresholds: np.ndarray,
) -> float:
    """P{process(u_i) <= x_i for all i} = exp(-Lambda(union of wedges)).

    The exceedance region is A = union_i {(t, y): t <= u_i, y > h_i(t)}
    with h_i(t) = x_i - s (u_i - t).  All boundary lines share slope s, so
    between consecutive u_i the lower envelope is the active line with the
    smallest intercept; Lambda integrates a * envelope^{-b} piecewise in
    closed form (`_wedge_measure`).
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    u = np.asarray(times, dtype=np.float64)
    x = np.asarray(thresholds, dtype=np.float64)
    if u.ndim != 1 or u.size == 0 or u.shape != x.shape:
        raise ValueError("times and thresholds must be 1-d arrays of equal positive length")
    if np.any(u < 0) or (u.size > 1 and not np.all(np.diff(u) > 0)):
        raise ValueError("times must be nonnegative and strictly increasing")
    required = np.maximum(slope * u, 0.0)
    if np.any(x <= required):
        raise ValueError(
            "thresholds make the exceedance measure infinite "
            "(need x_i > s*u_i for s > 0, x_i > 0 otherwise)"
        )
    if u[-1] == 0.0:
        return 1.0

    # suffix minima of the intercepts c_i = x_i - s u_i give the envelope
    intercepts = x - slope * u
    suffix_min = np.minimum.accumulate(intercepts[::-1])[::-1]
    edges = np.concatenate([[0.0], u])

    total = 0.0
    for i in range(u.size):
        lo, hi = edges[i], edges[i + 1]
        if hi <= lo:
            continue
        total += _wedge_measure(a, b, slope, suffix_min[i], lo, hi)
    return math.exp(-total)


def _wedge_measure(a: float, b: float, s: float, c: float, lo: float, hi: float) -> float:
    """Integral of a (c + s t)^{-b} over [lo, hi], where c + s t > 0.

    With x0 = c + s lo, x1 = c + s hi and l = log(x1 / x0), computed as
    log1p(s (hi - lo) / x0), the antiderivative gives (a/s) l for b = 1 and
    (a/s) x0^{1-b} expm1((1-b) l) / (1-b) otherwise; log1p and expm1 keep
    full relative precision as s -> 0, where log x1 - log x0 cancels.
    """
    if s == 0.0:
        return a * c ** (-b) * (hi - lo)
    x0 = c + s * lo
    ell = math.log1p(s * (hi - lo) / x0)
    if b == 1.0:
        return a / s * ell
    return a / s * x0 ** (1.0 - b) * math.expm1((1.0 - b) * ell) / (1.0 - b)

"""Extremal shot noise limit processes driven by truncated Poisson measures.

Atoms (t_k, j_k) fall on [0,T] x (delta, inf) with intensity
LEB x mu_{a,b}, mu_{a,b}((x, inf]) = a x^{-b}.  The process value is

    v(t) = max( floor(t),  max over atoms with t_k <= t of j_k + (t - t_k)*s )

with floor(t) = t*s for s > 0 and 0 otherwise (the empty sup is zero, and
for s > 0 the accumulation of small atoms at (0,0) forces the true sup to
at least t*s).  Atoms below the truncation level delta contribute at most
delta on top of the floor, so truncated evaluation is exact to within an
additive delta.

Paths (`sample_atoms`, `shot_noise_path`) draw every atom above delta.
Values at a few fixed times (`sample_shot_noise_marginal`) use the LePage
series instead (LePage, Woodroofe & Zinn 1981): with Gamma_i the arrival
times of a unit-rate Poisson process, the marks in decreasing order are
j_i = (a T / Gamma_i)^{1/b}, each with an independent uniform time on
[0, T].  An atom drawn after atom i has mark at most j_i, so it adds at
most j_i + max(s, 0) t to the value at t; once that bound is at or below
the running value (floor included) at every evaluation time, no later
atom can change any value and drawing stops (the stopping rule of Dombry,
Engelke & Oesting 2016).  Drawing also stops at the delta cap
Gamma_i >= a T delta^{-b}, i.e. once marks fall to delta, so the values
have exactly the law of the delta-truncated atoms above; the stopping
rule only saves draws.  A sample whose values all sit at the floor never
meets the rule (marks are positive) and runs to the cap, so the cap also
bounds the work: at most a T delta^{-b} atoms per sample.

The sampler draws in rounds of whole arrays.  A round gives each active
sample max(1, _ROUND_ATOMS // active) atoms and then applies the rule and
the cap once, to the last atom of each sample.  While more samples than
_ROUND_ATOMS = 2^14 are active, that is one atom each, the fewest a sample
can need.  Once fewer are left, a round draws about 2^14 atoms in all, so
the number of rounds stays small at any delta.  A sample may then draw up
to block - 1 atoms past the one where it could have stopped.  Those atoms
change no value, so the law does not depend on the round size, only the
draws do.  At 10^5 samples, T = 1 and delta = 1e-3, a sloped regime needs
about 4.1 atoms per sample and draws about 4.6; slope 0 needs and draws
one (its first mark is its value).

Marginal distributions have closed forms; finite-dimensional ones are
void probabilities of the measure over a union of wedges, integrated in
closed form over the piecewise-affine lower envelope, so that this oracle
stays independent of both the sampler and the marginal closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import CadlagPath

__all__ = [
    "PrmParams",
    "AtomSet",
    "ShotNoiseSpec",
    "sample_atoms",
    "sample_atoms_band",
    "shot_noise_path",
    "sample_shot_noise_marginal",
    "marginal_cdf_negslope",
    "marginal_cdf_extremal",
    "marginal_cdf_posslope",
    "fdd_cdf",
]

_SLOPE_EPS = 1e-8  # below this rate the negative/positive-slope CDFs use the s->0 limit
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

    @staticmethod
    def from_config(cfg: dict) -> "PrmParams":
        return PrmParams(
            a=float(cfg["a"]),
            b=float(cfg["b"]),
            horizon=float(cfg["horizon"]),
            delta=float(cfg.get("delta", 1e-3)),
        )


@dataclass(frozen=True)
class AtomSet:
    """Finite realization of the measure above the truncation level."""

    times: np.ndarray
    marks: np.ndarray
    params: PrmParams

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        j = np.asarray(self.marks, dtype=np.float64)
        if t.shape != j.shape or t.ndim != 1:
            raise ValueError("times and marks must be 1-d arrays of equal length")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "marks", j)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class ShotNoiseSpec:
    """Atoms plus the common response slope s = log mu."""

    slope: float
    atoms: AtomSet


def _pareto_band_marks(
    a: float, b: float, lo: float, hi: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Marks conditioned to (lo, hi] under mu_{a,b}; hi may be inf."""
    u = 1.0 - rng.random(count)  # in (0, 1]
    hi_pow = 0.0 if math.isinf(hi) else hi ** (-b)
    return (u * (lo ** (-b) - hi_pow) + hi_pow) ** (-1.0 / b)


def sample_atoms_band(
    a: float, b: float, horizon: float, lo: float, hi: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Times and marks of the atoms with marks in (lo, hi] on [0, horizon]."""
    if horizon == 0.0:  # no atoms, even where lo^{-b} overflows
        return np.empty(0), np.empty(0)
    hi_pow = 0.0 if math.isinf(hi) else hi ** (-b)
    intensity = horizon * a * (lo ** (-b) - hi_pow)
    count = int(rng.poisson(intensity))
    times = rng.uniform(0.0, horizon, count)
    marks = _pareto_band_marks(a, b, lo, hi, count, rng)
    return times, marks


def sample_atoms(params: PrmParams, rng: np.random.Generator) -> AtomSet:
    """All atoms above the truncation level: count ~ Poisson(T a delta^{-b})."""
    times, marks = sample_atoms_band(
        params.a, params.b, params.horizon, params.delta, math.inf, rng
    )
    return AtomSet(times=times, marks=marks, params=params)


def _floor_value(slope: float, t: float | np.ndarray):
    return slope * np.asarray(t, dtype=np.float64) if slope > 0 else np.zeros_like(np.asarray(t, dtype=np.float64))


def shot_noise_path(spec: ShotNoiseSpec, grid: np.ndarray | None = None) -> CadlagPath:
    """Exact piecewise-affine path on [0, horizon].

    Between events the running max of affine responses with common slope s
    is itself affine with slope s, clamped at the floor; breakpoints sit at
    record atom times and at clamp crossings.  Grid times, when given, are
    inserted as extra breakpoints (the function is unchanged).

    In time order, atom k's response is s t + c_k with c_k = j_k - s t_k,
    so the path after t_k follows the running maximum of the c's: the
    records are the atoms whose c_k beats every earlier one (and beats 0
    for s > 0, where the floor is s t).  A record's value is s t_k + c_k,
    clamped at 0 for s <= 0; for s < 0 the line s t + c_k meets the clamp
    at t = -c_k / s, a breakpoint when it comes before the next record.
    Of several records at one time the last (largest) one stands.
    """
    s = spec.slope
    end = spec.atoms.params.horizon
    order = np.argsort(spec.atoms.times, kind="stable")
    times = spec.atoms.times[order]
    marks = spec.atoms.marks[order]
    inside = np.searchsorted(times, end, side="right")  # atoms with t_k <= horizon
    times, marks = times[:inside], marks[:inside]

    c = marks - s * times
    start = 0.0 if s > 0 else -np.inf
    best_before = np.maximum.accumulate(np.concatenate(([start], c)))[:-1]
    record = c > best_before
    t, c = times[record], c[record]
    v = s * t + c
    if s > 0:
        vals, slopes = v, np.full_like(v, s)
    else:
        above = v > 0.0
        vals = np.where(above, v, 0.0)
        slopes = np.zeros_like(v)
        if s < 0:
            slopes[above] = s
            t_x = -c / s
            cross = above & (t < t_x) & (t_x < np.append(t[1:], end))
            after = np.flatnonzero(cross) + 1
            t = np.insert(t, after, t_x[cross])
            vals = np.insert(vals, after, 0.0)
            slopes = np.insert(slopes, after, 0.0)

    bps = np.concatenate(([0.0], t))
    last_at_time = np.append(bps[1:] != bps[:-1], True)
    path = CadlagPath(
        bps[last_at_time],
        np.concatenate(([0.0], vals))[last_at_time],
        np.concatenate(([s if s > 0 else 0.0], slopes))[last_at_time],
        end,
    )
    if grid is not None and len(grid):
        path = _insert_breakpoints(path, np.asarray(grid, dtype=np.float64))
    return path


def _insert_breakpoints(path: CadlagPath, times: np.ndarray) -> CadlagPath:
    times = times[(times >= 0) & (times <= path.end_time)]
    merged = np.unique(np.concatenate([path.breakpoints, times]))
    idx = np.clip(np.searchsorted(path.breakpoints, merged, side="right") - 1, 0, None)
    vals = path.values[idx] + path.slopes[idx] * (merged - path.breakpoints[idx])
    return CadlagPath(merged, vals, path.slopes[idx], path.end_time)


def sample_shot_noise_marginal(
    a: float,
    b: float,
    slope: float,
    u: float | np.ndarray,
    count: int,
    delta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """`count` independent draws of the process value at time(s) u.

    Equal in law to the values at u of `shot_noise_path(sample_atoms(...))`
    repeated with horizon max(u).  A scalar u gives a 1-d array of length
    `count`; a 1-d increasing array of times gives a (count, len(u)) array,
    one row per path.  Atoms come in decreasing mark order (LePage
    series), and a sample draws atoms only until the stopping rule or the
    delta cap holds at every time.  Draws go in rounds of one atom per
    active sample, or of about `_ROUND_ATOMS` atoms in all once fewer
    samples are active; see the module docstring.
    """
    times = np.asarray(u, dtype=np.float64)
    scalar = times.ndim == 0
    times = np.atleast_1d(times)
    if times.ndim != 1 or not np.all(np.isfinite(times)) or times[0] < 0:
        raise ValueError("evaluation times must be finite, nonnegative, and scalar or 1-d")
    if np.any(np.diff(times) <= 0):
        raise ValueError("evaluation times must be strictly increasing")
    if count < 1:
        raise ValueError("sample count must be >= 1")
    if not math.isfinite(slope):
        raise ValueError("slope must be finite")
    horizon = float(times[-1])
    gamma_cap = PrmParams(a=a, b=b, horizon=horizon, delta=delta).expected_atoms
    scale = a * horizon
    rise = (max(slope, 0.0) * times).tolist()  # most a later atom can add above its mark
    values = np.empty((count, times.size))
    active = np.arange(count)  # rows of `values` still drawing atoms
    current = np.tile(_floor_value(slope, times), (count, 1))  # their values so far
    gamma = np.zeros(count)  # and their last arrivals
    while active.size:
        block = max(1, _ROUND_ATOMS // active.size)
        # row i holds atom i of every active sample, so the sums and maxima
        # over a sample's atoms run down a column
        arrivals = rng.standard_exponential((block, active.size))
        if block > 1:
            np.cumsum(arrivals, axis=0, out=arrivals)
        arrivals += gamma
        marks = np.divide(scale, arrivals)
        marks **= 1.0 / b
        at = rng.uniform(0.0, horizon, arrivals.shape)
        gamma = arrivals[-1]
        # arrivals increase down a column, so a sample's last one decides
        # whether any of its marks fell to delta
        capped = gamma >= gamma_cap
        below = arrivals >= gamma_cap if capped.any() else None  # marks at or below delta
        for k, t in enumerate(times.tolist()):
            if t < horizon:
                hidden = at > t if below is None else (at > t) | below
                reach = np.subtract(t, at)
            else:  # no atom time exceeds the last time, whose responses take the place of `at`
                hidden = below
                reach = np.subtract(t, at, out=at)
            reach *= slope
            reach += marks
            if hidden is not None:
                reach[hidden] = -np.inf
            np.maximum(current[:, k], reach[0] if block == 1 else reach.max(axis=0), out=current[:, k])
        last = marks[-1]
        done = last + rise[0] <= current[:, 0]
        for k in range(1, len(rise)):
            done &= last + rise[k] <= current[:, k]
        done |= capped
        if done.any():
            # integer indices: a boolean mask gathers much slower when done
            # rows are scattered at random
            finished = np.flatnonzero(done)
            values[active[finished]] = current[finished]
            left = np.flatnonzero(~done)
            active, current, gamma = active[left], current[left], gamma[left]
    return values[:, 0] if scalar else values


# ----------------------------------------------------------------------
# Closed-form marginal distributions
# ----------------------------------------------------------------------


def _float_if_scalar(out: np.ndarray) -> float | np.ndarray:
    return float(out) if out.ndim == 0 else out


def _extremal_closed_form(a: float, b: float, u: float, x: np.ndarray) -> np.ndarray:
    """exp(-u a x^{-b}), continued by 0 at x = 0."""
    with np.errstate(divide="ignore"):
        return np.exp(-u * a * x ** (-b))


def marginal_cdf_negslope(r: float, s: float, u: float, x: float | np.ndarray) -> float | np.ndarray:
    """P{sup over t_k <= u of (j_k - (u - t_k) s) <= x} = (x/(x+su))^{r/s}.

    r is the mark-intensity constant, s > 0 the decay rate (process slope
    -s).  Near s = 0 the closed form degenerates to 0/0 and the extremal
    limit e^{-r u / x} is used instead.  x may be a float or an array;
    a float x gives a float.
    """
    if r <= 0 or s <= 0:
        raise ValueError("r and s must be positive")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or u < 0:
        raise ValueError("x and u must be nonnegative")
    if u == 0:
        out = np.ones_like(x)
    elif s < _SLOPE_EPS:
        out = _extremal_closed_form(r, 1.0, u, x)
    else:
        out = (x / (x + s * u)) ** (r / s)
    return _float_if_scalar(out)


def marginal_cdf_extremal(a: float, b: float, u: float, x: float | np.ndarray) -> float | np.ndarray:
    """P{max mark on [0, u] <= x} = exp(-u a x^{-b}) for the slope-0 process.

    The value is positive almost surely for u > 0, so the CDF is 0 at
    x = 0; with no time (u = 0) it is 1.  x may be a float or an array;
    a float x gives a float.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if u < 0:
        raise ValueError("u must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    out = np.ones_like(x) if u == 0 else _extremal_closed_form(a, b, u, x)
    return _float_if_scalar(out)


def marginal_cdf_posslope(r: float, s: float, u: float, x: float | np.ndarray) -> float | np.ndarray:
    """P{sup over t_k <= u of (j_k + (u - t_k) s) <= x} for growth rate s > 0.

    The value sits above the floor u*s almost surely, so the CDF vanishes
    for x <= u*s and equals ((x - us)/x)^{r/s} beyond it.  x may be a
    float or an array; a float x gives a float.
    """
    if r <= 0 or s <= 0:
        raise ValueError("r and s must be positive")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or u < 0:
        raise ValueError("x and u must be nonnegative")
    if u == 0:
        out = np.ones_like(x)
    elif s < _SLOPE_EPS:
        out = _extremal_closed_form(r, 1.0, u, x)
    else:
        above = np.maximum(x - u * s, 0.0)
        out = (above / np.where(x > 0, x, 1.0)) ** (r / s)
    return _float_if_scalar(out)


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

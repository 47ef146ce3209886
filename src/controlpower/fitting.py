"""Statistical estimation: first-order Fourier fits with unknown period,
normal fits with one-sigma band ratios, and Pearson correlation with
two-sided significance.

The period of the Fourier model is found by a grid scan of the
least-squares error, refined by rescans of ever finer grids around the
best period. Every scan scores its trial periods in one numpy pass: with
y, cos and sin centred on their means, each period's 2x2 normal equations
are solved in closed form (the floating-mean periodogram of Zechmeister &
Kuerster 2009) and the error is summed from explicit residuals. Periods
whose centred design is ill-conditioned and the reported coefficients use
an ordinary ``lstsq`` solve at the fixed period.

The p-value engine is a self-contained regularized incomplete beta
evaluated by Lentz's continued fraction, so reported (r, n) pairs can be
checked without external tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evolution import WaveParams, wave_extrema

DEFAULT_GRID_STEP = 0.05
# Most trial periods one scan may score; a larger grid is rejected before
# anything is allocated.
MAX_GRID_PERIODS = 10**6
DEGENERATE_AMPLITUDE = 1e-9
# Fewest points (years, in a report) a Fourier fit takes
MIN_FIT_YEARS = 4
# Largest (series x periods x points) intermediate of the period scan, cut
# along periods: of 2^13..2^18 the one that kept an outcomes report's peak
# memory; larger ones ran a 10,400-row registry report up to 1 ms faster.
_SCAN_ELEMENTS = 1 << 13
# A trial period is ill-conditioned when the smaller eigenvalue of its
# centred 2x2 normal matrix (det/trace within a factor 2) falls below this
# share of the point count; lstsq scores it instead of the closed form.
_SCAN_MIN_EIGEN = 1e-8
# Scan errors within this share of the total sum of squares of the
# smallest are equal: aliased periods (T and 1/(1 - 1/T) on integer t) tie
# in exact arithmetic and differ only by rounding.
_SCAN_TIE = 1e-12
_BETA_EPS = 1e-12
_BETA_MAX_ITER = 400


@dataclass(frozen=True)
class TimeSeries:
    """Ordered (t, y) observations with strictly increasing t."""

    t: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        if len(self.t) != len(self.y):
            raise ValueError("t and y must have the same length")
        if len(self.t) == 0:
            raise ValueError("series is empty")
        if any(b <= a for a, b in zip(self.t, self.t[1:])):
            raise ValueError("t must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs) -> "TimeSeries":
        ts, ys = list(zip(*((float(a), float(b)) for a, b in pairs))) or ((), ())
        return cls(ts, ys)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def span(self) -> float:
        return self.t[-1] - self.t[0]


@dataclass(frozen=True)
class FourierFit:
    """Result of a first-order Fourier fit.

    Degenerate fits (constant input or vanishing amplitude) report the
    level in a0 with a1 = b1 = 0 and no period.
    """

    a0: float
    a1: float
    b1: float
    period: float | None
    sse: float
    rmse: float
    r_squared: float
    degenerate: bool

    @property
    def params(self) -> WaveParams | None:
        if self.degenerate:
            return None
        return WaveParams(self.a0, self.a1, self.b1, self.period)


def _coeffs_and_sse(t: np.ndarray, y: np.ndarray, period: float):
    theta = 2.0 * math.pi * t / period
    design = np.column_stack([np.ones_like(t), np.cos(theta), np.sin(theta)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return coef, float(resid @ resid)


def check_period_grid(period_range: tuple[float, float] | None, grid_step: float) -> None:
    """Reject a grid step that is not positive or not finite, a period
    range outside 0 < lo <= hi, or a grid of more than MAX_GRID_PERIODS
    trial periods, without building the grid. With no range only the step
    is checked."""
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    if not math.isfinite(grid_step):
        raise ValueError("grid step must be finite")
    if period_range is None:
        return
    lo, hi = float(period_range[0]), float(period_range[1])
    if not (0.0 < lo <= hi):
        raise ValueError("empty period range")
    if not (hi - lo) / grid_step + 2 <= MAX_GRID_PERIODS:  # an infinite hi fails too
        raise ValueError(
            f"period grid over [{lo}, {hi}] in steps of {grid_step} exceeds {MAX_GRID_PERIODS} trial periods"
        )


def _period_bounds(t: Sequence[float], period_range: tuple[float, float] | None, grid_step: float):
    """The checked (lo, hi) of a fit on the increasing times ``t``: by
    default [4, 2 * span]. Rejects what ``check_period_grid`` rejects and a
    lowest period below twice the smallest time step, where periods alias
    and near-singular fits win."""
    period_range = period_range or (4.0, 2.0 * (t[-1] - t[0]))
    check_period_grid(period_range, grid_step)
    lo, hi = float(period_range[0]), float(period_range[1])
    floor = 2.0 * float(np.diff(t).min())
    if lo < floor:
        raise ValueError(f"period range starts at {lo}, below {floor}, twice the smallest time step")
    return lo, hi


def _period_grid(lo: float, hi: float, grid_step: float) -> np.ndarray:
    """Trial periods lo, lo + step, ... up to hi, with hi appended when the
    steps miss it; the range must pass ``check_period_grid``."""
    grid = lo + np.arange(int(math.floor((hi - lo) / grid_step + 1e-9)) + 1) * grid_step
    if grid[-1] < hi - 1e-12:
        grid = np.append(grid, hi)
    return grid


def _scan_sse(t: np.ndarray, y: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """Least-squares error of the three-coefficient fit at every period, for
    one series y or each row of a (series x points) block on the same t.
    ``periods`` is (rows x periods): one row shared by every series (a 1-D
    list is one such row) or one row per series. The result is (series x
    periods), one row of it for a 1-D y.

    Centring y, cos and sin on their means removes a0, so each period is a
    2x2 solve in closed form; the error is summed from explicit residuals,
    never as y'y - b'A^-1 b, which cancels. The centred design is built
    once per row of periods and broadcast against the centred series, a
    chunk of periods at a time so the (series x periods x points) residuals
    stay within _SCAN_ELEMENTS. Every product runs along points alone, so a
    period's error is bit for bit that of its series alone, in any chunk or
    batch. Ill-conditioned periods (such as T = 1 or 2 on integer t, where
    sin is rounding noise) are scored by ``_coeffs_and_sse``, whose lstsq
    truncates the vanishing column.
    """
    n = t.size
    wt = 2.0 * math.pi * t
    block = np.atleast_2d(y)
    centred = block - block.mean(axis=1, keepdims=True)
    grid = np.atleast_2d(periods)
    sse = np.empty((len(block), grid.shape[1]))
    width = max(1, _SCAN_ELEMENTS // (len(block) * n))
    for at in range(0, grid.shape[1], width):
        trial = grid[:, at : at + width]
        c = wt / trial[..., None]  # the angles, then their cosines in place
        s = np.sin(c)
        np.cos(c, out=c)
        c -= c.mean(axis=-1, keepdims=True)
        s -= s.mean(axis=-1, keepdims=True)
        cc = np.einsum("...j,...j->...", c, c)
        ss = np.einsum("...j,...j->...", s, s)
        cs = np.einsum("...j,...j->...", c, s)
        det = cc * ss - cs * cs
        sound = det > _SCAN_MIN_EIGEN * n * (cc + ss)
        det = np.where(sound, det, 1.0)
        cy = np.einsum("...ij,...j->...i", c, centred)
        sy = np.einsum("...ij,...j->...i", s, centred)
        a1 = (ss * cy - cs * sy) / det
        b1 = (cc * sy - cs * cy) / det
        # in place, so that at most two chunks of residuals are alive at once
        resid = a1[..., None] * c
        np.subtract(centred[:, None], resid, out=resid)
        resid -= b1[..., None] * s
        out = sse[:, at : at + width]
        out[:] = np.einsum("...j,...j->...", resid, resid)
        if not sound.all():
            trial = np.broadcast_to(trial, out.shape)
            for row, i in zip(*np.nonzero(~np.broadcast_to(sound, out.shape))):
                out[row, i] = _coeffs_and_sse(t, block[row], float(trial[row, i]))[1]
    return sse if y.ndim > 1 else sse[0]


def fit_fourier1(
    series: TimeSeries,
    period_range: tuple[float, float] | None = None,
    *,
    grid_step: float = DEFAULT_GRID_STEP,
) -> FourierFit:
    """Least-squares fit of y = a0 + a1*cos(2*pi*t/T) + b1*sin(2*pi*t/T).

    T is scanned over ``period_range`` (default [4, 2 * span]) in steps of
    ``grid_step``; on equal error (to 1e-12 of the total sum of squares, so
    aliases tie) the smaller period wins. Rescans of 21 periods around the
    best one, each ten times finer, then refine it until the step is within
    1e-11 of T; each holds the best period so far and keeps the least error,
    so the error never rises. Needs at least MIN_FIT_YEARS points, at most
    MAX_GRID_PERIODS trial periods and a lowest period of at least twice the
    smallest time step. A constant series is reported as degenerate, not an
    error.
    """
    return fit_fourier1_batch([series], period_range, grid_step=grid_step)[0]


def fit_fourier1_batch(
    series: Sequence[TimeSeries],
    period_range: tuple[float, float] | None = None,
    *,
    grid_step: float = DEFAULT_GRID_STEP,
) -> list[FourierFit]:
    """``fit_fourier1`` of each series, in order, with one grid scan for all
    series that share the same t and one rescan of all of them per
    refinement level, in which each series refines its own period. Every
    series is checked before any scan, so a bad one raises the error
    its own fit would raise, and the first such series in order wins. Each
    fit is bit for bit the fit of its series alone.
    """
    bounds = []
    for one in series:
        if len(one) < MIN_FIT_YEARS:
            raise ValueError(f"Fourier fitting needs at least {MIN_FIT_YEARS} points")
        bounds.append(_period_bounds(one.t, period_range, grid_step))
    fits: list[FourierFit | None] = [None] * len(series)
    axes: dict[bytes, list[int]] = {}
    for k, one in enumerate(series):
        axes.setdefault(np.asarray(one.t, dtype=float).tobytes(), []).append(k)
    for members in axes.values():
        t = np.asarray(series[members[0]].t, dtype=float)
        lo, hi = bounds[members[0]]
        grid = _period_grid(lo, hi, grid_step)
        block = np.array([series[k].y for k in members], dtype=float)
        mean = block.mean(axis=1)
        sst = ((block - mean[:, None]) ** 2).sum(axis=1)
        sse = _scan_sse(t, block, grid)
        # the first (smallest) period among equal errors wins
        winners = grid[np.argmax(sse <= sse.min(axis=1, keepdims=True) + _SCAN_TIE * sst[:, None], axis=1)]
        live = sst != 0.0  # a constant series is degenerate
        periods = iter(_refined_periods(t, block[live], winners[live], lo, hi, min(grid_step, hi - lo)))
        for k, y, m, s, refined in zip(members, block, mean.tolist(), sst.tolist(), live.tolist()):
            fits[k] = (_fit_at(t, y, next(periods), m, s) if refined
                       else FourierFit(m, 0.0, 0.0, None, 0.0, 0.0, 1.0, True))
    return fits


def _refined_periods(t: np.ndarray, block: np.ndarray, periods: np.ndarray,
                     lo: float, hi: float, step: float) -> list[float]:
    """The grid winners ``periods`` of the series ``block`` refined within
    [lo, hi] by rescans of 21 periods around each, ``step`` apart and ten
    times finer each time, until ``2 * step`` is within 1e-11 of the
    period. Each level rescans every series that has not stopped in one
    block. The series share the step, since they share lo, hi and the grid
    step, and each stops by its own period; a series' periods and errors
    are bit for bit those of its rescans alone."""
    live = np.arange(len(block))
    offsets = np.arange(-10, 11)
    # step stays a Python float, whose 2.0 * step overflows to inf without the
    # warning a numpy value gives
    while (live := live[2.0 * step > 1e-11 * np.maximum(1.0, periods[live])]).size:
        # ten steps near the float limit overflow to inf; the clip takes them back
        with np.errstate(over="ignore"):
            trial = np.clip(periods[live, None] + step * offsets, lo, hi)
        best = np.argmin(_scan_sse(t, block[live], trial), axis=1)
        periods[live] = trial[np.arange(live.size), best]
        step /= 10.0
    return periods.tolist()


def _fit_at(t: np.ndarray, y: np.ndarray, period: float, mean: float, sst: float) -> FourierFit:
    """The fit at ``period`` of the non-constant series y of ``mean`` and total sum of squares ``sst``."""
    coef, sse = _coeffs_and_sse(t, y, period)
    a0, a1, b1 = (float(v) for v in coef)
    if math.hypot(a1, b1) < DEGENERATE_AMPLITUDE:
        return FourierFit(mean, 0.0, 0.0, None, sst, math.sqrt(sst / len(y)), 0.0, True)
    rmse = math.sqrt(sse / len(y))
    r_squared = 1.0 - sse / sst
    return FourierFit(a0, a1, b1, period, sse, rmse, r_squared, False)


def fourier_extrema(fit: FourierFit) -> tuple[float, float]:
    """(max, min) of a fitted wave; rejects degenerate fits."""
    if fit.degenerate:
        raise ValueError("degenerate fit has no reportable extrema")
    return wave_extrema(fit.params)


@dataclass(frozen=True)
class NormalFit:
    """Sample mean / standard deviation plus the one-sigma band ratio."""

    mu: float
    sigma: float
    band_ratio: float
    n: int


def fit_normal(samples: Sequence[float]) -> NormalFit:
    """Mean, n-1 standard deviation, and the fraction of samples inside the
    closed band [mu - sigma, mu + sigma].

    Band membership carries a 1e-12 relative guard so rounding of mu and
    sigma cannot eject samples that sit exactly on a band edge.
    """
    values = np.asarray(samples, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError("need at least two samples")
    return NormalFit(*_segment_moments(values, [0, n])[0], n)


def _cut_counts(mask: np.ndarray, cuts: Sequence[int]) -> list[int]:
    """The running count of True entries of ``mask`` at each cut. Its
    consecutive differences are the segments' counts, and it cuts
    ``values[mask]`` into the same segments as ``cuts`` cut ``values``."""
    return np.concatenate(([0], np.cumsum(mask))).take(cuts).tolist()


def _segment_moments(values: np.ndarray, cuts: Sequence[int]) -> list[tuple]:
    """``fit_normal``'s (mu, sigma, band_ratio) of every segment
    ``values[a:b]`` between consecutive ``cuts``, in one pass over the
    column: a segment of one value gives (value, None, None), an empty one
    (None, None, None). The mean is the segment's ``math.fsum`` over n and
    sigma the square root of the fsum of its squared deviations over n - 1;
    the deviations and the band test run on the whole column at once."""
    listed = values.tolist()
    bounds = list(zip(cuts[:-1], cuts[1:]))
    sizes = [b - a for a, b in bounds]
    mus = [math.fsum(listed[a:b]) / (b - a) if b > a else 0.0 for a, b in bounds]
    d = values - np.repeat(mus, sizes)
    # d * d is correctly rounded; Python's ** 2 goes through libm pow
    squares = (d * d).tolist()
    sigmas = [math.sqrt(math.fsum(squares[a:b]) / (b - a - 1)) if b - a > 1 else 0.0 for a, b in bounds]
    lo, hi = [], []
    for mu, sigma in zip(mus, sigmas):
        guard = 1e-12 * max(1.0, abs(mu) + sigma)
        lo.append(mu - sigma - guard)
        hi.append(mu + sigma + guard)
    inside = _cut_counts((np.repeat(lo, sizes) <= values) & (values <= np.repeat(hi, sizes)), cuts)
    moments = []
    for k, (n, mu, sigma) in enumerate(zip(sizes, mus, sigmas)):
        if n > 1:
            moments.append((mu, sigma, (inside[k + 1] - inside[k]) / n))
        else:
            moments.append((mu if n else None, None, None))
    return moments


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p_value: float
    n: int


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Product-moment correlation with a two-sided p-value."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError("inputs must have the same length")
    n = len(xs)
    if n < 3:
        raise ValueError("need at least three pairs")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((v - mx) ** 2 for v in xs)
    syy = math.fsum((v - my) ** 2 for v in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation is undefined for a constant input")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    return CorrelationResult(r, p_from_r(r, n), n)


def p_from_r(r: float, n: int) -> float:
    """Two-sided p-value of a correlation r at sample size n.

    Uses the exact identity p = I_x(nu/2, 1/2) with nu = n - 2 and
    x = nu / (nu + t^2), t = r*sqrt(nu/(1-r^2)). |r| >= 1 floors at 0.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    r = float(r)
    if abs(r) >= 1.0:
        return 0.0
    nu = n - 2
    t_sq = r * r * nu / (1.0 - r * r)
    return regularized_incomplete_beta(nu / 2.0, 0.5, nu / (nu + t_sq))


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by Lentz's continued fraction, relative accuracy ~1e-12."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # one Lentz update per coefficient, the even one, then the odd one
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")

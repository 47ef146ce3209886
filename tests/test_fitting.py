import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from controlpower import fitting
from controlpower.evolution import ControlPowerPdf, WaveParams, pdf_sample, wave_eval
from controlpower.fitting import (
    TimeSeries,
    fit_fourier1,
    fit_normal,
    fourier_extrema,
    p_from_r,
    pearson,
    regularized_incomplete_beta,
)
from controlpower.evolution import ideal_wave, wave_extrema

GEN = WaveParams(0.553, 0.060, -0.083, 17.357)
# t,y rows: a gentle trend on the calendar years 1996-2018, no period-2 swing
TREND = Path(__file__).parent / "data" / "trend_1996.csv"


def sample_series(params, t, noise_sd=0.0, seed=None):
    t = np.asarray(t, dtype=float)
    y = np.array([wave_eval(params, v) for v in t])
    if noise_sd:
        y = y + np.random.default_rng(seed).normal(0.0, noise_sd, size=y.size)
    return TimeSeries(tuple(t), tuple(y))


class TestTimeSeries:
    def test_requires_increasing_t(self):
        with pytest.raises(ValueError):
            TimeSeries((0.0, 1.0, 1.0), (1.0, 2.0, 3.0))

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            TimeSeries((0.0, 1.0), (1.0,))

    def test_from_pairs(self):
        series = TimeSeries.from_pairs([(0, 1.0), (1, 2.0)])
        assert series.t == (0.0, 1.0)
        assert series.span == 1.0

    def test_from_no_pairs_is_empty(self):
        with pytest.raises(ValueError, match="series is empty"):
            TimeSeries.from_pairs([])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_value_that_is_not_finite(self, value):
        # a NaN y once gave a silent all-NaN fit that was not degenerate
        with pytest.raises(ValueError, match=f"^y value {value!r} is not finite$"):
            fit_fourier1(TimeSeries((0.0, 1.0, 2.0, 3.0, 4.0), (1.0, 2.0, value, 4.0, 5.0)))
        with pytest.raises(ValueError, match=f"^t value {value!r} is not finite$"):
            TimeSeries((0.0, value, 5.0), (1.0, 2.0, 3.0))


class TestFourierFit:
    def test_noiseless_recovery(self):
        series = sample_series(GEN, np.arange(26.0))
        fit = fit_fourier1(series)
        assert not fit.degenerate
        assert abs(fit.period - 17.357) / 17.357 < 0.01
        assert fit.a0 == pytest.approx(0.553, abs=1e-3)
        assert fit.a1 == pytest.approx(0.060, abs=1e-3)
        assert fit.b1 == pytest.approx(-0.083, abs=1e-3)
        assert fit.r_squared > 0.999

    def test_constant_series_degenerates(self):
        series = TimeSeries(tuple(np.arange(8.0)), (0.5,) * 8)
        fit = fit_fourier1(series)
        assert fit.degenerate
        assert fit.a0 == 0.5
        assert (fit.a1, fit.b1) == (0.0, 0.0)
        assert fit.period is None

    def test_noisy_recovery_rate(self):
        hits = 0
        for seed in range(10):
            series = sample_series(GEN, np.arange(26.0), noise_sd=0.02, seed=seed)
            fit = fit_fourier1(series, (4.0, 50.0))
            hits += abs(fit.period - 17.357) / 17.357 <= 0.05
        assert hits >= 8

    def test_refit_on_own_predictions(self):
        series = sample_series(GEN, np.arange(26.0), noise_sd=0.02, seed=1)
        first = fit_fourier1(series)
        predicted = TimeSeries(series.t, tuple(wave_eval(first.params, t) for t in series.t))
        second = fit_fourier1(predicted)
        assert second.sse <= 1e-12
        assert second.period == pytest.approx(first.period, abs=1e-9)
        assert second.params.amplitude == pytest.approx(first.params.amplitude, abs=1e-9)

    def test_time_shift_rotates_coefficients_only(self):
        series = sample_series(GEN, np.arange(26.0))
        base = fit_fourier1(series)
        shift = 4.25
        relabeled = TimeSeries(tuple(t + shift for t in series.t), series.y)
        shifted = fit_fourier1(relabeled)
        assert shifted.period == pytest.approx(base.period, rel=1e-6)
        assert shifted.params.amplitude == pytest.approx(base.params.amplitude, abs=1e-6)
        angle = (shifted.params.phase - base.params.phase) % (2 * math.pi)
        assert angle == pytest.approx(2 * math.pi * shift / base.period % (2 * math.pi), abs=1e-5)

    def test_predictions_inside_extrema(self):
        series = sample_series(GEN, np.arange(26.0), noise_sd=0.01, seed=3)
        fit = fit_fourier1(series)
        hi, lo = fourier_extrema(fit)
        for t in series.t:
            assert lo - 1e-12 <= wave_eval(fit.params, t) <= hi + 1e-12

    def test_smallest_period_wins_ties(self):
        # constant-free symmetric input; aliases exist but the scan keeps the first best
        series = sample_series(WaveParams(0.5, 0.1, 0.0, 8.0), np.arange(16.0))
        fit = fit_fourier1(series, (4.0, 32.0))
        assert fit.period == pytest.approx(8.0, rel=1e-6)

    def test_requires_four_points(self):
        with pytest.raises(ValueError):
            fit_fourier1(TimeSeries((0.0, 1.0, 2.0), (0.1, 0.2, 0.3)))

    def test_rejects_empty_period_range(self):
        series = sample_series(GEN, np.arange(26.0))
        with pytest.raises(ValueError):
            fit_fourier1(series, (10.0, 5.0))
        with pytest.raises(ValueError):
            fit_fourier1(series, (0.0, 5.0))


def coeffs_and_sse(t, y, period):
    """The oracle: (a0, a1, b1) and the error of the three-column design at
    ``period`` by lstsq. Its rcond of 1e-8 drops a column that is rounding
    noise, as sin(pi t) is on integer t; the default keeps it and fits the
    noise (at T = 2 on t = 1996..2021 it read an error of 0.0527 against the
    true 0.0567)."""
    theta = 2.0 * math.pi * t / period
    design = np.column_stack([np.ones_like(t), np.cos(theta), np.sin(theta)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=1e-8)
    resid = y - design @ coef
    return coef, float(resid @ resid)


def unsound(t, period):
    """Whether the centred cos and sin of ``period`` on t are collinear by
    the scan's test, so that the scan fits one column or neither."""
    theta = 2.0 * math.pi * np.asarray(t) / period
    c, s = np.cos(theta), np.sin(theta)
    c, s = c - c.mean(), s - s.mean()
    cc, ss, cs = c @ c, s @ s, c @ s
    return not cc * ss - cs * cs > fitting._SCAN_MIN_EIGEN * len(t) * (cc + ss)


def reference_fit(series, period_range=None, grid_step=0.05):
    """The fit as one lstsq per grid period (the scan before vectorisation),
    refined by golden section on lstsq (the refinement before rescans),
    falling back to the grid winner when that ends worse: (period, a0, a1,
    b1, sse)."""
    t = np.asarray(series.t, dtype=float)
    y = np.asarray(series.y, dtype=float)
    lo, hi = period_range or (4.0, 2.0 * series.span)
    steps = int(math.floor((hi - lo) / grid_step + 1e-9))
    grid = [lo + k * grid_step for k in range(steps + 1)]
    if grid[-1] < hi - 1e-12:
        grid.append(hi)
    best_period, best_sse = grid[0], math.inf
    for period in grid:
        _, sse = coeffs_and_sse(t, y, period)
        if sse < best_sse:
            best_sse, best_period = sse, period
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a = max(lo, best_period - grid_step)
    b = min(hi, best_period + grid_step)
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc = coeffs_and_sse(t, y, c)[1]
    fd = coeffs_and_sse(t, y, d)[1]
    while b - a > 1e-11 * max(1.0, b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = coeffs_and_sse(t, y, c)[1]
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = coeffs_and_sse(t, y, d)[1]
    period = 0.5 * (a + b)
    coef, sse = coeffs_and_sse(t, y, period)
    if best_sse < sse:
        period = best_period
        coef, sse = coeffs_and_sse(t, y, period)
    return (period, *(float(v) for v in coef), sse)


def random_series(rng, integer_t):
    """Trend plus wave plus noise on 4-30 points."""
    n = int(rng.integers(4, 31))
    if integer_t:
        t = np.arange(n, dtype=float) + float(rng.choice([0, 1, 1996]))
    else:
        t = np.cumsum(rng.uniform(0.2, 1.8, n)) + rng.uniform(-5.0, 5.0)
    rel = t - t[0]
    y = (
        0.5
        + rng.uniform(-0.02, 0.02) * rel
        + rng.uniform(0.0, 0.2) * np.cos(2 * np.pi * rel / rng.uniform(3.0, 25.0) + rng.uniform(0.0, 6.3))
        + rng.normal(0.0, rng.choice([0.0, 1e-3, 0.05]), n)
    )
    return TimeSeries(tuple(t), tuple(y))


def fit_tuple(fit):
    return (fit.period, fit.a0, fit.a1, fit.b1, fit.sse)


class TestPeriodScan:
    """The vectorised scan against one lstsq solve per trial period."""

    def test_scan_matches_lstsq_at_every_period(self):
        rng = np.random.default_rng(2009)
        for k in range(60):
            series = random_series(rng, integer_t=k % 2 == 0)
            t, y = np.asarray(series.t), np.asarray(series.y)
            lo = float(rng.choice([0.5, 1.0, 2.0, 4.0]))  # 0.5, 1 and 2 are near-singular on integer t
            grid = fitting._period_grid(lo, lo + rng.uniform(1.0, 40.0), float(rng.choice([0.05, 0.25, 0.5])))
            scan = fitting._scan_sse(t, y, grid)
            ref = np.array([coeffs_and_sse(t, y, float(p))[1] for p in grid])
            sst = float(((y - y.mean()) ** 2).sum())
            assert np.isfinite(scan).all()
            assert (np.abs(scan - ref) <= np.maximum(1e-9 * ref, 1e-12 * sst)).all(), k

    def test_default_range_matches_reference_loop(self):
        # the rescans score with the closed form, the reference with lstsq:
        # the error may not be worse and the period moves by rounding only
        rng = np.random.default_rng(1996)
        for k in range(30):
            series = random_series(rng, integer_t=k % 3 != 0)
            if series.span < 2.0:
                continue  # the default range [4, 2 * span] would be empty
            period, *_, sse = fit_tuple(fit_fourier1(series))
            ref_period, *_, ref_sse = reference_fit(series)
            y = np.asarray(series.y)
            assert sse <= ref_sse + 1e-12 * float(((y - y.mean()) ** 2).sum()), k
            assert period == pytest.approx(ref_period, rel=1e-6, abs=0.0), k

    def test_trend_returns_the_upper_bound_exactly(self):
        # a straight line is fitted best by the longest period, so the grid
        # winner is the range's end and no rescan may move off it
        t = np.arange(26.0)
        series = TimeSeries(tuple(t), tuple(0.5 + 0.01 * t + 0.001 * np.sin(t)))
        scan = fitting._scan_sse(t, np.asarray(series.y), fitting._period_grid(4.0, 50.0, 0.05))
        assert np.argmin(scan) == scan.size - 1
        assert fit_fourier1(series).period == 50.0
        # the grid's last period, 4 + 666 * 0.05, rounds to above 37.3, and
        # the fit must still stay inside the range
        assert fit_fourier1(series, (4.0, 37.3)).period == 37.3

    def test_huge_grid_step_rescans_a_bounded_number_of_times(self, monkeypatch):
        calls = []

        def counting(t, y, periods):
            calls.append(periods.size)
            return scan(t, y, periods)

        scan = fitting._scan_sse
        monkeypatch.setattr(fitting, "_scan_sse", counting)
        series = sample_series(GEN, np.arange(26.0), noise_sd=0.02, seed=4)
        fit = fit_fourier1(series, grid_step=1e300)
        assert 4.0 <= fit.period <= 50.0
        assert calls[0] == 2  # the grid is the range's two ends
        assert len(calls) <= 16
        # offsets of ten steps of 1e308 overflow and are clipped to the range
        assert 4.0 <= fit_fourier1(series, (4.0, 1.7e308), grid_step=1e308).period <= 1.7e308

    def test_chunked_scan_gives_the_same_fit(self, monkeypatch):
        series = sample_series(GEN, np.arange(26.0), noise_sd=0.02, seed=4)
        t, y = np.asarray(series.t), np.asarray(series.y)
        grid = fitting._period_grid(4.0, 50.0, 0.05)
        monkeypatch.setattr(fitting, "_SCAN_ELEMENTS", grid.size * len(series))  # one chunk
        whole, whole_scan = fit_fourier1(series), fitting._scan_sse(t, y, grid)
        monkeypatch.setattr(fitting, "_SCAN_ELEMENTS", 3 * len(series) + 1)  # 3 periods per chunk
        assert fit_fourier1(series) == whole
        np.testing.assert_allclose(fitting._scan_sse(t, y, grid), whole_scan, rtol=1e-12, atol=0.0)

    def test_near_singular_periods_do_not_win(self):
        # integer years from 1996, a rising trend: at T = 1 cos is exactly
        # 1 and at T = 2 sin is rounding noise, where a plain closed form
        # divides by zero or fits the trend with the noise column. The fit
        # refuses periods below 2, so the scan scores them directly.
        t = np.arange(1996.0, 2022.0)
        rng = np.random.default_rng(5)
        y = 0.5 + 0.004 * (t - 1996) + 0.05 * np.sin(2 * np.pi * t / 7.5) + rng.normal(0.0, 0.01, t.size)
        grid = fitting._period_grid(1.0, 10.0, 0.05)
        scan = fitting._scan_sse(t, y, grid)
        ref = np.array([coeffs_and_sse(t, y, float(p))[1] for p in grid])
        assert np.isfinite(scan).all()
        np.testing.assert_allclose(scan, ref, rtol=1e-9, atol=0.0)
        assert 7.0 < grid[np.argmin(scan)] < 8.0

    def test_calendar_years_do_not_fit_rounding_noise(self):
        # at T = 2 on integer t, sin(pi t) is rounding noise of about 1e-12;
        # an lstsq that kept that column fitted the trend with it and
        # returned T = 2.0 with b1 = 7.2e10 over [2, 10]
        t, y = np.loadtxt(TREND, delimiter=",", unpack=True)
        fit = fit_fourier1(TimeSeries(tuple(t), tuple(y)), (2.0, 10.0))
        assert fit.period != 2.0
        assert max(abs(fit.a1), abs(fit.b1)) <= y.max() - y.min()

    def test_reported_numbers_match_the_oracle_at_the_period(self):
        # a0 = mean - a1 mean(cos) - b1 mean(sin), a1, b1 and the error of
        # the closed form against lstsq at the fitted period
        rng = np.random.default_rng(36)
        fits = 0
        for k in range(40):
            series = random_series(rng, integer_t=k % 2 == 0)
            if series.span < 2.0 or (fit := fit_fourier1(series)).degenerate:
                continue
            t, y = np.asarray(series.t), np.asarray(series.y)
            coef, sse = coeffs_and_sse(t, y, fit.period)
            np.testing.assert_allclose([fit.a0, fit.a1, fit.b1], coef, rtol=1e-9, atol=1e-12)
            assert fit.sse == pytest.approx(sse, rel=1e-9, abs=1e-12 * float(((y - y.mean()) ** 2).sum()))
            fits += 1
        assert fits > 30

    def test_aliased_periods_keep_the_smaller(self):
        # on integer t, T = 6 and T = 1.2 (1/1.2 = 1 - 1/6) fit equally well:
        # their scan errors tie within the fit's tolerance, so the first
        # (smaller) period of a grid that holds both would win
        series = sample_series(WaveParams(0.5, 0.1, 0.05, 6.0), np.arange(16.0))
        t, y = np.asarray(series.t), np.asarray(series.y)
        grid = fitting._period_grid(1.0, 7.0, 0.05)
        scan = fitting._scan_sse(t, y, grid)
        sst = float(((y - y.mean()) ** 2).sum())
        best = np.flatnonzero(scan <= scan.min() + fitting._SCAN_TIE * sst)
        assert grid[best[0]] == pytest.approx(1.2, rel=1e-9)
        assert grid[best[-1]] == pytest.approx(6.0, rel=1e-9)

    def test_rejects_periods_below_twice_the_smallest_step(self):
        # y = 0.5 t + sin(2 pi t / 7.5) on t = 0..25 once fitted T = 1.000001
        # with b1 = -67607 over [1, 10]
        t = np.arange(26.0)
        series = TimeSeries(tuple(t), tuple(0.5 * t + np.sin(2 * np.pi * t / 7.5)))
        with pytest.raises(ValueError, match="period range starts at 1.0, below 2.0, twice the smallest time step"):
            fit_fourier1(series, (1.0, 10.0))
        assert 2.0 <= fit_fourier1(series, (2.0, 10.0)).period <= 10.0
        # the smallest step counts, wherever it is
        uneven = sample_series(GEN, [0.0, 3.0, 6.0, 7.5, 10.5, 13.5, 16.5])
        with pytest.raises(ValueError, match="below 3.0"):
            fit_fourier1(uneven, (2.9, 20.0))
        assert fit_fourier1(uneven, (3.0, 20.0)).period >= 3.0
        # the default range [4, 2 * span] too
        with pytest.raises(ValueError, match="period range starts at 4.0, below 6.0"):
            fit_fourier1(sample_series(GEN, np.arange(0.0, 30.0, 3.0)))

    def test_rejects_oversized_grid_before_scanning(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the scan must not run")

        monkeypatch.setattr(fitting, "_scan_sse", no_scan)
        series = sample_series(GEN, np.arange(26.0))
        for period_range, step in [((4.0, 50.0), 1e-9), ((4.0, math.inf), 0.05)]:
            with pytest.raises(ValueError, match="trial periods"):
                fit_fourier1(series, period_range, grid_step=step)

    def test_rejects_infinite_grid_step(self, monkeypatch):
        # an infinite step once gave the grid a NaN period and a LAPACK error;
        # a NaN step passed as one too large for its grid
        def no_scan(*args):
            raise AssertionError("the scan must not run")

        monkeypatch.setattr(fitting, "_scan_sse", no_scan)
        series = sample_series(GEN, np.arange(26.0))
        for period_range in (None, (4.0, 50.0)):
            for step in (math.inf, math.nan):
                with pytest.raises(ValueError, match="^grid step must be finite$"):
                    fit_fourier1(series, period_range, grid_step=step)


class TestBatchedScan:
    """Series on one t share a scan; each keeps the errors and the fit it has alone."""

    @staticmethod
    def block(rng, t, rows):
        """Rows of trend plus wave plus noise on the times t."""
        rel = t - t[0]
        return np.array([
            0.5 + rng.uniform(-0.02, 0.02) * rel
            + rng.uniform(0.0, 0.2) * np.cos(2 * np.pi * rel / rng.uniform(3.0, 25.0) + rng.uniform(0.0, 6.3))
            + rng.normal(0.0, 0.05, t.size)
            for _ in range(rows)
        ])

    @pytest.mark.parametrize("lo", [1.0, 2.0, 4.0])  # T = 1 and 2 are ill-conditioned on integer t
    def test_batch_equals_each_one_series_scan(self, lo):
        rng = np.random.default_rng(int(lo))
        t = np.arange(1996.0, 2022.0)
        ys = self.block(rng, t, 5)
        ys[2] = 0.4  # a constant series inside the batch
        grid = fitting._period_grid(lo, 50.0, 0.05)
        batch = fitting._scan_sse(t, ys, grid)
        assert batch.shape == (5, grid.size)
        for y, scan in zip(ys, batch):
            assert np.array_equal(scan, fitting._scan_sse(t, y, grid))

    def test_batch_across_scan_chunks(self, monkeypatch):
        rng = np.random.default_rng(11)
        t = np.arange(26.0)
        ys = self.block(rng, t, 4)
        grid = fitting._period_grid(4.0, 50.0, 0.05)
        monkeypatch.setattr(fitting, "_SCAN_ELEMENTS", 7 * ys.size + 3)  # 7 periods of the 4 series a chunk
        assert grid.size > 100 * 7
        batch = fitting._scan_sse(t, ys, grid)
        for y, scan in zip(ys, batch):
            assert np.array_equal(scan, fitting._scan_sse(t, y, grid))

    @pytest.mark.parametrize("rows", [1, 3, 12])
    def test_shared_grid_equals_the_grid_tiled_per_series(self, rows):
        # a grid from T = 2, where sin is rounding noise on integer t, so the
        # scan fits that period of every series on cos alone under
        # broadcasting, to the oracle's error
        rng = np.random.default_rng(rows)
        t = np.arange(1996.0, 2022.0)
        ys = self.block(rng, t, rows)
        grid = fitting._period_grid(2.0, 50.0, 0.05)
        assert [p for p in grid.tolist() if unsound(t, p)] == [2.0]
        shared = fitting._scan_sse(t, ys, grid)
        for y, sse in zip(ys, shared[:, 0]):
            assert sse == pytest.approx(coeffs_and_sse(t, y, 2.0)[1], rel=1e-9, abs=0.0)
        tiled = fitting._scan_sse(t, ys, np.tile(grid, (rows, 1)))
        assert np.array_equal(shared, tiled)
        for y, scan in zip(ys, shared):
            assert np.array_equal(scan, fitting._scan_sse(t, y, grid))

    @pytest.mark.parametrize("tile", [False, True])
    def test_chunks_bound_the_series_periods_points_block(self, tile, monkeypatch):
        # the bound cuts the grid mid-way into chunks of 7 periods, whose
        # residuals for 3 series are the largest array the scan takes a
        # product of; every period keeps the error of the whole-grid scan
        rng = np.random.default_rng(12)
        t = np.arange(1996.0, 2022.0)
        ys = self.block(rng, t, 3)
        grid = fitting._period_grid(2.0, 50.0, 0.05)
        periods = np.tile(grid, (3, 1)) if tile else grid
        monkeypatch.setattr(fitting, "_SCAN_ELEMENTS", ys.size * grid.size)  # one chunk
        whole = fitting._scan_sse(t, ys, periods)
        monkeypatch.setattr(fitting, "_SCAN_ELEMENTS", 7 * ys.size + 5)
        shapes = []
        einsum = np.einsum

        def recording(spec, *operands):
            shapes.extend(np.shape(op) for op in operands)
            return einsum(spec, *operands)

        monkeypatch.setattr(np, "einsum", recording)
        chunked = fitting._scan_sse(t, ys, periods)
        monkeypatch.undo()
        assert grid.size % 7 and len(shapes) > 100
        assert max(shapes, key=np.prod) == (3, 7, t.size)
        assert np.array_equal(chunked, whole)

    def test_batched_fits_equal_single_fits(self, monkeypatch):
        rng = np.random.default_rng(18)
        series = [random_series(rng, integer_t=k % 2 == 0) for k in range(12)]
        series = [s for s in series if s.span >= 2.0 and len(s) >= 4]
        t = np.arange(26.0)
        series += [TimeSeries(tuple(t), tuple(y)) for y in self.block(rng, t, 3)]
        series.insert(3, TimeSeries(tuple(t), (0.25,) * t.size))  # constant, on a shared t
        scans = []
        scan = fitting._scan_sse

        def counting(t, y, periods):
            scans.append(np.ndim(periods))  # a rescan has a row of periods per series
            return scan(t, y, periods)

        monkeypatch.setattr(fitting, "_scan_sse", counting)
        batch = fitting.fit_fourier1_batch(series)
        grid_scans = scans.count(1)
        scans.clear()
        alone = [fit_fourier1(s) for s in series]
        assert batch == alone
        assert batch[3].degenerate
        # one grid scan per distinct t
        assert grid_scans == len({s.t for s in series})

    def test_every_float_field_is_a_python_float(self):
        # an np.float64 compares and prints as the float it holds, so neither
        # batch == alone nor the golden report would show one
        rng = np.random.default_rng(20)
        t = np.arange(26.0)
        wave, tiny = self.block(rng, t, 2)
        series = [
            TimeSeries(tuple(t), tuple(wave.tolist())),
            TimeSeries(tuple(t), (0.25,) * t.size),  # constant, beside a live series
            TimeSeries(tuple(t), tuple((0.5 + 1e-12 * tiny).tolist())),  # amplitude below DEGENERATE_AMPLITUDE
            TimeSeries(tuple(t + 1.0), (0.4,) * t.size),  # the one series of its t, constant
        ]
        fits = fitting.fit_fourier1_batch(series)
        assert [fit.degenerate for fit in fits] == [False, True, True, True]
        for fit in fits:
            for name, value in vars(fit).items():
                if name != "degenerate" and value is not None:
                    assert type(value) is float, name

    def test_first_bad_series_raises_its_own_error(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the scan must not run")

        good = sample_series(GEN, np.arange(26.0))
        coarse = sample_series(GEN, np.arange(0.0, 30.0, 3.0))  # default range below its Nyquist floor
        with pytest.raises(ValueError) as alone:
            fit_fourier1(coarse)
        monkeypatch.setattr(fitting, "_scan_sse", no_scan)
        with pytest.raises(ValueError) as batched:
            fitting.fit_fourier1_batch([good, coarse, TimeSeries((0.0, 1.0, 2.0), (1.0, 2.0, 3.0))])
        assert str(batched.value) == str(alone.value)
        assert fitting.fit_fourier1_batch([]) == []


class TestBatchedRescans:
    """Every live series of a t-group is rescanned in one block per level;
    each keeps the periods, the stop and the fit it has alone."""

    @staticmethod
    def alone_refinement(t, y, lo, hi, grid_step):
        """The refined period of y by one-series rescans, as fit_fourier1
        refined before rescans were batched."""
        grid = fitting._period_grid(lo, hi, grid_step)
        scan = fitting._scan_sse(t, y, grid)
        sst = float(((y - y.mean()) ** 2).sum())
        period = float(grid[np.argmax(scan <= scan.min() + fitting._SCAN_TIE * sst)])
        step = min(grid_step, hi - lo)
        levels = 0
        while 2.0 * step > 1e-11 * max(1.0, period):
            trial = np.clip(period + step * np.arange(-10, 11), lo, hi)
            period = float(trial[np.argmin(fitting._scan_sse(t, y, trial))])
            step /= 10.0
            levels += 1
        return period, levels

    @staticmethod
    def twelve():
        """Twelve series on t = 0..25: waves of periods below and above 10,
        which stop one rescan level apart, a constant, and a trend with a
        period-2 swing whose rescans reach T = 2, where sin(pi t) is
        rounding noise."""
        t = np.arange(26.0)
        rng = np.random.default_rng(19)
        ys = [0.5 + 0.1 * np.sin(2 * np.pi * t / period + rng.uniform(0.0, 6.3)) + rng.normal(0.0, 0.02, t.size)
              for period in (4.5, 6.0, 7.7, 9.2, 12.0, 17.357, 23.0, 31.0, 44.0)]
        ys.append(np.full(t.size, 0.25))
        ys.append(0.4 + 0.003 * t + 0.05 * (-1.0) ** t + rng.normal(0.0, 0.001, t.size))
        ys.append(0.4 + 0.05 * (-1.0) ** t)
        return t, [TimeSeries(tuple(t), tuple(y)) for y in ys]

    def test_alone_and_in_batches_of_1_2_and_12(self, monkeypatch):
        t, series = self.twelve()
        period_range = (2.0, 50.0)
        alone = [fit_fourier1(s, period_range) for s in series]
        rows, weak = [], []
        scan = fitting._scan_sse

        def counting_scan(t, y, periods):
            sse = scan(t, y, periods)
            rows.append(len(periods) if np.ndim(periods) > 1 else 0)  # 0 for a grid scan
            if rows[-1]:  # each rescan row's error at T = 2, with its series
                weak.extend((y[i], sse[i, j]) for i, j in zip(*np.nonzero(periods == 2.0)))
            return sse

        monkeypatch.setattr(fitting, "_scan_sse", counting_scan)
        assert fitting.fit_fourier1_batch(series, period_range) == alone
        # one grid scan, then one block per level over the series still live
        assert rows[0] == 0 and all(rows[1:])
        assert rows[1] == len(series) - 1  # the constant series is not refined
        assert rows[-1] < rows[1]  # series stop at different levels
        # a rescan scored T = 2, where cos and sin are collinear, in closed form
        assert weak and unsound(t, 2.0)
        for y, sse in weak:  # to 1e-12 of the total sum of squares, where the fit is exact
            sst = float(((y - y.mean()) ** 2).sum())
            assert sse == pytest.approx(coeffs_and_sse(t, y, 2.0)[1], rel=1e-9, abs=1e-12 * sst)
        for size in (1, 2):
            batched = [fit for at in range(0, len(series), size)
                       for fit in fitting.fit_fourier1_batch(series[at : at + size], period_range)]
            assert batched == alone
        assert fitting.fit_fourier1_batch(series[::-1], period_range) == alone[::-1]

    def test_batched_periods_equal_one_series_rescans(self):
        t, series = self.twelve()
        fits = fitting.fit_fourier1_batch(series, (2.0, 50.0))
        levels = set()
        for one, fit in zip(series, fits):
            y = np.asarray(one.y)
            if fit.period is None:
                continue
            period, n = self.alone_refinement(t, y, 2.0, 50.0, fitting.DEFAULT_GRID_STEP)
            assert fit.period == period
            levels.add(n)
        assert len(levels) > 1

    def test_rescans_with_a_huge_step_stay_quiet(self):
        # 2 * step overflows for a step near the float limit; with the step a
        # Python float that gives inf and no warning (warnings are errors here)
        t, series = self.twelve()
        fits = fitting.fit_fourier1_batch(series[:3], (4.0, 1.7e308), grid_step=1e308)
        assert fits == [fit_fourier1(s, (4.0, 1.7e308), grid_step=1e308) for s in series[:3]]
        assert all(4.0 <= fit.period <= 1.7e308 for fit in fits)


class TestFourierExtrema:
    def test_ideal_wave_by_construction(self):
        hi, lo = wave_extrema(ideal_wave(1.5))
        assert hi == pytest.approx(2 / 3, abs=1e-15)
        assert lo == pytest.approx(0.5, abs=1e-15)

    def test_fitted_wave_amplitude_formula(self):
        fit = fit_fourier1(sample_series(GEN, np.arange(26.0)))
        hi, lo = fourier_extrema(fit)
        amp = math.hypot(0.060, 0.083)
        assert hi == pytest.approx(0.553 + amp, abs=1e-3)
        assert lo == pytest.approx(0.553 - amp, abs=1e-3)

    def test_degenerate_fit_rejected(self):
        fit = fit_fourier1(TimeSeries(tuple(np.arange(6.0)), (0.4,) * 6))
        with pytest.raises(ValueError):
            fourier_extrema(fit)


class TestFitNormal:
    def test_hand_example(self):
        nf = fit_normal([0.3, 0.5, 0.7])
        assert nf.mu == pytest.approx(0.5)
        assert nf.sigma == pytest.approx(0.2)
        # closed band [0.3, 0.7] contains all three samples
        assert nf.band_ratio == 1.0

    def test_all_equal_samples(self):
        nf = fit_normal([0.4, 0.4, 0.4, 0.4])
        assert nf.sigma == 0.0
        assert nf.band_ratio == 1.0

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            fit_normal([0.5])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_sample_that_is_not_finite(self, value):
        with pytest.raises(ValueError, match=f"^sample value {value!r} is not finite$"):
            fit_normal([0.3, value, 0.7])

    def test_recovers_truncated_normal_parameters(self):
        pdf = ControlPowerPdf(wave=WaveParams(0.0, 0.0, 0.0, 10.0))
        draws = pdf_sample(pdf, 0.0, 10_000, seed=12)
        nf = fit_normal(draws)
        assert nf.mu == pytest.approx(0.466, abs=0.01)
        assert nf.sigma == pytest.approx(0.165, abs=0.01)
        assert nf.band_ratio == pytest.approx(0.6827, abs=0.02)


def reference_normal(values):
    """fit_normal's (mu, sigma, band_ratio) as it was computed for one sample."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    mu = math.fsum(values.tolist()) / n
    d = values - mu
    sigma = math.sqrt(math.fsum((d * d).tolist()) / (n - 1))
    guard = 1e-12 * max(1.0, abs(mu) + sigma)
    lo, hi = mu - sigma - guard, mu + sigma + guard
    return mu, sigma, int(np.count_nonzero((lo <= values) & (values <= hi))) / n


class TestSegmentMoments:
    """The moments pass over a column equals fit_normal on each segment."""

    @staticmethod
    def segments(seed):
        rng = np.random.default_rng(seed)
        segments = [rng.uniform(0.0, 1.0, size).round(int(rng.integers(2, 6))) for size in rng.integers(0, 40, 12)]
        segments += [np.array([]), np.array([0.25]), np.array([0.1, 0.7]), np.full(7, 0.375)]
        # values exactly on a band edge: mu 0.5, sigma 0.2 and mu 2, sigma 1
        segments += [np.array([0.3, 0.5, 0.7]), np.array([1.0, 2.0, 3.0]), np.array([0.4, 0.3, 0.3])]
        order = rng.permutation(len(segments))
        return [segments[k] for k in order]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_each_segment_equals_fit_normal(self, seed):
        segments = self.segments(seed)
        values = np.concatenate(segments)
        cuts = np.cumsum([0] + [len(seg) for seg in segments]).tolist()
        moments = fitting._segment_moments(values, cuts)
        assert len(moments) == len(segments)
        for seg, got in zip(segments, moments):
            if len(seg) >= 2:
                nf = fit_normal(seg)
                assert got == (nf.mu, nf.sigma, nf.band_ratio) == reference_normal(seg)
            elif len(seg) == 1:
                assert got == (seg[0], None, None)
            else:
                assert got == (None, None, None)

    def test_band_edges_and_constants(self):
        values = np.array([0.3, 0.5, 0.7, 1.0, 2.0, 3.0, 0.375, 0.375, 0.375])
        moments = fitting._segment_moments(values, [0, 3, 6, 9])
        assert [band for *_, band in moments] == [1.0, 1.0, 1.0]
        assert moments[2] == (0.375, 0.0, 1.0)

    def test_counts_at_cuts(self):
        mask = np.array([True, False, True, True, False, True])
        assert fitting._cut_counts(mask, [0, 2, 2, 5, 6]) == [0, 1, 1, 3, 4]
        assert fitting._cut_counts(np.zeros(0, dtype=bool), [0, 0]) == [0, 0]


class TestPearson:
    def test_perfect_linear_relation(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        res = pearson(x, [2 * v + 1 for v in x])
        assert res.r == 1.0
        assert res.p_value == 0.0

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        y = 0.4 * x + rng.normal(size=30)
        base = pearson(x, y)
        assert pearson(y, x).r == pytest.approx(base.r, abs=1e-12)
        assert pearson(3.0 * x + 7.0, y).r == pytest.approx(base.r, abs=1e-12)
        assert pearson(x, -y).r == pytest.approx(-base.r, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1, 2], [3, 4])
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_value_that_is_not_finite(self, value):
        # max(-1.0, min(1.0, nan)) is 1.0: a NaN once read r = 1.0, p = 0.0
        with pytest.raises(ValueError, match=f"^x value {value!r} is not finite$"):
            pearson([1, 2, value, 4], [1, 2, 3, 5])
        with pytest.raises(ValueError, match=f"^y value {value!r} is not finite$"):
            pearson([1, 2, 3, 5], [1, 2, value, 4])


class TestPFromR:
    def test_zero_correlation(self):
        assert p_from_r(0.0, 15) == 1.0

    def test_reported_pairs(self):
        assert p_from_r(-0.545, 26) == pytest.approx(0.004, abs=0.001)
        assert p_from_r(-0.435, 26) == pytest.approx(0.026, abs=0.002)
        assert p_from_r(0.214, 26) == pytest.approx(0.294, abs=0.01)

    def test_unit_correlation_floors_at_zero(self):
        assert p_from_r(1.0, 10) == 0.0
        assert p_from_r(-1.0, 10) == 0.0

    def test_requires_three_samples(self):
        with pytest.raises(ValueError):
            p_from_r(0.5, 2)

    def test_monotone_in_magnitude(self):
        values = [p_from_r(r, 26) for r in np.linspace(0.0, 0.95, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_in_sample_size(self):
        values = [p_from_r(0.4, n) for n in range(3, 60)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_t_distribution(self):
        for r in (-0.8, -0.3, 0.1, 0.45, 0.9):
            for n in (5, 12, 26, 80):
                t = abs(r) * math.sqrt((n - 2) / (1 - r * r))
                expected = 2.0 * stats.t.sf(t, n - 2)
                assert p_from_r(r, n) == pytest.approx(expected, rel=1e-9)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)

    def test_against_scipy(self):
        shapes = [0.5, 1.0, 2.5, 12.0, 40.0]
        xs = np.linspace(0.01, 0.99, 25)
        for a in shapes:
            for b in shapes:
                for x in xs:
                    mine = regularized_incomplete_beta(a, b, float(x))
                    ref = float(special.betainc(a, b, x))
                    assert mine == pytest.approx(ref, rel=1e-10, abs=1e-12)

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from controlpower.evolution import (
    GOLDEN_LIMIT,
    LADDER_STATES,
    MIN_TRUNCATION_MASS,
    ControlPowerPdf,
    OscillationModel,
    WaveParams,
    collapse_walk,
    ideal_wave,
    oscillation_curves,
    pdf_eval,
    pdf_sample,
    ratio_sequence,
    wave_equation_residual,
    wave_eval,
    wave_extrema,
)

FIRST_FIVE = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(5, 8), Fraction(8, 13))
FITTED_WAVE = WaveParams(0.553, 0.060, -0.083, 17.357)


class TestRatioSequence:
    def test_first_five_states(self):
        assert ratio_sequence(5) == list(FIRST_FIVE)

    def test_ladder_states_are_the_first_five(self):
        assert LADDER_STATES == FIRST_FIVE

    def test_fibonacci_recurrence(self):
        # state p/q is followed by q/(p + q), from 1/2; consecutive Fibonacci
        # numbers are coprime, so the fractions stay unreduced
        seq = ratio_sequence(60)
        assert (seq[0].numerator, seq[0].denominator) == (1, 2)
        for a, b in zip(seq, seq[1:]):
            assert (b.numerator, b.denominator) == (a.denominator, a.numerator + a.denominator)

    def test_fifth_state_near_golden_limit(self):
        assert float(ratio_sequence(5)[-1]) / 0.618 == pytest.approx(0.9958, abs=5e-4)

    def test_converges_to_golden_limit(self):
        seq = ratio_sequence(25)
        assert abs(float(seq[-1]) - GOLDEN_LIMIT) < 1e-9

    def test_distance_to_limit_strictly_decreases(self):
        seq = ratio_sequence(20)
        gaps = [abs(float(v) - GOLDEN_LIMIT) for v in seq]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ratio_sequence(0)


class TestCollapseWalk:
    def test_full_episode(self):
        states = collapse_walk(4, seed=1, law=(0, 0, 0, 1))
        assert states == list(LADDER_STATES)

    def test_single_operation_episodes(self):
        states = collapse_walk(6, seed=1, law=(1, 0, 0, 0))
        assert states == [Fraction(1, 2), Fraction(2, 3)] * 6

    def test_truncates_final_episode(self):
        states = collapse_walk(3, seed=1, law=(0, 0, 0, 1))
        assert states == list(LADDER_STATES[:4])

    def test_visits_only_ladder_states(self):
        states = collapse_walk(500, seed=42)
        assert set(states) <= set(LADDER_STATES)

    def test_deterministic_given_seed(self):
        assert collapse_walk(200, seed=9) == collapse_walk(200, seed=9)

    def test_long_run_mean_between_half_and_two_thirds(self):
        states = collapse_walk(20000, seed=3)
        mean = sum(float(v) for v in states) / len(states)
        assert 0.5 <= mean <= 2 / 3

    def test_rejects_bad_law(self):
        with pytest.raises(ValueError):
            collapse_walk(5, seed=1, law=(0.5, 0.5))
        with pytest.raises(ValueError):
            collapse_walk(5, seed=1, law=(-1, 1, 0, 0))
        with pytest.raises(ValueError):
            collapse_walk(5, seed=1, law=(0, 0, 0, 0))

    def test_rejects_zero_operations(self):
        with pytest.raises(ValueError):
            collapse_walk(0, seed=1)


def walk_moments(k, law=(1, 1, 1, 1)):
    """The exact mean and variance of each of the first k states of
    collapse_walk under ``law``, from the chain on (position, run length):
    an episode of run length m visits positions 0..m, then a fresh run
    length is drawn and the walk restarts at position 0. No sampling."""
    weights = [Fraction(w, sum(law)) for w in law]
    chance = {(0, m): w for m, w in enumerate(weights, start=1)}
    moments = []
    for _ in range(k):
        mean = sum(p * LADDER_STATES[j] for (j, _), p in chance.items())
        moments.append((mean, sum(p * LADDER_STATES[j] ** 2 for (j, _), p in chance.items()) - mean**2))
        after = {}
        for (j, m), p in chance.items():
            for state, q in [((j + 1, m), p)] if j < m else [((0, n), p * w) for n, w in enumerate(weights, 1)]:
                after[state] = after.get(state, 0) + q
        chance = after
    return moments


class TestWalkMean:
    """The walk's ensemble mean settles at one value and has no period 12:
    ``ideal_wave`` is the paper's stated result, not derived from it."""

    LIMIT = Fraction(6499, 10920)

    def test_limit_is_the_mean_state_per_episode(self):
        # renewal reward: the states of an episode over its length, m + 1
        total = sum(sum(LADDER_STATES[: m + 1]) for m in range(1, 5))
        assert total / sum(m + 1 for m in range(1, 5)) == self.LIMIT

    def test_mean_settles_without_a_wave(self):
        means = [mean for mean, _ in walk_moments(64)]
        assert means[:5] == [Fraction(1, 2), Fraction(2, 3), Fraction(23, 40), Fraction(29, 48),
                             Fraction(3677, 6240)]
        assert abs(means[20] - self.LIMIT) < Fraction(61, 10**6)
        assert abs(means[40] - self.LIMIT) < Fraction(54, 10**9)
        # a wave between 1/2 and 2/3 would span 1/6 over any 12 states
        assert max(means[40:]) - min(means[40:]) < Fraction(1, 10**7)

    def test_draws_match_the_exact_means(self):
        # each state's sample mean over 2,000 walks lies within 4.5 of its
        # standard errors of the exact mean (exact equality where it never varies)
        walks, k = 2000, 25
        draws = [collapse_walk(k - 1, seed=seed) for seed in range(walks)]
        for j, (mean, variance) in enumerate(walk_moments(k)):
            sample = sum(walk[j] for walk in draws) / walks
            assert float(abs(sample - mean)) <= 4.5 * math.sqrt(variance / walks), j


class TestIdealWave:
    def test_period_is_twelve_h(self):
        assert ideal_wave(1.5).period == 18.0
        assert ideal_wave(1.0).period == 12.0

    def test_extrema_exact(self):
        hi, lo = wave_extrema(ideal_wave(1.5))
        assert hi == Fraction(2, 3)
        assert lo == Fraction(1, 2)

    def test_starts_at_mean_rising(self):
        wave = ideal_wave(1.5)
        assert wave_eval(wave, 0.0) == pytest.approx(7 / 12, abs=1e-15)
        assert wave_eval(wave, 0.1) > wave_eval(wave, 0.0)

    def test_rejects_non_positive_h(self):
        with pytest.raises(ValueError):
            ideal_wave(0.0)

    @pytest.mark.parametrize("h", [math.inf, math.nan, 1e308])
    def test_rejects_h_without_a_finite_period(self, h):
        # 1e308 is finite, but the period 12h is not
        with pytest.raises(ValueError, match="12\\*h finite"):
            ideal_wave(h)


class TestWaveEval:
    def test_fitted_wave_at_origin(self):
        assert wave_eval(FITTED_WAVE, 0.0) == pytest.approx(0.613, abs=1e-15)

    def test_periodicity(self):
        for t in (0.0, 1.7, 5.2, 11.0):
            assert wave_eval(FITTED_WAVE, t) == pytest.approx(
                wave_eval(FITTED_WAVE, t + FITTED_WAVE.period), abs=1e-12
            )

    def test_max_equals_mean_plus_amplitude(self):
        ts = np.linspace(0.0, FITTED_WAVE.period, 200001)
        observed = max(wave_eval(FITTED_WAVE, t) for t in ts)
        assert observed == pytest.approx(0.553 + math.hypot(0.060, 0.083), abs=1e-8)

    def test_range_bounded_by_amplitude(self):
        hi, lo = wave_extrema(FITTED_WAVE)
        for t in np.linspace(-30, 30, 500):
            assert lo - 1e-12 <= wave_eval(FITTED_WAVE, t) <= hi + 1e-12

    def test_argmax_invariant_under_common_scaling(self):
        ts = np.linspace(0.0, FITTED_WAVE.period, 5001)
        scaled = WaveParams(0.553, 0.060 * 3.7, -0.083 * 3.7, 17.357)
        base_argmax = max(ts, key=lambda t: wave_eval(FITTED_WAVE, t))
        scaled_argmax = max(ts, key=lambda t: wave_eval(scaled, t))
        assert base_argmax == scaled_argmax

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            WaveParams(0.5, 0.1, 0.0, 0.0)


class TestWaveEquationResidual:
    def test_exact_pairing_vanishes(self):
        for t in np.linspace(0.0, 17.357, 101):
            assert abs(wave_equation_residual(FITTED_WAVE, 1.5, t)) < 1e-15

    def test_exact_pairing_for_other_parameters(self):
        wave = WaveParams(0.6, 0.02, 0.05, 7.3)
        for h in (0.5, 1.0, 2.5):
            for t in np.linspace(0.0, 14.6, 31):
                assert abs(wave_equation_residual(wave, h, t, operations_period=wave.period / h)) < 1e-14

    def test_reported_pairing_is_small(self):
        residuals = [
            abs(wave_equation_residual(FITTED_WAVE, 1.5, t, operations_period=11.571))
            for t in np.linspace(0.0, 17.357, 2001)
        ]
        assert max(residuals) < 5e-6

    def test_matches_central_difference_oracle(self):
        # independent finite-difference evaluation of both second derivatives
        step = 1e-3
        h = 1.5
        t_l = 11.571
        l_wave = WaveParams(FITTED_WAVE.a0, FITTED_WAVE.a1, FITTED_WAVE.b1, t_l)

        def fd2(f, x):
            return (f(x + step) - 2.0 * f(x) + f(x - step)) / step**2

        for t in np.linspace(0.3, 17.0, 25):
            analytic = wave_equation_residual(FITTED_WAVE, h, t, operations_period=t_l)
            numeric = fd2(lambda u: wave_eval(FITTED_WAVE, u), t) - fd2(
                lambda u: wave_eval(l_wave, u), t / h
            ) / h**2
            assert analytic == pytest.approx(numeric, abs=1e-4)

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            wave_equation_residual(FITTED_WAVE, 0.0, 1.0)


class TestControlPowerPdf:
    def make_pdf(self):
        return ControlPowerPdf(wave=FITTED_WAVE, mu=0.466, sigma=0.165)

    def test_atom_at_origin(self):
        assert pdf_eval(self.make_pdf(), 1.0, 0.0) == pytest.approx(0.613, abs=1e-15)

    def test_total_mass_is_one(self):
        pdf = self.make_pdf()
        for t in (0.0, 3.3, 9.1, 20.0):
            cont, _ = integrate.quad(lambda x: pdf_eval(pdf, x, t), 0.0, 1.0, epsabs=1e-12)
            assert pdf.atom(t) + cont == pytest.approx(1.0, abs=1e-9)

    def test_continuous_branch_peaks_at_mu(self):
        pdf = self.make_pdf()
        xs = np.linspace(0.001, 0.999, 4999)
        dens = [pdf_eval(pdf, x, 0.0) for x in xs]
        assert xs[int(np.argmax(dens))] == pytest.approx(0.466, abs=1e-3)

    def test_rejects_out_of_support(self):
        pdf = self.make_pdf()
        for bad in (0.0, -0.2, 1.0001):
            with pytest.raises(ValueError):
                pdf_eval(pdf, bad, 0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ControlPowerPdf(wave=FITTED_WAVE, sigma=0.0)
        with pytest.raises(ValueError):
            ControlPowerPdf(wave=WaveParams(0.9, 0.2, 0.0, 10.0))

    def test_rejects_normal_mass_below_floor(self):
        # mu = -0.5 (or 1.5) keeps 0.0012 of the normal in (0, 1), mu = -0.51
        # (or 1.51) 0.000998, just below the floor; mu = 5 at sigma 0.01
        # keeps none and made pdf_sample loop forever
        for mu in (-0.5, 1.5):
            pdf = ControlPowerPdf(wave=FITTED_WAVE, mu=mu)
            assert MIN_TRUNCATION_MASS <= pdf._truncation_mass() < 1.3e-3
            assert pdf_sample(pdf, 0.0, 50, seed=1).size == 50
        for mu, sigma in ((-0.51, 0.165), (1.51, 0.165), (5.0, 0.01), (math.nan, 0.165)):
            with pytest.raises(ValueError, match="mass"):
                ControlPowerPdf(wave=FITTED_WAVE, mu=mu, sigma=sigma)


class TestPdfSample:
    def test_degenerate_atom_draws_only_ones(self):
        pdf = ControlPowerPdf(wave=WaveParams(1.0, 0.0, 0.0, 10.0))
        draws = pdf_sample(pdf, 0.0, 1000, seed=4)
        assert np.all(draws == 1.0)

    def test_atom_fraction_concentrates(self):
        pdf = ControlPowerPdf(wave=FITTED_WAVE)
        draws = pdf_sample(pdf, 0.0, 100_000, seed=5)
        assert np.mean(draws == 1.0) == pytest.approx(0.613, abs=0.01)

    def test_continuous_moments(self):
        pdf = ControlPowerPdf(wave=WaveParams(0.0, 0.0, 0.0, 10.0))
        draws = pdf_sample(pdf, 0.0, 100_000, seed=6)
        assert np.all((draws > 0.0) & (draws < 1.0))
        assert draws.mean() == pytest.approx(0.466, abs=0.01)
        assert draws.std(ddof=1) == pytest.approx(0.165, abs=0.01)

    def test_deterministic_given_seed(self):
        pdf = ControlPowerPdf(wave=FITTED_WAVE)
        a = pdf_sample(pdf, 2.0, 500, seed=11)
        b = pdf_sample(pdf, 2.0, 500, seed=11)
        assert np.array_equal(a, b)

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            pdf_sample(ControlPowerPdf(wave=FITTED_WAVE), 0.0, 0, seed=1)

    @pytest.mark.parametrize("pdf, t, n, seed, expected", [
        (ControlPowerPdf(wave=ideal_wave(1.5)), 3.0, 8, 11,
         [1.0, 1.0, 1.0, 1.0, 1.0, 0.5892361266823298, 1.0, 1.0]),
        (ControlPowerPdf(wave=ideal_wave(1.5), mu=1.2, sigma=0.3), 7.0, 10, 4,
         [0.7520649945107303, 1.0, 0.6253063326125098, 1.0, 1.0, 1.0, 0.935806044621661, 1.0,
          0.9983955958024032, 1.0]),
        # a quarter of the normal mass in (0, 1), so a second normal round fills the draws
        (ControlPowerPdf(wave=WaveParams(0.0, 0.0, 0.0, 10.0), mu=1.2, sigma=0.3), 0.0, 6, 4,
         [0.7175436647440833, 0.7520649945107303, 0.6253063326125098, 0.935806044621661,
          0.9983955958024032, 0.6511187929663947]),
    ])
    def test_pinned_stream(self, pdf, t, n, seed, expected):
        # draws recorded from the per-year sampler that synth_outcomes' block
        # sampler replaced; pdf_sample, its one-year case, keeps them
        assert pdf_sample(pdf, t, n, seed=seed).tolist() == expected


class TestOscillation:
    model = OscillationModel(share_amplitude=0.03, effort_amplitude=0.8, period=18.0)

    def test_product_identity(self):
        for t in np.linspace(0.0, 36.0, 400):
            s_r, e_r, s_2_10 = oscillation_curves(self.model, t)
            assert s_r * e_r == pytest.approx(s_2_10, abs=1e-12)

    def test_co_holder_period_is_half(self):
        for t in np.linspace(0.0, 18.0, 200):
            a = oscillation_curves(self.model, t)[2]
            b = oscillation_curves(self.model, t + self.model.period / 2)[2]
            assert a == pytest.approx(b, abs=1e-12)

    def test_co_holder_curve_non_positive_touching_zero(self):
        values = [oscillation_curves(self.model, t)[2] for t in np.linspace(0.0, 18.0, 1441)]
        assert all(v <= 1e-12 for v in values)
        assert max(values) == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            OscillationModel(0.0, 1.0, 10.0)

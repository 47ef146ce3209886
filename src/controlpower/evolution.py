"""Dynamic models of the top shareholder's power.

The probability that the leading shareholder secures full control climbs a
ladder of Fibonacci ratios (1/2, 2/3, 3/5, 5/8, 8/13) and is randomly
knocked back to 1/2. Averaged over interruptions the process behaves as a
harmonic oscillation between 1/2 and 2/3 with period 12 evolution steps,
i.e. 12*h years when one step takes h years. This module provides the
ladder itself, the interrupted walk, the resulting wave, its wave-equation
residual, the mixed point-mass/truncated-normal distribution of the power
value, and the share/effort oscillation curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

UNIFORM_LAW = (0.25, 0.25, 0.25, 0.25)
GOLDEN_LIMIT = (math.sqrt(5.0) - 1.0) / 2.0
# Least normal mass in (0, 1) a ControlPowerPdf may have; below it the
# rejection sampler of pdf_sample would need about 1/mass draws per value
# (and none at all at zero mass).
MIN_TRUNCATION_MASS = 1e-3


def ratio_sequence(k: int) -> list[Fraction]:
    """First k states of the probability ladder, as exact rationals.

    The states are F(j)/F(j+1) of consecutive Fibonacci numbers for
    j = 2, 3, ..., made by the growth iteration (cur, prev) ->
    (cur + prev, cur) from (1, 1), so the sequence runs 1/2, 2/3, 3/5,
    5/8, 8/13, ... toward (sqrt(5)-1)/2.
    """
    if k < 1:
        raise ValueError("need at least one state")
    out = []
    cur, prev = 1, 1
    for _ in range(k):
        cur, prev = cur + prev, cur
        out.append(Fraction(prev, cur))
    return out


LADDER_STATES = tuple(ratio_sequence(5))


def collapse_walk(
    n_operations: int,
    seed: int,
    law: Sequence[float] = UNIFORM_LAW,
) -> list[Fraction]:
    """Interrupted ladder walk: climb from 1/2, reset to 1/2, repeat.

    Each episode draws a run length m in {1, 2, 3, 4} from ``law`` and
    visits the first m+1 ladder states before the next reset. The walk
    stops once ``n_operations`` climb operations have happened, truncating
    the final episode if needed. Deterministic for a given seed.
    """
    if n_operations < 1:
        raise ValueError("need at least one operation")
    law = tuple(float(p) for p in law)
    if len(law) != 4 or any(p < 0 for p in law) or sum(law) <= 0:
        raise ValueError("interruption law must be 4 non-negative weights with positive sum")
    probs = np.asarray(law) / sum(law)
    rng = np.random.default_rng(seed)
    states: list[Fraction] = []
    done = 0
    while done < n_operations:
        m = int(rng.choice(4, p=probs)) + 1
        m = min(m, n_operations - done)
        states.extend(LADDER_STATES[: m + 1])
        done += m
    return states


@dataclass(frozen=True)
class WaveParams:
    """First-order Fourier wave a0 + a1*cos(2*pi*t/T) + b1*sin(2*pi*t/T).

    Coefficients may be floats or Fractions; exact coefficients keep the
    extrema of constructed waves exact.
    """

    a0: float | Fraction
    a1: float | Fraction
    b1: float | Fraction
    period: float

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError("period must be positive")

    @property
    def amplitude(self) -> float | Fraction:
        # stay exact when one coefficient vanishes
        if self.a1 == 0:
            return abs(self.b1)
        if self.b1 == 0:
            return abs(self.a1)
        return math.hypot(float(self.a1), float(self.b1))

    @property
    def phase(self) -> float:
        """Angle p with wave = a0 + amplitude*cos(2*pi*t/T - p)."""
        return math.atan2(float(self.b1), float(self.a1))


def ideal_wave(h: float) -> WaveParams:
    """Idealized full-power-ratio wave implied by the interrupted ladder.

    Mean 7/12, amplitude 1/12 (so minimum 1/2 and maximum 2/3), period
    12*h years for h years per evolution step. Phase puts the wave at its
    mean and rising at t = 0; only origin-invariant properties (extrema,
    period) are contractual. Needs a positive h with 12*h finite.
    """
    if not 0 < 12.0 * h < math.inf:
        raise ValueError("h must be positive and 12*h finite")
    return WaveParams(a0=Fraction(7, 12), a1=Fraction(0), b1=Fraction(1, 12), period=12.0 * h)


def wave_eval(params: WaveParams, t: float) -> float:
    """Evaluate the wave at time t (years)."""
    theta = 2.0 * math.pi * t / params.period
    return float(params.a0) + float(params.a1) * math.cos(theta) + float(params.b1) * math.sin(theta)


def wave_extrema(params: WaveParams):
    """(max, min) attained by the wave; exact when the params are exact."""
    amp = params.amplitude
    return params.a0 + amp, params.a0 - amp


def wave_equation_residual(
    params: WaveParams,
    h: float,
    t: float,
    operations_period: float | None = None,
) -> float:
    """d2R/dt2 - (1/h^2) d2R/dl2 at time t, with l = t/h.

    The time branch uses the wave's own period; the operation branch uses
    ``operations_period`` when given, else period/h. With the exact
    pairing the chain rule forces the residual to zero; an independently
    rounded operations period leaves a small nonzero remainder.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    a1, b1 = float(params.a1), float(params.b1)
    w_t = 2.0 * math.pi / params.period
    d2_dt2 = w_t * w_t * (-a1 * math.cos(w_t * t) - b1 * math.sin(w_t * t))
    t_l = params.period / h if operations_period is None else float(operations_period)
    if not t_l > 0:
        raise ValueError("operations period must be positive")
    w_l = 2.0 * math.pi / t_l
    l = t / h
    d2_dl2 = w_l * w_l * (-a1 * math.cos(w_l * l) - b1 * math.sin(w_l * l))
    return d2_dt2 - d2_dl2 / (h * h)


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class ControlPowerPdf:
    """Mixed distribution of the top shareholder's power value.

    A point mass at exactly 1, with time-varying weight given by ``wave``,
    plus a normal branch restricted to (0, 1) and renormalized there so
    total mass is exactly 1 at every t.
    """

    wave: WaveParams
    mu: float = 0.466
    sigma: float = 0.165

    SUPPORT = (0.0, 1.0)

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        mass = self._truncation_mass()
        if not mass >= MIN_TRUNCATION_MASS:
            raise ValueError(
                f"normal(mu={self.mu}, sigma={self.sigma}) puts {mass:.3g} of its mass in (0, 1),"
                f" below the {MIN_TRUNCATION_MASS} needed to sample it"
            )
        hi, lo = wave_extrema(self.wave)
        if float(lo) < -1e-12 or float(hi) > 1.0 + 1e-12:
            raise ValueError("point-mass weight must stay within [0, 1] over time")

    def atom(self, t: float) -> float:
        """Weight of the point mass at power 1 at time t."""
        return min(1.0, max(0.0, wave_eval(self.wave, t)))

    def _truncation_mass(self) -> float:
        lo, hi = self.SUPPORT
        return _norm_cdf((hi - self.mu) / self.sigma) - _norm_cdf((lo - self.mu) / self.sigma)


def pdf_eval(pdf: ControlPowerPdf, spi: float, t: float) -> float:
    """Mass at spi = 1, or density on (0, 1), at time t."""
    if spi == 1.0:
        return pdf.atom(t)
    if not 0.0 < spi < 1.0:
        raise ValueError("power value must lie in (0, 1]")
    z = (spi - pdf.mu) / pdf.sigma
    density = _norm_pdf(z) / (pdf.sigma * pdf._truncation_mass())
    return (1.0 - pdf.atom(t)) * density


def pdf_sample(
    pdf: ControlPowerPdf,
    t: float,
    n: int,
    seed: int | None = None,
    *,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw n power values at time t: exact 1.0 with probability atom(t),
    otherwise a truncated-normal value in (0, 1). Deterministic given a
    seed (or a caller-owned generator).
    """
    if n < 1:
        raise ValueError("need at least one draw")
    if rng is None:
        rng = np.random.default_rng(seed)
    atom = pdf.atom(t)
    out = np.ones(n, dtype=float)
    cont = rng.random(n) >= atom
    need = int(cont.sum())
    draws = np.empty(0, dtype=float)
    while draws.size < need:
        batch = rng.normal(pdf.mu, pdf.sigma, size=max(need - draws.size, 16))
        batch = batch[(batch > 0.0) & (batch < 1.0)]
        draws = np.concatenate([draws, batch])
    out[cont] = draws[:need]
    return out


@dataclass(frozen=True)
class OscillationModel:
    """Amplitudes and period of the share-rate / effort oscillation."""

    share_amplitude: float
    effort_amplitude: float
    period: float

    def __post_init__(self):
        if not (self.share_amplitude > 0 and self.effort_amplitude > 0 and self.period > 0):
            raise ValueError("amplitudes and period must be positive")


def oscillation_curves(model: OscillationModel, t: float) -> tuple[float, float, float]:
    """(share deviation, effort, co-holders' share deviation) at time t.

    The share and effort curves are antiphase cosines of period T; their
    product collapses to a non-positive cosine of period T/2, which is the
    co-holders' curve (proportionality constant fixed at 1).
    """
    theta = 2.0 * math.pi * t / model.period
    s_r = model.share_amplitude * math.cos(theta + math.pi)
    e_r = model.effort_amplitude * math.cos(theta)
    half_theta = 2.0 * math.pi * t / (model.period / 2.0)
    s_2_10 = 0.5 * model.share_amplitude * model.effort_amplitude * (math.cos(half_theta + math.pi) - 1.0)
    return s_r, e_r, s_2_10

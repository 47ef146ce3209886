"""End-to-end statistics pipeline: per-year aggregates by experiment
group, Fourier and normal fits, oscillation-prediction diagnostics,
macro correlations, and machine-readable report emission.

The pipeline is a pure function of its inputs: records are canonically
sorted before any aggregation, every random element lives in the seeded
generators of the dataset module, and reports serialize with sorted keys,
so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from . import __version__
from .dataset import (
    DataError,
    FirmYearRecord,
    GroupKey,
    SynthConfig,
    apply_sample_filter,
    group_records,
    records_to_csv_bytes,
    synth_outcomes,
    synth_registry,
)
from .evolution import wave_eval
from .fitting import (
    DEFAULT_GRID_STEP,
    CorrelationResult,
    FourierFit,
    TimeSeries,
    check_period_grid,
    fit_fourier1,
    fit_normal,
    fourier_extrema,
    pearson,
)
from .power_index import top_holder_numerators

SPI_MODES = ("top9", "top10", "top11")
SERIES_NAMES = ("r_spi_1", "m_top1", "m_top2_10")
MIN_FIT_YEARS = 4
PERIOD_RATIO_EXPECTED = 0.5
PERIOD_RATIO_RTOL = 0.05
PHASE_DIFF_EXPECTED = math.pi
PHASE_DIFF_TOL = 0.1


@dataclass(frozen=True)
class YearStats:
    """Aggregates for one (group, year) cell."""

    year: int
    n_sample: int
    r_spi_1: float | None = None
    m_top1: float | None = None
    m_top1_sd: float | None = None
    m_top2_10: float | None = None
    m_top2_10_sd: float | None = None
    meeting_ratio_mean: float | None = None
    meeting_ratio_sd: float | None = None
    band_count_ratio: float | None = None
    n_meeting: int = 0
    r_spi_1_top9: float | None = None
    r_spi_1_top10: float | None = None
    r_spi_1_top11: float | None = None
    n_top11: int = 0
    spi_lt1_mean: float | None = None
    spi_lt1_sd: float | None = None
    spi_lt1_band: float | None = None
    n_spi_lt1: int = 0

    def __post_init__(self):
        if self.n_sample < 0:
            raise ValueError("sample size must be non-negative")
        for name in (
            "r_spi_1", "band_count_ratio",
            "r_spi_1_top9", "r_spi_1_top10", "r_spi_1_top11",
            "spi_lt1_mean", "spi_lt1_band",
        ):
            v = getattr(self, name)
            if v is not None and not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name}={v} outside [0, 1]")
        # meeting attendance may include holders outside the top 10, so the
        # attendance quotient is only bounded below
        if self.meeting_ratio_mean is not None and self.meeting_ratio_mean < 0:
            raise ValueError("meeting ratio cannot be negative")


def _moments(values: Sequence[float]) -> tuple[float | None, float | None, float | None]:
    """Mean, n-1 SD and band ratio by ``fit_normal``'s rule; None where
    there are too few values to define one."""
    if len(values) < 2:
        return (values[0] if values else None), None, None
    nf = fit_normal(values)
    return nf.mu, nf.sigma, nf.band_ratio


def _full_ratio(values: Sequence[float]) -> float | None:
    return sum(1 for v in values if v == 1.0) / len(values) if values else None


def _power_fields(values: Sequence[float]) -> dict:
    """Full-power ratio and the below-full summary of float power values.

    Comparing with 1.0 is exact: pipeline games have at most 11 players,
    so a power below 1 is at most 1 - 1/11! (about 1 - 2.5e-8) and stays
    apart from 1 as a float.
    """
    lt1 = [v for v in values if v != 1.0]
    mean, sd, band = _moments(lt1)
    return {
        "r_spi_1": _full_ratio(values),
        "spi_lt1_mean": mean,
        "spi_lt1_sd": sd,
        "spi_lt1_band": band,
        "n_spi_lt1": len(lt1),
    }


# the game of one record in each mode, None where the mode has none: top11
# adds the meeting attendance beyond the top 10, clipped at zero
_MODE_ROWS = {
    "top9": lambda r: r.shares[:9],
    "top10": lambda r: r.shares,
    "top11": lambda r: (
        None if r.meeting_share is None else r.shares + (max(r.meeting_share - r.top_total, 0.0),)
    ),
}


def _batch_powers(rows: Sequence[tuple[float, ...] | None]) -> list[float | None]:
    """Float top-holder power of every row's game in one batch; None stays None."""
    # int true division is correctly rounded: the float of the exact power
    values = iter([num / n_fact for num, n_fact in top_holder_numerators([x for x in rows if x is not None])])
    return [None if x is None else next(values) for x in rows]


def _cell_stats(
    records: Sequence[FirmYearRecord], powers: Mapping[str, Sequence[float | None]], spi_mode: str
) -> YearStats:
    """Aggregates of one (group, year) cell from its records' precomputed
    powers in each mode (aligned with ``records``)."""
    top11 = [v for v in powers["top11"] if v is not None]

    m_top1, m_top1_sd, _ = _moments([r.top1 for r in records])
    m_top2_10, m_top2_10_sd, _ = _moments([r.top2_10 for r in records])
    ratios = [r.meeting_share / r.top_total for r in records if r.meeting_share is not None and r.top_total > 0]
    ratio_mean, ratio_sd, band = _moments(ratios)

    return YearStats(
        year=records[0].year,
        n_sample=len(records),
        m_top1=m_top1,
        m_top1_sd=m_top1_sd,
        m_top2_10=m_top2_10,
        m_top2_10_sd=m_top2_10_sd,
        meeting_ratio_mean=ratio_mean,
        meeting_ratio_sd=ratio_sd,
        band_count_ratio=band,
        n_meeting=len(ratios),
        r_spi_1_top9=_full_ratio(powers["top9"]),
        r_spi_1_top10=_full_ratio(powers["top10"]),
        r_spi_1_top11=_full_ratio(top11),
        n_top11=len(top11),
        **_power_fields(top11 if spi_mode == "top11" else powers[spi_mode]),
    )


def _group_stats(members: Sequence[FirmYearRecord], spi_mode: str) -> list[YearStats]:
    """Per-year aggregates of one group's year-ordered records (each year
    one contiguous run), with one power batch per mode. The modes run one
    after the other, so only one mode's rows are alive at a time."""
    if spi_mode == "top11":
        missing = next((r for r in members if r.meeting_share is None), None)
        if missing is not None:
            raise DataError(f"firm {missing.firm_id} year {missing.year}: top11 mode needs meeting_share")
    powers = {mode: _batch_powers([row(r) for r in members]) for mode, row in _MODE_ROWS.items()}
    stats = []
    at = 0
    for _, cell in itertools.groupby(members, key=attrgetter("year")):
        cell = list(cell)
        end = at + len(cell)
        stats.append(_cell_stats(cell, {mode: p[at:end] for mode, p in powers.items()}, spi_mode))
        at = end
    return stats


def year_stats(records: Sequence[FirmYearRecord], spi_mode: str = "top10") -> YearStats:
    """Aggregate one group-year: power ratios, share means, meeting ratios.

    All records must belong to the same (group, year); this is the
    one-cell case of the per-group path a report runs. The leading
    holder's power is computed exactly for every firm in one batch per
    mode (top9, top10, top11); firms below full power under the requested
    mode feed the normal-fit fields.
    """
    if not records:
        raise ValueError("no records for this group-year")
    keys = {(r.group, r.year) for r in records}
    if len(keys) != 1:
        raise ValueError("records span more than one (group, year) cell")
    if spi_mode not in SPI_MODES:
        raise ValueError(f"unknown spi mode {spi_mode!r}")
    return _group_stats(records, spi_mode)[0]


def year_stats_from_draws(year: int, draws: Sequence[float]) -> YearStats:
    """Aggregate a year of raw power draws (no registry, no share data)."""
    values = [float(v) for v in draws]
    if not values:
        raise ValueError("no draws for this year")
    return YearStats(year=year, n_sample=len(values), **_power_fields(values))


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline settings. ``workers`` is accepted for compatibility and has
    no effect: every cell runs in the calling thread, and it must be at
    least 1."""

    spi_mode: str = "top10"
    min_sample: int = 50
    h: float = 1.5
    period_range: tuple[float, float] | None = None
    grid_step: float = DEFAULT_GRID_STEP
    workers: int = 1
    macros: Mapping[str, Mapping[int, float]] = field(default_factory=dict)

    def __post_init__(self):
        if self.spi_mode not in SPI_MODES:
            raise ValueError(f"unknown spi mode {self.spi_mode!r}")
        if self.min_sample < 1:
            raise ValueError("minimum sample size must be positive")
        if self.workers < 1:
            raise ValueError("worker count must be positive")
        if not self.h > 0:
            raise ValueError("h must be positive")
        # before any work; a default range needs a group's span, so run_pipeline
        # checks it once the records are grouped
        check_period_grid(self.period_range, self.grid_step)


@dataclass(frozen=True)
class Diagnostics:
    """Oscillation-prediction checks with the tolerances they were held to."""

    period_ratio: float | None
    period_ratio_expected: float
    period_ratio_rtol: float
    period_ratio_ok: bool | None
    phase_diff: float | None
    phase_diff_expected: float
    phase_diff_tol: float
    phase_diff_ok: bool | None


@dataclass(frozen=True)
class GroupReport:
    group: GroupKey
    years: tuple[YearStats, ...]
    fitted_years: tuple[int, ...]
    fits: dict[str, FourierFit]
    extrema: dict[str, tuple[float, float]]
    diagnostics: Diagnostics
    correlations: dict[str, dict[str, CorrelationResult]]


@dataclass(frozen=True)
class Report:
    version: str
    provenance: dict
    groups: dict[GroupKey, GroupReport]

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "provenance": dict(self.provenance),
            "groups": {
                _group_label(k): {f: v for f, v in asdict(g).items() if f != "group"}
                for k, g in self.groups.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _group_label(group: GroupKey) -> str:
    return f"{group.board}/{group.ownership}"


def _series_points(years: Iterable[YearStats], name: str, origin: int) -> list[tuple[float, float]]:
    """(t, value) of one series, t counted from ``origin``; years without a value are skipped."""
    return [(float(ys.year - origin), getattr(ys, name)) for ys in years if getattr(ys, name) is not None]


def _wrap_angle(angle: float) -> float:
    return angle % (2.0 * math.pi)


def build_group_report(
    group: GroupKey,
    stats: Sequence[YearStats],
    config: PipelineConfig,
) -> GroupReport:
    """Fit the yearly series of one group and derive the diagnostics.

    Only years with at least ``min_sample`` firms enter the fits; the time
    axis is measured from the first qualifying year so all series of the
    group share one origin (phases stay comparable).
    """
    stats = tuple(sorted(stats, key=lambda ys: ys.year))
    qualifying = [ys for ys in stats if ys.n_sample >= config.min_sample]
    fitted_years = tuple(ys.year for ys in qualifying)
    fits: dict[str, FourierFit] = {}
    extrema: dict[str, tuple[float, float]] = {}
    origin = fitted_years[0] if fitted_years else 0
    for name in SERIES_NAMES:
        points = _series_points(qualifying, name, origin)
        if len(points) < MIN_FIT_YEARS:
            continue
        fit = fit_fourier1(TimeSeries.from_pairs(points), config.period_range, grid_step=config.grid_step)
        fits[name] = fit
        if not fit.degenerate:
            extrema[name] = fourier_extrema(fit)

    ratio = None
    ratio_ok = None
    f1, f210 = fits.get("m_top1"), fits.get("m_top2_10")
    if f1 and f210 and not f1.degenerate and not f210.degenerate:
        ratio = f210.period / f1.period
        ratio_ok = abs(ratio - PERIOD_RATIO_EXPECTED) <= PERIOD_RATIO_RTOL * PERIOD_RATIO_EXPECTED
    phase = None
    phase_ok = None
    fr = fits.get("r_spi_1")
    if f210 and fr and not f210.degenerate and not fr.degenerate:
        phase = _wrap_angle(f210.phase - fr.phase)
        gap = min(abs(phase - PHASE_DIFF_EXPECTED), 2.0 * math.pi - abs(phase - PHASE_DIFF_EXPECTED))
        phase_ok = gap <= PHASE_DIFF_TOL
    diagnostics = Diagnostics(
        period_ratio=ratio,
        period_ratio_expected=PERIOD_RATIO_EXPECTED,
        period_ratio_rtol=PERIOD_RATIO_RTOL,
        period_ratio_ok=ratio_ok,
        phase_diff=phase,
        phase_diff_expected=PHASE_DIFF_EXPECTED,
        phase_diff_tol=PHASE_DIFF_TOL,
        phase_diff_ok=phase_ok,
    )

    correlations: dict[str, dict[str, CorrelationResult]] = {}
    for macro_name in sorted(config.macros):
        macro = config.macros[macro_name]
        by_series: dict[str, CorrelationResult] = {}
        for name in SERIES_NAMES:
            pairs = [
                (getattr(ys, name), macro[ys.year])
                for ys in qualifying
                if ys.year in macro and getattr(ys, name) is not None
            ]
            if len(pairs) < 3:
                continue
            xs = [p[0] for p in pairs]
            ms = [p[1] for p in pairs]
            if max(xs) == min(xs) or max(ms) == min(ms):
                continue
            by_series[name] = pearson(xs, ms)
        if by_series:
            correlations[macro_name] = by_series

    return GroupReport(
        group=group,
        years=stats,
        fitted_years=fitted_years,
        fits=fits,
        extrema=extrema,
        diagnostics=diagnostics,
        correlations=correlations,
    )


def build_report(
    stats_by_group: Mapping[GroupKey, Sequence[YearStats]],
    config: PipelineConfig,
    provenance: Mapping | None = None,
) -> Report:
    """Assemble a report from per-group yearly aggregates."""
    if not any(
        any(ys.n_sample >= config.min_sample for ys in stats)
        for stats in stats_by_group.values()
    ):
        raise DataError(f"no group reaches the minimum sample size {config.min_sample} in any year")
    groups = {
        group: build_group_report(group, stats_by_group[group], config)
        for group in sorted(stats_by_group)
    }
    prov = {
        "input_digest": None,
        "seed": None,
        "spi_mode": config.spi_mode,
        "min_sample": config.min_sample,
        "h": config.h,
        "period_range": list(config.period_range) if config.period_range else None,
        "grid_step": config.grid_step,
    }
    if provenance:
        prov.update(provenance)
    return Report(version=__version__, provenance=prov, groups=groups)


def _sorted_records(records: Iterable[FirmYearRecord]) -> list[FirmYearRecord]:
    return sorted(records, key=lambda r: (r.year, r.board, r.ownership, r.firm_id, r.shares))


def _check_default_grid(groups: Mapping[GroupKey, Sequence[FirmYearRecord]], config: PipelineConfig) -> None:
    """Raise the error the first fit would raise for an oversized default
    period grid, before any power work.

    The default range [4, 2 * span] needs the span of a group's qualifying
    years, which is known once the records are grouped; only groups with
    enough qualifying years to be fitted count.
    """
    if config.period_range is not None:
        return  # PipelineConfig checked it
    for members in groups.values():
        sizes = Counter(r.year for r in members)
        years = sorted(year for year, n in sizes.items() if n >= config.min_sample)
        if len(years) >= MIN_FIT_YEARS:
            check_period_grid((4.0, 2.0 * (years[-1] - years[0])), config.grid_step)


def run_pipeline(
    source: Sequence[FirmYearRecord] | SynthConfig,
    config: PipelineConfig | None = None,
) -> Report:
    """Run the full procedure on a record set or a synthetic config.

    Records are filtered to contested firms, grouped, aggregated per year,
    and fitted; outcome-mode configs skip straight from power draws to the
    yearly ratios. Output is invariant under input row order.
    """
    config = config or PipelineConfig()
    if isinstance(source, SynthConfig):
        digest_src = json.dumps(
            {
                "years": list(source.years),
                "firms_per_year": source.firms_per_year,
                "seed": source.seed,
                "group": list(source.group),
                "mode": source.mode,
            },
            sort_keys=True,
        ).encode()
        provenance = {
            "input_digest": hashlib.sha256(digest_src).hexdigest(),
            "seed": source.seed,
        }
        if source.mode == "outcomes":
            draws = synth_outcomes(source)
            stats = [year_stats_from_draws(year, draws[year]) for year in sorted(draws)]
            return build_report({source.group: stats}, config, provenance)
        records = _sorted_records(synth_registry(source))
    else:
        records = _sorted_records(source)
        provenance = {
            "input_digest": hashlib.sha256(records_to_csv_bytes(records)).hexdigest(),
            "seed": None,
        }
    records = apply_sample_filter(records)
    if not records:
        raise DataError("no records survive the sampling filter")
    groups = group_records(records)
    _check_default_grid(groups, config)
    stats = {group: _group_stats(members, config.spi_mode) for group, members in groups.items()}
    return build_report(stats, config, provenance)


# report emission ------------------------------------------------------------

REPORT_FORMATS = ("json", "csv-tables", "plot-data")


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _year_rows(*fields: str):
    """Row generator of a per-year table: group label, year, then ``fields`` of each YearStats."""
    def rows(report: Report):
        for g in report.groups.values():
            for ys in g.years:
                yield [_group_label(g.group), ys.year] + [getattr(ys, f) for f in fields]
    return rows


def _fit_rows(report: Report):
    # astuple(fit) is a0, a1, b1, period, sse, rmse, r_squared, degenerate
    for g in report.groups.values():
        for name, fit in g.fits.items():
            yield [_group_label(g.group), name, *astuple(fit), *g.extrema.get(name, (None, None)),
                   g.diagnostics.period_ratio, g.diagnostics.phase_diff]


def _correlation_rows(report: Report):
    for g in report.groups.values():
        for macro, by_series in g.correlations.items():
            for series, c in by_series.items():
                yield [_group_label(g.group), macro, series, *astuple(c)]


# csv-tables: (file name, header, row generator) per table
_TABLES = (
    ("table_meeting.csv",
     ["group", "year", "s_meeting_over_s_top10_mean", "s_meeting_over_s_top10_sd",
      "band_count_ratio", "n_meeting", "r_spi_1_top9", "r_spi_1_top10",
      "r_spi_1_top11", "n_top11", "n_sample"],
     _year_rows("meeting_ratio_mean", "meeting_ratio_sd", "band_count_ratio", "n_meeting",
                "r_spi_1_top9", "r_spi_1_top10", "r_spi_1_top11", "n_top11", "n_sample")),
    ("table_spi1_ratio.csv", ["group", "year", "ratio", "n"], _year_rows("r_spi_1", "n_sample")),
    ("table_spi_lt1.csv",
     ["group", "year", "mean", "sd", "band_ratio", "n"],
     _year_rows("spi_lt1_mean", "spi_lt1_sd", "spi_lt1_band", "n_spi_lt1")),
    ("table_shares.csv",
     ["group", "year", "top1_mean", "top1_sd", "top2_10_mean", "top2_10_sd", "n"],
     _year_rows("m_top1", "m_top1_sd", "m_top2_10", "m_top2_10_sd", "n_sample")),
    ("table_fits.csv",
     ["group", "series", "a0", "a1", "b1", "period", "sse", "rmse", "r_squared",
      "degenerate", "max", "min", "period_ratio", "phase_diff"],
     _fit_rows),
    ("table_correlations.csv", ["group", "macro", "series", "r", "p_value", "n"], _correlation_rows),
)


def emit_report(report: Report, format: str, dest: str) -> list[str]:
    """Write the report to ``dest`` (a directory) in the requested format.

    json: the full nested report. csv-tables: one CSV per familiar table
    layout (meeting ratios, full-power ratios, below-full power stats,
    share moments, fits, correlations). plot-data: per fitted series the
    (t, observed, fitted) triples.
    """
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    os.makedirs(dest, exist_ok=True)

    if format == "json":
        path = os.path.join(dest, "report.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        return [path]

    written: list[str] = []
    if format == "csv-tables":
        for name, header, rows in _TABLES:
            path = os.path.join(dest, name)
            _write_csv(path, header, rows(report))
            written.append(path)
        return written

    # plot-data
    for g in report.groups.values():
        origin = g.fitted_years[0] if g.fitted_years else 0
        qualifying = [ys for ys in g.years if ys.year in g.fitted_years]
        for name, fit in g.fits.items():
            rows = [
                [t, observed, fit.a0 if fit.degenerate else wave_eval(fit.params, t)]
                for t, observed in _series_points(qualifying, name, origin)
            ]
            path = os.path.join(dest, f"plot_{g.group.board}_{g.group.ownership}_{name}.csv")
            _write_csv(path, ["t", "observed", "fitted"], rows)
            written.append(path)
    return written

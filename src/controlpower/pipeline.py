"""End-to-end statistics pipeline: per-year aggregates by experiment
group, Fourier and normal fits, oscillation-prediction diagnostics,
macro correlations, and machine-readable report emission.

The pipeline is a pure function of its inputs: rows are canonically
sorted before any aggregation, every random element lives in the seeded
generators of the dataset module, and reports serialize with sorted keys,
so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field
from typing import Iterable, Mapping, Sequence

from . import __version__
import numpy as np

from .dataset import (
    BOARDS,
    MAX_HOLDERS,
    OWNERSHIPS,
    TOP1_FILTER_LIMIT,
    DataError,
    GroupKey,
    Registry,
    SynthConfig,
    _POW10,
    synth_outcomes,
    synth_registry,
)
from .evolution import wave_eval
from .fitting import (
    DEFAULT_GRID_STEP,
    _period_bounds,
    CorrelationResult,
    FourierFit,
    TimeSeries,
    check_period_grid,
    _cut_counts,
    _segment_moments,
    fit_fourier1_batch,
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


def _power_fields(values: np.ndarray, cuts: Sequence[int]) -> list[dict]:
    """Full-power ratio and the below-full summary of the float power values
    of each (non-empty) segment between consecutive ``cuts``.

    Comparing with 1.0 is exact: pipeline games have at most 11 players,
    so a power below 1 is at most 1 - 1/11! (about 1 - 2.5e-8) and stays
    apart from 1 as a float.
    """
    full = _cut_counts(values == 1.0, cuts)
    below = values != 1.0
    at = _cut_counts(below, cuts)  # the segments' cuts in values[below]
    return [
        {
            "r_spi_1": (full[k + 1] - full[k]) / (b - a),
            "spi_lt1_mean": mean,
            "spi_lt1_sd": sd,
            "spi_lt1_band": band,
            "n_spi_lt1": at[k + 1] - at[k],
        }
        for k, (a, b, (mean, sd, band)) in enumerate(zip(cuts, cuts[1:], _segment_moments(values[below], at)))
    ]


def _group_stats(rows: Registry, spi_mode: str) -> list[YearStats]:
    """Per-year aggregates of one group's year-ordered rows (each year one
    contiguous run). In the games of the three modes, top9 is the first nine
    holders, top10 all ten and top11 the ten plus the meeting attendance
    beyond them, clipped at zero, for rows with a meeting share.

    Every row is counted on its exact decimal units: its total, co-holder
    total, meeting ratio and residual are integer sums, and the floats taken
    from them (a value over 10^scale, meeting over total) are correctly
    rounded.

    Only ``spi_mode``'s powers are counted, one batch per game width. A
    zero weight is a null player. It leaves the total and every other
    weight as they are, so a game plus one zero weight is the same game
    plus a null player: its numerator over (n+1)! is n+1 times the smaller
    game's over n!, the same rational, and ``num / n!`` is the correctly
    rounded float of it. So each row is counted at its own width: top10
    only where the tenth share is above zero, top11 only where the residual
    is, else at the smaller mode's width, bit for bit the same power. Each
    mode's full-power ratio needs no count: the leading holder's power is
    1 exactly when it outweighs the rest of its game, 2 * s1 > T."""
    has = rows.has_meeting
    if spi_mode == "top11" and not has.all():
        first = int(np.argmin(has))
        raise DataError(f"firm {rows.firm_id[first]} year {rows.year[first]}: top11 mode needs meeting_share")
    games = rows.units.copy()  # the ten holders, then the residual
    total = games[:, :MAX_HOLDERS].sum(axis=1)
    attended = games[:, MAX_HOLDERS].copy()
    games[:, MAX_HOLDERS] = np.maximum(attended - total, 0)
    pow10 = _POW10[rows.scale]
    widths = np.full(len(total), MAX_HOLDERS - 1)
    if spi_mode != "top9":
        widths[games[:, MAX_HOLDERS - 1] > 0] = MAX_HOLDERS
    if spi_mode == "top11":
        widths[games[:, MAX_HOLDERS] > 0] = MAX_HOLDERS + 1
    mode = np.empty(len(total))
    for width in np.unique(widths).tolist():
        index = np.flatnonzero(widths == width)
        # numerators and n! (n <= 11) are exact in float64, so this division
        # is the correctly rounded float of the exact power
        mode[index] = top_holder_numerators(games[index, :width]) / math.factorial(width)
    years = rows.year.tolist()
    cuts = [0, *(np.flatnonzero(rows.year[1:] != rows.year[:-1]) + 1).tolist(), len(years)]
    # each statistic of every year cell in one pass over its column
    top1 = _segment_moments(games[:, 0] / pow10, cuts)
    top2_10 = _segment_moments((total - games[:, 0]) / pow10, cuts)
    met = _cut_counts(has, cuts)
    ratios = _segment_moments(attended[has] / total[has], met)
    twice_lead = 2 * games[:, 0]
    full9 = _cut_counts(twice_lead > total - games[:, MAX_HOLDERS - 1], cuts)
    full10 = _cut_counts(twice_lead > total, cuts)
    full11 = _cut_counts(has & (twice_lead > total + games[:, MAX_HOLDERS]), cuts)
    power = _power_fields(mode, cuts)
    stats = []
    for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
        n_met = met[k + 1] - met[k]
        stats.append(YearStats(
            year=years[a],
            n_sample=b - a,
            m_top1=top1[k][0],
            m_top1_sd=top1[k][1],
            m_top2_10=top2_10[k][0],
            m_top2_10_sd=top2_10[k][1],
            meeting_ratio_mean=ratios[k][0],
            meeting_ratio_sd=ratios[k][1],
            band_count_ratio=ratios[k][2],
            n_meeting=n_met,
            r_spi_1_top9=(full9[k + 1] - full9[k]) / (b - a),
            r_spi_1_top10=(full10[k + 1] - full10[k]) / (b - a),
            r_spi_1_top11=(full11[k + 1] - full11[k]) / n_met if n_met else None,
            n_top11=n_met,
            **power[k],
        ))
    return stats


def year_stats_from_draws(year: int, draws: Sequence[float]) -> YearStats:
    """Aggregate a year of raw power draws (no registry, no share data)."""
    return _draws_stats({year: draws})[0]


def _draws_stats(draws: Mapping[int, Sequence[float]]) -> list[YearStats]:
    """``year_stats_from_draws`` of every year's draws, in year order, in
    one pass over all of them."""
    years = sorted(draws)
    columns = [np.asarray(draws[year], dtype=float) for year in years]
    if not all(map(len, columns)):
        raise ValueError("no draws for this year")
    cuts = np.cumsum([0, *map(len, columns)]).tolist()
    fields = _power_fields(np.concatenate(columns), cuts)
    return [YearStats(year=year, n_sample=b - a, **cell) for year, a, b, cell in zip(years, cuts, cuts[1:], fields)]


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
        if not 0 < self.h < math.inf:
            raise ValueError("h must be positive and finite")
        # before any work; a default range needs a group's span, so run_pipeline
        # checks it once the rows are grouped
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
                _group_label(k): {f: _plain(v) for f, v in vars(g).items() if f != "group"}
                for k, g in self.groups.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


_LEAVES = frozenset({bool, int, float, str, type(None)})


def _plain(value):
    """``value`` as ``dataclasses.asdict`` gives it to JSON, dataclasses as
    dicts of their fields and tuples as lists, without copying its leaves."""
    if type(value) in _LEAVES:
        return value
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {k: _plain(v) for k, v in vars(value).items()}
    return value


def _group_label(group: GroupKey) -> str:
    return f"{group.board}/{group.ownership}"


def _series_points(years: Iterable[YearStats], name: str, origin: int) -> list[tuple[float, float]]:
    """(t, value) of one series, t counted from ``origin``; years without a value are skipped."""
    return [(float(ys.year - origin), getattr(ys, name)) for ys in years if getattr(ys, name) is not None]


def _qualifying(stats: Sequence[YearStats], config: PipelineConfig) -> list[YearStats]:
    """The years with at least ``min_sample`` firms: only they enter the
    fits, with t counted from the first of them, so that all series of a
    group share one origin (phases stay comparable)."""
    return [ys for ys in stats if ys.n_sample >= config.min_sample]


def _wrap_angle(angle: float) -> float:
    return angle % (2.0 * math.pi)


def _group_report(
    group: GroupKey,
    stats: Sequence[YearStats],
    fits: dict[str, FourierFit],
    config: PipelineConfig,
) -> GroupReport:
    """The report of one group from its year-ordered aggregates and the fits
    of its qualifying series, with the diagnostics and correlations."""
    qualifying = _qualifying(stats, config)
    extrema = {name: fourier_extrema(fit) for name, fit in fits.items() if not fit.degenerate}

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
        phase = _wrap_angle(f210.params.phase - fr.params.phase)
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
        years=tuple(stats),
        fitted_years=tuple(ys.year for ys in qualifying),
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
    stats = {group: sorted(stats_by_group[group], key=lambda ys: ys.year) for group in sorted(stats_by_group)}
    # every qualifying series of every group in one batch, in group and
    # series order, so that the first bad one raises its own fit's error
    jobs = []
    for group, years in stats.items():
        qualifying = _qualifying(years, config)
        origin = qualifying[0].year if qualifying else 0
        for name in SERIES_NAMES:
            points = _series_points(qualifying, name, origin)
            if len(points) >= MIN_FIT_YEARS:
                jobs.append((group, name, TimeSeries.from_pairs(points)))
    fitted = fit_fourier1_batch([series for *_, series in jobs], config.period_range, grid_step=config.grid_step)
    fits: dict[GroupKey, dict[str, FourierFit]] = {group: {} for group in stats}
    for (group, name, _), fit in zip(jobs, fitted):
        fits[group][name] = fit
    groups = {group: _group_report(group, years, fits[group], config) for group, years in stats.items()}
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


def _sort_order(table: Registry) -> np.ndarray:
    """The row order of a stable sort by (year, board, ownership, firm_id,
    shares). The zero padding sorts a shorter share list before a longer
    one it begins, as tuples do, because every share is above 0. firm_id
    is ranked as Python str objects, since numpy str arrays drop trailing
    NULs."""
    firm = np.unique(np.array(table.firm_id, dtype=object), return_inverse=True)[1]
    keys = (firm, table.ownership, table.board, table.year)
    order = np.lexsort(keys)  # by its last key first
    # the share columns only order rows that repeat all four keys
    repeats = np.ones(max(len(order) - 1, 0), dtype=bool)
    for key in keys:
        repeats &= key[order][1:] == key[order][:-1]
    return np.lexsort((*table.floats()[:, MAX_HOLDERS - 1 :: -1].T, *keys)) if repeats.any() else order


def _check_period_grid(fitted: Sequence[int], config: PipelineConfig) -> None:
    """Raise the error the first fit of a group with the increasing
    ``fitted`` years would raise for its period range (an oversized default
    grid, or a lower bound below twice the smallest step between fitted
    years); a group with too few fitted years is never fitted."""
    if len(fitted) >= MIN_FIT_YEARS:
        _period_bounds(fitted, config.period_range, config.grid_step)


_DIGEST_ROWS = 4096  # rows of the sort order taken from the columns at a time


def _int_stream(values: Sequence[int]) -> np.ndarray:
    """An integer column as digest bytes per row: int64 little-endian where
    every value fits, else each value's decimal text after its byte length
    as int64, since an object column's raw bytes are pointers. The choice is
    made once for the whole column."""
    try:
        return np.asarray(values, dtype="<i8")
    except OverflowError:
        return np.array([len(text).to_bytes(8, "little") + text for text in (b"%d" % v for v in values)],
                        dtype=object)


def _records_digest(table: Registry, order: np.ndarray) -> str:
    """SHA-256 over the row count and one SHA-256 per field stream, in this
    order: year, board code, ownership code, holder count, the zero-padded
    share block, the meeting-share flag, the meeting share, the n_meetings
    flag, n_meetings (0 where None), the UTF-8 byte length of each firm_id
    and the joined firm_id bytes. Each stream holds the rows in ``order``:
    integers as ``_int_stream`` encodes them, floats as little-endian
    float64, flags as one byte. Every row's part of a stream has a fixed or
    a stated length, so no two tables share all streams; float bits tell
    values apart exactly, as their repr would. The streams are fed
    ``_DIGEST_ROWS`` rows at a time, which does not change them."""
    n_meetings = table.n_meetings
    columns = (
        _int_stream(table.year), _int_stream(table.board), _int_stream(table.ownership), _int_stream(table.count),
        table.has_meeting, np.array([v is not None for v in n_meetings], dtype=bool),
        _int_stream([0 if v is None else v for v in n_meetings]),
    )
    streams = [hashlib.sha256() for _ in range(len(columns) + 4)]
    for at in range(0, len(order), _DIGEST_ROWS):
        index = order[at : at + _DIGEST_ROWS]
        year, board, ownership, count, has, given, n = (column[index] for column in columns)
        shares, meeting = np.hsplit(table.floats(index).astype("<f8"), [MAX_HOLDERS])
        for stream, part in zip(streams, (year, board, ownership, count, shares, has, meeting, given, n)):
            stream.update(b"".join(part) if part.dtype == object else part.tobytes())
        firm_ids = [table.firm_id[i].encode() for i in index.tolist()]
        streams[-2].update(np.array([len(b) for b in firm_ids], dtype="<i8").tobytes())
        streams[-1].update(b"".join(firm_ids))
    return hashlib.sha256(len(order).to_bytes(8, "little") + b"".join(s.digest() for s in streams)).hexdigest()


def run_pipeline(
    source: Registry | SynthConfig,
    config: PipelineConfig | None = None,
) -> Report:
    """Run the full procedure on a registry or a synthetic config.

    Rows are filtered to contested firms, grouped, aggregated per year,
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
                "targets": [source.top1, source.top2_10],
                "pdf": None if source.pdf is None else asdict(source.pdf),
            },
            sort_keys=True,
            default=str,  # exact wave coefficients are Fractions
        ).encode()
        provenance = {
            "input_digest": hashlib.sha256(digest_src).hexdigest(),
            "seed": source.seed,
        }
        if source.mode == "outcomes":
            # every year gets firms_per_year draws, so the fitted years are
            # known before sampling
            fitted = sorted(set(source.years)) if source.firms_per_year >= config.min_sample else []
            _check_period_grid(fitted, config)
            draws = synth_outcomes(source)
            return build_report({source.group: _draws_stats(draws)}, config, provenance)
        table = synth_registry(source)
    else:
        table = source
    if not len(table):
        raise DataError("the registry has no rows")
    order = _sort_order(table)
    if not isinstance(source, SynthConfig):
        provenance = {"input_digest": _records_digest(table, order), "seed": None}
    # at or above half the equity the leading holder's power is 1 by
    # construction, so such firm-years say nothing of the contested regime
    kept = order[table.units[order, 0] / _POW10[table.scale[order]] < TOP1_FILTER_LIMIT]
    if not kept.size:
        raise DataError("no records survive the sampling filter")
    codes = table.board[kept] * len(OWNERSHIPS) + table.ownership[kept]
    groups = {
        GroupKey(BOARDS[code // len(OWNERSHIPS)], OWNERSHIPS[code % len(OWNERSHIPS)]): kept[codes == code]
        for code in np.unique(codes).tolist()
    }
    # before any power work
    for index in groups.values():
        years, sizes = np.unique(table.year[index], return_counts=True)
        _check_period_grid(years[sizes >= config.min_sample].tolist(), config)
    stats = {group: _group_stats(table.take(index), config.spi_mode) for group, index in groups.items()}
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

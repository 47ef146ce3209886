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
import json
import math
import os
import struct
from dataclasses import asdict, astuple, dataclass, field
from typing import Iterable, Mapping, Sequence

from . import __version__
import numpy as np

from .dataset import (
    BOARDS,
    OWNERSHIPS,
    TOP1_FILTER_LIMIT,
    DataError,
    FirmYearRecord,
    GroupKey,
    SynthConfig,
    _Table,
    _synth_table,
    synth_outcomes,
)
from .evolution import wave_eval
from .fitting import (
    DEFAULT_GRID_STEP,
    _period_bounds,
    CorrelationResult,
    FourierFit,
    TimeSeries,
    check_period_grid,
    fit_fourier1,
    fit_normal,
    fourier_extrema,
    pearson,
)
from .power_index import _row_fsums, top_holder_numerators

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


def _full_ratio(values: np.ndarray) -> float | None:
    return int(np.count_nonzero(values == 1.0)) / len(values) if len(values) else None


def _power_fields(values: np.ndarray) -> dict:
    """Full-power ratio and the below-full summary of float power values.

    Comparing with 1.0 is exact: pipeline games have at most 11 players,
    so a power below 1 is at most 1 - 1/11! (about 1 - 2.5e-8) and stays
    apart from 1 as a float.
    """
    lt1 = values[values != 1.0].tolist()
    mean, sd, band = _moments(lt1)
    return {
        "r_spi_1": _full_ratio(values),
        "spi_lt1_mean": mean,
        "spi_lt1_sd": sd,
        "spi_lt1_band": band,
        "n_spi_lt1": len(lt1),
    }


def _powers(shares: np.ndarray) -> np.ndarray:
    """Float top-holder power of every row's game, in one batch."""
    # numerators and n! (n <= 11) are exact in float64, so this division is
    # the correctly rounded float of the exact power
    return top_holder_numerators(shares) / math.factorial(shares.shape[1])


def _group_stats(rows: _Table, spi_mode: str) -> list[YearStats]:
    """Per-year aggregates of one group's year-ordered rows (each year one
    contiguous run), with one power batch per mode: top9 is the first nine
    share columns, top10 the block and top11 the block plus the meeting
    attendance beyond it, clipped at zero, for rows with a meeting share.

    A zero weight is a null player. It leaves the fsum total and every
    other grid unit as they are, so a game plus one zero weight is the same
    game plus a null player: its numerator over (n+1)! is n+1 times the
    smaller game's over n!, the same rational, and ``num / n!`` is the
    correctly rounded float of it. So the zero padding of absent holders
    leaves the leading holder's power exactly as it is, and each distinct
    game is counted once: top10 only where the tenth share is above zero,
    top11 only where the residual is; the other rows take the smaller
    mode's power bit for bit."""
    has = rows.has_meeting
    if spi_mode == "top11" and not has.all():
        first = int(np.argmin(has))
        raise DataError(f"firm {rows.firm_id[first]} year {rows.year[first]}: top11 mode needs meeting_share")
    shares = rows.shares
    top9 = _powers(shares[:, :9])
    top10 = top9.copy()
    tenth = shares[:, 9] > 0
    top10[tenth] = _powers(shares[tenth])
    residual = np.maximum(rows.meeting - rows.total, 0.0)
    top11 = np.where(has, top10, np.nan)
    extra = has & (residual > 0)
    top11[extra] = _powers(np.column_stack((shares[extra], residual[extra])))
    # in top11 mode every row has a meeting share, so no top11 power is nan
    mode = {"top9": top9, "top10": top10, "top11": top11}[spi_mode]
    top1 = shares[:, 0].tolist()
    top2_10 = _row_fsums(shares[:, 1:])
    ratio = rows.meeting / rows.total
    years = rows.year.tolist()
    cuts = [0, *(np.flatnonzero(rows.year[1:] != rows.year[:-1]) + 1).tolist(), len(years)]
    stats = []
    for a, b in zip(cuts, cuts[1:]):
        met = has[a:b]
        cell11 = top11[a:b][met]
        m_top1, m_top1_sd, _ = _moments(top1[a:b])
        m_top2_10, m_top2_10_sd, _ = _moments(top2_10[a:b])
        ratios = ratio[a:b][met].tolist()
        ratio_mean, ratio_sd, band = _moments(ratios)
        stats.append(YearStats(
            year=years[a],
            n_sample=b - a,
            m_top1=m_top1,
            m_top1_sd=m_top1_sd,
            m_top2_10=m_top2_10,
            m_top2_10_sd=m_top2_10_sd,
            meeting_ratio_mean=ratio_mean,
            meeting_ratio_sd=ratio_sd,
            band_count_ratio=band,
            n_meeting=len(ratios),
            r_spi_1_top9=_full_ratio(top9[a:b]),
            r_spi_1_top10=_full_ratio(top10[a:b]),
            r_spi_1_top11=_full_ratio(cell11),
            n_top11=len(cell11),
            **_power_fields(mode[a:b]),
        ))
    return stats


def year_stats_from_draws(year: int, draws: Sequence[float]) -> YearStats:
    """Aggregate a year of raw power draws (no registry, no share data)."""
    values = np.array([float(v) for v in draws], dtype=float)
    if not len(values):
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
        if not 0 < self.h < math.inf:
            raise ValueError("h must be positive and finite")
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


def _sort_order(table: _Table) -> np.ndarray:
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
    return np.lexsort((*table.shares.T[::-1], *keys)) if repeats.any() else order


def _check_period_grid(fitted: Sequence[int], config: PipelineConfig) -> None:
    """Raise the error the first fit of a group with the increasing
    ``fitted`` years would raise for its period range (an oversized default
    grid, or a lower bound below twice the smallest step between fitted
    years); a group with too few fitted years is never fitted."""
    if len(fitted) >= MIN_FIT_YEARS:
        _period_bounds(fitted, config.period_range, config.grid_step)


_DIGEST_ROWS = 4096  # rows turned into Python values at a time


def _records_digest(table: _Table, order: np.ndarray) -> str:
    """SHA-256 over each row's fields, in ``order``: the byte lengths of five
    texts (firm_id, board, ownership, then year and n_meetings in decimal,
    empty for None) and the share count, the shares, a meeting-share flag
    and the meeting share as little-endian float64, then the texts. The
    fixed-width lengths make it injective; float bits tell values apart
    exactly, as their repr would."""
    digest = hashlib.sha256()
    boards = [b.encode() for b in BOARDS]
    ownerships = [o.encode() for o in OWNERSHIPS]
    for at in range(0, len(order), _DIGEST_ROWS):
        index = order[at : at + _DIGEST_ROWS]
        rows = index.tolist()
        for firm_id, board, ownership, year, n_meetings, n, shares, has, meeting in zip(
            [table.firm_id[i] for i in rows], table.board[index].tolist(), table.ownership[index].tolist(),
            table.year[index].tolist(), [table.n_meetings[i] for i in rows], table.count[index].tolist(),
            table.shares[index].tolist(), table.has_meeting[index].tolist(), table.meeting[index].tolist(),
        ):
            texts = (firm_id.encode(), boards[board], ownerships[ownership], b"%d" % year,
                     b"" if n_meetings is None else b"%d" % n_meetings)
            digest.update(struct.pack(f"<6Q{n}d?d", *map(len, texts), n, *shares[:n], has, meeting))
            digest.update(b"".join(texts))
    return digest.hexdigest()


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
            stats = [year_stats_from_draws(year, draws[year]) for year in sorted(draws)]
            return build_report({source.group: stats}, config, provenance)
        table = _synth_table(source)
    else:
        # the CLI passes the table it read; records are tabled here
        table = source if isinstance(source, _Table) else _Table.from_records(source)
    order = _sort_order(table)
    if not isinstance(source, SynthConfig):
        provenance = {"input_digest": _records_digest(table, order), "seed": None}
    # at or above half the equity the leading holder's power is 1 by
    # construction, so such firm-years say nothing of the contested regime
    kept = order[table.shares[order, 0] < TOP1_FILTER_LIMIT]
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

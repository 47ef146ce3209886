"""Firm-year shareholder registries: validation, CSV ingest/emit,
sampling filter, natural-experiment grouping, and seeded synthetic
generators calibrated to yearly moment targets.

CSV schema (UTF-8, an optional byte-order mark, comma separator, '.' decimal):

    firm_id,year,board,ownership,s1,...,s10,meeting_share,n_meetings

board is main or sme_gem, ownership is private or state, s1..s10 are the
top shareholders' equity fractions in descending order (blank or zero
means the holder does not exist), meeting_share and n_meetings may be
blank.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .evolution import ControlPowerPdf, pdf_sample

log = logging.getLogger(__name__)

BOARDS = ("main", "sme_gem")
OWNERSHIPS = ("private", "state")
MAX_HOLDERS = 10
SHARE_SUM_TOL = 1e-9
SORT_TOL = 1e-8
TOP1_FILTER_LIMIT = 0.5

CSV_COLUMNS = (
    ["firm_id", "year", "board", "ownership"]
    + [f"s{i}" for i in range(1, MAX_HOLDERS + 1)]
    + ["meeting_share", "n_meetings"]
)


class DataError(ValueError):
    """Raised for malformed registry files or rows."""


class GroupKey(NamedTuple):
    board: str
    ownership: str


@dataclass(frozen=True)
class FirmYearRecord:
    """One firm-year registry row. Shares are the disclosed top holders'
    equity fractions, descending; absent holders are omitted rather than
    stored as zeros, so records have one canonical form."""

    firm_id: str
    year: int
    board: str
    ownership: str
    shares: tuple[float, ...]
    meeting_share: float | None = None
    n_meetings: int | None = None

    def __post_init__(self):
        if self.board not in BOARDS:
            raise DataError(f"unknown board {self.board!r}")
        if self.ownership not in OWNERSHIPS:
            raise DataError(f"unknown ownership {self.ownership!r}")
        if not 1 <= len(self.shares) <= MAX_HOLDERS:
            raise DataError(f"need 1..{MAX_HOLDERS} shares, got {len(self.shares)}")
        for s in self.shares:
            if not (math.isfinite(s) and 0.0 < s <= 1.0):
                raise DataError(f"share {s!r} outside (0, 1]; absent holders are omitted")
        if any(b > a for a, b in zip(self.shares, self.shares[1:])):
            raise DataError("shares must be non-increasing")
        if math.fsum(self.shares) > 1.0 + SHARE_SUM_TOL:
            raise DataError("shares sum above total equity")
        if self.meeting_share is not None and not 0.0 <= self.meeting_share <= 1.0:
            raise DataError(f"meeting share {self.meeting_share!r} outside [0, 1]")
        if self.n_meetings is not None and self.n_meetings < 0:
            raise DataError("meeting count must be non-negative")

    @property
    def group(self) -> GroupKey:
        return GroupKey(self.board, self.ownership)

    @property
    def top1(self) -> float:
        return self.shares[0]

    @property
    def top2_10(self) -> float:
        return math.fsum(self.shares[1:])

    @property
    def top_total(self) -> float:
        return math.fsum(self.shares)


def _parse_row(row: Sequence[str], index: Sequence[int]) -> FirmYearRecord:
    cells = [row[i].strip() for i in index]  # in CSV_COLUMNS order
    firm_id, year, board, ownership, *raw, meeting_cell, meetings_cell = cells
    year = int(year)
    values: list[float] = []
    seen_blank = False
    for i, cell in enumerate(raw, start=1):
        if cell == "":
            seen_blank = True
            continue
        if seen_blank:
            raise DataError(f"share column s{i} follows a blank column")
        values.append(float(cell))
    if not values:
        raise DataError("no shares disclosed")
    # zero cells at the tail mean the holder does not exist
    while values and values[-1] == 0.0:
        values.pop()
    if not values:
        raise DataError("all disclosed shares are zero")
    for a, b in zip(values, values[1:]):
        if b - a > SORT_TOL:
            raise DataError("shares out of descending order beyond tolerance")
    values.sort(reverse=True)
    return FirmYearRecord(
        firm_id=firm_id,
        year=year,
        board=board,
        ownership=ownership,
        shares=tuple(values),
        meeting_share=float(meeting_cell) if meeting_cell else None,
        n_meetings=int(meetings_cell) if meetings_cell else None,
    )


def ingest_csv(source, *, strict: bool = True) -> list[FirmYearRecord]:
    """Read and validate a registry CSV (path or open text handle).

    Invalid rows are reported with their file line numbers. With
    strict=True (default) any invalid row raises DataError listing every
    problem; with strict=False bad rows are skipped and logged.
    """
    if hasattr(source, "read"):
        return _ingest_handle(source, strict=strict)
    with open(source, newline="", encoding="utf-8-sig") as handle:
        return _ingest_handle(handle, strict=strict)


def _ingest_handle(handle, *, strict: bool) -> list[FirmYearRecord]:
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        raise DataError("empty file, no header row")
    columns = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
    missing = [c for c in CSV_COLUMNS if c not in columns]
    if missing:
        raise DataError(f"missing required columns: {', '.join(missing)}")
    index = [columns[c] for c in CSV_COLUMNS]
    records: list[FirmYearRecord] = []
    problems: list[str] = []
    for row in reader:
        if not row:
            continue  # blank line
        try:
            if len(row) < len(header):
                raise DataError(f"{len(row)} cells, the header has {len(header)}")
            records.append(_parse_row(row, index))
        except DataError as exc:
            problems.append(f"row {reader.line_num}: {exc}")
        except ValueError as exc:
            problems.append(f"row {reader.line_num}: unparseable value ({exc})")
    if problems:
        if strict:
            raise DataError("; ".join(problems))
        for p in problems:
            log.warning("skipping %s", p)
    return records


def emit_csv(records: Iterable[FirmYearRecord], dest) -> None:
    """Write records in the registry schema; inverse of ingest_csv."""
    own = not hasattr(dest, "write")
    handle = open(dest, "w", newline="", encoding="utf-8") if own else dest
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            shares = [repr(float(s)) for s in rec.shares]
            shares += [""] * (MAX_HOLDERS - len(shares))
            writer.writerow(
                [rec.firm_id, rec.year, rec.board, rec.ownership]
                + shares
                + [
                    "" if rec.meeting_share is None else repr(float(rec.meeting_share)),
                    "" if rec.n_meetings is None else rec.n_meetings,
                ]
            )
    finally:
        if own:
            handle.close()


def apply_sample_filter(records: Iterable[FirmYearRecord]) -> list[FirmYearRecord]:
    """Keep firms whose leading holder stays below half the equity.

    At or above 50% that holder's power is 1 by construction, so such
    firm-years carry no information about the contested regime.
    """
    return [r for r in records if r.top1 < TOP1_FILTER_LIMIT]


def group_records(records: Iterable[FirmYearRecord]) -> dict[GroupKey, list[FirmYearRecord]]:
    """Partition into the four (board, ownership) natural-experiment cells."""
    out: dict[GroupKey, list[FirmYearRecord]] = {}
    for rec in records:
        out.setdefault(rec.group, []).append(rec)
    return {key: out[key] for key in sorted(out)}


class MomentTarget(NamedTuple):
    mean: float
    sd: float


@dataclass(frozen=True)
class SynthConfig:
    """Seeded generator settings for one (board, ownership) cohort.

    ``top1`` and ``top2_10`` give yearly moment targets, either one pair
    for all years or a per-year mapping. With ``pdf`` set the config is an
    outcome generator (power draws per year) instead of a registry
    generator.
    """

    years: tuple[int, ...]
    firms_per_year: int
    seed: int
    group: GroupKey = GroupKey("main", "private")
    top1: MomentTarget | Mapping[int, MomentTarget] | None = None
    top2_10: MomentTarget | Mapping[int, MomentTarget] | None = None
    pdf: ControlPowerPdf | None = None
    clip_top1: tuple[float, float] = (0.02, 0.75)
    split_alpha: float = 8.0
    meeting_ratio: MomentTarget | None = MomentTarget(0.87, 0.14)

    def __post_init__(self):
        if not self.years:
            raise ValueError("need at least one year")
        if self.firms_per_year < 1:
            raise ValueError("need at least one firm per year")
        if self.pdf is None:
            if self.top1 is None or self.top2_10 is None:
                raise ValueError("registry mode needs top1 and top2_10 targets")
            lo, hi = self.clip_top1
            for year in self.years:
                tgt = self.top1_target(year)
                if not lo <= tgt.mean <= hi:
                    raise ValueError(f"top1 mean {tgt.mean} for {year} outside clip range")
                if tgt.sd < 0 or self.top2_10_target(year).sd < 0:
                    raise ValueError("target standard deviations must be non-negative")
            if self.split_alpha <= 0:
                raise ValueError("split concentration must be positive")

    def _target(self, target, year: int) -> MomentTarget:
        if isinstance(target, MomentTarget):
            return target
        if isinstance(target, tuple) and len(target) == 2:
            return MomentTarget(*target)
        return MomentTarget(*target[year])

    def top1_target(self, year: int) -> MomentTarget:
        return self._target(self.top1, year)

    def top2_10_target(self, year: int) -> MomentTarget:
        return self._target(self.top2_10, year)

    @property
    def mode(self) -> str:
        return "outcomes" if self.pdf is not None else "registry"


def _split_shares(rng: np.random.Generator, total: float, top1: float,
                  alpha: float, deterministic: bool) -> list[float]:
    """Split the co-holders' total across nine positions, each <= top1."""
    n = MAX_HOLDERS - 1
    if total <= 0.0:
        return []
    if deterministic:
        return [total / n] * n
    for _ in range(1000):
        parts = rng.dirichlet([alpha] * n)
        if parts.max() * total <= top1:
            return sorted((float(p) * total for p in parts), reverse=True)
    return [total / n] * n  # concentration too low for these targets


def synth_registry(config: SynthConfig) -> list[FirmYearRecord]:
    """Generate a registry with the configured yearly moments.

    Per firm the leading share is a clipped normal draw; the co-holders'
    total is drawn likewise, clipped to keep record invariants, and split
    by a symmetric Dirichlet proportion (equal split when both target
    standard deviations are zero, so degenerate configs produce identical
    firms). Deterministic for a given config.
    """
    if config.mode != "registry":
        raise ValueError("config is an outcome generator, not a registry generator")
    rng = np.random.default_rng(config.seed)
    lo1, hi1 = config.clip_top1
    tag = f"{config.group.board[0]}{config.group.ownership[0]}"
    records: list[FirmYearRecord] = []
    for year in config.years:
        t1 = config.top1_target(year)
        t210 = config.top2_10_target(year)
        deterministic = t1.sd == 0.0 and t210.sd == 0.0
        for j in range(config.firms_per_year):
            top1 = float(np.clip(rng.normal(t1.mean, t1.sd) if t1.sd > 0 else t1.mean, lo1, hi1))
            # the margin keeps every split part strictly below top1 after rounding
            rest_cap = min(1.0 - top1 - SHARE_SUM_TOL, (MAX_HOLDERS - 1) * top1 * (1.0 - 1e-9))
            rest = rng.normal(t210.mean, t210.sd) if t210.sd > 0 else t210.mean
            rest = float(np.clip(rest, 0.0, rest_cap))
            shares = [top1] + _split_shares(rng, rest, top1, config.split_alpha, deterministic)
            meeting_share = None
            n_meetings = None
            if config.meeting_ratio is not None:
                mr = config.meeting_ratio
                ratio = rng.normal(mr.mean, mr.sd) if mr.sd > 0 else mr.mean
                meeting_share = float(np.clip(ratio * math.fsum(shares), 0.0, 1.0))
                n_meetings = int(rng.integers(1, 16))
            records.append(
                FirmYearRecord(
                    firm_id=f"{tag}-{year}-{j:04d}",
                    year=year,
                    board=config.group.board,
                    ownership=config.group.ownership,
                    shares=tuple(shares),
                    meeting_share=meeting_share,
                    n_meetings=n_meetings,
                )
            )
    return records


def synth_outcomes(config: SynthConfig) -> dict[int, np.ndarray]:
    """Per-year power draws from the configured mixed distribution.

    Year y maps to time t = y - years[0]; each year gets firms_per_year
    draws. Deterministic for a given config.
    """
    if config.mode != "outcomes":
        raise ValueError("config has no outcome distribution")
    rng = np.random.default_rng(config.seed)
    origin = config.years[0]
    return {
        year: pdf_sample(config.pdf, float(year - origin), config.firms_per_year, rng=rng)
        for year in config.years
    }

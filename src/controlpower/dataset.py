"""Firm-year shareholder registries: the one registry type (``Registry``,
a column table), CSV ingest with its row rules and emit, and seeded
synthetic generators calibrated to yearly moment targets.

CSV schema (UTF-8, an optional byte-order mark, comma separator, '.' decimal):

    firm_id,year,board,ownership,s1,...,s10,meeting_share,n_meetings

board is main or sme_gem, ownership is private or state, s1..s10 are the
top shareholders' equity fractions in descending order (blank or zero
means the holder does not exist), meeting_share and n_meetings may be
blank. Every number is plain ASCII: ``[0-9]+(\\.[0-9]+)?`` for a share or
meeting_share, digits alone for year and n_meetings (no sign, exponent,
underscore, inner space, nan or inf), and surrounding whitespace is
stripped.

Every share and meeting_share must read as a decimal of at most 12
places; a row is held as exact integer units at 10^d, d the most places
any of its cells needs (``_decimal_units``), and its games are counted on
them. A value that no such decimal reads as is a data error. The table
holds those units and nothing derived from them: no holder count and no
float of a value.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import re
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .evolution import ControlPowerPdf, _sample_block

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


# codes sort like the names, since both tuples are in alphabetical order
_BOARD_CODES = {name: i for i, name in enumerate(BOARDS)}
_OWNERSHIP_CODES = {name: i for i, name in enumerate(OWNERSHIPS)}
_MAX_DECIMALS = 12  # most places of exact units: 2 * total stays far below 2^53
# the one grammar of a number cell; a cell that also parses as an int has no
# '.'. Only the slow paths match it, so it is compiled there, on first use.
_PLAIN = r"[0-9]+(?:\.[0-9]+)?"
_POW10 = np.array([10**d for d in range(_MAX_DECIMALS + 1)], dtype=np.int64)


def _int_column(values: Sequence[int]) -> np.ndarray:
    """int64 where every value fits, else an object array of Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _decimal_units(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's exact decimal units and scale: the int64 block of ``v *
    10**d`` for the (N x 11) float block ``cells`` of ten shares and the
    meeting share (0 where absent or blank), d being the fewest places that
    hold every cell of the row, and d; and the mask of the cells that are
    not the float of a decimal of at most 12 places, whose units mean
    nothing.

    Values lie in [0, 1]. d is the smallest d <= 12 with rint(v * 10^d) /
    10^d == v for every cell v of the row. For a float v of a decimal of at
    most d places, the product is within 2e-4 of that decimal's units, so
    rint recovers them and the division rounds them back to v; for any
    other float the test fails, since decimals of 12 places or fewer lie
    10^-12 apart or more, too far to share a float. So a cell written with
    at most 12 places gives its written value, and ``units / 10**scale``
    (the correctly rounded quotient) is each cell's float again; the mask
    is where that last round trip fails.
    """
    scale = np.full(len(cells), _MAX_DECIMALS, dtype=np.int8)  # a row at 12 is still open below it
    trial = np.empty_like(cells)  # one buffer for every trial: allocation costs more than the arithmetic
    for d, p in enumerate(_POW10[:-1].tolist()):
        np.divide(np.rint(np.multiply(cells, p, out=trial), out=trial), p, out=trial)
        scale[(scale == _MAX_DECIMALS) & (trial == cells).all(axis=1)] = d
        if (scale < _MAX_DECIMALS).all():
            break
    pow10 = _POW10[scale][:, None]
    units = np.rint(np.multiply(cells, pow10, out=trial), out=trial).astype(np.int64)
    return units, scale, np.divide(trial, pow10, out=trial) != cells


@dataclass(frozen=True, eq=False)
class Registry:
    """A firm-year registry as columns, one row per firm-year, in row order;
    ``len`` is its row count.

    ``units`` is an (N x 11) int64 block of each row's exact decimal units
    at 10^``scale``: ten shares, descending, with 0 for absent holders, then
    the meeting share, 0 where ``has_meeting`` is False (``_decimal_units``).
    A row's holders are its nonzero shares; no column restates their count.
    ``board`` and ``ownership`` index BOARDS and OWNERSHIPS. ``year`` is
    int64, or an object column of Python ints where a year does not fit.
    ``firm_id`` and ``n_meetings`` (None where blank) are lists. A value's
    float is ``units / 10**scale``, which the table does not hold.
    """

    year: np.ndarray
    board: np.ndarray
    ownership: np.ndarray
    firm_id: list
    has_meeting: np.ndarray
    n_meetings: list
    units: np.ndarray
    scale: np.ndarray

    def __len__(self) -> int:
        return len(self.firm_id)

    def columns(self) -> list:
        """The columns, in field order."""
        return [getattr(self, f.name) for f in fields(self)]


# Rows read, parsed and checked at a time, so only one chunk's cells are
# held at once. Over three registry-10k CLI reports, peak RSS was 45.6 MB
# with 512-row chunks and 48.0 MB with 2048 (46.6 MB reading row by row),
# with no measured difference in ingest time.
_CHUNK_ROWS = 512


def ingest_csv(source) -> Registry:
    """Read and validate a registry CSV (path or open text handle).

    Any invalid row raises DataError listing every problem with its file
    line number. A row the CSV reader cannot split stops the read with an
    error naming the file (a handle's name, else "input") and the line.
    """
    own = not hasattr(source, "read")
    name = source if own else getattr(source, "name", "input")
    with open(source, newline="", encoding="utf-8-sig") if own else contextlib.nullcontext(source) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise DataError(f"{name} line 1: {exc}") from None
        if header is None:
            raise DataError("empty file, no header row")
        columns = {column: i for i, column in enumerate(header)}  # a repeated name: the last wins
        missing = [c for c in CSV_COLUMNS if c not in columns]
        if missing:
            raise DataError(f"missing required columns: {', '.join(missing)}")
        index = [columns[c] for c in CSV_COLUMNS]
        parts = []
        problems: list[str] = []
        line = reader.line_num
        while True:
            rows, lines, unsplit = [], [], None
            try:
                for row in reader:
                    line = reader.line_num
                    if row:  # blank lines are skipped, however many
                        rows.append(row)
                        lines.append(line)
                        if len(rows) == _CHUNK_ROWS:
                            break
            except csv.Error as exc:
                # the record that cannot be split starts after the last one read
                unsplit = f"{name} line {line + 1}: {exc}"
            # a chunk without rows still gives typed columns, for a file without rows
            part, bad = _parse_chunk(rows, index, len(header))
            parts.append(part)
            problems += [f"row {lines[i]}: {message}" for i, message in sorted(bad.items())]
            if unsplit:
                problems.append(unsplit)
            if unsplit or len(rows) < _CHUNK_ROWS:  # the reader stopped
                break
    if problems:
        raise DataError("; ".join(problems))
    return Registry(*(np.concatenate(c) if isinstance(c[0], np.ndarray) else list(itertools.chain(*c))
                      for c in zip(*(part.columns() for part in parts))))


_REQUIRED = object()  # blank cells are parsed too, and so rejected
# an ASCII byte as it shapes a number: digits as '0', '.' and ',' as
# themselves, any other byte as 'x'
_SHAPE = bytes(48 if 48 <= b <= 57 else b if b in b".," else 120 for b in range(256))


def _all_plain(joined: str) -> bool:
    """Whether every cell of a comma join of cells that a parse accepts is
    blank or matches ``_PLAIN``: ASCII digits and dots only, with a digit
    on each side of every dot (each "0.0" of the shape holds one dot, so
    the counts agree only then). A cell with two dots or a comma may pass
    here, but no parse accepts it. Three passes over the join in C."""
    if not joined.isascii():
        return False
    shape = joined.encode().translate(_SHAPE)
    return b"x" not in shape and shape.count(b".") == shape.count(b"0.0")


def _parse_cells(cells: Sequence[str], plain: bool, parse, blank=_REQUIRED) -> tuple[list, dict[int, str]]:
    """``parse`` (int or float) of every cell, or ``blank`` for an empty one,
    and the error text of each cell that does not parse or is not plain
    (``_PLAIN``), by position; its value is then ``blank``, or 0 where
    blanks are parsed. ``plain`` says every cell is known to be plain."""
    if plain:
        try:
            if blank is _REQUIRED or all(cells):
                return list(map(parse, cells)), {}
            return [parse(c) if c else blank for c in cells], {}
        except ValueError:
            pass
    values, errors = [], {}
    for i, c in enumerate(cells):
        if not c and blank is not _REQUIRED:
            values.append(blank)
            continue
        try:
            value = parse(c)
        except ValueError as exc:
            errors[i] = str(exc)
        else:
            if re.fullmatch(_PLAIN, c):
                values.append(value)
                continue
            errors[i] = f"not a plain decimal number: {c!r}"
        values.append(0 if blank is _REQUIRED else blank)
    return values, errors


def _stripped(cells: Sequence[str]) -> tuple[Sequence[str], str]:
    """The cells stripped of surrounding whitespace, and their comma join:
    as they are when no cell holds any, which one whitespace split of the
    join tells faster than a strip of each cell (the split drops whitespace
    at the join's ends too, so it must give back the whole join)."""
    joined = ",".join(cells)
    if joined.split() == [joined]:
        return cells, joined
    cells = list(map(str.strip, cells))
    return cells, ",".join(cells)


def _parse_chunk(rows: Sequence[Sequence[str]], index: Sequence[int], width: int) -> tuple[Registry, dict[int, str]]:
    """A chunk's rows as a registry, and the problem of each invalid row by
    its position in the chunk (the registry is of use only when there is
    none).

    A row's problem is the first one met in the order its cells are read:
    the cell count, year, the share cells left to right (a value after a
    blank, or one that does not parse or is not plain), the share list
    (none disclosed, all zero, out of order beyond SORT_TOL),
    meeting_share, n_meetings, then the row rules. Each check runs on whole
    columns.
    """
    problems: dict[int, str] = {}

    def flag(bad, message) -> None:
        for i in np.flatnonzero(bad).tolist() if isinstance(bad, np.ndarray) else bad:
            if i not in problems:
                problems[i] = message(i)

    def parsed(column, parse, blank=_REQUIRED) -> list:
        values, errors = _parse_cells(*column, parse, blank)
        flag(errors, lambda i: f"unparseable value ({errors[i]})")
        return values

    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    short = lengths < width
    if short.any():  # a short row is read as blanks, and rejected
        flag(short, lambda i: f"{lengths[i]} cells, the header has {width}")
        rows = [[""] * width if s else row for row, s in zip(rows, short.tolist())]
    columns = list(zip(*rows)) or [()] * width  # typed empty columns for a chunk without rows
    firm_id, years, boards, ownerships, *share_cells, meeting_cells, count_cells = (columns[i] for i in index)
    firm_id, boards, ownerships = (_stripped(cells)[0] for cells in (firm_id, boards, ownerships))
    # number cells: (cells, whether all are plain); nearly always every cell
    # of the chunk is, which also rules out whitespace to strip
    numbers = [years, *share_cells, meeting_cells, count_cells]
    if _all_plain(",".join(map(",".join, numbers))):
        numbers = [(cells, True) for cells in numbers]
    else:
        numbers = [(cells, _all_plain(joined)) for cells, joined in map(_stripped, numbers)]
    years, *share_cells, meeting_cells, count_cells = numbers
    year = parsed(years, int)

    # a blank share is nan, which no plain cell parses to
    shares = [_parse_cells(*col, float, math.nan) for col in share_cells]
    values = np.array([col for col, _ in shares], dtype=float).T
    rejected = np.zeros(values.shape, dtype=bool)
    for j, (_, errors) in enumerate(shares):
        rejected[list(errors), j] = True
    given = ~np.isnan(values) | rejected
    values[~given] = 0.0
    after_blank = np.zeros_like(given)
    after_blank[:, 1:] = np.logical_or.accumulate(~given, axis=1)[:, :-1]
    cell_bad = given & (after_blank | rejected)

    def share_cell_problem(i):
        j = int(np.argmax(cell_bad[i]))
        if after_blank[i, j]:
            return f"share column s{j + 1} follows a blank column"
        return f"unparseable value ({shares[j][1][i]})"

    flag(cell_bad.any(axis=1), share_cell_problem)
    flag(~given.any(axis=1), lambda i: "no shares disclosed")
    # zero cells at the tail mean the holder does not exist
    nonzero = values != 0.0
    count = np.where(nonzero.any(axis=1), MAX_HOLDERS - np.argmax(nonzero[:, ::-1], axis=1), 0)
    flag(count == 0, lambda i: "all disclosed shares are zero")
    held = np.arange(MAX_HOLDERS) < count[:, None]
    values = np.where(held, values, 0.0)
    pairs = held[:, 1:]  # both shares of the pair (j, j + 1) are held
    with np.errstate(invalid="ignore", over="ignore"):
        flag(((values[:, 1:] - values[:, :-1] > SORT_TOL) & pairs).any(axis=1),
             lambda i: "shares out of descending order beyond tolerance")
    meeting = np.array(parsed(meeting_cells, float, math.nan), dtype=float)
    has_meeting = ~np.isnan(meeting)
    meeting[~has_meeting] = 0.0  # as the table holds it
    n_meetings = parsed(count_cells, int, None)
    # rows out of descending order within SORT_TOL are sorted as a list is
    for i in np.flatnonzero(((values[:, 1:] > values[:, :-1]) & pairs).any(axis=1)).tolist():
        values[i, : count[i]] = sorted(values[i, : count[i]].tolist(), reverse=True)

    board = np.fromiter(map(_BOARD_CODES.get, boards, itertools.repeat(-1)), np.int64, len(boards))
    flag(board < 0, lambda i: f"unknown board {boards[i]!r}")
    ownership = np.fromiter(map(_OWNERSHIP_CODES.get, ownerships, itertools.repeat(-1)), np.int64, len(ownerships))
    flag(ownership < 0, lambda i: f"unknown ownership {ownerships[i]!r}")
    # a share that did not parse is nan, which fails both comparisons
    bad = ~((values > 0.0) & (values <= 1.0)) & held
    flag(bad.any(axis=1), lambda i: f"share {values[i, np.argmax(bad[i])].item()!r} outside (0, 1]; "
                                    "absent holders are omitted")
    # a row with a bad share is rejected already, as is one with a bad
    # meeting share; zeroing them keeps the units finite
    wide = ~((meeting >= 0.0) & (meeting <= 1.0))
    cells = np.column_stack((np.where(bad.any(axis=1)[:, None], 0.0, values), np.where(wide, 0.0, meeting)))
    units, scale, off = _decimal_units(cells)
    places = f"is not a decimal of at most {_MAX_DECIMALS} places"
    flag(off[:, :MAX_HOLDERS].any(axis=1), lambda i: f"{cells[i, np.argmax(off[i])].item()!r} {places}")
    # the exact decimal total, correctly rounded
    flag(units[:, :MAX_HOLDERS].sum(axis=1) / _POW10[scale] > 1.0 + SHARE_SUM_TOL,
         lambda i: "shares sum above total equity")
    flag(wide & has_meeting, lambda i: f"meeting share {meeting[i].item()!r} outside [0, 1]")
    flag(off[:, MAX_HOLDERS], lambda i: f"{meeting[i].item()!r} {places}")
    # the holder count is 1..10 and the shares descend by construction, and
    # n_meetings is digits alone, so no rule remains for them
    return Registry(_int_column(year), board, ownership, firm_id, has_meeting, n_meetings, units, scale), problems


def _decimal_text(units: int, scale: int) -> str:
    """The decimal ``units / 10**scale`` as its shortest plain text, with
    no exponent: "1" for 10**scale units, "0.5" for 50 at scale 2."""
    whole, part = divmod(units, 10**scale)
    return f"{whole}.{part:0{scale}d}".rstrip("0") if part else str(whole)


def emit_csv(registry: Registry, dest) -> None:
    """Write a registry in the CSV schema; inverse of ingest_csv. Each value
    is written from its units, as the shortest decimal that reads as it."""
    own = not hasattr(dest, "write")
    handle = open(dest, "w", newline="", encoding="utf-8") if own else dest
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        columns = (c.tolist() if isinstance(c, np.ndarray) else c for c in registry.columns())
        for year, board, ownership, firm_id, has, n_meetings, units, scale in zip(*columns):
            shares = [_decimal_text(u, scale) for u in units[:MAX_HOLDERS] if u]
            writer.writerow([firm_id, year, BOARDS[board], OWNERSHIPS[ownership], *shares,
                             *[""] * (MAX_HOLDERS - len(shares)),
                             _decimal_text(units[MAX_HOLDERS], scale) if has else "",
                             "" if n_meetings is None else n_meetings])
    finally:
        if own:
            handle.close()


class MomentTarget(NamedTuple):
    mean: float
    sd: float


_CLIP_TOP1 = (0.02, 0.75)  # bounds of every synthetic leading share
_SPLIT_ALPHA = 8.0  # Dirichlet concentration of the co-holders' split
_MEETING_RATIO = MomentTarget(0.87, 0.14)  # meeting share over the top-10 total
_SYNTH_DECIMALS = 6  # places of every synthetic share, as a printed registry carries


@dataclass(frozen=True)
class SynthConfig:
    """Seeded generator settings for one (board, ownership) cohort.

    ``top1`` and ``top2_10`` give the moment targets of every year. With
    ``pdf`` set the config is an outcome generator (power draws per year)
    instead of a registry generator.
    """

    years: tuple[int, ...]
    firms_per_year: int
    seed: int
    group: GroupKey = GroupKey("main", "private")
    top1: MomentTarget | None = None
    top2_10: MomentTarget | None = None
    pdf: ControlPowerPdf | None = None

    def __post_init__(self):
        if not self.years:
            raise ValueError("need at least one year")
        ordered = sorted(self.years)
        if repeated := [a for a, b in zip(ordered, ordered[1:]) if a == b]:
            raise ValueError(f"year {repeated[0]} is given more than once")
        if self.firms_per_year < 1:
            raise ValueError("need at least one firm per year")
        if self.pdf is None:
            if self.top1 is None or self.top2_10 is None:
                raise ValueError("registry mode needs top1 and top2_10 targets")
            for name, (mean, sd) in (("top1", self.top1), ("top2_10", self.top2_10)):
                if not (math.isfinite(mean) and math.isfinite(sd) and sd >= 0):
                    raise ValueError(f"{name} target needs a finite mean and a finite, non-negative sd, "
                                     f"got {mean!r}, {sd!r}")
            lo, hi = _CLIP_TOP1
            if not lo <= self.top1.mean <= hi:
                raise ValueError(f"top1 mean {self.top1.mean} outside clip range")

    @property
    def mode(self) -> str:
        return "outcomes" if self.pdf is not None else "registry"


def synth_registry(config: SynthConfig) -> Registry:
    """A registry with the configured yearly moments, deterministic for a given config.

    Each year draws for all its firms at once, in this order: the leading
    share ``top1`` (a clipped normal), the co-holders' total ``rest`` (a
    normal clipped to [0, rest_cap]), a symmetric Dirichlet split over nine
    co-holders, the meeting noise and the meeting count. With
    ``p = rest*split``, the excess ``E = sum(max(p - top1, 0))`` and the
    headroom ``r = max(top1 - p, 0)``, each part becomes
    ``min(p, top1) + r*E/sum(r)``: one pass that keeps the sum and leaves
    every part <= top1, since ``rest_cap <= 9*top1*(1 - 1e-9)`` makes
    ``sum(r) - E = 9*top1 - rest`` positive. A split within top1 stays as
    drawn. Zero target SDs give an equal split and identical firms;
    ``rest = 0`` gives one holder. Every share is then floored to whole
    micro-units (10^-6), and the meeting share is the floored product of
    the noise and the integer top-10 total, clipped to [0, 1].
    """
    if config.mode != "registry":
        raise ValueError("config is an outcome generator, not a registry generator")
    rng = np.random.default_rng(config.seed)
    firms, n = config.firms_per_year, MAX_HOLDERS - 1
    t1, t210, mr = config.top1, config.top2_10, _MEETING_RATIO
    draws = [(rng.normal(t1.mean, t1.sd, firms), rng.normal(t210.mean, t210.sd, firms),
              rng.dirichlet(np.full(n, _SPLIT_ALPHA), firms) if t1.sd or t210.sd else np.full((firms, n), 1.0 / n),
              rng.normal(mr.mean, mr.sd, firms), rng.integers(1, 16, firms)) for _ in config.years]
    top1, rest, split, noise, n_meetings = map(np.concatenate, zip(*draws))
    top1 = np.clip(top1, *_CLIP_TOP1)
    rest = np.clip(rest, 0.0, np.minimum(1.0 - top1 - SHARE_SUM_TOL, n * top1 * (1.0 - 1e-9)))
    p, cap = rest[:, None] * split, top1[:, None]
    room = np.maximum(cap - p, 0.0)
    p = np.minimum(p, cap) + room * (np.maximum(p - cap, 0.0).sum(axis=1) / room.sum(axis=1))[:, None]
    # whole micro-units, floored: the order, the top1 cap and a total of at
    # most 1 hold as drawn; a co-holder below one unit is absent
    units = np.floor(np.hstack([cap, np.sort(p, axis=1)[:, ::-1]]) * _POW10[_SYNTH_DECIMALS]).astype(np.int64)
    meeting = np.floor(np.clip(noise * units.sum(axis=1), 0.0, _POW10[_SYNTH_DECIMALS])).astype(np.int64)
    board, ownership = config.group
    return Registry(
        year=_int_column([year for year in config.years for _ in range(firms)]),
        board=np.full(len(top1), _BOARD_CODES[board]),
        ownership=np.full(len(top1), _OWNERSHIP_CODES[ownership]),
        firm_id=[f"{board[0]}{ownership[0]}-{year}-{j:04d}" for year in config.years for j in range(firms)],
        has_meeting=np.ones(len(top1), dtype=bool),
        n_meetings=n_meetings.tolist(),
        units=np.column_stack((units, meeting)),
        scale=np.full(len(top1), _SYNTH_DECIMALS, dtype=np.int8),
    )


def synth_outcomes(config: SynthConfig) -> dict[int, np.ndarray]:
    """Per-year power draws from the configured mixed distribution.

    Year y maps to time t = y - years[0]; each year gets firms_per_year
    draws. Deterministic for a given config. All years are drawn as one
    block, in ``pdf_sample``'s order: one uniform per draw for every year,
    year by year, then the normal rounds for the continuous draws of all
    years together, filled year by year.
    """
    if config.mode != "outcomes":
        raise ValueError("config has no outcome distribution")
    origin = config.years[0]
    times = [float(year - origin) for year in config.years]
    block = _sample_block(config.pdf, times, config.firms_per_year, np.random.default_rng(config.seed))
    return dict(zip(config.years, block))

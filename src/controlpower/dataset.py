"""Firm-year shareholder registries: validation, CSV ingest/emit, the
column table the pipeline filters and groups, and seeded synthetic
generators calibrated to yearly moment targets.

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
them. A value that no such decimal reads as is a data error.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .evolution import ControlPowerPdf, pdf_sample

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


class _Rule(NamedTuple):
    test: Callable  # flags the bad values among those it is given
    message: str  # formatted with the failing row's fields


# The rules every registry row meets, in checking order. Each test uses
# only operators that act alike on one Python value and on a numpy column,
# so FirmYearRecord checks its own fields and the column table whole
# columns with the same tests. _SHARE and _UNITS test each share and _RISE
# each consecutive pair; the meeting rules, _UNITS again among them, hold
# where a meeting share is given.
_BOARD = _Rule(lambda code: code < 0, "unknown board {board!r}")
_OWNERSHIP = _Rule(lambda code: code < 0, "unknown ownership {ownership!r}")
_COUNT = _Rule(lambda n: (n < 1) | (n > MAX_HOLDERS), f"need 1..{MAX_HOLDERS} shares, got {{count}}")
# nan fails the first term, +-inf the others
_SHARE = _Rule(lambda s: (s != s) | (s <= 0.0) | (s > 1.0),
               "share {share!r} outside (0, 1]; absent holders are omitted")
_RISE = _Rule(operator.lt, "shares must be non-increasing")  # flags a share below the next
_TOTAL = _Rule(lambda total: total > 1.0 + SHARE_SUM_TOL, "shares sum above total equity")
_MEETING = _Rule(lambda m: (m != m) | (m < 0.0) | (m > 1.0), "meeting share {meeting_share!r} outside [0, 1]")
_MAX_DECIMALS = 12  # most places of exact units: 2 * total stays far below 2^53
# a share or meeting share in [0, 1] that is not the float of a decimal of
# at most 12 places: rint(v * 10^12) / 10^12 is such a float (see _decimal_units)
_UNITS = _Rule(lambda v: np.rint(v * 10.0**_MAX_DECIMALS) / 10.0**_MAX_DECIMALS != v,
               f"{{value!r}} is not a decimal of at most {_MAX_DECIMALS} places")
_N_MEETINGS = _Rule(lambda n: n < 0, "meeting count must be non-negative")
# codes sort like the names, since both tuples are in alphabetical order
_BOARD_CODES = {name: i for i, name in enumerate(BOARDS)}
_OWNERSHIP_CODES = {name: i for i, name in enumerate(OWNERSHIPS)}
# the one grammar of a number cell; a cell that also parses as an int has no
# '.'. Only the slow paths match it, so it is compiled there, on first use.
_PLAIN = r"[0-9]+(?:\.[0-9]+)?"
_POW10 = np.array([10**d for d in range(_MAX_DECIMALS + 1)], dtype=np.int64)


@dataclass(frozen=True)
class FirmYearRecord:
    """One firm-year registry row. Shares are the disclosed top holders'
    equity fractions, descending; absent holders are omitted rather than
    stored as zeros, so records have one canonical form. Each share and
    the meeting share must read as a decimal of at most 12 places."""

    firm_id: str
    year: int
    board: str
    ownership: str
    shares: tuple[float, ...]
    meeting_share: float | None = None
    n_meetings: int | None = None

    def __post_init__(self):
        shares, meeting = self.shares, self.meeting_share
        if _BOARD.test(_BOARD_CODES.get(self.board, -1)):
            raise DataError(_BOARD.message.format(board=self.board))
        if _OWNERSHIP.test(_OWNERSHIP_CODES.get(self.ownership, -1)):
            raise DataError(_OWNERSHIP.message.format(ownership=self.ownership))
        if _COUNT.test(len(shares)):
            raise DataError(_COUNT.message.format(count=len(shares)))
        for s in shares:
            if _SHARE.test(s):
                raise DataError(_SHARE.message.format(share=s))
        if any(map(_RISE.test, shares, shares[1:])):
            raise DataError(_RISE.message)
        for s in shares:
            if _UNITS.test(s):
                raise DataError(_UNITS.message.format(value=float(s)))
        # the exact decimal total, correctly rounded, as a table row's
        if _TOTAL.test(sum(round(s * 10**_MAX_DECIMALS) for s in shares) / 10**_MAX_DECIMALS):
            raise DataError(_TOTAL.message)
        if meeting is not None and _MEETING.test(meeting):
            raise DataError(_MEETING.message.format(meeting_share=meeting))
        if meeting is not None and _UNITS.test(meeting):
            raise DataError(_UNITS.message.format(value=float(meeting)))
        if self.n_meetings is not None and _N_MEETINGS.test(self.n_meetings):
            raise DataError(_N_MEETINGS.message)

    @classmethod
    def _checked(cls, **fields) -> FirmYearRecord:
        """A record of fields that passed the rules already, as a table's
        rows have, built without checking them again."""
        record = object.__new__(cls)
        vars(record).update(fields)
        return record


def _int_column(values: Sequence[int]) -> np.ndarray:
    """int64 where every value fits, else an object array of Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _decimal_units(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's exact decimal units and scale: the int64 block of ``v *
    10**d`` for the (N x 11) float block ``cells`` of ten shares and the
    meeting share (0 where absent or blank), d being the fewest places that
    hold every cell of the row, and d. Every cell must pass ``_UNITS``.

    Values lie in [0, 1]. d is the smallest d <= 12 with rint(v * 10^d) /
    10^d == v for every cell v of the row. For a float v of a decimal of at
    most d places, the product is within 2e-4 of that decimal's units, so
    rint recovers them and the division rounds them back to v; for any
    other float the test fails, since decimals of 12 places or fewer lie
    10^-12 apart or more, too far to share a float. So a cell written with
    at most 12 places gives its written value, and a table of records,
    which hold floats only, gets the units its CSV gets; and ``units /
    10**scale`` (the correctly rounded quotient) is each cell's float again.
    """
    scale = np.full(len(cells), _MAX_DECIMALS, dtype=np.int8)  # a row at 12 is still open below it
    trial = np.empty_like(cells)  # one buffer for every trial: allocation costs more than the arithmetic
    for d, p in enumerate(_POW10[:-1].tolist()):
        np.divide(np.rint(np.multiply(cells, p, out=trial), out=trial), p, out=trial)
        scale[(scale == _MAX_DECIMALS) & (trial == cells).all(axis=1)] = d
        if (scale < _MAX_DECIMALS).all():
            break
    np.multiply(cells, _POW10[scale][:, None], out=trial)
    return np.rint(trial, out=trial).astype(np.int64), scale


class _Table(NamedTuple):
    """A registry as columns, one row per firm-year, in row order.

    ``units`` is an (N x 11) int64 block of each row's exact decimal units
    at 10^``scale``: ten shares, descending, with 0 for absent holders, then
    the meeting share, 0 where ``has_meeting`` is False (``_decimal_units``).
    ``count`` is each row's holder count. ``board`` and ``ownership`` index
    BOARDS and OWNERSHIPS. ``firm_id`` and ``n_meetings`` (None where blank)
    are lists. A value's float is ``units / 10**scale``.
    """

    year: np.ndarray
    board: np.ndarray
    ownership: np.ndarray
    firm_id: list
    count: np.ndarray
    has_meeting: np.ndarray
    n_meetings: list
    units: np.ndarray
    scale: np.ndarray

    def take(self, index: np.ndarray) -> _Table:
        """The rows at ``index``, in that order."""
        rows = index.tolist()
        return _Table(*(c[index] if isinstance(c, np.ndarray) else [c[i] for i in rows] for c in self))

    def floats(self, index=slice(None)) -> np.ndarray:
        """The float64 block of the shares and meeting share of the rows at ``index``."""
        return self.units[index] / _POW10[self.scale[index]][:, None]

    def records(self) -> list[FirmYearRecord]:
        return [
            FirmYearRecord._checked(firm_id=firm_id, year=year, board=BOARDS[board], ownership=OWNERSHIPS[ownership],
                                    shares=tuple(values[:n]), meeting_share=values[MAX_HOLDERS] if has else None,
                                    n_meetings=n_meetings)
            for year, board, ownership, firm_id, n, has, n_meetings, values in zip(
                *(c.tolist() if isinstance(c, np.ndarray) else c for c in self[:-2]), self.floats().tolist())
        ]

    @classmethod
    def from_records(cls, records: Iterable[FirmYearRecord]) -> _Table:
        """The table of records, which passed the rules when they were built."""
        records = list(records)
        pad = [(0.0,) * (MAX_HOLDERS - n) for n in range(MAX_HOLDERS + 1)]
        cells = np.array([r.shares + pad[len(r.shares)] + (r.meeting_share or 0.0,) for r in records], dtype=float)
        units, scale = _decimal_units(cells.reshape(-1, MAX_HOLDERS + 1))
        return cls(
            year=_int_column([r.year for r in records]),
            board=np.array([_BOARD_CODES[r.board] for r in records], dtype=np.int64),
            ownership=np.array([_OWNERSHIP_CODES[r.ownership] for r in records], dtype=np.int64),
            firm_id=[r.firm_id for r in records],
            count=np.array([len(r.shares) for r in records], dtype=np.int64),
            has_meeting=np.array([r.meeting_share is not None for r in records], dtype=bool),
            n_meetings=[r.n_meetings for r in records],
            units=units,
            scale=scale,
        )


def ingest_csv(source) -> list[FirmYearRecord]:
    """Read and validate a registry CSV (path or open text handle).

    Any invalid row raises DataError listing every problem with its file
    line number.
    """
    return _ingest_table(source).records()


def _ingest_table(source) -> _Table:
    """``ingest_csv``'s rows as one column table."""
    if hasattr(source, "read"):
        return _read_table(source, getattr(source, "name", "input"))
    with open(source, newline="", encoding="utf-8-sig") as handle:
        return _read_table(handle, source)


# Rows read, parsed and checked at a time, so only one chunk's cells are
# held at once. Over three registry-10k CLI reports, peak RSS was 45.6 MB
# with 512-row chunks and 48.0 MB with 2048 (46.6 MB reading row by row
# into records), with no measured difference in ingest time.
_CHUNK_ROWS = 512


def _read_table(handle, name: str) -> _Table:
    """The registry of an open CSV handle; ``name`` names it in the error of
    a row the CSV reader cannot split, which stops the read."""
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
    parts = [_Table.from_records([])]  # typed columns even for a file without rows
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
        if rows:
            part, bad = _parse_chunk(rows, index, len(header))
            parts.append(part)
            problems += [f"row {lines[i]}: {message}" for i, message in sorted(bad.items())]
        if unsplit:
            problems.append(unsplit)
        if unsplit or len(rows) < _CHUNK_ROWS:  # the reader stopped
            break
    if problems:
        raise DataError("; ".join(problems))
    return _Table(*(np.concatenate(c) if isinstance(c[0], np.ndarray) else list(itertools.chain(*c))
                    for c in zip(*parts)))


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


def _parse_chunk(rows: Sequence[Sequence[str]], index: Sequence[int], width: int) -> tuple[_Table, dict[int, str]]:
    """A chunk's rows as a table, and the problem of each invalid row by its
    position in the chunk (the table is of use only when there is none).

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
    columns = list(zip(*rows))
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
    flag(_BOARD.test(board), lambda i: _BOARD.message.format(board=boards[i]))
    ownership = np.fromiter(map(_OWNERSHIP_CODES.get, ownerships, itertools.repeat(-1)), np.int64, len(ownerships))
    flag(_OWNERSHIP.test(ownership), lambda i: _OWNERSHIP.message.format(ownership=ownerships[i]))
    flag(_COUNT.test(count), lambda i: _COUNT.message.format(count=int(count[i])))
    bad = _SHARE.test(values) & held
    flag(bad.any(axis=1), lambda i: _SHARE.message.format(share=values[i, np.argmax(bad[i])].item()))
    flag((_RISE.test(values[:, :-1], values[:, 1:]) & pairs).any(axis=1), lambda i: _RISE.message)
    # a row with a bad share is rejected already, as is one with a bad
    # meeting share; zeroing them keeps the units finite
    cells = np.column_stack((np.where(bad.any(axis=1)[:, None], 0.0, values),
                             np.where(_MEETING.test(meeting), 0.0, meeting)))
    off = _UNITS.test(cells)
    flag(off[:, :MAX_HOLDERS].any(axis=1), lambda i: _UNITS.message.format(value=cells[i, np.argmax(off[i])].item()))
    units, scale = _decimal_units(cells)
    # the exact decimal total, correctly rounded
    flag(_TOTAL.test(units[:, :MAX_HOLDERS].sum(axis=1) / _POW10[scale]), lambda i: _TOTAL.message)
    flag(_MEETING.test(meeting) & has_meeting, lambda i: _MEETING.message.format(meeting_share=meeting[i].item()))
    flag(off[:, MAX_HOLDERS], lambda i: _UNITS.message.format(value=meeting[i].item()))
    flag(_N_MEETINGS.test(_int_column([m or 0 for m in n_meetings])), lambda i: _N_MEETINGS.message)
    return _Table(_int_column(year), board, ownership, firm_id, count, has_meeting, n_meetings, units, scale), problems


def emit_csv(records: Iterable[FirmYearRecord], dest) -> None:
    """Write records in the registry schema; inverse of ingest_csv."""
    # the shortest decimal that reads as the value, without an exponent: "1" for 1.0
    text = functools.partial(np.format_float_positional, trim="-")
    own = not hasattr(dest, "write")
    handle = open(dest, "w", newline="", encoding="utf-8") if own else dest
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            shares = [text(s) for s in rec.shares]
            shares += [""] * (MAX_HOLDERS - len(shares))
            writer.writerow(
                [rec.firm_id, rec.year, rec.board, rec.ownership]
                + shares
                + [
                    "" if rec.meeting_share is None else text(rec.meeting_share),
                    "" if rec.n_meetings is None else rec.n_meetings,
                ]
            )
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


def synth_registry(config: SynthConfig) -> list[FirmYearRecord]:
    """The records of ``_synth_table(config)``, a registry with the configured yearly moments."""
    return _synth_table(config).records()


def _synth_table(config: SynthConfig) -> _Table:
    """The synthetic registry as one column table, deterministic for a given config.

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
    return _Table(
        year=_int_column([year for year in config.years for _ in range(firms)]),
        board=np.full(len(top1), _BOARD_CODES[board]),
        ownership=np.full(len(top1), _OWNERSHIP_CODES[ownership]),
        firm_id=[f"{board[0]}{ownership[0]}-{year}-{j:04d}" for year in config.years for j in range(firms)],
        count=np.count_nonzero(units, axis=1),
        has_meeting=np.ones(len(top1), dtype=bool),
        n_meetings=n_meetings.tolist(),
        units=np.column_stack((units, meeting)),
        scale=np.full(len(top1), _SYNTH_DECIMALS, dtype=np.int8),
    )


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

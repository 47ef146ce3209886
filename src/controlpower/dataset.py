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
any of its cells needs once trailing zeros are dropped, and its games are
counted on them. The units come from the digits of the cell's text, with
no float step (``_numbers``); only a cell written with more than 12
places goes through its float, whose shortest decimal must then have at
most 12 (``_exact_units``). A value that no such decimal reads as is a
data error. The table holds those units and nothing derived from them: no
holder count and no float of a value.

A block's cells are read a column at a time. A row those columns cannot
read (an odd cell), or whose units may break a row rule or need sorting,
is set aside and read again from its cell texts, one row at a time, by
``_read_row``; a registry of plain cells within the rules sets none aside.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import re
import sys
from dataclasses import dataclass, fields
from decimal import Decimal
from typing import Iterable, NamedTuple, Sequence

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
# '.'. The slow paths match it through re's cache; spi compiles its list pattern from it.
_PLAIN = r"[0-9]+(?:\.[0-9]+)?"
_POW10 = np.array([10**d for d in range(_MAX_DECIMALS + 1)], dtype=np.int64)


def _int_column(values: Sequence[int]) -> np.ndarray:
    """int64 where every value fits, else an object array of Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class Registry:
    """A firm-year registry as columns, one row per firm-year, in row order;
    ``len`` is its row count.

    ``units`` is an (N x 11) int64 block of each row's exact decimal units
    at 10^``scale``: ten shares, descending, with 0 for absent holders, then
    the meeting share, 0 where ``has_meeting`` is False, read from the
    digits of each cell's text (``_numbers``). A row's holders are its nonzero shares; no column restates their count.
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


def ingest_csv(source) -> Registry:
    """Read and validate a registry CSV (path or open handle).

    Any invalid row raises DataError listing every problem with its file
    line number. A row the reader cannot split, or a byte that is not
    UTF-8, stops the read with an error naming the file (a handle's name,
    else "input") and the line.
    """
    # the byte reader is imported where it is used, so that only a run that
    # reads a registry compiles it
    from .csvbytes import _blocks, _record

    own = not hasattr(source, "read")
    name = source if own else getattr(source, "name", "input")
    with open(source, "rb") if own else contextlib.nullcontext(source) as handle:
        blocks = _blocks(handle, name, own)
        block = next(blocks, None)
        if block is None:
            raise DataError("empty file, no header row")
        if not len(block.first):
            raise DataError(block.error)
        header = _record(block, 0)
        columns = {column: i for i, column in enumerate(header)}  # a repeated name: the last wins
        missing = [c for c in CSV_COLUMNS if c not in columns]
        if missing:
            raise DataError(f"missing required columns: {', '.join(missing)}")
        index = np.array([columns[c] for c in CSV_COLUMNS])
        # each column's block parts; the first block's first record is the header
        columns, problems, skip = [[] for _ in fields(Registry)], [], 1
        while block is not None:
            rows = np.flatnonzero(block.count[skip:]) + skip  # blank lines are skipped
            part, bad = _parse_block(block, rows, index, len(header))
            for column, values in zip(columns, part.columns()):
                column.append(values)
            problems += [f"row {block.line[rows[i]]}: {message}" for i, message in sorted(bad.items())]
            if block.error:
                problems.append(block.error)
                break
            block, skip = next(blocks, None), 0
    if problems:
        raise DataError("; ".join(problems))
    return Registry(*map(_joined, columns))


def _joined(parts: list):
    """A column from its block parts, which are let go as soon as it is
    built, so that one column at a time is held twice."""
    column = np.concatenate(parts) if isinstance(parts[0], np.ndarray) else list(itertools.chain(*parts))
    parts.clear()
    return column


def _int(text: str) -> int:
    """int() of a cell; ASCII digits drop leading zeros first, since int()
    refuses over 4,300 digits, zeros too, and more significant digits than
    int() reads are a DataError naming their count and the limit. Other
    text keeps int()'s error."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        return int(text)
    digits = digits.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:  # digits alone fail only on the limit
        raise DataError(f"a number of {len(digits)} digits, over int()'s limit of "
                        f"{sys.get_int_max_str_digits()}") from None


def _exact_units(text: str, value: float) -> tuple[int, int] | None:
    """A plain cell's exact (units, places), given its float: its written
    decimal when that has at most 12 places once trailing zeros are
    dropped, else the shortest decimal of its float; None when that too
    needs more. A cell outside [0, 1] (or blank, nan) is (0, 0): its row is
    rejected on its value."""
    if not 0.0 <= value <= 1.0:
        return 0, 0
    whole, _, part = text.partition(".")
    part = part.rstrip("0")
    if len(part) <= _MAX_DECIMALS:
        return _int(whole + part), len(part)
    shortest = Decimal(repr(value)).normalize()
    places = max(0, -shortest.as_tuple().exponent)
    return (int(shortest.scaleb(places)), places) if places <= _MAX_DECIMALS else None


def _cell(text: str, parse):
    """``parse`` (_int or float) of a number cell's stripped text; a cell that
    does not parse or is not plain (``_PLAIN``) is a DataError."""
    try:
        value = parse(text)
    except DataError:
        raise
    except ValueError as exc:
        raise DataError(f"unparseable value ({exc})") from None
    if not re.fullmatch(_PLAIN, text):
        raise DataError(f"unparseable value (not a plain decimal number: {text!r})")
    return value


def _read_row(cells: Sequence[str], index: Sequence[int], width: int) -> tuple:
    """One row from its cell texts, ``index`` giving the cells of CSV_COLUMNS:
    firm_id, year, the board and ownership codes, the meeting flag,
    n_meetings, the units at 10^scale and scale, with shares out of
    descending order within SORT_TOL sorted. An invalid row raises its
    first problem in reading order: the cell count, year, the share cells
    left to right (a value after a blank, or not plain), the share list
    (none disclosed, all zero, out of order), meeting_share, n_meetings,
    then the rules: board, ownership, each share in (0, 1], each of at most
    12 places, their sum, the meeting share in [0, 1], its places."""
    if len(cells) < width:
        raise DataError(f"{len(cells)} cells, the header has {width}")
    firm_id, year, board, ownership, *numbers = [cells[i].strip() for i in index]
    year = _cell(year, _int)
    shares, blank = [], False
    for j, text in enumerate(numbers[:MAX_HOLDERS]):
        if not text:
            blank = True
        elif blank:
            raise DataError(f"share column s{j + 1} follows a blank column")
        else:
            shares.append((_cell(text, float), text))
    if not shares:
        raise DataError("no shares disclosed")
    while shares and shares[-1][0] == 0.0:  # zero cells at the tail mean the holder does not exist
        shares.pop()
    if not shares:
        raise DataError("all disclosed shares are zero")
    if any(b - a > SORT_TOL for (a, _), (b, _) in zip(shares, shares[1:])):
        raise DataError("shares out of descending order beyond tolerance")
    meeting, n_meetings = numbers[MAX_HOLDERS:]
    value = _cell(meeting, float) if meeting else 0.0
    n_meetings = _cell(n_meetings, _int) if n_meetings else None
    shares.sort(key=lambda share: -share[0])  # stable: equal shares keep their order
    codes = _BOARD_CODES.get(board), _OWNERSHIP_CODES.get(ownership)
    if codes[0] is None:
        raise DataError(f"unknown board {board!r}")
    if codes[1] is None:
        raise DataError(f"unknown ownership {ownership!r}")
    for share, _ in shares:
        if not 0.0 < share <= 1.0:
            raise DataError(f"share {share!r} outside (0, 1]; absent holders are omitted")
    places = f"is not a decimal of at most {_MAX_DECIMALS} places"
    exact = [_exact_units(text, share) for share, text in shares]
    if None in exact:
        raise DataError(f"{shares[exact.index(None)][0]!r} {places}")
    exact.append(_exact_units(meeting, value) if meeting else (0, 0))
    scale = max(p for _, p in filter(None, exact))
    units = [u * 10 ** (scale - p) for u, p in (e or (0, 0) for e in exact)]
    # the exact decimal total, correctly rounded
    if sum(units[:-1]) / 10**scale > 1.0 + SHARE_SUM_TOL:
        raise DataError("shares sum above total equity")
    if not 0.0 <= value <= 1.0:
        raise DataError(f"meeting share {value!r} outside [0, 1]")
    if exact[-1] is None:
        raise DataError(f"{value!r} {places}")
    return (firm_id, year, *codes, bool(meeting), n_meetings,
            units[:-1] + [0] * (MAX_HOLDERS - len(shares)) + units[-1:], scale)


# bytes that str.strip may take from a cell's ends: ASCII whitespace, and
# any byte of a non-ASCII character, which may be whitespace
_EDGE = np.array([b >= 128 or chr(b).isspace() for b in range(256)])
_MAX_DIGITS = 15  # most digits of a row's units, whose floats stay exact: 10^15 < 2^53
# the CSV_COLUMNS of a block's cells, as ``_parse_block`` lays them out:
# the number cells year, s1..s10, meeting_share and n_meetings, then firm_id,
# board and ownership
_LAYOUT = [1, *range(4, 4 + MAX_HOLDERS + 2), 0, 2, 3]
_NUMBERS = len(_LAYOUT) - 3


def _parse_block(block, rows: np.ndarray, index: np.ndarray, width: int) -> tuple[Registry, dict[int, str]]:
    """The records ``rows`` of ``block`` (a ``csvbytes._Block``) as a
    registry, and the problem of each invalid row by its position in
    ``rows`` (the registry is of use only when there is none).

    Cells are read from their bytes into exact units, whole columns at once.
    A row is set aside when the columns cannot read it (fewer cells than
    the header, a quoted cell with other quotes inside, a number cell
    outside the plain grammar, blank where it may not be, or needing more
    than 12 places or 15 digits, a board or ownership not spelled as one,
    or whitespace or a non-ASCII character at a firm_id's end) or when its
    units may break a row rule or need sorting. Each set-aside row is read
    again from its cell texts, one row at a time, by ``_read_row``.
    """
    from .csvbytes import _numbers, _record, _texts, _words

    data, n = block.data, len(rows)
    view = np.frombuffer(data, dtype=np.uint8)
    first, count = block.first[rows], block.count[rows]
    slow = count < width  # a short row is set aside
    field = first + np.where(slow, 0, index[_LAYOUT, None])
    a, b = block.start[field], block.stop[field]  # a column of cells to a line
    del field
    if len(block.quotes):  # a quoted cell is its text inside the quotes, when it has no others
        quoted = (b > a) & (view[np.minimum(a, len(view) - 1)] == 34)
        inner = np.searchsorted(block.quotes, b) - np.searchsorted(block.quotes, a)
        bare = quoted & (inner == 2) & (view[b - 1] == 34)
        slow |= (quoted & ~bare).any(axis=0)
        a, b = a + bare, b - bare
    spelled = _texts(view, a[-3:].ravel(), b[-3:].ravel())  # firm_id, board and ownership, column by column
    firm_id = spelled[:n]  # a set-aside row's is read again
    board, ownership = (np.fromiter(map(codes.get, spelled[j * n : (j + 1) * n], itertools.repeat(-1)), np.int64, n)
                        for j, codes in ((1, _BOARD_CODES), (2, _OWNERSHIP_CODES)))
    edge = (b[-3] > a[-3]) & (_EDGE[view[np.minimum(a[-3], len(view) - 1)]] | _EDGE[view[b[-3] - 1]])
    slow |= (board < 0) | (ownership < 0) | edge
    size = b[:_NUMBERS] - a[:_NUMBERS]
    del a  # freed before _numbers, which makes the largest of the block's temporaries
    number, places, whole, plain, dot = (x.reshape(_NUMBERS, n) for x in _numbers(
        _words(data), b[:_NUMBERS].ravel(), size.ravel()))
    blank = size == 0
    del b, size
    shares = slice(1, 2 + MAX_HOLDERS)  # and the meeting share
    scale = places[shares].max(axis=0, initial=0)
    slow |= ~plain[0] | ~(plain[-1] | blank[-1]) | ~(plain | dot | blank)[shares].all(axis=0)
    slow |= (scale > _MAX_DECIMALS) | (whole[shares] + scale > _MAX_DIGITS).any(axis=0)
    scale = np.minimum(scale, _MAX_DECIMALS).astype(np.int8)
    units = number[shares] * _POW10[np.maximum(scale - places[shares], 0)]
    year, has_meeting, n_meetings = number[0].copy(), ~blank[-2], number[-1].tolist()
    for i in np.flatnonzero(blank[-1]).tolist():
        n_meetings[i] = None
    # a row whose units may break a rule or need sorting: a blank s1 or a
    # gap, a zero s1, a share above the one before, or a total or meeting
    # share above 1
    total = _POW10[scale]
    check = slow | blank[1] | (blank[1:-3] & ~blank[2:-2]).any(axis=0) | (units[0] == 0)
    check |= (units[1:-1] > units[:-2]).any(axis=0) | (units[:-1].sum(axis=0) > total) | (units[-1] > total)
    units = np.ascontiguousarray(units.T)
    problems = {}
    if check.any():
        year, columns = year.tolist(), index.tolist()
        for i in np.flatnonzero(check).tolist():
            try:
                firm_id[i], year[i], board[i], ownership[i], has_meeting[i], n_meetings[i], units[i], scale[i] = \
                    _read_row(_record(block, rows[i]), columns, width)
            except DataError as exc:
                problems[i] = str(exc)
        year = _int_column(year)
    return Registry(year, board, ownership, firm_id, has_meeting, n_meetings, units, scale), problems


def _decimal_text(units: int, scale: int) -> str:
    """The decimal ``units / 10**scale`` as its shortest plain text, with
    no exponent: "1" for 10**scale units, "0.5" for 50 at scale 2."""
    whole, part = divmod(units, 10**scale)
    return f"{whole}.{part:0{scale}d}".rstrip("0") if part else str(whole)


def _write_csv(dest, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV lines ending in "\\n" to
    ``dest``, a path or an open text handle (which is left open)."""
    own = not hasattr(dest, "write")
    with open(dest, "w", newline="", encoding="utf-8") if own else contextlib.nullcontext(dest) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_csv(registry: Registry, dest) -> None:
    """Write a registry in the CSV schema; inverse of ingest_csv. Each value
    is written from its units, as the shortest decimal that reads as it."""

    def rows():
        columns = (c.tolist() if isinstance(c, np.ndarray) else c for c in registry.columns())
        for year, board, ownership, firm_id, has, n_meetings, units, scale in zip(*columns):
            shares = [_decimal_text(u, scale) for u in units[:MAX_HOLDERS] if u]
            yield [firm_id, year, BOARDS[board], OWNERSHIPS[ownership], *shares,
                   *[""] * (MAX_HOLDERS - len(shares)),
                   _decimal_text(units[MAX_HOLDERS], scale) if has else "",
                   "" if n_meetings is None else n_meetings]

    _write_csv(dest, CSV_COLUMNS, rows())


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

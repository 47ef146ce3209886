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
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import re
from dataclasses import dataclass, fields
from decimal import Decimal
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
    from .csvbytes import _blocks, _field_text

    own = not hasattr(source, "read")
    name = source if own else getattr(source, "name", "input")
    with open(source, "rb") if own else contextlib.nullcontext(source) as handle:
        blocks = _blocks(handle, name, own)
        block = next(blocks, None)
        if block is None:
            raise DataError("empty file, no header row")
        if not len(block.first):
            raise DataError(block.error)
        header = [_field_text(block.data[a:b]) for a, b in zip(block.start[: block.count[0]].tolist(),
                                                               block.stop[: block.count[0]].tolist())]
        columns = {column: i for i, column in enumerate(header)}  # a repeated name: the last wins
        missing = [c for c in CSV_COLUMNS if c not in columns]
        if missing:
            raise DataError(f"missing required columns: {', '.join(missing)}")
        index = np.array([columns[c] for c in CSV_COLUMNS])
        parts, problems, skip = [], [], 1  # the first block's first record is the header
        while block is not None:
            rows = np.flatnonzero(block.count[skip:]) + skip  # blank lines are skipped
            part, bad = _parse_block(block, rows, index, len(header))
            parts.append(part)
            problems += [f"row {block.line[rows[i]]}: {message}" for i, message in sorted(bad.items())]
            if block.error:
                problems.append(block.error)
                break
            block, skip = next(blocks, None), 0
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


def _parse_cells(cells: Sequence[str], parse, blank=_REQUIRED) -> tuple[list, dict[int, str]]:
    """``parse`` (int or float) of every cell, or ``blank`` for an empty one,
    and the error text of each cell that does not parse or is not plain
    (``_PLAIN``), by position; its value is then ``blank``, or 0 where
    blanks are parsed."""
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
        return int(whole + part), len(part)
    shortest = Decimal(repr(value)).normalize()
    places = max(0, -shortest.as_tuple().exponent)
    return (int(shortest.scaleb(places)), places) if places <= _MAX_DECIMALS else None


def _text_rows(rows: Sequence[Sequence[str]], index: Sequence[int]) -> tuple:
    """Rows as str cells, read cell by cell: firm_id, year, board and
    ownership text, the floats of ten shares and the meeting share (nan
    where blank or unparseable), n_meetings, their exact units, scales and
    mask of the cells no decimal of at most 12 places reads as, and the
    error text of each number cell that does not parse, by (row, number
    column)."""
    columns = [[cell.strip() for cell in column] for column in zip(*rows)]
    firm_id, years, boards, ownerships, *numbers = (columns[i] for i in index)
    parses = [(int, _REQUIRED)] + [(float, math.nan)] * (MAX_HOLDERS + 1) + [(int, None)]
    parsed = [_parse_cells(cells, *parse) for cells, parse in zip([years, *numbers], parses)]
    errors = {(i, j): text for j, (_, column) in enumerate(parsed) for i, text in column.items()}
    (year, _), *values, (n_meetings, _) = parsed
    values = [column for column, _ in values]
    units = np.zeros((len(rows), MAX_HOLDERS + 1), dtype=np.int64)
    scale = np.zeros(len(rows), dtype=np.int8)
    off = np.zeros(units.shape, dtype=bool)
    for i, row in enumerate(zip(*numbers[:-1], strict=True)):
        exact = [_exact_units(text, column[i]) for text, column in zip(row, values)]
        off[i] = [e is None for e in exact]
        scale[i] = most = max((p for _, p in filter(None, exact)), default=0)
        units[i] = [u * 10 ** (most - p) for u, p in (e or (0, 0) for e in exact)]
    return firm_id, year, boards, ownerships, np.array(values, dtype=float).T, n_meetings, units, scale, off, errors


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
    A row that needs more is read as text (``_text_rows``): one with fewer
    cells than the header, a quoted cell with other quotes inside, a number
    cell outside the plain grammar, blank where it may not be, or needing
    more than 12 places or 15 digits, a board or ownership not spelled as
    one, or whitespace or a non-ASCII character at a firm_id's end. Those
    rows, and those whose units may break a row rule or need sorting, are
    checked in full (``_check``).
    """
    from .csvbytes import _field_text, _numbers, _texts, _words

    data, n = block.data, len(rows)
    view = np.frombuffer(data, dtype=np.uint8)
    first, count = block.first[rows], block.count[rows]
    short = count < width
    field = first + np.where(short, 0, index[_LAYOUT, None])  # a short row is read as text
    a, b = block.start[field], block.stop[field]  # a column of cells to a line
    del field
    slow = short.copy()
    if len(block.quotes):  # a quoted cell is its text inside the quotes, when it has no others
        quoted = (b > a) & (view[np.minimum(a, len(view) - 1)] == 34)
        inner = np.searchsorted(block.quotes, b) - np.searchsorted(block.quotes, a)
        bare = quoted & (inner == 2) & (view[b - 1] == 34)
        slow |= (quoted & ~bare).any(axis=0)
        a, b = a + bare, b - bare
    number, places, whole, plain, dot = (x.reshape(_NUMBERS, n) for x in _numbers(
        _words(data), a[:_NUMBERS].ravel(), b[:_NUMBERS].ravel()))
    blank = a[:_NUMBERS] == b[:_NUMBERS]
    shares = slice(1, 2 + MAX_HOLDERS)  # and the meeting share
    scale = places[shares].max(axis=0, initial=0)
    slow |= ~plain[0] | ~(plain[-1] | blank[-1]) | ~(plain | dot | blank)[shares].all(axis=0)
    slow |= (scale > _MAX_DECIMALS) | (whole[shares] + scale > _MAX_DIGITS).any(axis=0)
    scale = np.minimum(scale, _MAX_DECIMALS).astype(np.int8)
    units = number[shares] * _POW10[np.maximum(scale - places[shares], 0)]
    spelled = _texts(view, a[-2:].ravel(), b[-2:].ravel())  # the board column, then the ownership column
    board, ownership = (np.fromiter(map(codes.get, spelled[j * n : (j + 1) * n], itertools.repeat(-1)), np.int64, n)
                        for j, codes in enumerate((_BOARD_CODES, _OWNERSHIP_CODES)))
    edge = (b[-3] > a[-3]) & (_EDGE[view[np.minimum(a[-3], len(view) - 1)]] | _EDGE[view[b[-3] - 1]])
    slow |= (board < 0) | (ownership < 0) | edge
    fast = np.flatnonzero(~slow)
    if len(fast) == n:
        firm_id = _texts(view, a[-3], b[-3])
    else:
        firm_id = [""] * n
        for i, text in zip(fast.tolist(), _texts(view, a[-3, fast], b[-3, fast])):
            firm_id[i] = text
    year, has_meeting = number[0].copy(), ~blank[-2]
    n_meetings = np.where(blank[-1], None, number[-1]).tolist()
    # a row whose units may break a rule or need sorting: a blank s1 or a
    # gap, a zero s1, a share above the one before, or a total or meeting
    # share above 1
    total = _POW10[scale]
    check = slow | blank[1] | (blank[1:-3] & ~blank[2:-2]).any(axis=0) | (units[0] == 0)
    check |= (units[1:-1] > units[:-2]).any(axis=0) | (units[:-1].sum(axis=0) > total) | (units[-1] > total)
    units = np.ascontiguousarray(units.T)
    problems = {}
    if len(rows := np.flatnonzero(check)):
        values = np.where(blank[shares, rows].T, math.nan, units[rows] / total[rows, None])
        errors, names, off = {}, {}, np.zeros(values.shape, dtype=bool)
        if len(text := np.flatnonzero(slow[rows])):
            cells = [[""] * width if short[i] else [_field_text(data[block.start[f] : block.stop[f]])
                                                   for f in range(first[i], first[i] + count[i])]
                     for i in rows[text].tolist()]
            ids, years, boards, ownerships, values[text], counts, units[rows[text]], scale[rows[text]], \
                off[text], errors = _text_rows(cells, index)
            year = year.tolist()
            for k, i in enumerate(rows[text].tolist()):
                firm_id[i], year[i], n_meetings[i] = ids[k], years[k], counts[k]
                board[i], ownership[i] = _BOARD_CODES.get(boards[k], -1), _OWNERSHIP_CODES.get(ownerships[k], -1)
                names[int(text[k])] = boards[k], ownerships[k]
            errors = {(int(text[k]), j): message for (k, j), message in errors.items()}
            year = _int_column(year)
        checked = units[rows]
        bad, has_meeting[rows] = _check(count[rows], width, board[rows], ownership[rows], values, checked,
                                        scale[rows], off, errors, names)
        units[rows] = checked
        problems = {int(rows[i]): message for i, message in bad.items()}
    return Registry(year, board, ownership, firm_id, has_meeting, n_meetings, units, scale), problems


def _check(lengths, width, board, ownership, values, units, scale, off, errors, names) -> tuple[dict, np.ndarray]:
    """Each invalid row's first problem, and whether each row has a meeting
    share; rows out of descending order within SORT_TOL are sorted, in
    ``units`` too. ``values`` are the floats of ten shares and the meeting
    share (nan where blank or unparseable), ``units`` their exact units at
    10^``scale`` and ``off`` the cells no decimal of at most 12 places
    reads as; ``errors`` hold the text of each number cell that does not
    parse, by (row, column: 0 year, 1-10 shares, 11 meeting_share, 12
    n_meetings), and ``names`` the board and ownership text of rows read as
    text.

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

    def unparseable(column):
        flag([i for i, j in errors if j == column], lambda i: f"unparseable value ({errors[i, column]})")

    flag(lengths < width, lambda i: f"{lengths[i]} cells, the header has {width}")
    unparseable(0)
    shares = values[:, :MAX_HOLDERS].copy()
    rejected = np.zeros(shares.shape, dtype=bool)
    for i, j in errors:
        if 1 <= j <= MAX_HOLDERS:
            rejected[i, j - 1] = True
    given = ~np.isnan(shares) | rejected
    shares[~given] = 0.0
    after_blank = np.zeros_like(given)
    after_blank[:, 1:] = np.logical_or.accumulate(~given, axis=1)[:, :-1]
    cell_bad = given & (after_blank | rejected)

    def share_cell_problem(i):
        j = int(np.argmax(cell_bad[i]))
        if after_blank[i, j]:
            return f"share column s{j + 1} follows a blank column"
        return f"unparseable value ({errors[i, j + 1]})"

    flag(cell_bad.any(axis=1), share_cell_problem)
    flag(~given.any(axis=1), lambda i: "no shares disclosed")
    # zero cells at the tail mean the holder does not exist
    nonzero = shares != 0.0
    count = np.where(nonzero.any(axis=1), MAX_HOLDERS - np.argmax(nonzero[:, ::-1], axis=1), 0)
    flag(count == 0, lambda i: "all disclosed shares are zero")
    held = np.arange(MAX_HOLDERS) < count[:, None]
    shares = np.where(held, shares, 0.0)
    pairs = held[:, 1:]  # both shares of the pair (j, j + 1) are held
    with np.errstate(invalid="ignore", over="ignore"):
        flag(((shares[:, 1:] - shares[:, :-1] > SORT_TOL) & pairs).any(axis=1),
             lambda i: "shares out of descending order beyond tolerance")
    unparseable(MAX_HOLDERS + 1)
    meeting = values[:, MAX_HOLDERS].copy()
    has_meeting = ~np.isnan(meeting)
    meeting[~has_meeting] = 0.0  # as the table holds it
    unparseable(MAX_HOLDERS + 2)
    # rows out of descending order within SORT_TOL are sorted as a list is,
    # their units and mask alike
    for i in np.flatnonzero(((shares[:, 1:] > shares[:, :-1]) & pairs).any(axis=1)).tolist():
        order = sorted(range(count[i]), key=lambda j: -shares[i, j])
        shares[i, : count[i]], units[i, : count[i]], off[i, : count[i]] = \
            shares[i, order], units[i, order], off[i, order]

    flag(board < 0, lambda i: f"unknown board {names[i][0]!r}")
    flag(ownership < 0, lambda i: f"unknown ownership {names[i][1]!r}")
    # a share that did not parse is nan, which fails both comparisons
    bad = ~((shares > 0.0) & (shares <= 1.0)) & held
    flag(bad.any(axis=1), lambda i: f"share {shares[i, np.argmax(bad[i])].item()!r} outside (0, 1]; "
                                    "absent holders are omitted")
    places = f"is not a decimal of at most {_MAX_DECIMALS} places"
    flag(off[:, :MAX_HOLDERS].any(axis=1), lambda i: f"{shares[i, np.argmax(off[i])].item()!r} {places}")
    # the exact decimal total, correctly rounded
    flag(units[:, :MAX_HOLDERS].sum(axis=1) / _POW10[scale] > 1.0 + SHARE_SUM_TOL,
         lambda i: "shares sum above total equity")
    flag(~((meeting >= 0.0) & (meeting <= 1.0)), lambda i: f"meeting share {meeting[i].item()!r} outside [0, 1]")
    flag(off[:, MAX_HOLDERS], lambda i: f"{meeting[i].item()!r} {places}")
    # the holder count is 1..10 and the shares descend by construction, and
    # n_meetings is digits alone, so no rule remains for them
    return problems, has_meeting


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

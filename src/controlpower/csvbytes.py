"""CSV records and number cells read straight from UTF-8 bytes, for the
registry reader (``dataset.ingest_csv``).

Records are split as the default ``csv`` dialect splits them, from the
positions of separators and quotes found in whole blocks at once; number
cells of the plain grammar become integer units from their digits, eight
bytes to an integer operation, with no float step.
"""

from __future__ import annotations

import codecs
import csv
from typing import NamedTuple

import numpy as np

# Bytes read at a time. A block is cut after its last whole record, so only
# one block's cells are held at once (a record longer than a block grows
# the read until it ends). Larger blocks read faster up to about 128 KiB,
# and past it mostly cost memory: on a 2-CPU Xeon VM (Python 3.11, numpy
# 2.4), reading registry-10k's 10,400 rows in-process took a median 22.1 ms
# in 32 KiB blocks, 18.1 in 64, 16.8 in 128 and 16.3 in 256 KiB, with a
# traced peak of 2.95, 2.95, 3.59 and 5.28 MB, and 100 registry-10k
# reports in one process peaked at 43.7, 43.5, 43.5 and 44.3 MB resident.
_BLOCK_BYTES = 1 << 17
_SEPARATES = np.zeros(256, dtype=bool)
_SEPARATES[list(b",\r\n")] = True
_NONE = np.zeros(0, dtype=np.int64)


class _Block(NamedTuple):
    """Whole records of a registry file as byte spans of ``data``.
    ``start`` and ``stop`` bound each field's raw bytes, quotes included; a
    record has its ``first`` field, a ``count`` of fields (0 for a blank
    line) and the ``line`` it ends on, as ``csv``'s line_num counts lines.
    ``quotes`` are the offsets of the '"' bytes. ``error`` is the problem
    that stops the read after these records."""

    data: bytes
    start: np.ndarray
    stop: np.ndarray
    first: np.ndarray
    count: np.ndarray
    line: np.ndarray
    quotes: np.ndarray
    error: str | None


def _toggles(data: bytes, view: np.ndarray, quotes: np.ndarray) -> np.ndarray:
    """The quotes that open or close a quoted stretch, as the default
    ``csv`` dialect reads them: a quote opens one only at a field's start,
    and inside one a quote closes it, "" being a close and an instant
    reopen. Any other quote is a literal character. When every other quote
    opens, every quote toggles, and the parity of the toggles before a byte
    is the quote mask of Langdale and Lemire, "Parsing gigabytes of JSON per
    second" (VLDB Journal 28, 2019); that is checked on the openers at once,
    and only data that breaks it is walked quote by quote."""
    opens = quotes[::2]
    reopens = np.concatenate(([-1], quotes[1::2] + 1))[: len(opens)]
    if ((opens == 0) | (opens == reopens) | _SEPARATES[view[opens - 1]]).all():
        return quotes
    toggles, inside, closed = [], False, -2
    for q in quotes.tolist():
        if inside:
            closed = q
        elif q and q != closed + 1 and data[q - 1] not in b",\r\n":
            continue
        inside = not inside
        toggles.append(q)
    return np.array(toggles, dtype=np.int64)


class _Split(NamedTuple):
    start: np.ndarray
    stop: np.ndarray
    last: np.ndarray  # each record's last field
    line: np.ndarray  # lines up to each record's end
    line_ends: np.ndarray
    quotes: np.ndarray
    ends: np.ndarray  # the offset after each terminated record
    terminated: int


def _split(data: bytes, final: bool) -> _Split:
    """The records of ``data``, which starts at a record start. A record
    ends at a line end ("\\n", "\\r" or "\\r\\n") outside quotes, or at the
    end of the data when ``final``; otherwise the text after the last
    record end is left unterminated, and so is a closing "\\r", since a
    "\\n" may follow it."""
    end = len(data) - (not final and data.endswith(b"\r"))
    view = np.frombuffer(data, dtype=np.uint8)[:end]
    crs = data.find(b"\r", 0, end) >= 0
    seps = np.flatnonzero((view == 44) | (view == 10) | (view == 13) if crs else (view == 44) | (view == 10))
    quotes = np.flatnonzero(view == 34) if data.find(b'"', 0, end) >= 0 else _NONE
    if len(quotes):
        seps = seps[np.searchsorted(_toggles(data, view, quotes), seps) % 2 == 0]
    kind = view[seps]
    width = 1
    if crs:
        pair = (kind == 10) & (seps > 0) & (view[seps - 1] == 13)
        seps, kind = seps[~pair], kind[~pair]
        width = 1 + ((kind == 13) & (seps + 1 < end) & (view[np.minimum(seps + 1, end - 1)] == 10))
    after = seps + width
    start, stop = np.concatenate(([0], after)), np.concatenate((seps, [end]))
    ended = np.flatnonzero(kind != 44)
    # text after the last record end is one more record
    tail = bool(start[-1] < end or len(kind) and kind[-1] == 44)
    if not tail:
        start, stop = start[:-1], stop[:-1]
    last = np.append(ended, len(seps)) if tail else ended
    if len(quotes):  # a quoted field may hold line ends of its own
        line_ends = np.flatnonzero(view == 10)
        if crs:
            crs = np.flatnonzero(view == 13)
            alone = (crs + 1 == end) | (view[np.minimum(crs + 1, end - 1)] != 10)
            line_ends = np.sort(np.concatenate((line_ends, crs[alone])))
        line = np.searchsorted(line_ends, after[ended] - 1, side="right")
    else:  # every line end ends a record
        line_ends, line = after[ended] - 1, np.arange(1, len(ended) + 1)
    if tail:
        line = np.append(line, len(line_ends) + (not len(line_ends) or line_ends[-1] < end - 1))
    offsets = np.int32 if len(data) < 1 << 31 else np.int64  # spans no wider than the data needs
    start, stop = start.astype(offsets), stop.astype(offsets)
    return _Split(start, stop, last, line, line_ends, quotes, after[ended], len(ended))


def _field_text(raw: bytes, errors: str = "strict") -> str:
    """A field's text from its raw bytes, as the default ``csv`` dialect
    reads it: a field that starts with a quote is quoted up to a lone
    quote, "" inside is one quote, and text after the closing quote is
    kept as it stands."""
    if not raw.startswith(b'"'):
        return raw.decode(errors=errors)
    parts, at = [], 1
    while (q := raw.find(b'"', at)) >= 0 and raw[q + 1 : q + 2] == b'"':
        parts += [raw[at:q], b'"']
        at = q + 2
    parts.append(raw[at:] if q < 0 else raw[at:q] + raw[q + 1 :])
    return b"".join(parts).decode(errors=errors)


def _record(block: _Block, k: int) -> list[str]:
    """The field texts of record ``k`` of ``block``; none for a blank line.
    A record without quotes is decoded at once and split at its commas."""
    f, count = int(block.first[k]), int(block.count[k])
    if not count:
        return []
    text = block.data[block.start[f] : block.stop[f + count - 1]].decode()
    if '"' not in text:
        return text.split(",")
    return [_field_text(block.data[a:b]) for a, b in zip(block.start[f : f + count].tolist(),
                                                         block.stop[f : f + count].tolist())]


def _blocks(handle, name: str):
    """The registry read from ``handle`` (of bytes or text) as blocks of
    whole records; a leading byte-order mark is dropped. A field longer
    than ``csv.field_size_limit()`` characters, or a byte that is not
    UTF-8, ends the read: the last block holds the records before the one
    it is in and names the line that record starts on, or the line of the
    byte (which wins within one record)."""
    limit = csv.field_size_limit()
    carry, size, line, final, bom = b"", _BLOCK_BYTES, 0, False, True
    while not final:
        chunk = handle.read(size)
        final = not chunk
        data = carry + (chunk.encode() if isinstance(chunk, str) else chunk)
        if bom:
            if len(data) < len(codecs.BOM_UTF8) and not final:
                carry = data
                continue
            data, bom = data.removeprefix(codecs.BOM_UTF8), False
        split = _split(data, final)
        count, error = len(split.last) if final else split.terminated, None
        for f in np.flatnonzero(split.stop - split.start > limit).tolist() if len(data) > limit else ():
            if len(_field_text(data[split.start[f] : split.stop[f]], "replace")) > limit:
                count = int(np.searchsorted(split.last, f))
                error = f"{name} line {line + (split.line[count - 1] if count else 0) + 1}: " \
                        f"field larger than field limit ({limit})"
                break
        if not data.isascii():
            try:
                codecs.utf_8_decode(data, "strict", final)
            except UnicodeDecodeError as exc:
                record = int(np.searchsorted(split.ends, exc.start, side="right"))
                if error is None or record <= count:
                    count = record
                    error = f"{name} line {line + np.searchsorted(split.line_ends, exc.start) + 1}: " \
                            f"not UTF-8 (byte 0x{data[exc.start]:02x})"
        if count or error:
            first = np.concatenate(([0], split.last[: count - 1] + 1)) if count else _NONE
            counts = split.last[:count] - first + 1
            counts[(counts == 1) & (split.start[first] == split.stop[first])] = 0  # a blank line
            yield _Block(data, split.start, split.stop, first, counts, line + split.line[:count], split.quotes, error)
            if error or final:
                return
            line += int(split.line[count - 1])
        carry = data[split.ends[count - 1] if count else 0 :]
        size = max(_BLOCK_BYTES, len(carry))  # a record longer than a block doubles the read


_CELL_BYTES = 16  # widest number cell read from its bytes: two 8-byte words
_POW10_CELL = np.array([10**d for d in range(_CELL_BYTES + 1)], dtype=np.int64)
# eight bytes of one value, for SWAR ("SIMD within a register") steps on
# little-endian words: the first byte of a text is a word's lowest
_ONES, _ZEROS, _DOTS, _LOW7, _HIGH4, _SIXES = (np.uint64(0x0101010101010101 * c)
                                               for c in (0x01, 0x30, 0x2E, 0x7F, 0xF0, 0x06))
# fold steps: adjacent lanes of k digits join into lanes of 2k, masked
_FOLDS = [(np.uint64(10**k), np.uint64(8 * k), np.uint64(mask))
          for k, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF))]
# the top k bytes of a word: the last k bytes of a text that ends with it
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _words(data: bytes) -> np.ndarray:
    """Every 8-byte little-endian word of ``data``, unaligned: item e + 8
    is the word of the 8 bytes that end at offset e, zero bytes standing
    before offset 0."""
    return np.ndarray((len(data) + 9,), "<u8", bytes(16) + data, strides=(1,))


def _numbers(items: np.ndarray, b: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, ...]:
    """Number cells read from their bytes ``data[b - width:b]``, ``items``
    being ``_words(data)``: each cell's digit product (its units at 10^places),
    its places once trailing zeros are dropped, its digits before the dot,
    and whether it is digits alone or digits with one dot between digits,
    at most _CELL_BYTES wide.

    Eight bytes at a time, in one integer (SWAR): the last one or two words
    of each cell are gathered, bytes before the cell become '0', a dot is
    found as the byte equal to '.' and read as '0', and a word's digits
    fold into one integer in three multiply-shift-mask steps. A dot at
    place f then splits the sum into its whole and fraction parts. The
    steps work in place, on three word buffers."""
    n, words = len(b), 1 + int(width.max(initial=0, where=width <= _CELL_BYTES) > 8)
    fits, count, places = width <= _CELL_BYTES, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)
    for below in range(8 * words - 8, -8, -8):  # the places below the word, highest word first
        x = items[b - below + 8]
        spare = _KEEP[np.minimum(np.maximum(width - below, 0), 8)]  # the word's bytes that are the cell's
        x &= spare
        x |= np.bitwise_and(np.invert(spare, out=spare), _ZEROS, out=spare)  # the rest '0'
        if not below:
            zero_end = x >> np.uint64(56) == 0x30
        dots = np.bitwise_and(np.bitwise_xor(x, _DOTS, out=spare), _LOW7)  # a zero byte at a dot, 7 bits
        dots += _LOW7
        dots |= spare
        dots |= _LOW7
        np.invert(dots, out=dots)  # 0x80 in each dot's byte
        x += np.left_shift(np.right_shift(dots, np.uint64(7), out=spare), np.uint64(1), out=spare)  # '.' to '0'
        fits &= np.bitwise_and(x, _HIGH4, out=spare) == _ZEROS
        fits &= np.bitwise_and(np.add(x, _SIXES, out=spare), _HIGH4, out=spare) == _ZEROS
        x -= _ZEROS
        for scale, shift, mask in _FOLDS:
            np.right_shift(x, shift, out=spare)
            x *= scale
            x += spare
            x &= mask
        total = x.view(np.int64) if below == 8 * words - 8 else total * 10**8 + x.view(np.int64)
        # bytes are counted by a multiply that sums a word's bytes into its
        # top byte: the dots, as 1 in each dot's byte
        found = (np.multiply(np.right_shift(dots, np.uint64(7), out=spare), _ONES, out=spare)
                 >> np.uint64(56)).astype(np.uint8)
        count += found
        # a dot at byte j of the word is its bit 8j + 7, 7 - j places above
        # ``below``; of dots - 1, the bytes below it are those with bit 7 set
        np.subtract(dots, np.uint64(1), out=dots)
        np.bitwise_and(np.right_shift(dots, np.uint64(7), out=dots), _ONES, out=dots)
        below_dot = (np.multiply(dots, _ONES, out=dots) >> np.uint64(56)).astype(np.uint8)
        places = np.where(found == 1, below + 7 - below_dot, places)
    dot = fits & (count == 1) & (places >= 1) & (places <= width - 2)
    places *= dot
    fraction = total % _POW10_CELL[places]
    total -= fraction
    total //= 1 + 9 * dot
    total += fraction
    whole = width - (places + 1) * dot
    # trailing zeros of the places do not count: a cell's places drop by the
    # largest k <= places with 10^k dividing its units, found at once as the
    # count of the powers 10^1..10^places that divide them
    trailing = np.flatnonzero(dot & zero_end)
    units, most = total[trailing], places[trailing]
    k = np.minimum((units % _POW10_CELL[1 : most.max(initial=0) + 1, None] == 0).sum(axis=0, dtype=np.uint8), most)
    total[trailing] = units // _POW10_CELL[k]
    places[trailing] = most - k
    return total, places, whole, fits & (count == 0) & (width > 0), dot


def _spelled(items: np.ndarray, b: np.ndarray, width: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """The index in ``names`` of each cell ``data[b - width:b]`` spelled
    exactly as one of them, as int8, ``items`` being ``_words(data)``; -1
    for any other cell. Each name is ASCII of at most 8 bytes, so a cell is
    a name when it has the name's width and its last word, masked to that
    width as ``_numbers`` masks it, is the name's word."""
    word = items[b + 8] & _KEEP[np.minimum(width, 8)]
    codes = np.full(len(b), -1, dtype=np.int8)
    for code, name in enumerate(names):
        spelled = np.uint64(int.from_bytes(name.encode().rjust(8, b"\0"), "little"))
        codes[(word == spelled) & (width == len(name))] = code
    return codes


def _texts(view: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[str]:
    """The UTF-8 text of each span ``view[a:b]``: the spans joined by commas
    in one gather, decoded and split at once; span by span only where a
    span holds a comma itself."""
    size = b - a
    ends = np.cumsum(size + 1)
    at = np.repeat(a - (ends - size - 1), size + 1)
    at += np.arange(len(at))
    joined = view[np.minimum(at, len(view) - 1, out=at)]
    joined[ends - 1] = 44
    texts = str(joined, "utf-8").split(",")
    if len(texts) == len(a) + 1:
        return texts[:-1]
    return [view[i:j].tobytes().decode() for i, j in zip(a.tolist(), b.tolist())]

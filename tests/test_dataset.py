import dataclasses
import io
import math
import random
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from controlpower import dataset
from controlpower.cli import main
from controlpower.dataset import (
    BOARDS,
    OWNERSHIPS,
    DataError,
    GroupKey,
    MomentTarget,
    SynthConfig,
    emit_csv,
    ingest_csv,
    synth_outcomes,
    synth_registry,
)
from controlpower.evolution import ControlPowerPdf, WaveParams, ideal_wave
from controlpower.pipeline import PipelineConfig, run_pipeline
from registry_rows import Row, assert_same_registry, registry, row_cells

DATA = Path(__file__).parent / "data"
# the grammar of a share or meeting_share cell; year and n_meetings take its digits-only case
PLAIN = re.compile(r"[0-9]+(\.[0-9]+)?")
HEADER = "firm_id,year,board,ownership,s1,s2,s3,s4,s5,s6,s7,s8,s9,s10,meeting_share,n_meetings"


def csv_of(*rows):
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


def make_row(**overrides):
    base = dict(
        firm_id="f1",
        year=2001,
        board="main",
        ownership="private",
        shares=(0.30, 0.10, 0.05),
        meeting_share=0.42,
        n_meetings=3,
    )
    base.update(overrides)
    return Row(**base)


def emitted(table):
    """The registry CSV text emit_csv writes for ``table``, ready to read."""
    buf = io.StringIO()
    emit_csv(table, buf)
    buf.seek(0)
    return buf


class TestRecordValidation:
    """One row's rules, as the reader holds them."""

    def test_valid_record(self):
        table = registry([make_row()])
        assert table.floats()[0, :3].tolist() == [0.30, 0.10, 0.05]
        assert (BOARDS[table.board[0]], OWNERSHIPS[table.ownership[0]]) == ("main", "private")
        assert (len(table), table.count.tolist()) == (1, [3])

    def test_rejects_unknown_board(self):
        with pytest.raises(DataError, match="^row 2: unknown board 'otc'$"):
            registry([make_row(board="otc")])

    def test_rejects_increasing_shares(self):
        with pytest.raises(DataError, match="^row 2: shares out of descending order beyond tolerance$"):
            registry([make_row(shares=(0.10, 0.30))])

    def test_rejects_share_sum_above_one(self):
        with pytest.raises(DataError, match="^row 2: shares sum above total equity$"):
            registry([make_row(shares=(0.6, 0.47))])

    def test_rejects_zero_shares(self):
        # a zero at the tail is an absent holder, so a row has one canonical form
        with pytest.raises(DataError, match="^row 2: all disclosed shares are zero$"):
            registry([make_row(shares=(0.0,))])
        assert registry([make_row(shares=(0.3, 0.0))]).count.tolist() == [1]
        # a held zero: the share after it lies within the order tolerance, so the row is sorted
        with pytest.raises(DataError, match=r"^row 2: share 0\.0 outside \(0, 1\]; absent holders are omitted$"):
            registry([make_row(shares=(0.3, 0.0, 1e-9))])

    def test_rejects_bad_meeting_share(self):
        with pytest.raises(DataError, match=r"^row 2: meeting share 1\.2 outside \[0, 1\]$"):
            registry([make_row(meeting_share=1.2)])

    def test_rejects_negative_meeting_count(self):
        # a count is digits alone, so a negative one is never read
        with pytest.raises(DataError, match="not a plain decimal number: '-1'"):
            registry([make_row(n_meetings=-1)])


class TestIngest:
    def test_accepts_row_with_trailing_zeros(self):
        rows = ingest_csv(csv_of("f1,2001,main,private,0.30,0.10,0.05,0,0,0,0,0,0,0,,"))
        assert len(rows) == 1
        assert rows.floats()[0].tolist() == [0.30, 0.10, 0.05] + [0.0] * 8
        assert rows.count.tolist() == [3] and rows.has_meeting.tolist() == [False]

    def test_rejects_share_sum_above_equity(self):
        with pytest.raises(DataError, match="row 2"):
            ingest_csv(csv_of("f1,2001,main,private,0.60,0.47,,,,,,,,,0.9,2"))

    def test_rejects_order_breach(self):
        with pytest.raises(DataError, match="descending"):
            ingest_csv(csv_of("f1,2001,main,private,0.10,0.30,,,,,,,,,,"))

    def test_resorts_within_tolerance(self):
        rows = ingest_csv(csv_of("f1,2001,main,private,0.30,0.299999999999,0.3,,,,,,,,,"))
        assert rows.floats()[0, :3].tolist() == [0.3, 0.3, 0.299999999999]

    def test_rejects_gap_in_share_columns(self):
        with pytest.raises(DataError, match="blank"):
            ingest_csv(csv_of("f1,2001,main,private,0.30,,0.05,,,,,,,,,"))

    def test_rejects_unparseable_numeric(self):
        with pytest.raises(DataError, match="row 2"):
            ingest_csv(csv_of("f1,2001,main,private,abc,,,,,,,,,,,"))

    def test_missing_column_is_hard_error(self):
        bad = io.StringIO("firm_id,year,board\nf1,2001,main\n")
        with pytest.raises(DataError, match="missing required columns"):
            ingest_csv(bad)

    def test_bad_row_fails_the_file(self):
        source = csv_of(
            "f1,2001,main,private,0.30,0.10,,,,,,,,,,",
            "f2,2001,main,private,0.60,0.47,,,,,,,,,,",
            "f3,2001,sme_gem,state,0.25,,,,,,,,,,0.5,4",
        )
        with pytest.raises(DataError) as exc:
            ingest_csv(source)
        assert str(exc.value) == "row 3: shares sum above total equity"

    def test_diagnostics_carry_row_numbers(self):
        source = csv_of(
            "f1,2001,main,private,0.30,0.10,,,,,,,,,,",
            "f2,2001,main,private,0.60,0.47,,,,,,,,,,",
        )
        with pytest.raises(DataError, match="row 3"):
            ingest_csv(source)

    def test_short_row_is_data_error(self):
        with pytest.raises(DataError, match="row 3: 6 cells, the header has 16"):
            ingest_csv(csv_of("f1,1996,main,private,0.3,0.2,,,,,,,,,,", "f2,1996,main,private,0.3,0.2"))

    def test_short_row_fails_the_file(self):
        source = csv_of("f1,1996,main,private,0.3,0.2", "f2,1996,main,private,0.3,0.2,,,,,,,,,,")
        with pytest.raises(DataError) as exc:
            ingest_csv(source)
        assert str(exc.value) == "row 2: 6 cells, the header has 16"

    def test_cells_beyond_the_header_are_ignored(self):
        rows = ingest_csv(csv_of("f1,2001,main,private,0.30,0.10,,,,,,,,,0.5,2,extra,cells"))
        assert_same_registry(rows, registry([make_row(shares=(0.30, 0.10), meeting_share=0.5, n_meetings=2)]))


ROW = "f1,2001,{board},{ownership},{s1},{s2},,,,,,,,,{meeting},{n_meetings}"
VALID = dict(board="main", ownership="private", s1="0.3", s2="0.2", meeting="0.5", n_meetings="2")


class TestOneRuleSet:
    """Each row rule gives one message, whether a CSV row breaks it or a
    row that the tests build from typed fields does, through ingest_csv and
    through the CLI. A number cell that is not plain (a sign, nan) never
    reaches the rules: the row gives that cell's own message instead."""

    # (CSV cells that break exactly one rule, the typed fields that do, message);
    # 400 digits are a plain number that reads as inf
    CASES = [
        ({"board": "otc"}, {"board": "otc"}, "unknown board 'otc'"),
        ({"ownership": "public"}, {"ownership": "public"}, "unknown ownership 'public'"),
        ({"s2": "-0.1"}, {"shares": (0.3, -0.1)}, "share -0.1 outside (0, 1]; absent holders are omitted"),
        ({"s2": "nan"}, {"shares": (0.3, float("nan"))}, "share nan outside (0, 1]; absent holders are omitted"),
        ({"s1": "1" + "0" * 400}, {"shares": (float("inf"), 0.2)},
         "share inf outside (0, 1]; absent holders are omitted"),
        ({"s1": "0.6", "s2": "0.45"}, {"shares": (0.6, 0.45)}, "shares sum above total equity"),
        ({"meeting": "1.5"}, {"meeting_share": 1.5}, "meeting share 1.5 outside [0, 1]"),
        ({"meeting": "nan"}, {"meeting_share": float("nan")}, "meeting share nan outside [0, 1]"),
        ({"n_meetings": "-1"}, {"n_meetings": -1}, "meeting count must be non-negative"),
        # 0.1 + 0.2 is the float 0.30000000000000004, which no short decimal reads as
        ({"s1": "0.30000000000000004"}, {"shares": (0.1 + 0.2, 0.2)},
         "0.30000000000000004 is not a decimal of at most 12 places"),
        ({"meeting": "0.30000000000000004"}, {"meeting_share": 0.1 + 0.2},
         "0.30000000000000004 is not a decimal of at most 12 places"),
    ]

    @staticmethod
    def csv_message(cells, message):
        """The message of a CSV row with these cells: the first number cell
        that is not plain names itself, else the rule's message stands."""
        lax = [v for k, v in cells.items() if k not in ("firm_id", "board", "ownership") and v
               and not PLAIN.fullmatch(v)]
        return f"unparseable value (not a plain decimal number: {lax[0]!r})" if lax else message

    @pytest.mark.parametrize("cells, fields, message", CASES)
    def test_same_message_everywhere(self, cells, fields, message, tmp_path, capsys):
        row = make_row(**{"shares": (0.3, 0.2), "meeting_share": 0.5, "n_meetings": 2, **fields})
        written = dict(zip(HEADER.split(","), row_cells(row)))
        with pytest.raises(DataError) as typed:
            registry([row])
        assert str(typed.value) == f"row 2: {self.csv_message(written, message)}"
        message = self.csv_message(cells, message)
        path = tmp_path / "registry.csv"
        path.write_text("\n".join([HEADER, ROW.format(**VALID), ROW.format(**{**VALID, **cells})]) + "\n")
        with pytest.raises(DataError) as ingested:
            ingest_csv(str(path))
        assert str(ingested.value) == f"row 3: {message}"
        assert main(["pipeline", "--input", str(path), "--min-sample", "1"]) == 2
        assert capsys.readouterr().err == f"controlpower: row 3: {message}\n"

    def test_bad_rows_list_the_same_lines(self):
        rows = [ROW.format(**{**VALID, **cells}) for cells, _, _ in self.CASES] + [ROW.format(**VALID)]
        with pytest.raises(DataError) as exc:
            ingest_csv(csv_of(*rows))
        assert str(exc.value) == "; ".join(
            f"row {line}: {self.csv_message(cells, message)}"
            for line, (cells, _, message) in enumerate(self.CASES, start=2))


class TestRowNumbers:
    def test_quoted_multi_line_cell(self):
        # a quoted firm_id spans lines 2-3; line_num counts physical lines
        source = csv_of('"f\n1",2001,main,private,0.3,0.2,,,,,,,,,,', "f2,2001,otc,private,0.3,,,,,,,,,,,")
        with pytest.raises(DataError, match=r"^row 4: unknown board 'otc'$"):
            ingest_csv(source)
        rows = ingest_csv(csv_of('"f\n1",2001,main,private,0.3,0.2,,,,,,,,,,'))
        assert rows.firm_id == ["f\n1"]
        with pytest.raises(DataError, match=r"^row 3: unknown board 'otc'$"):
            ingest_csv(csv_of('"f\n1",2001,otc,private,0.3,,,,,,,,,,,'))

    def test_rows_beyond_one_chunk(self, monkeypatch):
        # problems keep their file order and row numbers across chunks
        monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)
        good = "f{},2001,main,private,0.3,0.2,,,,,,,,,,"
        rows = [good.format(i) if i % 4 else f"f{i},2001,main,private,abc,,,,,,,,,,," for i in range(1, 11)]
        with pytest.raises(DataError) as exc:
            ingest_csv(csv_of(*rows))
        assert str(exc.value) == "; ".join(
            f"row {i + 1}: unparseable value (could not convert string to float: 'abc')" for i in (4, 8))
        # good rows keep their file order across chunks
        good_rows = [good.format(i) for i in range(1, 11)]
        assert ingest_csv(csv_of(*good_rows)).firm_id == [f"f{i}" for i in range(1, 11)]


class TestChunkedRead:
    """One table and the same errors, whatever the blank lines, short rows,
    chunk boundaries and line endings of the file."""

    @staticmethod
    def rows(count):
        return [f"f{i},{1996 + i % 26},{'main' if i % 3 else 'sme_gem'},{'private' if i % 2 else 'state'},"
                f"0.{300 + i % 97},0.2,0.1,,,,,,,,{'' if i % 5 else '0.7'},{'' if i % 7 else i % 4}"
                for i in range(count)]

    @staticmethod
    def read(tmp_path, name, lines, newline="\n"):
        path = tmp_path / name
        path.write_bytes((newline.join([HEADER, *lines]) + newline).encode())
        return ingest_csv(str(path))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_run_longer_than_a_chunk(self, newline, tmp_path):
        # 1,024 rows are two full chunks; 600 blank lines must not end the read
        rows = self.rows(1024)
        plain = self.read(tmp_path, "plain.csv", rows)
        assert len(plain) == 1024
        blanks = rows[:300] + [""] * 600 + rows[300:]
        assert_same_registry(self.read(tmp_path, "blanks.csv", blanks, newline), plain)
        assert_same_registry(self.read(tmp_path, "tail.csv", rows + [""] * 600, newline), plain)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_short_row_inside_a_chunk(self, newline, tmp_path):
        rows = self.rows(1100)
        rows[700] = "f700,2001,main,private,0.3,0.2"
        rows[701] = "f701,2001,main,private,abc,,,,,,,,,,,"
        rows[1050] = "f1050,2001,otc,private,0.3,,,,,,,,,,,"
        expected = "; ".join([
            "row {}: 6 cells, the header has 16",
            "row {}: unparseable value (could not convert string to float: 'abc')",
            "row {}: unknown board 'otc'",
        ])
        with pytest.raises(DataError) as plain:
            self.read(tmp_path, "plain.csv", rows, newline)
        assert str(plain.value) == expected.format(702, 703, 1052)
        with pytest.raises(DataError) as spaced:
            self.read(tmp_path, "blanks.csv", rows[:300] + [""] * 600 + rows[300:], newline)
        assert str(spaced.value) == expected.format(1302, 1303, 1652)

    def test_whitespace_is_stripped_wherever_it_is(self, tmp_path):
        # whitespace at either end of a column's first or last cell, and a
        # whitespace-only cell among numbers, as in a cell of its own
        rows = self.rows(600)
        spaced = list(rows)
        spaced[0] = " " + rows[0]
        spaced[511] = rows[511].replace(",main,", ",main\t,").replace(",sme_gem,", ",sme_gem\t,")
        spaced[200] = rows[200].replace(",0.1,,", ",0.1, \t,", 1)
        spaced[599] = rows[599] + " "
        assert spaced[200] != rows[200] and spaced[511] != rows[511]
        assert_same_registry(self.read(tmp_path, "spaced.csv", spaced), self.read(tmp_path, "plain.csv", rows))

    def test_unsplittable_row_names_file_and_line(self, tmp_path):
        # an unclosed quote takes the rest of the file into one field, past
        # the CSV reader's field limit; earlier problems are listed first
        rows = self.rows(4000)
        rows[2] = "f2,2001,otc,private,0.3,,,,,,,,,,,"
        rows[10] = '"' + rows[10]
        path = tmp_path / "quote.csv"
        path.write_text("\n".join([HEADER, *rows]) + "\n")
        with pytest.raises(DataError) as exc:
            ingest_csv(str(path))
        assert str(exc.value) == f"row 4: unknown board 'otc'; {path} line 12: field larger than field limit (131072)"


class TestDecimalUnits:
    """Share and meeting_share cells of at most 12 places reach the table as
    exact integer units at 10^scale, scale the fewest places that hold every
    cell of the row; a row needing more keeps scale -1 and the float grid."""

    @staticmethod
    def decimal(rng, units, places):
        """``units`` / 10^places written with its places, some trailing
        zeros and sometimes leading zeros."""
        pad = rng.choice([0, 0, 1, 3])
        whole, fraction = divmod(units, 10**places)
        text = "0" * rng.choice([0, 0, 1]) + str(whole)
        return text + ("." + f"{fraction:0{places}d}" + "0" * pad if places or pad else "")

    def test_units_are_the_written_decimals(self):
        rng = random.Random(97)
        lines, expected = [], []
        for i in range(600):
            places = rng.randint(0, 12)
            scale = 10**places
            count = rng.randint(1, 10) if places else 1
            parts = sorted((rng.randint(1, scale // count) for _ in range(count)), reverse=True)
            meeting = rng.choice([None, rng.randint(0, scale)])
            cells = [self.decimal(rng, u, places) for u in parts]
            cells += [""] * (10 - count) + ["" if meeting is None else self.decimal(rng, meeting, places)]
            lines.append(f"f{i},2001,main,private,{','.join(cells)},3")
            values = [Decimal(c) for c in cells if c]
            least = max(max(0, -v.normalize().as_tuple().exponent) for v in values)
            units = [int(Decimal(u) / scale * 10**least) for u in parts] + [0] * (10 - count)
            expected.append((units + [0 if meeting is None else int(Decimal(meeting) / scale * 10**least)], least))
        table = ingest_csv(csv_of(*lines))
        assert list(zip(table.units.tolist(), table.scale.tolist())) == expected
        assert {scale for _, scale in expected} == set(range(13))
        # emit_csv writes each value as the shortest decimal that reads as
        # it, which gives the same units and scales again
        assert_same_registry(ingest_csv(emitted(table)), table)

    def test_share_total_is_the_exact_decimal_sum(self):
        # 1 + 1e-9 is the most a row's shares may sum to
        assert ingest_csv(csv_of("f1,2001,main,private,0.500000001,0.5,,,,,,,,,,")).scale.tolist() == [9]
        with pytest.raises(DataError, match="^row 2: shares sum above total equity$"):
            ingest_csv(csv_of("f1,2001,main,private,0.500000002,0.5,,,,,,,,,,"))

    def test_more_than_12_places_are_a_data_error(self):
        # a cell is the float it reads as: 0.5000000000000000000001 reads as 0.5
        rows = ["f1,2001,main,private,0.3,0.1000000000001,,,,,,,,,,",
                "f2,2001,main,private,0.3,0.1000000000000,,,,,,,,,0.5000000000000000000001,",
                "f3,2001,main,private,0.3,0.1,,,,,,,,,0.1234567890123,"]
        with pytest.raises(DataError) as exc:
            ingest_csv(csv_of(*rows))
        assert str(exc.value) == ("row 2: 0.1000000000001 is not a decimal of at most 12 places; "
                                  "row 4: 0.1234567890123 is not a decimal of at most 12 places")
        table = ingest_csv(csv_of(rows[1]))
        assert table.scale.tolist() == [1]
        assert table.units.tolist() == [[3, 1] + [0] * 8 + [5]]


class TestColumnMapping:
    """Columns are found by header name, not position."""

    ROWS = [
        "f1,2001,main,private,0.30,0.10,0.05,,,,,,,,0.42,3",
        "f2,2002,sme_gem,state,0.45,0.2,,,,,,,,,,",
    ]

    def canonical(self):
        return ingest_csv(csv_of(*self.ROWS))

    @staticmethod
    def relaid(columns, rows):
        # rows of the canonical layout, with each output column taken from
        # the canonical column index (or the literal text) in ``columns``
        cells = [row.split(",") for row in rows]
        header = [HEADER.split(",")[c] if isinstance(c, int) else c for c in columns]
        body = [",".join(r[c] if isinstance(c, int) else "x" for c in columns) for r in cells]
        return io.StringIO("\n".join([",".join(header), *body]) + "\n")

    def test_reordered_columns(self):
        order = list(range(16))[::-1]
        assert_same_registry(ingest_csv(self.relaid(order, self.ROWS)), self.canonical())

    def test_unknown_column(self):
        columns = list(range(4)) + ["comment"] + list(range(4, 16))
        assert_same_registry(ingest_csv(self.relaid(columns, self.ROWS)), self.canonical())

    def test_repeated_column_last_wins(self):
        source = io.StringIO(
            HEADER + ",s1,year\n" + "".join(row + f",{s1},{year}\n" for row, s1, year in
                                         zip(self.ROWS, ("0.30", "0.45"), ("2001", "2002")))
        )
        assert_same_registry(ingest_csv(source), self.canonical())
        shadowed = io.StringIO(HEADER + ",year\n" + self.ROWS[0] + ",1999\n")
        assert ingest_csv(shadowed).year.tolist() == [1999]

    def test_blank_line_between_rows(self):
        assert_same_registry(ingest_csv(csv_of(self.ROWS[0], "", self.ROWS[1])), self.canonical())
        with pytest.raises(DataError, match="row 4: "):
            ingest_csv(csv_of(self.ROWS[0], "", "f3,2001,main,private,abc,,,,,,,,,,,"))


def assert_same_values(a, b):
    """Registries of the same rows and values: every column but the units
    and scales, which may count the same values at other powers of ten, and
    the floats they read as."""
    for field, x, y in list(zip(dataclasses.fields(a), a.columns(), b.columns(), strict=True))[:-2]:
        assert (x.tolist() if isinstance(x, np.ndarray) else x) == (
            y.tolist() if isinstance(y, np.ndarray) else y), field.name
    assert np.array_equal(a.floats(), b.floats())


def padded_golden(tmp_path):
    """The golden registry with every share and meeting cell padded to 6 places."""
    lines = (DATA / "golden_registry.csv").read_text().splitlines()
    path = tmp_path / "padded.csv"
    path.write_text("\n".join([lines[0]] + [",".join(c.ljust(8, "0") if "." in c else c for c in line.split(","))
                                           for line in lines[1:]]) + "\n")
    return path


def synth_csv(tmp_path, seed):
    """The file `synth registry --seed <seed>` writes."""
    path = tmp_path / f"synth-{seed}.csv"
    assert main(["synth", "registry", "--seed", str(seed), "--output", str(path)]) == 0
    return path


class TestRoundTrip:
    def test_emit_then_ingest_is_identity(self):
        table = registry([
            make_row(),
            make_row(firm_id="f2", shares=(0.123456,), meeting_share=None, n_meetings=None),
            make_row(firm_id="f3", board="sme_gem", ownership="state", year=2010),
        ])
        assert_same_registry(ingest_csv(emitted(table)), table)

    def test_synthetic_registry_round_trips(self):
        config = SynthConfig(
            years=(2000, 2001),
            firms_per_year=40,
            seed=5,
            top1=MomentTarget(0.3, 0.1),
            top2_10=MomentTarget(0.25, 0.12),
        )
        table = synth_registry(config)
        assert_same_values(ingest_csv(emitted(table)), table)

    @pytest.mark.parametrize("source", [
        lambda tmp_path: DATA / "golden_registry.csv",
        padded_golden,
        lambda tmp_path: DATA / "beyond_int64_registry.csv",
        *(lambda tmp_path, seed=seed: synth_csv(tmp_path, seed) for seed in (1, 3, 5)),
    ], ids=["golden", "golden-padded", "beyond-int64", "synth-1", "synth-3", "synth-5"])
    def test_written_registry_reads_back_the_same(self, source, tmp_path):
        path = source(tmp_path)
        table = ingest_csv(str(path))
        assert len(table) == len(path.read_text().splitlines()) - 1
        text = emitted(table).getvalue()
        again = ingest_csv(io.StringIO(text))
        assert_same_registry(again, table)
        assert emitted(again).getvalue() == text
        if "beyond" in path.name:
            # years and some n_meetings past int64, and blank n_meetings, survive
            assert again.year.dtype == object and max(m or 0 for m in again.n_meetings) > 2**63
            assert None in again.n_meetings

    def test_header_only_file_is_an_empty_registry(self):
        table = ingest_csv(csv_of())
        assert len(table) == 0 and table.units.shape == (0, 11)
        assert_same_registry(table, registry([]))
        assert [c.dtype for c in table.columns() if isinstance(c, np.ndarray)] == [
            np.int64, np.int64, np.int64, np.int64, bool, np.int64, np.int8]
        with pytest.raises(DataError, match="^the registry has no rows$"):
            run_pipeline(table, PipelineConfig(min_sample=1))


class TestSampleFilter:
    """The pipeline keeps firms whose leading holder holds below half."""

    def test_boundary(self):
        kept = make_row(shares=(0.499,))
        dropped = make_row(firm_id="f2", shares=(0.500, 0.1))
        (year,) = run_pipeline(registry([kept, dropped]),
                               PipelineConfig(min_sample=1)).groups[GroupKey("main", "private")].years
        assert (year.n_sample, year.m_top1) == (1, 0.499)

    def test_empty_input(self):
        with pytest.raises(DataError, match="^the registry has no rows$"):
            run_pipeline(registry([]), PipelineConfig(min_sample=1))


class TestGrouping:
    def test_partition_is_disjoint_and_exhaustive(self):
        rows = []
        for i, board in enumerate(("main", "sme_gem")):
            for j, ownership in enumerate(("private", "state")):
                for k in range(3 + i + j):
                    shares = (0.3,) if k else (0.6,)  # one firm per group above the filter limit
                    rows.append(make_row(firm_id=f"{board}-{ownership}-{k}", board=board,
                                         ownership=ownership, shares=shares, year=2001 + k % 2))
        groups = run_pipeline(registry(rows), PipelineConfig(min_sample=1)).groups
        assert len(groups) == 4
        for key, group in groups.items():
            kept = [r for r in rows if (r.board, r.ownership) == key and r.shares[0] < 0.5]
            assert sum(ys.n_sample for ys in group.years) == len(kept)

    def test_single_cell_input(self):
        rows = [make_row(firm_id=f"f{i}") for i in range(4)]
        groups = run_pipeline(registry(rows), PipelineConfig(min_sample=1)).groups
        assert list(groups) == [GroupKey("main", "private")]


class TestSynthRegistry:
    def config(self, **overrides):
        base = dict(
            years=(2021,),
            firms_per_year=1000,
            seed=13,
            top1=MomentTarget(0.278, 0.106),
            top2_10=MomentTarget(0.293, 0.127),
        )
        base.update(overrides)
        return SynthConfig(**base)

    def test_moments_match_targets(self):
        shares = synth_registry(self.config()).floats()[:, :10]
        top1 = shares[:, 0]
        rest = shares[:, 1:].sum(axis=1)
        assert top1.mean() == pytest.approx(0.278, abs=0.01)
        assert top1.std(ddof=1) == pytest.approx(0.106, abs=0.01)
        assert rest.mean() == pytest.approx(0.293, abs=0.01)
        assert rest.std(ddof=1) == pytest.approx(0.127, abs=0.01)

    def test_counts_per_year_and_group(self):
        config = self.config(years=(1999, 2000, 2001), firms_per_year=25)
        table = synth_registry(config)
        assert len(table) == 75
        for year in config.years:
            assert (table.year == year).sum() == 25
        assert set(zip(table.board.tolist(), table.ownership.tolist())) == {
            (BOARDS.index(config.group.board), OWNERSHIPS.index(config.group.ownership))}

    def test_zero_sd_gives_identical_firms(self):
        config = self.config(
            firms_per_year=20,
            top1=MomentTarget(0.3, 0.0),
            top2_10=MomentTarget(0.27, 0.0),
        )
        table = synth_registry(config)
        assert len({tuple(shares) for shares in table.units[:, :10].tolist()}) == 1

    def test_deterministic_given_seed(self):
        a = synth_registry(self.config(firms_per_year=50))
        b = synth_registry(self.config(firms_per_year=50))
        assert_same_registry(a, b)

    def test_rejects_infeasible_targets(self):
        with pytest.raises(ValueError, match="clip range"):
            self.config(top1=MomentTarget(0.9, 0.1))

    def test_rejects_repeated_year(self):
        with pytest.raises(ValueError, match="^year 2000 is given more than once$"):
            self.config(years=(2001, 2000, 1999, 2000))

    def test_split_at_rest_cap_stays_within_top1(self):
        # a co-holders' total far above the cap is clipped to 9*top1*(1 - 1e-9)
        # for every firm, where almost no Dirichlet split fits under top1 as drawn
        config = self.config(top1=MomentTarget(0.05, 0.01), top2_10=MomentTarget(0.9, 0.0))
        table = synth_registry(config)
        shares = table.floats()[:, :10]
        top1 = shares[:, 0]
        rest = np.array([math.fsum(row[1:]) for row in shares.tolist()])
        # each share is floored to whole micro-units: top1 loses less than
        # 1e-6 and the co-holders' total less than 9e-6
        assert (np.abs(rest - 9 * top1) < 9e-6 + 1e-8).all()
        assert (shares[:, 1:].max(axis=1) <= top1).all()
        assert set(table.count.tolist()) == {10}

    @pytest.mark.parametrize("overrides", [
        *({"seed": seed} for seed in (1, 2, 3, 4)),
        {"top1": MomentTarget(0.05, 0.01), "top2_10": MomentTarget(0.9, 0.0)},  # at rest_cap
        {"top1": MomentTarget(0.02, 0.3), "top2_10": MomentTarget(2.0, 1.0)},  # at both clips
        {"top1": MomentTarget(0.3, 0.0), "top2_10": MomentTarget(0.27, 0.0)},  # zero SD
        {"top2_10": MomentTarget(-0.1, 0.2)},  # some firms with one holder
    ])
    def test_rows_pass_the_record_rules(self, overrides):
        table = synth_registry(self.config(firms_per_year=300, years=(2000, 2001), **overrides))
        # written and read back: the reader checks every row rule, raising on a broken one
        assert_same_values(ingest_csv(emitted(table)), table)

    @pytest.mark.parametrize("target, value", [
        ("top1", MomentTarget(0.3, float("nan"))),
        ("top1", MomentTarget(0.3, -0.1)),
        ("top1", MomentTarget(float("inf"), 0.1)),
        ("top2_10", MomentTarget(0.3, float("inf"))),
        ("top2_10", MomentTarget(float("inf"), 0.1)),
        ("top2_10", MomentTarget(float("nan"), 0.1)),
    ])
    def test_rejects_non_finite_targets(self, target, value):
        with pytest.raises(ValueError, match=f"^{target} target needs a finite mean"):
            self.config(**{target: value})

    def test_outcome_config_cannot_generate_registry(self):
        config = SynthConfig(
            years=(2000,), firms_per_year=5, seed=1, pdf=ControlPowerPdf(wave=ideal_wave(1.5))
        )
        with pytest.raises(ValueError):
            synth_registry(config)


class TestSynthOutcomes:
    def test_degenerate_atom(self):
        config = SynthConfig(
            years=(2000, 2001),
            firms_per_year=50,
            seed=2,
            pdf=ControlPowerPdf(wave=WaveParams(1.0, 0.0, 0.0, 18.0)),
        )
        draws = synth_outcomes(config)
        assert set(draws) == {2000, 2001}
        assert all(np.all(v == 1.0) for v in draws.values())

    def test_no_atom_mean_matches_normal_branch(self):
        config = SynthConfig(
            years=(2000,),
            firms_per_year=20000,
            seed=3,
            pdf=ControlPowerPdf(wave=WaveParams(0.0, 0.0, 0.0, 18.0)),
        )
        draws = synth_outcomes(config)[2000]
        assert draws.mean() == pytest.approx(0.466, abs=0.01)

    def test_deterministic_given_seed(self):
        config = SynthConfig(
            years=(2000, 2001, 2002),
            firms_per_year=200,
            seed=8,
            pdf=ControlPowerPdf(wave=ideal_wave(1.5)),
        )
        a = synth_outcomes(config)
        b = synth_outcomes(config)
        assert all(np.array_equal(a[y], b[y]) for y in a)

    def test_registry_config_cannot_generate_outcomes(self):
        config = SynthConfig(
            years=(2000,),
            firms_per_year=5,
            seed=1,
            top1=MomentTarget(0.3, 0.1),
            top2_10=MomentTarget(0.25, 0.1),
        )
        with pytest.raises(ValueError):
            synth_outcomes(config)


class TestSynthConfigValidation:
    def test_requires_targets_or_pdf(self):
        with pytest.raises(ValueError):
            SynthConfig(years=(2000,), firms_per_year=5, seed=1)

    def test_requires_years_and_firms(self):
        with pytest.raises(ValueError):
            SynthConfig(years=(), firms_per_year=5, seed=1, pdf=ControlPowerPdf(wave=ideal_wave(1.5)))
        with pytest.raises(ValueError):
            SynthConfig(
                years=(2000,), firms_per_year=0, seed=1, pdf=ControlPowerPdf(wave=ideal_wave(1.5))
            )

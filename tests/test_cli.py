import argparse
import csv
import io
import json
import math
import random
import re
import resource
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from controlpower import cli, csvbytes, dataset, power_index
from controlpower.cli import main
from controlpower.evolution import ideal_wave, wave_eval
from controlpower.pipeline import PipelineConfig, run_pipeline
from registry_rows import assert_same_registry, rows_of

GOLDEN_REGISTRY = Path(__file__).parent / "data" / "golden_registry.csv"
GOLDEN_MACRO = Path(__file__).parent / "data" / "golden_macro.csv"
# 42 share lists of 1-20 players at 2-6 decimals, with planted exact-half
# coalitions, comments and blank lines, and the bytes `spi --input` prints
# for them
GOLDEN_SPI = Path(__file__).parent / "data" / "golden_spi.txt"
GOLDEN_SPI_OUT = Path(__file__).parent / "data" / "golden_spi.out"
# ten holders at 4 decimals whose leader's power is 5/28 exactly; the 10^-6
# grid rounds a coalition at exactly half the total onto the winning side
# and gives 113/630
TIE_UNITS = (2885, 2380, 2008, 1949, 1863, 1764, 1382, 1090, 1044, 883)


# A slow registry reader, cell by cell, after the documented rules alone; the
# mutation fuzz holds the column-table reader to it.
PLAIN = re.compile(r"[0-9]+(\.[0-9]+)?")


def _number(text, parse):
    """parse (int or float) of a plain number cell, else ValueError with the reader's text."""
    try:
        value = parse(text)
    except ValueError as exc:
        raise ValueError(f"unparseable value ({exc})") from None
    if not PLAIN.fullmatch(text):
        raise ValueError(f"unparseable value (not a plain decimal number: {text!r})")
    return value


def _exact(text):
    """The decimal a cell reads as: as written at up to 12 places, else the
    float's shortest decimal."""
    value = Decimal(text)
    return value if -value.normalize().as_tuple().exponent <= 12 else Decimal(repr(float(text)))


def _reference_row(row, index, width):
    """One row's (firm_id, year, board, ownership, shares, meeting_share,
    units, scale), or ValueError naming its first problem."""
    if len(row) < width:
        raise ValueError(f"{len(row)} cells, the header has {width}")
    firm_id, year, board, ownership, *cells, meeting = (row[i].strip() for i in index)
    year = _number(year, int)
    if year >= 2**63:
        raise ValueError(f"year above {2**63 - 1}, the int64 limit")
    for j, cell in enumerate(cells):
        if cell and not all(cells[:j]):
            raise ValueError(f"share column s{j + 1} follows a blank column")
        if cell:
            _number(cell, float)
    if not any(cells):
        raise ValueError("no shares disclosed")
    values = [float(c) if c else 0.0 for c in cells]
    count = max((j + 1 for j, v in enumerate(values) if v != 0.0), default=0)
    if not count:
        raise ValueError("all disclosed shares are zero")
    held = list(zip(values[:count], cells[:count]))
    if any(b - a > dataset.SORT_TOL for (a, _), (b, _) in zip(held, held[1:])):
        raise ValueError("shares out of descending order beyond tolerance")
    meeting_share = _number(meeting, float) if meeting else None
    held.sort(key=lambda pair: pair[0], reverse=True)  # stable, as a sorted float list
    if board not in dataset.BOARDS:
        raise ValueError(f"unknown board {board!r}")
    if ownership not in dataset.OWNERSHIPS:
        raise ValueError(f"unknown ownership {ownership!r}")
    for v, _ in held:
        if not 0.0 < v <= 1.0:
            raise ValueError(f"share {v!r} outside (0, 1]; absent holders are omitted")
    decimals = [_exact(text) for _, text in held] + ([_exact(meeting)] if meeting else [])
    places = [-min(d.normalize().as_tuple().exponent, 0) for d in decimals]
    for (v, _), p in zip(held, places):
        if p > 12:
            raise ValueError(f"{v!r} is not a decimal of at most 12 places")
    scale = max(places)
    units = [int(d * 10**scale) for d in decimals[:count]]
    if float(Fraction(sum(units), 10**scale)) > 1.0 + dataset.SHARE_SUM_TOL:
        raise ValueError("shares sum above total equity")
    if meeting and not 0.0 <= meeting_share <= 1.0:
        raise ValueError(f"meeting share {meeting_share!r} outside [0, 1]")
    if meeting and places[-1] > 12:
        raise ValueError(f"{meeting_share!r} is not a decimal of at most 12 places")
    units += [0] * (10 - count) + [int(decimals[-1] * 10**scale) if meeting else 0]
    shares = tuple(v for v, _ in held)
    return firm_id, year, board, ownership, shares, meeting_share, units, scale


# where the first byte that is not UTF-8 stood, in the text before it
NOT_UTF8 = "\udcff"


def reference_registry(path):
    """Every row of the registry at ``path`` as ``_reference_row`` gives it,
    or the DataError listing each bad row's first problem in file order,
    then a row the CSV reader cannot split or the line of the first byte
    that is not UTF-8, whichever comes first."""
    data = Path(path).read_bytes()
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        line = len(re.findall(rb"\r\n|\r|\n", data[: exc.start])) + 1
        undecodable = f"{path} line {line}: not UTF-8 (byte 0x{data[exc.start]:02x})"
        data = data[: exc.start].decode("utf-8-sig") + NOT_UTF8
    else:
        data = data.decode("utf-8-sig")
    with io.StringIO(data, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise dataset.DataError(f"{path} line 1: {exc}") from None
        if header is None:
            raise dataset.DataError("empty file, no header row")
        if NOT_UTF8 in "".join(header):
            raise dataset.DataError(undecodable)
        columns = {column: i for i, column in enumerate(header)}
        missing = [c for c in dataset.CSV_COLUMNS if c not in columns]
        if missing:
            raise dataset.DataError(f"missing required columns: {', '.join(missing)}")
        index = [columns[c] for c in dataset.CSV_COLUMNS]
        rows, problems, line = [], [], reader.line_num
        try:
            for row in reader:
                line = reader.line_num
                if NOT_UTF8 in "".join(row):
                    problems.append(undecodable)
                    break
                if row:
                    try:
                        rows.append(_reference_row(row, index, len(header)))
                    except ValueError as exc:
                        problems.append(f"row {line}: {exc}")
        except csv.Error as exc:
            problems.append(f"{path} line {line + 1}: {exc}")
    if problems:
        raise dataset.DataError("; ".join(problems))
    return rows


def table_registry(path):
    """``dataset.ingest_csv(path)``'s rows in ``_reference_row``'s form."""
    table = dataset.ingest_csv(path)
    return [(*row, units, scale) for row, units, scale in zip(rows_of(table), table.units.tolist(), table.scale.tolist())]


def read_outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSpi:
    def test_shares_flag(self, capsys):
        code, out, _ = run_cli("spi", "--shares", "2,1,1", capsys=capsys)
        assert code == 0
        assert out.strip() == "0.6667, 0.1667, 0.1667"

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "games.txt"
        path.write_text("1,1,1\n60,40\n")
        code, out, _ = run_cli("spi", "--input", str(path), capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["0.3333, 0.3333, 0.3333", "1, 0"]

    def test_input_file_with_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "games.txt"
        path.write_bytes(b"\xef\xbb\xbf2,1,1\n")
        code, out, err = run_cli("spi", "--input", str(path), capsys=capsys)
        assert code == 0, err
        assert out.strip() == "0.6667, 0.1667, 0.1667"

    def test_golden_input_prints_the_golden_bytes(self, capsys):
        code, out, err = run_cli("spi", "--input", str(GOLDEN_SPI), capsys=capsys)
        assert code == 0, err
        assert out.encode() == GOLDEN_SPI_OUT.read_bytes()

    def test_one_kernel_call_per_padded_width(self, monkeypatch, capsys):
        # games below _PAD_PLAYERS players share one batch at that width
        widths = []
        count = power_index._pivot_numerators
        monkeypatch.setattr(power_index, "_pivot_numerators", lambda w: widths.append(w.shape[1]) or count(w))
        code, out, err = run_cli("spi", "--input", str(GOLDEN_SPI), capsys=capsys)
        assert (code, err) == (0, "")
        sizes = {line.count(", ") + 1 for line in out.splitlines()}
        assert min(sizes) < power_index._PAD_PLAYERS
        assert sorted(widths) == sorted({max(n, power_index._PAD_PLAYERS) for n in sizes})

    def test_output_chunks_print_the_same_bytes(self, monkeypatch, capsys):
        # 43 lists: 21 chunks of two and one of one
        expected = "0.6667, 0.1667, 0.1667\n" + GOLDEN_SPI_OUT.read_text()
        argv = ("spi", "--shares", "2,1,1", "--input", str(GOLDEN_SPI))
        assert run_cli(*argv, capsys=capsys) == (0, expected, "")
        monkeypatch.setattr(cli, "_SPI_GAMES", 2)
        assert run_cli(*argv, capsys=capsys) == (0, expected, "")

    def test_shares_and_mixed_input_print_in_input_order(self, tmp_path, capsys):
        path = tmp_path / "games.txt"
        # cells are stripped of surrounding whitespace and blank ones dropped
        path.write_text("1,1,1\n# three then two then one\n60,40\n\n5\n2,1,1\n0.2,0.2,0.2,0.2,0.2\n 60 ;\t40 , \n")
        code, out, err = run_cli("spi", "--shares", "3,1", "--input", str(path), capsys=capsys)
        assert code == 0, err
        assert out.splitlines() == [
            "1, 0", "0.3333, 0.3333, 0.3333", "1, 0", "1", "0.6667, 0.1667, 0.1667", "0.2, 0.2, 0.2, 0.2, 0.2", "1, 0",
        ]

    @pytest.mark.parametrize("shares", [(), ("--shares", "2,1,1")])
    def test_input_without_share_lists_is_data_error(self, shares, tmp_path, capsys):
        path = tmp_path / "games.txt"
        path.write_text("# only a comment\n\n   \n")
        code, out, err = run_cli("spi", *shares, "--input", str(path), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == f"controlpower: {path} has no share lists\n"

    def test_requires_some_input(self, capsys):
        code, _, err = run_cli("spi", capsys=capsys)
        assert code == 1
        assert "provide" in err

    def test_bad_shares_is_data_error(self, capsys):
        code, _, err = run_cli("spi", "--shares", "0,0", capsys=capsys)
        assert code == 2

    def test_ties_are_decided_on_exact_decimals(self, capsys):
        # on the 10^-6 grid both weights round to one half; the decimals do not
        code, out, err = run_cli("spi", "--shares", "0.5000004,0.4999996", capsys=capsys)
        assert (code, out, err) == (0, "1, 0\n", "")
        code, out, _ = run_cli("spi", "--shares", ",".join(f"0.{u:04d}" for u in TIE_UNITS), capsys=capsys)
        assert code == 0 and out.split(", ")[0] == format(5 / 28, ".4g")

    def test_cells_past_exact_units_take_the_grid(self, capsys):
        # 400 digits read as inf, and 400 places are past 12: make_game decides both
        code, out, err = run_cli("spi", "--shares", "1" + "0" * 400 + ",1", capsys=capsys)
        assert (code, out, err) == (2, "", "controlpower: weight inf is not finite\n")
        assert run_cli("spi", "--shares", "0." + "1" * 400 + ",0.5", capsys=capsys) == (0, "0, 1\n", "")

    @pytest.mark.parametrize("cell", ["0.3_4", "1e-3", "nan", "inf", "-0.2", "+0.2", ".5", "5.", "\u0660.\u0665"])
    def test_lax_cell_is_data_error(self, cell, tmp_path, capsys):
        # the message names the cell stripped of the whitespace around it
        path = tmp_path / "games.txt"
        for pad in ("", " ", "\t", "\u00a0", "\u3000"):
            code, out, err = run_cli("spi", "--shares", f"0.4,{pad}{cell}{pad}", capsys=capsys)
            assert (code, out, err) == (2, "", f"controlpower: not a plain decimal number: {cell!r}\n")
            path.write_text(f"0.4,0.2\n0.4;{pad}{cell}{pad}\n", encoding="utf-8")
            code, out, err = run_cli("spi", "--input", str(path), capsys=capsys)
            assert (code, out, err) == (2, "", f"controlpower: {path} line 2: not a plain decimal number: {cell!r}\n")

    @pytest.mark.parametrize("line, problem", [
        ("0,0", "total weight must be positive"),
        ("0.5,abc", "could not convert string to float: 'abc'"),
        (" ; ,", "a game needs at least one player"),
    ])
    def test_bad_input_line_stops_before_any_profile(self, line, problem, tmp_path, capsys):
        path = tmp_path / "games.txt"
        path.write_text(f"1,1\n# a comment\n{line}\n3,1\n")
        code, out, err = run_cli("spi", "--input", str(path), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == f"controlpower: {path} line 3: {problem}\n"

    def test_undecodable_byte_names_the_line(self, tmp_path, capsys):
        # lines end at "\r", "\r\n" or "\n", as in a file read as text, after a byte-order mark
        path = tmp_path / "games.txt"
        path.write_bytes(b"\xef\xbb\xbf1,1\r2,1\r\n0.5,\xff0.2\n3,1\n")
        code, out, err = run_cli("spi", "--input", str(path), capsys=capsys)
        assert (code, out, err) == (2, "", f"controlpower: {path} line 3: not UTF-8 (byte 0xff)\n")


class TestEvolve:
    def test_ratios_line(self, capsys):
        code, out, _ = run_cli("evolve", "ratios", "--k", "5", capsys=capsys)
        assert code == 0
        assert out.strip() == "0.5, 0.6667, 0.6, 0.625, 0.6154"

    def test_ratios_csv_output(self, tmp_path, capsys):
        path = tmp_path / "ratios.csv"
        code, _, _ = run_cli("evolve", "ratios", "--k", "3", "--output", str(path), capsys=capsys)
        assert code == 0
        assert path.read_text().splitlines() == [
            "step_or_t,value",
            "1,0.5",
            "2,0.6666666666666666",
            "3,0.6",
        ]

    def test_walk_needs_seed(self, capsys):
        code, _, err = run_cli("evolve", "walk", "--operations", "5", capsys=capsys)
        assert code == 1
        assert "the following arguments are required: --seed" in err

    def test_walk_csv(self, capsys):
        code, out, _ = run_cli("evolve", "walk", "--operations", "4", "--seed", "3", capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step_or_t,value"
        assert lines[1] == "0,0.5"

    def test_wave_values(self, capsys):
        code, out, _ = run_cli(
            "evolve", "wave", "--h", "1.5", "--t-max", "18", "--t-step", "9", capsys=capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["0.0", "9.0", "18.0"]
        values = [float(r[1]) for r in rows]
        assert values[0] == pytest.approx(7 / 12)
        assert values[2] == pytest.approx(7 / 12, abs=1e-12)

    def test_wave_times_are_multiples_of_the_step(self, capsys):
        # a running sum of 0.1 printed 0.7999999999999999 .. 0.9999999999999999,
        # and k * 0.1 printed 0.30000000000000004; each t is k * step at the
        # step's decimal places, and the wave is evaluated at the t printed
        for step, times in (("0.1", [f"{k / 10}" for k in range(11)]),
                            ("0.05", ["0.0", "0.05", "0.1", "0.15", "0.2"])):
            code, out, _ = run_cli("evolve", "wave", "--t-step", step, "--t-max", times[-1], capsys=capsys)
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert [r[0] for r in rows] == times
            assert [float(r[1]) for r in rows] == [wave_eval(ideal_wave(1.5), float(t)) for t in times]

    @pytest.mark.parametrize("argv, option", [
        (["--a1", "5", "--period", "4"], "--a1"),
        (["--b1", "0.1"], "--b1"),
        (["--period", "4", "--h", "2"], "--period"),
    ])
    def test_wave_term_without_a0_is_usage_error(self, argv, option, capsys):
        # the ideal wave of --h has no place for the term
        assert run_cli("evolve", "wave", *argv, "--t-max", "2", capsys=capsys) == (
            1, "", f"evolve wave: {option} needs --a0\n")

    def test_h_with_a0_is_usage_error(self, capsys):
        # the --a0 wave has no place for h
        assert run_cli("evolve", "wave", "--a0", "0.5", "--a1", "0.1", "--h", "3", capsys=capsys) == (
            1, "", "evolve wave: --h is not allowed with --a0\n")

    def test_wave_defaults(self, capsys):
        # --a0 alone: a1 = b1 = 0 and period 18; nothing: the ideal wave of h = 1.5
        args = ("--t-max", "9", "--t-step", "9")
        assert run_cli("evolve", "wave", "--a0", "0.5", *args, capsys=capsys) == (
            run_cli("evolve", "wave", "--a0", "0.5", "--a1", "0", "--b1", "0", "--period", "18", *args,
                    capsys=capsys))
        assert run_cli("evolve", "wave", *args, capsys=capsys) == run_cli("evolve", "wave", "--h", "1.5", *args,
                                                                          capsys=capsys)
        code, out, _ = run_cli("evolve", "wave", "--a0", "0.5", "--a1", "0.1", "--period", "4", *args, capsys=capsys)
        assert (code, out) == (0, "step_or_t,value\n0.0,0.6\n9.0,0.5\n")

    @pytest.mark.parametrize("what, option, value, limit, slow", [
        ("ratios", "--k", 10**4, "10^4 states", "ratio_sequence"),
        ("walk", "--operations", 10**6, "10^6 operations", "collapse_walk"),
    ])
    def test_evolve_size_is_checked_before_any_work(self, what, option, value, limit, slow, monkeypatch, capsys):
        # the time of --k grows faster than k^2, and a walk's with its operations
        def fail(*args, **kwargs):
            raise AssertionError("the sequence was made before its size was checked")

        monkeypatch.setattr(f"controlpower.cli.{slow}", fail)
        seed = ["--seed", "1"] if what == "walk" else []
        assert run_cli("evolve", what, option, str(value + 1), *seed, capsys=capsys) == (
            2, "", f"controlpower: {option} gives more than {limit}\n")
        # at the limit the check passes and the work starts
        with pytest.raises(AssertionError, match="before its size was checked"):
            main(["evolve", what, option, str(value), *seed])

    @pytest.mark.parametrize("bounds", [
        (["--t-step", "0"], 2), (["--t-step", "-1"], 1), (["--t-step", "nan"], 1), (["--t-step", "inf"], 1),
        (["--t-max", "inf"], 1), (["--t-max", "10000000", "--t-step", "1"], 2),
    ])
    def test_wave_grid_without_end_exits_promptly(self, bounds):
        # the row loop used to run (and grow its row list) until killed; the
        # address-space cap turns such a run into a failure, not a full machine.
        # A value outside the plain decimal grammar is a usage error (exit 1),
        # a step the row loop cannot end on a data error (exit 2).
        bounds, status = bounds
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "controlpower.cli", "evolve", "wave", *bounds],
            capture_output=True,
            text=True,
            timeout=20,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == status
        assert proc.stdout == ""
        assert "--t-" in proc.stderr


class TestFit:
    def test_fit_json(self, tmp_path, capsys):
        import math

        path = tmp_path / "series.csv"
        rows = ["t,y"]
        for t in range(26):
            y = 0.553 + 0.060 * math.cos(2 * math.pi * t / 17.357) - 0.083 * math.sin(
                2 * math.pi * t / 17.357
            )
            rows.append(f"{t},{y}")
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli("fit", "--input", str(path), capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["T"] == pytest.approx(17.357, rel=0.01)
        assert payload["a0"] == pytest.approx(0.553, abs=1e-3)
        assert payload["degenerate"] is False
        assert payload["max"] > payload["min"]

    def test_calendar_years_do_not_fit_rounding_noise(self):
        # once printed T = 2.0, b1 = 72339761637.9 and max = 7.2e10: the
        # fit at T = 2 scaled sin(pi t), which is rounding noise, up to the trend
        trend = Path(__file__).parent / "data" / "trend_1996.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "controlpower.cli", "fit", "--input", str(trend), "--period-range", "2,10"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        fit = json.loads(proc.stdout)
        ys = [float(row.split(",")[1]) for row in trend.read_text().split()]
        assert fit["T"] != 2.0
        assert max(abs(fit["a1"]), abs(fit["b1"])) <= max(ys) - min(ys)
        assert min(ys) <= fit["min"] < fit["max"] <= max(ys)

    def test_rows_in_any_t_order(self, tmp_path, capsys):
        shuffled, ordered = tmp_path / "shuffled.csv", tmp_path / "ordered.csv"
        shuffled.write_text("t,y\n2,1\n0,2\n1,3\n3,4\n4,2\n5,1\n")
        ordered.write_text("t,y\n0,2\n1,3\n2,1\n3,4\n4,2\n5,1\n")
        results = [run_cli("fit", "--input", str(path), capsys=capsys) for path in (shuffled, ordered)]
        assert results[0][0] == 0
        assert results[0] == results[1]

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        rows = b"0,2\n1,3\n2,1\n3,4\n4,2\n5,1\n"
        plain.write_bytes(rows)
        marked.write_bytes(b"\xef\xbb\xbf" + rows)
        results = [run_cli("fit", "--input", str(path), capsys=capsys) for path in (plain, marked)]
        assert results[0][0] == 0
        assert results[1] == results[0]

    def test_missing_file(self, capsys):
        code, _, err = run_cli("fit", "--input", "/nonexistent.csv", capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("command", [["fit"], ["pipeline", "--macro", "idx=/nonexistent-macro.csv"]])
    @pytest.mark.parametrize("options, message", [
        (["--period-range", "4,abc"], "period range: not a plain decimal number: 'abc'"),
        (["--period-range", "4"], "period range needs two numbers, e.g. 4,50"),
        (["--period-range", "10,5"], "empty period range"),
        (["--period-range", "4,50", "--grid-step", "0.000000001"],
         "period grid over [4.0, 50.0] in steps of 1e-09 exceeds 1000000 trial periods"),
    ])
    def test_period_options_are_checked_before_any_file_is_read(self, command, options, message, capsys):
        # the range once met the file only after a full read, so a missing file was named instead
        code, out, err = run_cli(*command, "--input", "/nonexistent.csv", *options, capsys=capsys)
        assert (code, out, err) == (2, "", f"controlpower: {message}\n")

    def test_oversized_grid_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("".join(f"{t},{0.5 + 0.01 * (t % 5)}\n" for t in range(26)))
        code, out, err = run_cli(
            "fit", "--input", str(path), "--period-range", "4,50", "--grid-step", "0.000000001", capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert "trial periods" in err

    def test_infinite_grid_step_is_usage_error(self, tmp_path, capsys):
        # it once printed LAPACK lines on stdout and "SVD did not converge"
        path = tmp_path / "series.csv"
        path.write_text("".join(f"{t},{0.5 + 0.01 * (t % 5)}\n" for t in range(26)))
        code, out, err = run_cli("fit", "--input", str(path), "--grid-step", "inf", capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.endswith("error: argument --grid-step: not a finite plain decimal number: 'inf'\n")

    def test_period_range_below_twice_the_time_step_is_data_error(self, tmp_path, capsys):
        # y = 0.5 t + sin(2 pi t / 7.5), t = 0..25 once fitted T = 1.000001
        # and printed a max of 4e8
        path = tmp_path / "series.csv"
        path.write_text("t,y\n" + "".join(f"{t},{0.5 * t + math.sin(2 * math.pi * t / 7.5)}\n" for t in range(26)))
        code, out, err = run_cli("fit", "--input", str(path), "--period-range", "1,10", capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "controlpower: period range starts at 1.0, below 2.0, twice the smallest time step\n"

    def test_short_row_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("0,1\n1,2\n2\n")
        code, out, err = run_cli("fit", "--input", str(path), capsys=capsys)
        assert code == 2
        assert out == ""
        assert f"{path} line 3" in err
        assert "Traceback" not in err

    def test_repeated_t_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("t,y\n0,1\n1,2\n2,3\n1.0,4\n3,5\n")
        code, out, err = run_cli("fit", "--input", str(path), capsys=capsys)
        assert code == 2
        assert out == ""
        assert f"{path} line 5: '1.0' repeats an earlier row" in err

    @pytest.mark.parametrize("row", ["2,nan", "2,inf", "nan,3"])
    def test_non_finite_row_is_data_error(self, row, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text(f"t,y\n0,1\n1,2\n{row}\n3,1\n4,2\n5,1\n")
        code, out, err = run_cli("fit", "--input", str(path), capsys=capsys)
        assert code == 2
        assert out == ""
        assert f"{path} line 4" in err and "finite" in err
        assert "Traceback" not in err and "DLASCL" not in err

    def test_unclosed_quote_is_data_error(self, tmp_path, capsys):
        # the quote runs past the CSV reader's field limit of 131,072 characters
        path = tmp_path / "series.csv"
        path.write_text('t,y\n0,1\n1,2\n"2,' + "x" * 140_000 + "\n3,4\n")
        code, out, err = run_cli("fit", "--input", str(path), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"controlpower: {path} line 4: field larger than field limit (131072)\n"

    def test_undecodable_byte_names_the_line(self, tmp_path, capsys):
        # past the reader's first block of 32 KiB
        path = tmp_path / "series.csv"
        rows = "".join(f"{t},0.5\r\n" for t in range(5000))
        path.write_bytes(b"t,y\r\n" + rows.encode() + b"5000,\xff1\r\n")
        code, out, err = run_cli("fit", "--input", str(path), capsys=capsys)
        assert (code, out, err) == (2, "", f"controlpower: {path} line 5002: not UTF-8 (byte 0xff)\n")

    def test_header_only_is_empty_series(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("t,y\n# no rows\n\n")
        code, _, err = run_cli("fit", "--input", str(path), capsys=capsys)
        assert code == 2
        assert "series is empty" in err


class TestSynth:
    def test_registry_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        common = ["synth", "registry", "--seed", "9", "--years", "2000-2002", "--firms-per-year", "20"]
        assert run_cli(*common, "--output", str(a), capsys=capsys)[0] == 0
        assert run_cli(*common, "--output", str(b), capsys=capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_registry_year_past_int64_writes_no_rows(self, capsys):
        # a registry holds its years as int64; outcomes take any year
        argv = ("--seed", "1", "--years", f"2000,{2**63}", "--firms-per-year", "2")
        assert run_cli("synth", "registry", *argv, capsys=capsys) == (
            2, "", "controlpower: a registry year must fit int64\n")
        code, out, err = run_cli("synth", "outcomes", *argv[:4], "--draws-per-year", "2", capsys=capsys)
        assert (code, err) == (0, "") and len(out.splitlines()) == 5

    def test_outcomes_header(self, capsys):
        code, out, _ = run_cli(
            "synth", "outcomes", "--seed", "2", "--years", "2000-2001",
            "--draws-per-year", "3", capsys=capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "year,spi"
        assert len(lines) == 7

    def test_seed_required(self, capsys):
        code, _, _ = run_cli("synth", "registry", capsys=capsys)
        assert code == 1

    @pytest.mark.parametrize("value", ["0.3", "0.3,0.1,0.2"])
    @pytest.mark.parametrize("option, example", [("--top1", "0.278,0.106"), ("--top2-10", "0.293,0.127")])
    def test_moment_target_needs_a_pair(self, option, example, value, capsys):
        code, out, err = run_cli("synth", "registry", "--seed", "1", option, value, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == f"controlpower: {option} needs two numbers, e.g. {example}\n"

    @pytest.mark.parametrize("option, value, target", [
        ("--top1", "0.3,nan", "top1"),
        ("--top2-10", "0.3,inf", "top2_10"),
        ("--top2-10", "inf,0.1", "top2_10"),
        ("--top2-10", "nan,0.1", "top2_10"),
    ])
    def test_non_finite_target_writes_no_rows(self, option, value, target, tmp_path, capsys):
        common = ["synth", "registry", "--seed", "1", "--years", "2000", option, value]
        code, out, err = run_cli(*common, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"controlpower: {target} target needs a finite mean and a finite, non-negative sd")
        assert run_cli(*common, "--output", str(tmp_path / "reg.csv"), capsys=capsys)[0] == 2
        assert not (tmp_path / "reg.csv").exists()

    @pytest.mark.parametrize("what", ["registry", "outcomes"])
    @pytest.mark.parametrize("group", ["main", "otc/private"])
    def test_bad_group_names_the_choices(self, what, group, capsys):
        code, out, err = run_cli("synth", what, "--seed", "1", "--group", group, capsys=capsys)
        assert code == 2
        assert out == ""
        assert "group must be one of" in err

    @pytest.mark.parametrize("what, size", [("registry", "--firms-per-year"), ("outcomes", "--draws-per-year")])
    def test_repeated_year_writes_no_rows(self, what, size, capsys):
        # a repeated year would repeat the registry's firm ids and drop
        # the outcome draws of all but its last mention
        code, out, err = run_cli("synth", what, "--seed", "1", "--years", "2000,2000", size, "3", capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "controlpower: year 2000 is given more than once\n"

    @pytest.mark.parametrize("what, size, years, per_year", [
        ("registry", "--firms-per-year", "1-10001", "100"),
        ("outcomes", "--draws-per-year", "1,2", "500001"),
        ("outcomes", "--draws-per-year", "1-1000001", "1"),
        # the range alone, at the default 500 draws a year, and one no tuple could hold
        ("outcomes", "--draws-per-year", "1-2001", None),
        ("registry", "--firms-per-year", "0-99999999999999999999", None),
    ])
    def test_size_past_10_6_is_refused_before_any_work(self, what, size, years, per_year, monkeypatch, capsys):
        # a check that let the size through fails here, before it allocates
        def no_range(*bounds):
            raise AssertionError("the year range was built")

        monkeypatch.setattr(cli, "synth_registry", lambda config: pytest.fail("rows were drawn"))
        monkeypatch.setattr(cli, "synth_outcomes", lambda config: pytest.fail("outcomes were drawn"))
        monkeypatch.setattr(cli, "range", no_range, raising=False)
        argv = ["synth", what, "--seed", "1", "--years", years] + ([size, per_year] if per_year else [])
        assert run_cli(*argv, capsys=capsys) == (2, "", f"controlpower: --years times {size} is more than 10^6\n")

    @pytest.mark.parametrize("what, size, draw", [
        ("registry", "--firms-per-year", "synth_registry"),
        ("outcomes", "--draws-per-year", "synth_outcomes"),
    ])
    def test_size_of_10_6_passes_the_check(self, what, size, draw, monkeypatch, capsys):
        configs = []
        monkeypatch.setattr(cli, draw, lambda config: configs.append(config) or {})
        monkeypatch.setattr(cli, "emit_csv", lambda table, output: None)
        code, _, err = run_cli("synth", what, "--seed", "1", "--years", "1-100", size, "10000", capsys=capsys)
        assert (code, err) == (0, "")
        assert (len(configs[0].years), configs[0].firms_per_year) == (100, 10000)

    def test_outcomes_without_normal_mass_exits_promptly(self):
        # no mass in (0, 1): the sampler used to loop until killed
        proc = subprocess.run(
            [sys.executable, "-m", "controlpower.cli", "synth", "outcomes", "--seed", "1", "--mu", "5", "--sigma", "0.01"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "mass" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["synth", "outcomes", "--seed", "1", "--years", "2000"],
        ["evolve", "wave"],
    ])
    def test_infinite_h_has_no_wave(self, argv, capsys):
        code, out, err = run_cli(*argv, "--h", "inf", capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.endswith("error: argument --h: not a finite plain decimal number: 'inf'\n")
        # a finite h whose period 12h is not: the wave's own range check
        code, out, err = run_cli(*argv, "--h", "1" + "0" * 308, capsys=capsys)
        assert (code, out, err) == (2, "", "controlpower: h must be positive and 12*h finite\n")


class TestPipeline:
    def test_default_synth_requires_seed(self, capsys):
        code, _, err = run_cli("pipeline", "--synth", "default", capsys=capsys)
        assert code == 1
        assert "--seed" in err

    def test_default_synth_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out_dir in (out1, out2):
            code, _, _ = run_cli(
                "pipeline", "--synth", "default", "--seed", "7",
                "--output", str(out_dir), capsys=capsys,
            )
            assert code == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_unknown_format(self, capsys):
        code, _, _ = run_cli(
            "pipeline", "--synth", "outcomes", "--seed", "1", "--format", "xml", capsys=capsys
        )
        assert code == 1

    def test_macro_correlations_from_files(self, tmp_path, capsys):
        macro = tmp_path / "index.csv"
        macro.write_text("year,value\n" + "\n".join(f"{y},{100 + 2 * (y - 1996)}" for y in range(1996, 2022)) + "\n")
        out_dir = tmp_path / "rep"
        code, _, _ = run_cli(
            "pipeline", "--synth", "outcomes", "--seed", "3",
            "--macro", f"shanghai={macro}",
            "--output", str(out_dir), "--format", "json,csv-tables", capsys=capsys,
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        corr = report["groups"]["main/private"]["correlations"]["shanghai"]
        assert "r_spi_1" in corr
        assert corr["r_spi_1"]["n"] == 26
        tables = (out_dir / "table_correlations.csv").read_text().splitlines()
        assert tables[0] == "group,macro,series,r,p_value,n"
        assert len(tables) == 2

    def test_input_csv_roundtrip(self, tmp_path, capsys):
        reg = tmp_path / "reg.csv"
        code, _, _ = run_cli(
            "synth", "registry", "--seed", "11", "--years", "1996-2007",
            "--firms-per-year", "60", "--output", str(reg), capsys=capsys,
        )
        assert code == 0
        out_dir = tmp_path / "rep"
        code, _, _ = run_cli(
            "pipeline", "--input", str(reg), "--min-sample", "40",
            "--output", str(out_dir), capsys=capsys,
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["provenance"]["seed"] is None
        assert report["provenance"]["min_sample"] == 40
        years = report["groups"]["main/private"]["years"]
        assert len(years) == 12

    def test_default_synth_matches_its_registry_csv(self, tmp_path, capsys):
        # the registry of --synth default and the CSV `synth registry` writes
        # of it are one registry: the same bytes in every format, but for the
        # provenance's input digest and seed. At seed 5 some co-holder share
        # is below 1e-4, which repr would write with an exponent.
        for seed in ("3", "5"):
            reg = tmp_path / f"reg{seed}.csv"
            assert run_cli("synth", "registry", "--seed", seed, "--output", str(reg), capsys=capsys)[0] == 0
            outputs = []
            for name, source in (("input", ["--input", str(reg)]), ("synth", ["--synth", "default", "--seed", seed])):
                out = tmp_path / f"{name}{seed}"
                code, _, err = run_cli("pipeline", *source, "--output", str(out),
                                       "--format", "json,csv-tables,plot-data", capsys=capsys)
                assert code == 0, err
                report = json.loads((out / "report.json").read_text())
                assert report["provenance"].pop("seed") == (None if name == "input" else int(seed))
                report["provenance"].pop("input_digest")
                outputs.append((report, {p.name: p.read_bytes() for p in out.glob("*.csv")}))
            assert outputs[0] == outputs[1] and len(outputs[0][1]) > 6

    def test_registry_without_rows_is_data_error(self, tmp_path, capsys):
        header = tmp_path / "header.csv"
        header.write_text(GOLDEN_REGISTRY.read_text().splitlines(keepends=True)[0])
        assert run_cli("pipeline", "--input", str(header), capsys=capsys) == (
            2, "", "controlpower: the registry has no rows\n")

    def test_registry_filtered_to_no_rows_is_data_error(self, tmp_path, capsys):
        # the golden registry's two rows whose leader holds half or more
        header, *rows = GOLDEN_REGISTRY.read_text().splitlines(keepends=True)
        held = [row for row in rows if float(row.split(",")[4]) >= 0.5]
        assert len(held) == 2
        path = tmp_path / "held.csv"
        path.write_text(header + "".join(held))
        assert run_cli("pipeline", "--input", str(path), capsys=capsys) == (
            2, "", "controlpower: no records survive the sampling filter\n")

    def test_registry_with_byte_order_mark(self, tmp_path, capsys):
        plain = Path(__file__).parent / "data" / "golden_registry.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path, out in ((plain, "plain"), (marked, "marked")):
            code, _, err = run_cli("pipeline", "--input", str(path), "--min-sample", "5",
                                   "--output", str(tmp_path / out), capsys=capsys)
            assert code == 0, err
        assert (tmp_path / "marked" / "report.json").read_bytes() == (tmp_path / "plain" / "report.json").read_bytes()

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("pipeline", capsys=capsys)[0] == 1
        assert run_cli("nonsense", capsys=capsys)[0] == 1

    def test_input_and_synth_are_exclusive(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a registry was read although two sources were given")

        monkeypatch.setattr("controlpower.cli.ingest_csv", fail)
        code, out, err = run_cli("pipeline", "--synth", "default", "--seed", "1",
                                 "--input", str(tmp_path / "x.csv"), capsys=capsys)
        assert code == 1
        assert out == ""
        assert "not allowed with" in err

    def test_workers_is_not_an_option(self, capsys):
        code, out, err = run_cli("pipeline", "--synth", "outcomes", "--seed", "1", "--workers", "2", capsys=capsys)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --workers 2" in err

    def test_unknown_synth_mode_is_usage_error(self, capsys):
        code, out, err = run_cli("pipeline", "--synth", "nonsense", "--seed", "1", capsys=capsys)
        assert code == 1
        assert out == ""
        assert "invalid choice" in err

    def test_registry_is_not_a_synth_mode(self, capsys):
        # it was a second name for "default"
        code, out, err = run_cli("pipeline", "--synth", "registry", "--seed", "1", capsys=capsys)
        assert code == 1
        assert out == ""
        assert "invalid choice: 'registry'" in err

    def test_period_range_needs_a_pair(self, capsys):
        code, out, err = run_cli("pipeline", "--synth", "outcomes", "--seed", "1", "--period-range", "4",
                                 capsys=capsys)
        assert code == 2
        assert err == "controlpower: period range needs two numbers, e.g. 4,50\n"

    def test_missing_input_file_is_data_error(self, capsys):
        code, _, _ = run_cli("pipeline", "--input", "/no/such/file.csv", capsys=capsys)
        assert code == 2

    def test_seed_with_input_is_usage_error(self, capsys):
        # it was ignored: the report's seed stayed null
        code, out, err = run_cli("pipeline", "--input", str(GOLDEN_REGISTRY), "--seed", "7", capsys=capsys)
        assert (code, out, err) == (1, "", "pipeline: --seed is only used with --synth\n")

    def test_unknown_format_stops_before_any_work(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("pipeline ran before --format was checked")

        monkeypatch.setattr("controlpower.cli.run_pipeline", fail)
        out_dir = tmp_path / "rep"
        code, _, err = run_cli(
            "pipeline", "--synth", "default", "--seed", "1", "--format", "yaml",
            "--output", str(out_dir), capsys=capsys,
        )
        assert code == 1
        assert "yaml" in err
        assert not out_dir.exists()

    def test_unknown_format_beats_missing_input(self, capsys):
        code, _, err = run_cli(
            "pipeline", "--input", "/no/such/file.csv", "--format", "yaml", capsys=capsys
        )
        assert code == 1
        assert "yaml" in err

    def test_empty_format_is_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        code, _, err = run_cli(
            "pipeline", "--synth", "outcomes", "--seed", "1", "--format", " , ",
            "--output", str(out_dir), capsys=capsys,
        )
        assert code == 1
        assert "--format" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("formats", ["csv-tables", "plot-data", "json,csv-tables"])
    def test_table_formats_need_output(self, formats, capsys):
        code, out, err = run_cli(
            "pipeline", "--synth", "outcomes", "--seed", "1", "--format", formats, capsys=capsys
        )
        assert code == 1
        assert out == ""
        assert "--output" in err

    def test_oversized_grid_is_data_error(self, capsys):
        code, out, err = run_cli(
            "pipeline", "--synth", "outcomes", "--seed", "1", "--grid-step", "0.000000001", capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert "trial periods" in err

    def test_short_macro_row_is_data_error(self, tmp_path, capsys):
        macro = tmp_path / "index.csv"
        macro.write_text("year,value\n1996,100\n1997\n")
        code, out, err = run_cli(
            "pipeline", "--synth", "outcomes", "--seed", "1", "--macro", f"idx={macro}", capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert f"{macro} line 3" in err
        assert "Traceback" not in err

    def test_non_finite_macro_value_is_data_error(self, tmp_path, capsys):
        macro = tmp_path / "index.csv"
        macro.write_text("year,value\n1996,100\n1997,nan\n")
        code, out, err = run_cli(
            "pipeline", "--synth", "outcomes", "--seed", "1", "--macro", f"idx={macro}", capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert f"{macro} line 3" in err and "finite" in err

    @pytest.mark.parametrize("names, message", [
        (("idx", "idx"), "--macro name 'idx' is given more than once"),
        (("", "idx"), "--macro expects name=path"),
    ])
    def test_bad_macro_name_is_usage_error_before_any_file(self, names, message, tmp_path, capsys, monkeypatch):
        # a repeated name once kept only the last file, an empty one gave correlations keyed ""
        macro = tmp_path / "index.csv"
        macro.write_text("year,value\n" + "".join(f"{y},{y - 1900}\n" for y in range(1996, 2022)))

        def no_read(path, key):
            raise AssertionError("a macro file was read before its name was checked")

        monkeypatch.setattr(cli, "_read_pairs", no_read)
        flags = [arg for name in names for arg in ("--macro", f"{name}={macro}")]
        code, out, err = run_cli("pipeline", "--synth", "outcomes", "--seed", "1", *flags, capsys=capsys)
        assert (code, out) == (1, "")
        assert message in err

    def test_unclosed_quote_in_macro_is_data_error(self, tmp_path, capsys):
        macro = tmp_path / "index.csv"
        macro.write_text('year,value\n1996,100\n"1997,' + "x" * 140_000 + "\n1998,102\n")
        code, out, err = run_cli(
            "pipeline", "--input", str(GOLDEN_REGISTRY), "--macro", f"idx={macro}", capsys=capsys
        )
        assert (code, out) == (2, "")
        assert err == f"controlpower: {macro} line 3: field larger than field limit (131072)\n"

    def test_unclosed_quote_in_registry_is_data_error(self, tmp_path, capsys):
        # one quote at the start of a data row of a registry large enough
        # that the quoted field passes the CSV reader's field limit
        lines = GOLDEN_REGISTRY.read_text().splitlines()
        body = lines[1:] * 30
        body[40] = '"' + body[40]
        registry = tmp_path / "registry.csv"
        registry.write_text("\n".join([lines[0], *body]) + "\n")
        code, out, err = run_cli("pipeline", "--input", str(registry), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"controlpower: {registry} line 42: field larger than field limit (131072)\n"

    def test_short_registry_row_is_data_error(self, tmp_path, capsys):
        registry = tmp_path / "registry.csv"
        registry.write_text(
            "firm_id,year,board,ownership,s1,s2,s3,s4,s5,s6,s7,s8,s9,s10,meeting_share,n_meetings\n"
            "f1,1996,main,private,0.3,0.2\n"
        )
        code, out, err = run_cli("pipeline", "--input", str(registry), capsys=capsys)
        assert code == 2
        assert out == ""
        assert "row 2: 6 cells" in err
        assert "Traceback" not in err

    def test_repeated_macro_year_is_data_error(self, tmp_path, capsys):
        macro = tmp_path / "index.csv"
        macro.write_text("year,value\n" + "".join(f"{y},{y - 1900}\n" for y in range(1996, 2022)) + "1996,9999\n")
        code, out, err = run_cli(
            "pipeline", "--synth", "outcomes", "--seed", "1", "--macro", f"idx={macro}", capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert f"{macro} line 28: '1996' repeats an earlier row" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option, error", [
        (["--grid-step", "inf"], "grid step must be finite"),
        (["--h", "inf"], "h must be positive and finite"),
        (["--h", "nan"], "h must be positive and finite"),
    ])
    def test_non_finite_setting_stops_before_the_registry_is_drawn(self, option, error, monkeypatch, capsys):
        # --h inf once wrote "h": Infinity into report.json, which is not JSON
        def fail(config):
            raise AssertionError("the registry was drawn before the settings were checked")

        monkeypatch.setattr("controlpower.pipeline.synth_registry", fail)
        code, out, err = run_cli("pipeline", "--synth", "default", "--seed", "1", *option, capsys=capsys)
        # refused by the option's grammar, before PipelineConfig's own check (the error) can run
        assert code == 1
        assert out == ""
        assert err.endswith(f"error: argument {option[0]}: not a finite plain decimal number: {option[1]!r}\n")
        with pytest.raises(ValueError, match=error):
            PipelineConfig(**{option[0][2:].replace("-", "_"): float(option[1])})

    def test_oversized_default_grid_stops_before_any_power_batch(self, monkeypatch, capsys):
        def fail(rows):
            raise AssertionError("a power batch ran before the grid was checked")

        monkeypatch.setattr("controlpower.pipeline.top_holder_numerators", fail)
        code, out, err = run_cli(
            "pipeline", "--input", str(Path(__file__).parent / "data" / "golden_registry.csv"),
            "--min-sample", "5", "--grid-step", "0.000000001", capsys=capsys,
        )
        assert code == 2
        assert out == ""
        assert "trial periods" in err

    def test_period_range_below_twice_the_year_step_stops_before_any_power_batch(self, monkeypatch, capsys):
        def fail(rows):
            raise AssertionError("a power batch ran before the period range was checked")

        monkeypatch.setattr("controlpower.pipeline.top_holder_numerators", fail)
        code, out, err = run_cli(
            "pipeline", "--input", str(GOLDEN_REGISTRY), "--min-sample", "5", "--period-range", "1,10", capsys=capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "controlpower: period range starts at 1.0, below 2.0, twice the smallest time step\n"

    def test_bad_grid_stops_before_ingest(self, monkeypatch, capsys):
        reads = []

        def reading(*args, **kwargs):
            reads.append(args)
            return read(*args, **kwargs)

        # the function the CLI reads a registry with: a good run calls it once
        read = dataset.ingest_csv
        monkeypatch.setattr("controlpower.cli.ingest_csv", reading)
        code, _, err = run_cli("pipeline", "--input", str(GOLDEN_REGISTRY), "--min-sample", "5", capsys=capsys)
        assert code == 0, err
        assert len(reads) == 1
        code, out, err = run_cli(
            "pipeline", "--input", str(GOLDEN_REGISTRY),
            "--period-range", "4,50", "--grid-step", "0.000000001", capsys=capsys,
        )
        assert code == 2
        assert out == ""
        assert "trial periods" in err
        assert len(reads) == 1, "input was read before the grid was checked"

    def test_mutated_registries_match_the_record_path(self, tmp_path, capsys):
        # 500 seeded byte mutations of the golden registry: the CLI and
        # run_pipeline over ingest_csv's registry give the same report bytes
        # or the same error text. A coarse grid keeps the fits cheap; both
        # paths use it. Both read through ingest_csv, so it must also match
        # the slow cell-by-cell reader: the same rows, units and scales, or
        # the same error text.
        golden = GOLDEN_REGISTRY.read_bytes()
        rng = random.Random(20261018)
        alphabet = b"0123456789.,-\n\r\" e_x"
        path = tmp_path / "mutated.csv"
        outcomes = {0: 0, 2: 0}
        lax = 0  # mutations a cell grammar laxer than the plain one would let through
        for _ in range(500):
            data = bytearray(golden)
            at = rng.randrange(len(data))
            byte = rng.choice(alphabet) if rng.random() < 0.8 else rng.randrange(256)
            edit = rng.randrange(3)
            if edit == 0:
                data[at] = byte
            elif edit == 1:
                data.insert(at, byte)
            else:
                del data[at]
            path.write_bytes(bytes(data))
            reference = read_outcome(reference_registry, str(path))
            assert read_outcome(table_registry, str(path)) == reference
            code, out, err = run_cli("pipeline", "--input", str(path), "--min-sample", "5",
                                     "--grid-step", "0.5", capsys=capsys)
            try:
                report = run_pipeline(dataset.ingest_csv(str(path)), PipelineConfig(min_sample=5, grid_step=0.5))
            except (OSError, ValueError) as exc:
                assert (code, out, err) == (2, "", f"controlpower: {exc}\n")
            else:
                assert (code, out, err) == (0, report.to_json(), "")
            outcomes[code] += 1
            lax += "not a plain" in str(reference)
        assert min(outcomes.values()) >= 100, outcomes
        assert lax >= 20

    def test_undecodable_byte_names_file_and_line(self, tmp_path, capsys, monkeypatch):
        # a byte that is not UTF-8 past the first 8 KiB and past the reader's
        # first block stops the read at its line, after the problems of the
        # rows before it, in the table and the slow reader alike (exit 2)
        path = tmp_path / "registry.csv"
        assert main(["synth", "registry", "--seed", "3", "--output", str(path)]) == 0
        data = bytearray(path.read_bytes())
        at = max(8192, csvbytes._BLOCK_BYTES) + 5000
        data[at] = 0xFF
        line = data[:at].count(b"\n") + 1
        lines = data.split(b"\n")
        lines[4] = lines[4].replace(b",main,", b",otc,")
        path.write_bytes(b"\n".join(lines))
        message = f"row 5: unknown board 'otc'; {path} line {line}: not UTF-8 (byte 0xff)"
        for size in (csvbytes._BLOCK_BYTES, 4096):
            monkeypatch.setattr(csvbytes, "_BLOCK_BYTES", size)
            outcomes = {read_outcome(read, str(path)) for read in (reference_registry, table_registry)}
            assert outcomes == {f"DataError: {message}"}
        assert run_cli("pipeline", "--input", str(path), capsys=capsys) == (2, "", f"controlpower: {message}\n")

    def test_cells_past_12_places_match_the_reference_reader(self, tmp_path, capsys):
        # a share or meeting share that no decimal of at most 12 places reads
        # as is a data error naming its row, in the table and the slow reader
        path = tmp_path / "places.csv"
        path.write_text("\n".join([",".join(dataset.CSV_COLUMNS),
                                   "f1,2001,main,private,0.3,0.2,,,,,,,,,0.5,",
                                   "f2,2001,main,private,0.3,0.1000000000001,,,,,,,,,,",
                                   "f3,2001,main,private,0.3,0.2,,,,,,,,,0.5000000000005,2",
                                   "f4,2001,main,private,0.3,0.2000000000000000000001,,,,,,,,,,"]) + "\n")
        message = ("row 3: 0.1000000000001 is not a decimal of at most 12 places; "
                   "row 4: 0.5000000000005 is not a decimal of at most 12 places")
        outcomes = {read_outcome(read, str(path)) for read in (reference_registry, table_registry)}
        assert outcomes == {f"DataError: {message}"}
        assert run_cli("pipeline", "--input", str(path), "--min-sample", "1", capsys=capsys) == (
            2, "", f"controlpower: {message}\n")

    def test_ties_are_decided_on_exact_decimals(self, tmp_path, capsys):
        # the units sum past 10^4, so the shares are written at 5 places
        path = tmp_path / "tie.csv"
        shares = ",".join(f"0.{u:05d}" for u in TIE_UNITS)
        path.write_text(f"{','.join(dataset.CSV_COLUMNS)}\nf1,2001,main,private,{shares},,\n")
        code, out, err = run_cli("pipeline", "--input", str(path), "--min-sample", "1", capsys=capsys)
        assert code == 0, err
        (cell,) = json.loads(out)["groups"]["main/private"]["years"]
        assert (cell["r_spi_1"], cell["spi_lt1_mean"]) == (0.0, 5 / 28)

    @pytest.mark.parametrize("line, cell, lax", [
        (2, "0.34", "0.3_4"),
        (3, "2001", "2_001"),
        (2, "0.13", "\u0660.\u0665"),
        (2, "0.13", "1e-3"),
        (2, "0.7436", "nan"),
        (2, "2002", "+2002"),
    ])
    def test_lax_cell_is_data_error_naming_the_row(self, line, cell, lax, tmp_path, capsys):
        lines = GOLDEN_REGISTRY.read_text().splitlines()
        cells = lines[line - 1].split(",")
        cells[cells.index(cell)] = lax
        lines[line - 1] = ",".join(cells)
        path = tmp_path / "lax.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli("pipeline", "--input", str(path), "--min-sample", "5", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"controlpower: row {line}: unparseable value (not a plain decimal number: {lax!r})\n"

    def test_year_past_int64_is_data_error_naming_the_row(self, tmp_path, capsys):
        lines = GOLDEN_REGISTRY.read_text().splitlines()
        lines[2] = lines[2].replace(",2001,", f",{2**63},")
        path = tmp_path / "far.csv"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("pipeline", "--input", str(path), "--min-sample", "5", capsys=capsys) == (
            2, "", f"controlpower: row 3: year above {2**63 - 1}, the int64 limit\n")

    def test_n_meetings_column_is_not_read(self, tmp_path, capsys):
        # the golden registry with its n_meetings column, without it, and
        # with junk in it: one table, and the same bytes in every format
        header, *rows = GOLDEN_REGISTRY.read_text().splitlines()
        junk = ["x", "-1", "9" * 5000]
        forms = {
            "with": [header, *rows],
            "without": [line.rsplit(",", 1)[0] for line in [header, *rows]],
            "junk": [header] + [f"{row.rsplit(',', 1)[0]},{junk[i % 3]}" for i, row in enumerate(rows)],
        }
        assert "n_meetings" not in forms["without"][0]
        tables, outputs = [], []
        for name, lines in forms.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join(lines) + "\n")
            tables.append(dataset.ingest_csv(str(path)))
            out = tmp_path / name
            code, _, err = run_cli("pipeline", "--input", str(path), "--macro", f"idx={GOLDEN_MACRO}",
                                   "--min-sample", "5", "--output", str(out), "--format", "json,csv-tables,plot-data",
                                   capsys=capsys)
            assert code == 0, err
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        for table in tables[1:]:
            assert_same_registry(table, tables[0])
        assert outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) == 13

    def test_trailing_zeros_leave_the_report_as_it_is(self, tmp_path, capsys):
        # every share and meeting cell of the golden registry padded to 6
        # places: the same values, so the same units, scales and report
        lines = GOLDEN_REGISTRY.read_text().splitlines()
        padded = [lines[0]] + [",".join(c.ljust(8, "0") if "." in c else c for c in line.split(","))
                               for line in lines[1:]]
        assert all(len(c.split(".")[1]) == 6 for line in padded[1:] for c in line.split(",") if "." in c)
        path = tmp_path / "padded.csv"
        path.write_text("\n".join(padded) + "\n")
        plain, zeros = dataset.ingest_csv(str(GOLDEN_REGISTRY)), dataset.ingest_csv(str(path))
        assert np.array_equal(plain.units, zeros.units) and np.array_equal(plain.scale, zeros.scale)
        reports = [run_cli("pipeline", "--input", str(p), "--min-sample", "5", capsys=capsys)
                   for p in (GOLDEN_REGISTRY, path)]
        assert reports[0] == reports[1] and reports[0][0] == 0

    def test_json_to_stdout(self, capsys):
        code, out, _ = run_cli("pipeline", "--synth", "outcomes", "--seed", "1", capsys=capsys)
        assert code == 0
        assert json.loads(out)["provenance"]["seed"] == 1


class TestNumberGrammar:
    """fit and macro files and the number-list options read the registry's
    plain decimals, with a sign only on fit t and y and macro values; nan
    and inf are left to each value's own range check."""

    @pytest.mark.parametrize("row, cell", [("0,1_0", "1_0"), ("1e1,1", "1e1"), ("+0,1", "+0"), ("0,.5", ".5")])
    def test_lax_fit_cell_is_data_error(self, row, cell, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("t,y\n" + "".join(f"{t},{t % 3}\n" for t in range(1, 8)) + row + "\n")
        code, out, err = run_cli("fit", "--input", str(path), capsys=capsys)
        assert (code, out, err) == (2, "", f"controlpower: {path} line 9: not a plain decimal number: {cell!r}\n")

    def test_signed_fit_cells_and_macro_values_are_read(self, tmp_path, capsys):
        series, macro = tmp_path / "series.csv", tmp_path / "macro.csv"
        series.write_text("t,y\n" + "".join(f"-{t}.5, -{t % 3}.25\n" for t in range(8)))
        assert run_cli("fit", "--input", str(series), capsys=capsys)[0] == 0
        macro.write_text("year,value\n" + "".join(f"{y},-{y % 7}.5\n" for y in range(1996, 2022)))
        code, _, err = run_cli("pipeline", "--synth", "outcomes", "--seed", "1", "--macro", f"idx={macro}",
                               capsys=capsys)
        assert code == 0, err

    @pytest.mark.parametrize("row, cell", [("1997,1_0", "1_0"), ("+1997,10", "+1997"), ("1997,1e1", "1e1")])
    def test_lax_macro_cell_is_data_error(self, row, cell, tmp_path, capsys):
        macro = tmp_path / "macro.csv"
        macro.write_text(f"year,value\n1996,100\n{row}\n")
        code, out, err = run_cli("pipeline", "--synth", "outcomes", "--seed", "1", "--macro", f"idx={macro}",
                                 capsys=capsys)
        assert (code, out, err) == (2, "", f"controlpower: {macro} line 3: not a plain decimal number: {cell!r}\n")

    @pytest.mark.parametrize("argv, message", [
        (["synth", "registry", "--seed", "1", "--top1", "0.3,1e-1"], "--top1: not a plain decimal number: '1e-1'"),
        (["synth", "registry", "--seed", "1", "--top2-10", "0.3;-0.1"],
         "--top2-10: not a plain decimal number: '-0.1'"),
        (["pipeline", "--synth", "outcomes", "--seed", "1", "--period-range", "4,5_0"],
         "period range: not a plain decimal number: '5_0'"),
        (["evolve", "walk", "--seed", "1", "--law", "1,1,1,0.5e0"], "--law: not a plain decimal number: '0.5e0'"),
        (["evolve", "walk", "--seed", "1", "--law", "1,1,1,nan"],
         "interruption law must be 4 finite non-negative weights with positive sum, got (1.0, 1.0, 1.0, nan)"),
    ])
    def test_lax_option_number_is_data_error(self, argv, message, capsys):
        assert run_cli(*argv, capsys=capsys) == (2, "", f"controlpower: {message}\n")


    @pytest.mark.parametrize("item", ["abc", "0x1", "1.2.3", "\u00bd"])
    @pytest.mark.parametrize("argv, option", [
        (["synth", "registry", "--seed", "1", "--top1"], "--top1"),
        (["synth", "registry", "--seed", "1", "--top2-10"], "--top2-10"),
        (["pipeline", "--synth", "outcomes", "--seed", "1", "--period-range"], "period range"),
        (["fit", "--input", "SERIES", "--period-range"], "period range"),
        (["evolve", "walk", "--seed", "1", "--law"], "--law"),
    ])
    def test_option_item_that_is_no_number_names_the_option(self, argv, option, item, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("".join(f"{t},{t % 3}\n" for t in range(8)))
        argv = [str(series) if arg == "SERIES" else arg for arg in argv]
        assert run_cli(*argv, f"4,{item}", capsys=capsys) == (
            2, "", f"controlpower: {option}: not a plain decimal number: {item!r}\n")


class TestScalarOptionGrammar:
    """Every scalar number option reads a finite plain decimal, with a sign
    only where its value may be negative (evolve wave's --a0, --a1, --b1 and
    --t-max, synth outcomes' --mu); any other value is a usage error (exit
    1) naming the option. --years takes years of digits only (exit 2).
    --seed takes an integer that is not negative (exit 1 otherwise)."""

    UNSIGNED = [
        (["evolve", "wave"], "--h"), (["evolve", "wave"], "--period"), (["evolve", "wave"], "--t-step"),
        (["fit", "--input", "series.csv"], "--grid-step"),
        (["synth", "outcomes", "--seed", "1"], "--h"), (["synth", "outcomes", "--seed", "1"], "--sigma"),
        (["pipeline", "--synth", "default", "--seed", "1"], "--h"),
        (["pipeline", "--synth", "default", "--seed", "1"], "--grid-step"),
    ]
    SIGNED = [
        (["evolve", "wave"], "--a0"), (["evolve", "wave"], "--a1"), (["evolve", "wave"], "--b1"),
        (["evolve", "wave"], "--t-max"), (["synth", "outcomes", "--seed", "1"], "--mu"),
    ]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e-3", "1_0", ".5", "+1", "0x1",
                                       pytest.param("1" + "0" * 400, id="10^400")])
    @pytest.mark.parametrize("argv, option", UNSIGNED + SIGNED)
    def test_refused_value_is_usage_error(self, argv, option, value, capsys):
        code, out, err = run_cli(*argv, f"{option}={value}", capsys=capsys)  # "-inf" alone reads as an option
        assert (code, out) == (1, "")
        assert err.endswith(f" error: argument {option}: not a finite plain decimal number: {value!r}\n")

    @pytest.mark.parametrize("argv, option", UNSIGNED)
    def test_sign_only_where_a_value_may_be_negative(self, argv, option, capsys):
        code, out, err = run_cli(*argv, option, "-1", capsys=capsys)
        assert (code, out) == (1, "")
        assert err.endswith(f" error: argument {option}: not a finite plain decimal number: '-1'\n")

    def test_signed_values_are_read(self, capsys):
        code, out, _ = run_cli("evolve", "wave", "--a0", "-0.5", "--a1", "-0.25", "--b1", "0", "--period", "4",
                               "--t-max", "2", "--t-step", "2", capsys=capsys)
        assert (code, out) == (0, "step_or_t,value\n0.0,-0.75\n2.0,-0.25\n")
        assert run_cli("evolve", "wave", "--t-max", "-1", capsys=capsys) == (0, "step_or_t,value\n", "")
        code, out, _ = run_cli("synth", "outcomes", "--seed", "1", "--years", "2000", "--draws-per-year", "2",
                               "--mu", "-0.1", capsys=capsys)
        assert code == 0 and len(out.splitlines()) == 3

    @pytest.mark.parametrize("seed", ["-1", "-0x1", "-" + "9" * 30, "x", "1.5"])
    @pytest.mark.parametrize("argv", [["evolve", "walk"], ["synth", "registry"], ["synth", "outcomes"],
                                      ["pipeline", "--synth", "default"], ["pipeline", "--synth", "outcomes"]],
                             ids=" ".join)
    def test_seed_that_is_negative_or_no_integer_is_usage_error(self, argv, seed, capsys):
        code, out, err = run_cli(*argv, f"--seed={seed}", capsys=capsys)  # "-1" alone reads as an option
        assert (code, out) == (1, "")
        assert err.endswith(f" error: argument --seed: not a non-negative integer: {seed!r}\n")

    @pytest.mark.parametrize("years, token", [
        ("1_996-1997", "1_996"), ("1996-1997.0", "1997.0"), ("+1996", "+1996"), ("1996,1e3", "1e3"), ("1996-", ""),
    ])
    def test_years_are_digits_only(self, years, token, capsys):
        assert run_cli("synth", "registry", "--seed", "1", "--years", years, capsys=capsys) == (
            2, "", f"controlpower: --years: not a year of digits: {token!r}\n")

    def test_leading_zeros_past_the_int_limit(self, capsys):
        # int() refuses more than 4,300 digits, leading zeros too
        zeros = "0" * 4400
        for years, plain in ((f"{zeros}1996-{zeros}1997", "1996-1997"), (f"{zeros}1996,1998", "1996,1998")):
            argv = ("synth", "registry", "--seed", "1", "--firms-per-year", "2", "--years")
            written = run_cli(*argv, years, capsys=capsys)
            assert written == run_cli(*argv, plain, capsys=capsys) and written[0] == 0

    def test_significant_digits_past_the_int_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        for years in ("1" + "0" * 4400, "1996,1" + "0" * 4400):
            assert run_cli("synth", "registry", "--seed", "1", "--years", years, capsys=capsys) == (
                2, "", f"controlpower: --years: a number of 4401 digits, over int()'s limit of {limit}\n")


class TestMacroRows:
    """A macro file's rows whose year cannot be read are skipped only as a
    header (the first row), a blank row or a comment (no digit)."""

    ROWS = "".join(f"{y},{100 + 2 * (y - 1996)}\n" for y in range(1996, 2022))

    def _run(self, tmp_path, capsys, text):
        macro = tmp_path / "index.csv"
        macro.write_text(text)
        return macro, run_cli("pipeline", "--synth", "outcomes", "--seed", "1", "--macro", f"idx={macro}",
                              capsys=capsys)

    def test_year_that_cannot_be_read_is_data_error(self, tmp_path, capsys):
        macro, result = self._run(tmp_path, capsys, "1996,1\n1997.0,2\n1998,3\n")
        assert result == (2, "", f"controlpower: {macro} line 2: not a plain decimal number: '1997.0'\n")

    def test_undecodable_byte_names_the_line(self, tmp_path, capsys):
        macro = tmp_path / "index.csv"
        macro.write_bytes(b"year,value\n1996,1\n1997,\xff2\n")
        code, out, err = run_cli("pipeline", "--synth", "outcomes", "--seed", "1", "--macro", f"idx={macro}",
                                 capsys=capsys)
        assert (code, out, err) == (2, "", f"controlpower: {macro} line 3: not UTF-8 (byte 0xff)\n")

    def test_leading_zeros_past_the_int_limit(self, tmp_path, capsys):
        # int() refuses more than 4,300 digits, leading zeros too
        _, plain = self._run(tmp_path, capsys, self.ROWS)
        _, zeros = self._run(tmp_path, capsys, self.ROWS.replace("\n1997,", "\n" + "0" * 4400 + "1997,"))
        assert zeros == plain and plain[0] == 0

    def test_significant_digits_past_the_int_limit(self, tmp_path, capsys):
        macro, result = self._run(tmp_path, capsys, self.ROWS.replace("\n1998,", "\n1" + "0" * 4400 + ","))
        assert result == (2, "", f"controlpower: {macro} line 3: a number of 4401 digits, over int()'s limit of "
                                 f"{sys.get_int_max_str_digits()}\n")

    def test_header_blank_rows_and_comments_are_skipped(self, tmp_path, capsys):
        _, plain = self._run(tmp_path, capsys, "year,value\n" + self.ROWS)
        assert plain[0] == 0
        _, noted = self._run(tmp_path, capsys, "year 2021,value\n\n# a comment, read by no one\n" + self.ROWS + ",\n")
        assert noted == plain


class TestParserPerCommand:
    """main builds only the command its first argument names; the exit code,
    stdout and stderr are those of the full parser."""

    COMMANDS = ("spi", "evolve", "fit", "synth", "pipeline")
    ARGV = [
        [], ["-h"], ["--help"], ["bogus"], ["sp"], ["--", "spi", "--shares", "1,1"],
        ["spi", "-h"], ["spi"], ["spi", "--shares", "2,1,1"], ["spi", "--bogus", "1"], ["spi", "--shares", "1", "fit"],
        ["evolve", "-h"], ["evolve"], ["evolve", "jump"], ["evolve", "ratios", "-h"], ["evolve", "walk", "-h"],
        ["evolve", "wave", "-h"], ["evolve", "ratios", "--k", "3"], ["evolve", "walk", "--operations", "3"],
        ["evolve", "wave", "--t-max", "2"], ["evolve", "wave", "--a0", "nan"], ["evolve", "wave", "--t-step", "0"],
        ["fit", "-h"], ["fit"], ["fit", "--input", "SERIES"], ["fit", "--input", "SERIES", "--grid-step", "x"],
        ["synth", "-h"], ["synth"], ["synth", "registry", "-h"], ["synth", "outcomes", "-h"], ["synth", "registry"],
        ["synth", "registry", "--seed", "1", "--years", "2000", "--firms-per-year", "2"],
        ["synth", "outcomes", "--seed", "1", "--years", "2000", "--draws-per-year", "3"],
        ["pipeline", "-h"], ["pipeline"], ["pipeline", "--synth", "bogus"], ["pipeline", "--input", "x", "--synth", "default"],
        ["pipeline", "--synth", "default", "--spi-mode", "top12"], ["pipeline", "--synth", "outcomes", "--seed", "5"],
    ]

    @pytest.mark.parametrize("argv", ARGV)
    def test_same_as_the_full_parser(self, argv, tmp_path, monkeypatch, capsys):
        series = tmp_path / "series.csv"
        series.write_text("".join(f"{t},{0.5 + 0.01 * (t % 5)}\n" for t in range(26)))
        argv = [str(series) if arg == "SERIES" else arg for arg in argv]
        built = []
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or full(command))
        per_command = run_cli(*argv, capsys=capsys)
        assert built == [argv[0] if argv and argv[0] in self.COMMANDS else None]
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert run_cli(*argv, capsys=capsys) == per_command

    @staticmethod
    def registered(parser):
        (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
        return list(sub.choices)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_named_command_registers_its_own_parser_alone(self, command):
        parser = cli.build_parser(command)
        assert self.registered(parser) == [command]
        assert parser.format_usage() == cli.build_parser().format_usage()

    def test_the_full_parser_registers_every_command(self):
        assert self.registered(cli.build_parser()) == list(self.COMMANDS)

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["controlpower", "spi", "--shares", "2,1,1"])
        assert main() == 0
        assert capsys.readouterr().out == "0.6667, 0.1667, 0.1667\n"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "controlpower.cli", "spi", "--shares", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5, 0.5"

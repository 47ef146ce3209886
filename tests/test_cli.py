import json
import math
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from controlpower import dataset
from controlpower.cli import main
from controlpower.pipeline import PipelineConfig, run_pipeline

GOLDEN_REGISTRY = Path(__file__).parent / "data" / "golden_registry.csv"
# 42 share lists of 1-20 players at 2-6 decimals, with planted exact-half
# coalitions, comments and blank lines, and the bytes `spi --input` prints
# for them
GOLDEN_SPI = Path(__file__).parent / "data" / "golden_spi.txt"
GOLDEN_SPI_OUT = Path(__file__).parent / "data" / "golden_spi.out"


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

    def test_shares_and_mixed_input_print_in_input_order(self, tmp_path, capsys):
        path = tmp_path / "games.txt"
        path.write_text("1,1,1\n# three then two then one\n60,40\n\n5\n2,1,1\n0.2,0.2,0.2,0.2,0.2\n")
        code, out, err = run_cli("spi", "--shares", "3,1", "--input", str(path), capsys=capsys)
        assert code == 0, err
        assert out.splitlines() == [
            "1, 0", "0.3333, 0.3333, 0.3333", "1, 0", "1", "0.6667, 0.1667, 0.1667", "0.2, 0.2, 0.2, 0.2, 0.2",
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

    @pytest.mark.parametrize("line, problem", [
        ("0,0", "total weight must be positive"),
        ("0.5,abc", "could not convert string to float: 'abc'"),
    ])
    def test_bad_input_line_stops_before_any_profile(self, line, problem, tmp_path, capsys):
        path = tmp_path / "games.txt"
        path.write_text(f"1,1\n# a comment\n{line}\n3,1\n")
        code, out, err = run_cli("spi", "--input", str(path), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == f"controlpower: {path} line 3: {problem}\n"


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

    @pytest.mark.parametrize("bounds", [
        ["--t-step", "0"], ["--t-step", "-1"], ["--t-step", "nan"], ["--t-step", "inf"],
        ["--t-max", "inf"], ["--t-max", "1e7", "--t-step", "1"],
    ])
    def test_wave_grid_without_end_exits_promptly(self, bounds):
        # the row loop used to run (and grow its row list) until killed; the
        # address-space cap turns such a run into a failure, not a full machine
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "controlpower.cli", "evolve", "wave", *bounds],
            capture_output=True,
            text=True,
            timeout=20,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 2
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

    def test_oversized_grid_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("".join(f"{t},{0.5 + 0.01 * (t % 5)}\n" for t in range(26)))
        code, out, err = run_cli(
            "fit", "--input", str(path), "--period-range", "4,50", "--grid-step", "1e-9", capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert "trial periods" in err

    def test_infinite_grid_step_is_data_error(self, tmp_path, capsys):
        # it once printed LAPACK lines on stdout and "SVD did not converge"
        path = tmp_path / "series.csv"
        path.write_text("".join(f"{t},{0.5 + 0.01 * (t % 5)}\n" for t in range(26)))
        code, out, err = run_cli("fit", "--input", str(path), "--grid-step", "inf", capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "controlpower: grid step must be finite\n"

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
        assert code == 2
        assert out == ""
        assert err == "controlpower: h must be positive and 12*h finite\n"


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
        # the column table of --synth default and the records `synth registry`
        # writes are one registry; only the provenance tells them apart
        reg = tmp_path / "reg.csv"
        assert run_cli("synth", "registry", "--seed", "3", "--output", str(reg), capsys=capsys)[0] == 0
        reports = []
        for source in (["--input", str(reg)], ["--synth", "default", "--seed", "3"]):
            code, out, err = run_cli("pipeline", *source, capsys=capsys)
            assert code == 0, err
            reports.append(json.loads(out))
        assert reports[0]["groups"] == reports[1]["groups"]

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

        monkeypatch.setattr("controlpower.cli._ingest_table", fail)
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
            "pipeline", "--synth", "outcomes", "--seed", "1", "--grid-step", "1e-9", capsys=capsys
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

        monkeypatch.setattr("controlpower.pipeline._synth_table", fail)
        code, out, err = run_cli("pipeline", "--synth", "default", "--seed", "1", *option, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == f"controlpower: {error}\n"

    def test_oversized_default_grid_stops_before_any_power_batch(self, monkeypatch, capsys):
        def fail(rows):
            raise AssertionError("a power batch ran before the grid was checked")

        monkeypatch.setattr("controlpower.pipeline.top_holder_numerators", fail)
        code, out, err = run_cli(
            "pipeline", "--input", str(Path(__file__).parent / "data" / "golden_registry.csv"),
            "--min-sample", "5", "--grid-step", "1e-9", capsys=capsys,
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
        read = dataset._ingest_table
        monkeypatch.setattr("controlpower.cli._ingest_table", reading)
        code, _, err = run_cli("pipeline", "--input", str(GOLDEN_REGISTRY), "--min-sample", "5", capsys=capsys)
        assert code == 0, err
        assert len(reads) == 1
        code, out, err = run_cli(
            "pipeline", "--input", str(GOLDEN_REGISTRY),
            "--period-range", "4,50", "--grid-step", "1e-9", capsys=capsys,
        )
        assert code == 2
        assert out == ""
        assert "trial periods" in err
        assert len(reads) == 1, "input was read before the grid was checked"

    def test_mutated_registries_match_the_record_path(self, tmp_path, capsys):
        # 500 seeded byte mutations of the golden registry: the CLI, which
        # reads the CSV into a column table, and run_pipeline over
        # ingest_csv's records give the same report bytes or the same error
        # text. A coarse grid keeps the fits cheap; both paths use it.
        golden = GOLDEN_REGISTRY.read_bytes()
        rng = random.Random(20261018)
        alphabet = b"0123456789.,-\n\r\" e_x"
        path = tmp_path / "mutated.csv"
        outcomes = {0: 0, 2: 0}
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
            code, out, err = run_cli("pipeline", "--input", str(path), "--min-sample", "5",
                                     "--grid-step", "0.5", capsys=capsys)
            try:
                report = run_pipeline(dataset.ingest_csv(str(path)), PipelineConfig(min_sample=5, grid_step=0.5))
            except (OSError, ValueError) as exc:
                assert (code, out, err) == (2, "", f"controlpower: {exc}\n")
            else:
                assert (code, out, err) == (0, report.to_json(), "")
            outcomes[code] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_json_to_stdout(self, capsys):
        code, out, _ = run_cli("pipeline", "--synth", "outcomes", "--seed", "1", capsys=capsys)
        assert code == 0
        assert json.loads(out)["provenance"]["seed"] == 1


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "controlpower.cli", "spi", "--shares", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5, 0.5"

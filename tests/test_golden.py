"""Golden report: the pipeline's behaviour contract on a committed registry.

``data/golden_registry.csv`` holds 98 firm-years (two groups, 2001-2008,
shares at 2-4 decimals, some meeting shares blank). It plants rows with
an exact-half coalition (firm mp00 in 2003 and 2006, ss00 in 2004),
rows where the top holder has full power over the top 9 but not the top
10 (mp01 2005, ss01 2007), and two rows the sampling filter removes.
``data/golden/`` holds every file the pipeline wrote for it in all three
formats: ``report.json``, the ``table_*.csv`` tables and the ``plot_*.csv``
series. A change that alters any of them changes behaviour and must
regenerate the directory on purpose:

    controlpower pipeline --input tests/data/golden_registry.csv \\
        --macro idx=tests/data/golden_macro.csv --min-sample 5 \\
        --output tests/data/golden --format json,csv-tables,plot-data

Counts, labels, flags and count ratios must match exactly; other floats
(means, fits, p-values) to 1e-12. CSV cells are parsed back to the values
they were written from and held to the same rules, keyed by column name.
"""

import csv
import json
import math
from pathlib import Path

from controlpower.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
FLOAT_TOL = 1e-12
# ratios of two counts, so exact whatever the arithmetic order; "ratio" is
# r_spi_1 in table_spi1_ratio.csv
EXACT_RATIOS = {"r_spi_1", "r_spi_1_top9", "r_spi_1_top10", "r_spi_1_top11", "band_count_ratio", "ratio"}
SERIES = ("r_spi_1", "m_top1", "m_top2_10")


def _mismatches(expected, actual, path="", key=None):
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual) if isinstance(actual, dict) else actual!r}"]
        return [m for k in expected for m in _mismatches(expected[k], actual[k], f"{path}/{k}", k)]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: {expected!r} != {actual!r}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in _mismatches(e, a, f"{path}[{i}]", key)]
    if isinstance(expected, float) and key not in EXACT_RATIOS:
        if isinstance(actual, float) and math.isclose(expected, actual, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: expected {expected!r}, got {actual!r}"]


def _cell(text):
    """A CSV cell as the value it was written from: None, bool, int, float or label."""
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    keys = list(header)
    if path.name.startswith("plot_"):
        # the observed column of a plot file is the series its name ends with
        keys = [next(s for s in SERIES if path.stem.endswith(s)) if k == "observed" else k for k in keys]
    return {"header": header, "rows": [dict(zip(keys, map(_cell, row))) for row in rows]}


def test_golden_report(tmp_path, capsys):
    code = main([
        "pipeline", "--input", str(DATA / "golden_registry.csv"),
        "--macro", f"idx={DATA / 'golden_macro.csv'}", "--min-sample", "5",
        "--output", str(tmp_path), "--format", "json,csv-tables,plot-data",
    ])
    assert code == 0, capsys.readouterr().err
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert len(names) == 13
    for name in names:
        assert _mismatches(_load(GOLDEN / name), _load(tmp_path / name), name) == []


def test_golden_comparison_is_strict():
    expected = _load(GOLDEN / "report.json")
    cell = expected["groups"]["main/private"]["years"][4]
    assert cell["year"] == 2005 and cell["r_spi_1_top9"] != cell["r_spi_1_top10"]
    altered = json.loads(json.dumps(expected))
    altered["groups"]["main/private"]["years"][4]["r_spi_1_top9"] = cell["r_spi_1_top10"]
    altered["groups"]["main/private"]["years"][4]["n_spi_lt1"] += 1
    fit = altered["groups"]["main/private"]["fits"]["m_top1"]
    fit["period"] += 1e-9
    assert len(_mismatches(expected, altered)) == 3
    fit["period"] = expected["groups"]["main/private"]["fits"]["m_top1"]["period"] * (1 + 1e-14)
    assert len(_mismatches(expected, altered)) == 2


def test_table_comparison_is_strict():
    ratios = _load(GOLDEN / "table_spi1_ratio.csv")
    row = ratios["rows"][1]
    assert row == {"group": "main/private", "year": 2002, "ratio": 2 / 3, "n": 6}
    altered = json.loads(json.dumps(ratios))
    altered["rows"][1]["ratio"] = math.nextafter(row["ratio"], 1.0)
    altered["rows"][1]["n"] = 6.0
    altered["rows"][2]["group"] = "main/state"
    assert len(_mismatches(ratios, altered)) == 3

    plot = _load(GOLDEN / "plot_main_private_r_spi_1.csv")
    assert plot["header"] == ["t", "observed", "fitted"]
    altered = json.loads(json.dumps(plot))
    altered["rows"][1]["fitted"] *= 1 + 1e-14
    assert _mismatches(plot, altered) == []
    altered["rows"][1]["r_spi_1"] = math.nextafter(plot["rows"][1]["r_spi_1"], 0.0)
    altered["rows"][2]["fitted"] += 1e-9
    assert len(_mismatches(plot, altered)) == 2

    fits = _load(GOLDEN / "table_fits.csv")
    assert fits["rows"][0]["degenerate"] is False
    altered = json.loads(json.dumps(fits))
    altered["rows"][0]["degenerate"] = 0
    assert len(_mismatches(fits, altered)) == 1

"""Golden report: the pipeline's behaviour contract on a committed registry.

``data/golden_registry.csv`` holds 98 firm-years (two groups, 2001-2008,
shares at 2-4 decimals, some meeting shares blank). It plants rows with
an exact-half coalition (firm mp00 in 2003 and 2006, ss00 in 2004),
rows where the top holder has full power over the top 9 but not the top
10 (mp01 2005, ss01 2007), and two rows the sampling filter removes.
``data/golden_report.json`` is the report the pipeline produced for it.
A change that alters that report changes behaviour and must regenerate
the file on purpose:

    controlpower pipeline --input tests/data/golden_registry.csv \\
        --macro idx=tests/data/golden_macro.csv --min-sample 5 \\
        --output OUT --format json

Counts, labels, flags and count ratios must match exactly; other floats
(means, fits, p-values) to 1e-12.
"""

import json
import math
from pathlib import Path

from controlpower.cli import main

DATA = Path(__file__).parent / "data"
FLOAT_TOL = 1e-12
# ratios of two counts, so exact whatever the arithmetic order
EXACT_RATIOS = {"r_spi_1", "r_spi_1_top9", "r_spi_1_top10", "r_spi_1_top11", "band_count_ratio"}


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


def test_golden_report(tmp_path, capsys):
    code = main([
        "pipeline", "--input", str(DATA / "golden_registry.csv"),
        "--macro", f"idx={DATA / 'golden_macro.csv'}", "--min-sample", "5",
        "--output", str(tmp_path), "--format", "json",
    ])
    assert code == 0, capsys.readouterr().err
    expected = json.loads((DATA / "golden_report.json").read_text(encoding="utf-8"))
    actual = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert _mismatches(expected, actual) == []


def test_golden_comparison_is_strict():
    expected = json.loads((DATA / "golden_report.json").read_text(encoding="utf-8"))
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

"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from run import WORK, WORKLOADS  # noqa: E402

NAMED_END_TO_END = ("setup_s", "report_s", "firm_years_per_s", "peak_rss_mb", "wrong_ratio", "error_ratio")
WORKLOAD_END_TO_END = {
    "registry-10k": ("report_s",),
    "outcomes-fits": ("report_s", "report_s_p90", "reports_per_s"),
    "spi-profiles": ("profiles_per_s",),
}
NAMED_PER_LAYER = (
    "power_index.self_s", "power_index.calls", "power_index.games", "power_index.us_per_game",
    "power_index.full_power_share", "power_index.profile_ms_p50", "power_index.profile_ms_p99",
    "power_index.tie_games", "fitting.fourier_s", "fitting.fourier_calls", "fitting.grid_points",
    "fitting.normal_s", "fitting.normal_calls", "fitting.pearson_s", "fitting.pearson_calls",
    "dataset.ingest_s", "dataset.rows_read", "dataset.rows_rejected", "dataset.filter_s",
    "dataset.rows_filtered_out", "dataset.group_s", "dataset.digest_s", "dataset.synth_outcomes_s",
    "evolution.pdf_sample_s", "evolution.draws", "pipeline.year_stats_self_s", "pipeline.cells",
    "pipeline.draws_stats_self_s", "pipeline.build_report_self_s", "pipeline.emit_s",
    "pipeline.bytes_written", "cli.self_s", "trace.overhead_s",
)


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(root: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


TIE_LIST = [".2639", ".2371", ".2329", ".2056", ".1322", ".1272", ".0045"]


def test_known_ties_are_flagged():
    exact = oracle.Game(tuple(oracle.exact_units(TIE_LIST)))
    assert 2 * (2639 + 2056 + 1322) == exact.total
    assert exact.is_tie()
    near = oracle.Game(tuple(oracle.exact_units(["0.5000004", "0.4999996"])))
    assert near.is_tie()
    assert near.powers() == [Fraction(1), Fraction(0)]
    assert near.top_full_bounds(near.coalition_sums()) == (False, True)
    assert not oracle.Game((3, 2, 2)).is_tie()


def test_tie_bounds_hold_the_exact_power_and_are_exact_without_ties():
    rng = np.random.default_rng(9)
    for _ in range(40):
        game = oracle.Game(tuple(int(w) for w in rng.integers(1, 40, size=int(rng.integers(2, 8)))))
        for (lo, hi), p in zip(game.power_bounds(), game.powers()):
            assert lo <= p <= hi
            assert game.is_tie() or lo == p == hi


def test_only_outputs_a_tie_can_move_are_excused():
    tie = oracle.expect_profile(TIE_LIST)
    assert tie.tie
    lo, hi = tie.bounds[0]
    assert lo < hi
    inside = ", ".join([format(float(hi), ".4g")] + tie.line.split(", ")[1:])
    outside = ", ".join([format(float(hi) + 0.01, ".4g")] + tie.line.split(", ")[1:])
    assert inside != tie.line
    tally = oracle.check_profiles([tie, tie, tie], "\n".join([tie.line, inside, outside]))
    assert (tally.checked, tally.wrong, tally.explained) == (3, 2, 1)

    plain = oracle.expect_profile(["0.40", "0.35", "0.25"])
    assert not plain.tie
    assert oracle.check_profiles([plain], "0.5, 0.25, 0.25").unexplained == 1

    rows = [["f1", "2000", "main", "private", *TIE_LIST, "", "", "", ".9999", "1"],
            ["f2", "2000", "main", "private", ".30", ".25", ".10", *[""] * 7, ".60", "1"]]
    (cell,) = oracle.expect_registry(rows).values()
    assert {"spi_lt1_mean", "spi_lt1_sd", "spi_lt1_band"} <= set(cell.tie_ranges)
    assert not {"n_sample", "n_top11", "n_meeting", "n_spi_lt1", "r_spi_1"} & set(cell.tie_ranges)
    ys = dict(cell.fields, year=2000)
    report = {"groups": {"main/private": {"years": [ys]}}}
    assert oracle.check_cells({("main/private", 2000): cell}, report).wrong == 0
    lo_mean, hi_mean = cell.tie_ranges["spi_lt1_mean"]
    for name, value, explained in (("spi_lt1_mean", hi_mean, 1), ("spi_lt1_mean", hi_mean + 0.01, 0),
                                   ("n_sample", 3, 0), ("r_spi_1_top9", 0.5, 0)):
        tally = oracle.check_cells({("main/private", 2000): cell}, {"groups": {"main/private": {"years": [
            dict(ys, **{name: value})]}}})
        assert (tally.wrong, tally.explained) == (1, explained), name


def _permutation_power(weights: tuple[int, ...]) -> list[Fraction]:
    total, counts = sum(weights), [0] * len(weights)
    orders = list(itertools.permutations(range(len(weights))))
    for order in orders:
        acc = 0
        for p in order:
            acc += weights[p]
            if 2 * acc > total:
                counts[p] += 1
                break
    return [Fraction(c, len(orders)) for c in counts]


def test_oracle_matches_permutation_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        weights = tuple(int(w) for w in rng.integers(0, 12, size=n))
        if sum(weights) == 0:
            continue
        assert oracle.Game(weights).powers() == _permutation_power(weights)


def test_fit_check_accepts_exact_fit_and_rejects_a_worse_one():
    t = np.arange(26.0)
    y = 0.5 + 0.1 * np.cos(2 * math.pi * t / 17.0) + 0.01 * np.sin(t)
    years = [{"year": 2000 + int(k), "v": float(v)} for k, v in zip(t, y)]
    periods = oracle.fourier_grid(4.0, 50.0, 0.05)
    best = min(periods, key=lambda p: oracle.best_grid_sse(t, y, np.array([p])))
    theta = 2 * math.pi * t / best
    design = np.column_stack([np.ones_like(t), np.cos(theta), np.sin(theta)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    sse = float(((y - design @ coef) ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    fit = {"a0": float(coef[0]), "a1": float(coef[1]), "b1": float(coef[2]), "period": float(best), "sse": sse,
           "r_squared": 1 - sse / sst, "degenerate": False}
    plot = "t,observed,fitted\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(t.tolist(), y.tolist(), (design @ coef).tolist()))
    report = {"provenance": {"period_range": None, "grid_step": 0.05}, "groups": {"main/private": {
        "fitted_years": [r["year"] for r in years], "years": years, "fits": {"v": fit}}}}
    plots = {"plot_main_private_v.csv": plot}
    assert oracle.check_fits(report, plots).wrong == 0
    worse = dict(fit, period=best + 3.0)
    worse["sse"] = float(((y - oracle._wave(worse, t)) ** 2).sum())
    worse["r_squared"] = 1 - worse["sse"] / sst
    report["groups"]["main/private"]["fits"]["v"] = worse
    assert oracle.check_fits(report, {}).wrong == 2  # worse than the grid, and no plot file


def test_every_metric_is_emitted_with_its_unit():
    bench = _benchmark()
    layer_names = [m["name"] for m in bench["per_layer"]]
    assert set(NAMED_PER_LAYER) <= set(layer_names)
    for workload in WORKLOADS:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--tiny")
            assert out.returncode == 0, out.stderr
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert result["metrics"] == {
                m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared
            }
            printed = {line.split()[2] for line in lines if line.startswith(f"# {workload} ")}
            assert set(NAMED_END_TO_END + WORKLOAD_END_TO_END[workload]) <= printed
            if trace == "1" and workload == "outcomes-fits":
                assert result["metrics"]["power_index.calls"]["value"] == 0


def test_fails_without_the_program():
    os.makedirs(WORK, exist_ok=True)
    bare = tempfile.mkdtemp(dir=WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
        out = _run(bare, "--workload", "spi-profiles", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare)

import dataclasses
import hashlib
import io
import json
import math
import random
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from controlpower import fitting, pipeline
from controlpower.cli import DEFAULT_SYNTH_YEARS, main
from controlpower.dataset import (
    BOARDS,
    CSV_COLUMNS,
    MAX_HOLDERS,
    OWNERSHIPS,
    DataError,
    GroupKey,
    MomentTarget,
    Registry,
    SynthConfig,
    _POW10,
    ingest_csv,
    synth_registry,
)
from controlpower.evolution import ControlPowerPdf, ideal_wave, wave_eval
from controlpower.pipeline import (
    MIN_FIT_YEARS,
    SPI_MODES,
    PipelineConfig,
    YearStats,
    build_report,
    emit_report,
    run_pipeline,
)
from controlpower.power_index import make_game, spi_dp, top_holder_numerators
from registry_rows import Row, floats, registry, rows_of, take

MAIN_PRIVATE = GroupKey("main", "private")
GOLDEN_REGISTRY = Path(__file__).parent / "data" / "golden_registry.csv"


def record(firm_id, shares, year=2001, board="main", ownership="private", meeting_share=None):
    return Row(firm_id, year, board, ownership, tuple(shares), meeting_share)


def registry_config(**overrides):
    base = dict(
        years=tuple(range(2000, 2012)),
        firms_per_year=60,
        seed=21,
        top1=MomentTarget(0.30, 0.10),
        top2_10=MomentTarget(0.27, 0.12),
    )
    base.update(overrides)
    return SynthConfig(**base)


def cell_stats(records, spi_mode="top10"):
    """The one year of the report on one (group, year) cell: a registry, or rows."""
    source = records if isinstance(records, Registry) else registry(records)
    (group,) = run_pipeline(source, PipelineConfig(min_sample=1, spi_mode=spi_mode)).groups.values()
    (stats,) = group.years
    return stats


class TestYearStats:
    def test_dictator_firm(self):
        stats = cell_stats([record("f1", (0.40, 0.10, 0.10))])
        assert stats.r_spi_1 == 1.0
        assert stats.n_spi_lt1 == 0
        assert stats.spi_lt1_mean is None

    def test_symmetric_firm(self):
        stats = cell_stats([record("f1", (0.20, 0.20, 0.20))])
        assert stats.r_spi_1 == 0.0
        assert stats.spi_lt1_mean == pytest.approx(1 / 3)
        assert stats.spi_lt1_sd is None  # single firm below full power

    def test_share_means(self):
        stats = cell_stats([
            record("f1", (0.40, 0.10)),
            record("f2", (0.20, 0.15, 0.05)),
        ])
        assert stats.m_top1 == pytest.approx(0.30)
        assert stats.m_top2_10 == pytest.approx(0.15)
        assert stats.n_sample == 2

    def test_meeting_ratio_fields(self):
        recs = [
            record("f1", (0.30, 0.10), meeting_share=0.36),
            record("f2", (0.30, 0.10), meeting_share=0.32),
            record("f3", (0.30, 0.10)),  # no meeting data, excluded from ratios
        ]
        stats = cell_stats(recs)
        assert stats.n_meeting == 2
        assert stats.meeting_ratio_mean == pytest.approx((0.9 + 0.8) / 2)
        assert stats.band_count_ratio == 1.0

    def test_meeting_band_keeps_edge_values(self):
        # ratios 0.207, 0.307, 0.407: the SD rounds to 0.09999999999999999, so
        # an unguarded band drops an end value and gives 2/3
        recs = [record(f"f{i}", (0.4, 0.3, 0.3), meeting_share=m) for i, m in enumerate((0.207, 0.307, 0.407))]
        stats = cell_stats(recs)
        assert stats.meeting_ratio_sd < 0.1
        assert stats.band_count_ratio == 1.0

    def test_top11_requires_meeting_share(self):
        with pytest.raises(DataError):
            cell_stats([record("f1", (0.3, 0.1))], spi_mode="top11")

    def test_dictatorship_equivalence_property(self):
        # headline ratio must equal the brute-force dictator count
        # records hold decimals, here of 6 places
        rng = random.Random(37)
        recs = []
        for i in range(120):
            top1 = round(rng.uniform(0.05, 0.49), 6)
            rest = sorted((rng.uniform(0.0, top1) for _ in range(rng.randint(1, 9))), reverse=True)
            scale = min(1.0, (1.0 - top1) / (sum(rest) + 1e-12), 1.0)
            rest = [round(r * scale * 0.999, 6) for r in rest]
            recs.append(record(f"f{i}", [top1] + [r for r in rest if r > 0]))
        stats = cell_stats(recs)
        assert stats.n_sample == len(recs)  # every leading share is below the filter limit
        dictators = 0
        for r in recs:
            units = [round(s * 10**6) for s in r.shares]
            dictators += 2 * units[0] > sum(units)
        assert stats.r_spi_1 == pytest.approx(dictators / len(recs), abs=1e-12)

    def test_calibrated_cohort_full_power_ratio(self):
        # cohort drawn at the 1996 share moments; the contested-sample
        # full-power ratio should land near the observed 0.644
        config = SynthConfig(
            years=(1996,),
            firms_per_year=1000,
            seed=1996,
            top1=MomentTarget(0.316, 0.114),
            top2_10=MomentTarget(0.250, 0.130),
        )
        stats = cell_stats(synth_registry(config))
        assert stats.r_spi_1 == pytest.approx(0.644, abs=0.10)

    def test_mode_top11_with_zero_residual_matches_top10(self):
        recs = []
        rng = random.Random(5)
        for i in range(40):
            shares = sorted((round(rng.uniform(0.01, 0.3), 6) for _ in range(5)), reverse=True)
            total = sum(shares)
            if total > 0.99:
                shares = [round(s / (total * 1.02), 6) for s in shares]
            recs.append(record(f"f{i}", shares, meeting_share=min(1.0, round(sum(shares), 6))))
        top10 = cell_stats(recs, spi_mode="top10")
        top11 = cell_stats(recs, spi_mode="top11")
        assert top11.r_spi_1 == top10.r_spi_1

    def test_variant_ordering_not_assumed_only_bounds(self):
        recs = [record(f"f{i}", (0.35, 0.2, 0.1), meeting_share=0.7) for i in range(3)]
        stats = cell_stats(recs)
        for v in (stats.r_spi_1_top9, stats.r_spi_1_top10, stats.r_spi_1_top11):
            assert 0.0 <= v <= 1.0


def reference_mean_sd(values):
    """Sample mean and n-1 SD as the cell summaries have always computed them."""
    n = len(values)
    if n == 0:
        return None, None
    mean = math.fsum(values) / n
    if n == 1:
        return mean, None
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))


def test_cell_means_and_sds_unchanged():
    rng = random.Random(8)
    # one- and two-firm cells first, then random sizes; the blank rate varies
    # per cell so that some cells have zero or one meeting ratio
    for n_firms in [1, 1, 2, 2] + [rng.randint(1, 60) for _ in range(16)]:
        blank = rng.random()
        recs, co_holders, ratios = [], [], []
        for i in range(n_firms):
            units = sorted((rng.randint(1, 1000) for _ in range(rng.randint(1, 10))), reverse=True)
            meeting = None if rng.random() < blank else round(rng.uniform(0.0, 1.0), 4)
            recs.append(record(f"f{i}", [u / 10_000 for u in units], meeting_share=meeting))
            # the co-holders' total and the meeting ratio are the correctly
            # rounded floats of the exact decimals (int true division)
            co_holders.append(sum(units[1:]) / 10_000)
            if meeting is not None:
                ratios.append(round(meeting * 10_000) / sum(units))
        stats = cell_stats(recs)
        assert (stats.m_top1, stats.m_top1_sd) == reference_mean_sd([r.shares[0] for r in recs])
        assert (stats.m_top2_10, stats.m_top2_10_sd) == reference_mean_sd(co_holders)
        assert (stats.meeting_ratio_mean, stats.meeting_ratio_sd) == reference_mean_sd(ratios)


class TestYearStatsFromDraws:
    def test_atom_count_and_tail(self):
        stats = pipeline._draws_stats({1999: [1.0, 1.0, 0.4, 0.6]})[0]
        assert stats.r_spi_1 == 0.5
        assert stats.n_spi_lt1 == 2
        assert stats.spi_lt1_mean == pytest.approx(0.5)
        assert stats.m_top1 is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pipeline._draws_stats({1999: []})

    def test_same_power_summary_as_year_stats(self):
        # (0.30, 0.20, 0.10) plants an exact-half coalition, (0.40, 0.10, 0.10)
        # a full-power holder; the rest are 2-10 holder rows at 4 decimals
        rng = random.Random(11)
        recs = [record("half", (0.30, 0.20, 0.10)), record("full", (0.40, 0.10, 0.10))]
        for i in range(40):
            shares = sorted((round(rng.uniform(0.01, 0.09), 4) for _ in range(rng.randint(2, 10))), reverse=True)
            recs.append(record(f"f{i}", shares))
        powers = [float(spi_dp(make_game(r.shares)).spi[0]) for r in recs]
        assert powers[0] < 1.0 and powers[1] == 1.0
        assert 0 < sum(v == 1.0 for v in powers) < len(powers) - 2

        from_rows = cell_stats(recs)
        from_draws = pipeline._draws_stats({2001: powers})[0]
        for name in ("r_spi_1", "spi_lt1_mean", "spi_lt1_sd", "spi_lt1_band", "n_spi_lt1"):
            assert getattr(from_rows, name) == getattr(from_draws, name), name
        assert from_rows.spi_lt1_band is not None


class TestYearStatsValidation:
    def test_rejects_out_of_range_ratio(self):
        with pytest.raises(ValueError):
            YearStats(year=2000, n_sample=5, r_spi_1=1.5)

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            YearStats(year=2000, n_sample=-1)


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "period_range, step",
        [(None, 0.0), (None, -1.0), ((4.0, 50.0), 0.0), ((10.0, 5.0), 0.05), ((0.0, 5.0), 0.05),
         ((4.0, 50.0), 1e-9), (None, math.inf), ((4.0, 50.0), math.inf), (None, math.nan), ((4.0, 50.0), math.nan)],
    )
    def test_rejects_bad_grid_without_building_it(self, period_range, step, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the config check must not build the grid")

        monkeypatch.setattr(fitting, "_period_grid", no_grid)
        with pytest.raises(ValueError, match="grid step|period range|trial periods"):
            PipelineConfig(period_range=period_range, grid_step=step)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_h_that_is_not_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            PipelineConfig(h=h)

    def test_default_range_checks_only_the_step(self):
        # the default range needs a group's span, so its size is checked at the fit
        assert PipelineConfig(grid_step=1e-9).grid_step == 1e-9


class TestRunPipeline:
    def test_row_order_invariance(self):
        table = synth_registry(registry_config())
        config = PipelineConfig(min_sample=40)
        report_a = run_pipeline(table, config)
        shuffled = np.random.default_rng(99).permutation(len(table))
        assert not (shuffled == np.arange(len(table))).all()
        report_b = run_pipeline(take(table, shuffled), config)
        assert report_a.to_json() == report_b.to_json()

    def test_workers_do_not_change_output(self):
        source = registry_config()
        base = run_pipeline(source, PipelineConfig(min_sample=40, workers=1))
        parallel = run_pipeline(source, PipelineConfig(min_sample=40, workers=4))
        assert base.to_json() == parallel.to_json()

    @pytest.mark.parametrize("change", [
        {"top1": MomentTarget(0.31, 0.10)},
        {"top2_10": MomentTarget(0.27, 0.13)},
        {"pdf": ControlPowerPdf(wave=ideal_wave(1.5), mu=0.47)},
        {"pdf": ControlPowerPdf(wave=ideal_wave(1.5), sigma=0.17)},
        {"pdf": ControlPowerPdf(wave=ideal_wave(1.6))},
    ])
    def test_synthetic_digest_covers_targets_and_pdf(self, change):
        base = registry_config() if "pdf" not in change else registry_config(
            top1=None, top2_10=None, firms_per_year=60, pdf=ControlPowerPdf(wave=ideal_wave(1.5)))
        changed = dataclasses.replace(base, **change)
        digests = {run_pipeline(c, PipelineConfig(min_sample=40, period_range=(4.0, 30.0))).provenance["input_digest"]
                   for c in (base, changed)}
        assert len(digests) == 2

    def test_threshold_drops_years_from_fits_only(self):
        stats = {
            MAIN_PRIVATE: [
                YearStats(year=1995, n_sample=10, r_spi_1=0.5),
                *[
                    YearStats(year=1996 + i, n_sample=80, r_spi_1=0.58 + 0.05 * math.sin(i))
                    for i in range(8)
                ],
            ]
        }
        report = build_report(stats, PipelineConfig(min_sample=50))
        group = report.groups[MAIN_PRIVATE]
        assert len(group.years) == 9  # below-threshold year still reported
        assert group.fitted_years == tuple(range(1996, 2004))

    def test_no_group_survives_threshold(self):
        stats = {MAIN_PRIVATE: [YearStats(year=2000, n_sample=10, r_spi_1=0.5)]}
        with pytest.raises(DataError):
            build_report(stats, PipelineConfig(min_sample=50))

    def test_outcomes_mode_fits_full_power_ratio(self):
        source = SynthConfig(
            years=tuple(range(1996, 2022)),
            firms_per_year=400,
            seed=7,
            pdf=ControlPowerPdf(wave=ideal_wave(1.5)),
        )
        report = run_pipeline(source, PipelineConfig())
        group = report.groups[MAIN_PRIVATE]
        fit = group.fits["r_spi_1"]
        assert not fit.degenerate
        assert abs(fit.period - 18.0) / 18.0 < 0.10
        assert "m_top1" not in group.fits

    def test_filter_applies(self):
        recs = [record("f1", (0.55, 0.1)), *(record(f"g{i}", (0.3, 0.1)) for i in range(6))]
        report = run_pipeline(registry(recs), PipelineConfig(min_sample=5))
        assert report.groups[MAIN_PRIVATE].years[0].n_sample == 6

    def test_all_filtered_is_error(self):
        with pytest.raises(DataError):
            run_pipeline(registry([record("f1", (0.6, 0.1))]), PipelineConfig(min_sample=1))

    def test_multiple_groups_reported_separately(self):
        main = synth_registry(registry_config(firms_per_year=50))
        gem = synth_registry(
            registry_config(firms_per_year=50, seed=5, group=GroupKey("sme_gem", "state"))
        )
        report = run_pipeline(registry(rows_of(main) + rows_of(gem)), PipelineConfig(min_sample=30))
        assert set(report.groups) == {MAIN_PRIVATE, GroupKey("sme_gem", "state")}
        for group_report in report.groups.values():
            assert "r_spi_1" in group_report.fits

    def test_correlations_against_macro_series(self):
        years = list(range(1996, 2012))
        stats = {
            MAIN_PRIVATE: [
                YearStats(
                    year=y,
                    n_sample=100,
                    r_spi_1=0.55 + 0.05 * math.cos(2 * math.pi * (y - 1996) / 9.0),
                    m_top1=0.30 - 0.002 * (y - 1996),
                    m_top2_10=0.25 + 0.003 * (y - 1996),
                )
                for y in years
            ]
        }
        macro = {y: 100.0 + 3.0 * (y - 1996) for y in years}
        config = PipelineConfig(min_sample=50, macros={"index": macro})
        report = build_report(stats, config)
        corr = report.groups[MAIN_PRIVATE].correlations["index"]
        assert corr["m_top1"].r == pytest.approx(-1.0, abs=1e-9)
        assert corr["m_top2_10"].r == pytest.approx(1.0, abs=1e-9)
        assert corr["m_top1"].n == len(years)


def random_registry(seed, blank_meeting=0.15):
    """Seeded registry over at least two groups and six years: 1-10 holders
    at 4 decimals, some blank meeting shares, some firms above the filter
    limit and some where the leader holds exactly half the total."""
    rng = random.Random(seed)
    groups = rng.sample([GroupKey(b, o) for b in BOARDS for o in OWNERSHIPS], rng.randint(2, 4))
    records = []
    for group in groups:
        for year in range(2000, 2006):
            for i in range(rng.randint(1, 7)):
                n = rng.randint(1, 10)
                if n >= 2 and rng.random() < 0.2:
                    rest = sorted((rng.randint(1, 400) for _ in range(n - 1)), reverse=True)
                    units = [sum(rest)] + rest  # the leader holds exactly half
                else:
                    units = sorted((rng.randint(1, 6000) for _ in range(n)), reverse=True)
                    total = sum(units)
                    units = [max(1, u * 9500 // total) for u in units] if total > 9500 else units
                shares = tuple(u / 10_000 for u in units)
                meeting = None if rng.random() < blank_meeting else round(rng.uniform(0.1, 1.0), 4)
                records.append(Row(f"{group.board}-{group.ownership}-{year}-{i:02d}", year,
                                   group.board, group.ownership, shares, meeting))
    return records


def group_stats(table, spi_mode):
    """``_group_stats`` of every row of ``table``, in table order."""
    return pipeline._group_stats(table, np.arange(len(table)), spi_mode)


def per_cell_stats(records, spi_mode):
    """The aggregates of every (group, year) cell of the records below the
    filter limit, one ``_group_stats`` call per cell in group, year and
    record order."""
    cells = {}
    for rec in sorted(records, key=lambda r: (r.board, r.ownership, r.year, r.firm_id)):
        if rec.shares[0] < 0.5:
            cells.setdefault(GroupKey(rec.board, rec.ownership), {}).setdefault(rec.year, []).append(rec)
    return {g: tuple(group_stats(registry(cell), spi_mode)[0] for cell in by_year.values())
            for g, by_year in cells.items()}


class TestInputDigest:
    """provenance["input_digest"] of a registry: one SHA-256 over the sorted
    rows' fields, so it ignores row order and how a share was printed."""

    BASE = (
        Row("f1", 2001, "main", "private", (0.3, 0.2, 0.1), 0.55),
        Row("f2", 2001, "main", "private", (0.25, 0.25)),
        Row("f3", 2002, "sme_gem", "state", (0.4,), 0.35),
    )

    @staticmethod
    def digest(records):
        """The digest of a registry, or of rows."""
        source = records if isinstance(records, Registry) else registry(records)
        return run_pipeline(source, PipelineConfig(min_sample=1)).provenance["input_digest"]

    def test_pinned_value(self):
        # a refactor that moves this value changes every registry report's provenance
        assert self.digest(self.BASE) == "4080b667361378bc3e5e32ff1ce1201d8f49988b5901ef95b1c5dd074c8c6f26"

    def test_row_order_does_not_matter(self):
        records = rows_of(synth_registry(registry_config(firms_per_year=5)))
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        assert shuffled != records
        assert self.digest(shuffled) == self.digest(records)

    def test_trailing_zeros_do_not_matter(self):
        header = "firm_id,year,board,ownership,s1,s2,s3,s4,s5,s6,s7,s8,s9,s10,meeting_share,n_meetings"
        texts = [
            f"{header}\nf1,2001,main,private,{s1},0.2,,,,,,,,,{m},2\n"
            for s1, m in (("0.3040", "0.5000"), ("0.304", "0.5"))
        ]
        assert texts[0] != texts[1]
        first, second = (ingest_csv(io.StringIO(t)) for t in texts)
        assert self.digest(first) == self.digest(second)

    @pytest.mark.parametrize("change", [
        {"firm_id": "f4"},
        {"year": 2002},
        {"board": "sme_gem"},
        {"ownership": "state"},
        {"shares": (0.3, 0.2, 0.15)},
    ])
    def test_each_field_of_a_record_counts(self, change):
        changed = (self.BASE[0]._replace(**change),) + self.BASE[1:]
        assert self.digest(changed) != self.digest(self.BASE)

    @pytest.mark.parametrize("change", [{"meeting_share": 0.0}])
    def test_none_differs_from_zero(self, change):
        changed = self.BASE[:1] + (self.BASE[1]._replace(**change),) + self.BASE[2:]
        assert self.digest(changed) != self.digest(self.BASE)

    def test_repeated_firm_years_in_any_order(self):
        # rows that repeat (year, board, ownership, firm_id) are ordered by
        # their shares, a list before a longer one it begins
        rows = [self.BASE[0]._replace(shares=shares)
                for shares in ((0.3, 0.2), (0.3, 0.2, 0.1), (0.25,), (0.3, 0.2, 0.05))]
        digests = {self.digest(rows[k:] + rows[:k]) for k in range(len(rows))}
        assert digests == {self.digest(rows[::-1])} and len(digests) == 1

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sort_order_is_the_record_sort(self, seed):
        rng = random.Random(seed)
        records = [
            Row(rng.choice(["f1", "f2", "f10", "f1\x00"]), rng.choice([2001, 2002]), rng.choice(BOARDS),
                rng.choice(OWNERSHIPS), rng.choice([(0.3,), (0.3, 0.2), (0.3, 0.2, 0.1), (0.25, 0.2)]),
                rng.choice([None, 0.4]))
            for _ in range(300)
        ]
        expected = sorted(range(len(records)), key=lambda i: (
            records[i].year, records[i].board, records[i].ownership, records[i].firm_id, records[i].shares))
        # the ids reach the table past the CSV, whose reader refuses NUL on Python 3.10
        table = dataclasses.replace(registry(r._replace(firm_id="f") for r in records),
                                    firm_id=[r.firm_id for r in records])
        assert pipeline._sort_order(table).tolist() == expected

    @pytest.mark.parametrize("arrange", ["presorted", "reversed", "shuffled", "repeated"])
    def test_sort_order_is_the_unique_rank_order(self, arrange):
        # the order ranking firm ids through np.unique gave, with the share
        # columns always among the keys; each firm id recurs within a year
        # and across years, and "repeated" also repeats whole rows
        table = synth_registry(registry_config(firms_per_year=40))
        table = dataclasses.replace(table, firm_id=[f"f{int(i[-4:]) % 7}" for i in table.firm_id])
        n = len(table)
        table = take(table, pipeline._sort_order(table))
        index = {
            "presorted": np.arange(n),
            "reversed": np.arange(n)[::-1],
            "shuffled": np.random.default_rng(3).permutation(n),
            "repeated": np.random.default_rng(4).integers(0, n, size=2 * n),
        }[arrange]
        table = take(table, index)
        firm = np.unique(np.array(table.firm_id, dtype=object), return_inverse=True)[1]
        keys = (firm, table.ownership, table.board, table.year)
        expected = np.lexsort((*floats(table)[:, MAX_HOLDERS - 1 :: -1].T, *keys))
        assert pipeline._sort_order(table).tolist() == expected.tolist()

    def test_year_beyond_int64(self):
        # the last int64 years are hashed apart; a year past them is a data
        # error naming its row
        last = [self.BASE[0]._replace(year=year) for year in (2**63 - 2, 2**63 - 1)]
        assert self.digest(last[:1]) != self.digest(last[1:])
        with pytest.raises(DataError, match=f"^row 3: year above {2**63 - 1}, the int64 limit$"):
            self.digest([self.BASE[0], self.BASE[0]._replace(year=2**63)])

    def test_shares_tie_break_on_exact_values(self):
        # rows that repeat year, board, ownership and firm_id are ordered by
        # their shares' exact values, which differ only in the 12th place;
        # equal values tie, so those rows keep their input order
        s1 = ["0.300000000002", "0.3", "0.300000000001", "0.299999999999", "0.3", "0.3"]
        s2 = ["0.2", "0.200000000001", "0.2", "0.1", "0.199999999999", "0.2"]
        records = [Row("f", 2001, "main", "private", pair, meeting)
                   for pair in zip(s1, s2) for meeting in ("0.9", "0.123456789012", None)]
        random.Random(5).shuffle(records)
        table = registry(records)
        assert set(table.scale.tolist()) == {1, 12}
        expected = sorted(range(len(records)), key=lambda i: [Decimal(v) for v in records[i].shares])
        assert pipeline._sort_order(table).tolist() == expected

    def test_same_values_at_any_scale_are_one_table(self):
        # 0.5 and 0.500000000000 are one value: one order and one digest;
        # and so is every table with its units rescaled to 10^12
        header = ",".join(CSV_COLUMNS)
        texts = [f"{header}\nf1,2001,main,private,{s1},0.2,,,,,,,,,,\nf1,2001,main,private,0.5,0.1,,,,,,,,,,\n"
                 for s1 in ("0.5", "0.500000000000")]
        first, second = (ingest_csv(io.StringIO(t)) for t in texts)
        assert pipeline._sort_order(first).tolist() == pipeline._sort_order(second).tolist() == [1, 0]
        digests = {pipeline._records_digest(t, pipeline._sort_order(t)) for t in (first, second)}
        assert len(digests) == 1
        table = synth_registry(registry_config(firms_per_year=40))
        table = dataclasses.replace(table, firm_id=[f"f{int(i[-4:]) % 7}" for i in table.firm_id])
        wide = dataclasses.replace(table, units=table.units * _POW10[12 - table.scale][:, None],
                                   scale=np.full(len(table), 12, dtype=np.int8))
        order = pipeline._sort_order(table)
        assert pipeline._sort_order(wide).tolist() == order.tolist()
        assert pipeline._records_digest(wide, order) == pipeline._records_digest(table, order)

    def test_firm_id_boundaries_count(self):
        # "ab" + "c" and "a" + "bc" join to the same bytes; their lengths differ
        first = [self.BASE[1]._replace(firm_id=f) for f in ("ab", "c")]
        second = [self.BASE[1]._replace(firm_id=f) for f in ("a", "bc")]
        assert self.digest(first) != self.digest(second)

    @staticmethod
    def documented_digest(records):
        """The digest as the docstring of ``_records_digest`` describes it,
        built row by row from the sorted records."""
        rows = sorted(records, key=lambda r: (r.year, BOARDS.index(r.board), OWNERSHIPS.index(r.ownership),
                                              r.firm_id, r.shares))

        def units(value):
            return int(Decimal(repr(value)).scaleb(12)).to_bytes(8, "little")

        streams = [
            [r.year.to_bytes(8, "little", signed=True)
             + bytes([BOARDS.index(r.board), OWNERSHIPS.index(r.ownership), r.meeting_share is not None])
             + b"".join(map(units, r.shares + (0.0,) * (10 - len(r.shares)) + (r.meeting_share or 0.0,)))
             for r in rows],
            [len(r.firm_id.encode()).to_bytes(8, "little") for r in rows],
            [r.firm_id.encode() for r in rows],
        ]
        inner = b"".join(hashlib.sha256(b"".join(s)).digest() for s in streams)
        return hashlib.sha256(len(rows).to_bytes(8, "little") + inner).hexdigest()

    def test_matches_the_documented_streams(self):
        # non-ASCII ids are counted in bytes: "ü" is one character and two bytes
        records = self.BASE + (self.BASE[0]._replace(firm_id="fü-株"), self.BASE[1]._replace(firm_id="ü"))
        assert self.digest(records) == self.documented_digest(records)
        assert self.digest(self.BASE) == self.documented_digest(self.BASE)

    def test_chunk_size_does_not_matter(self, monkeypatch):
        tables = synth_registry(registry_config(firms_per_year=5)), ingest_csv(GOLDEN_REGISTRY)
        whole = [self.digest(table) for table in tables]
        monkeypatch.setattr(pipeline, "_DIGEST_ROWS", 1)
        assert [self.digest(table) for table in tables] == whole


class TestBatchedPowers:
    """One power batch per counted width per group gives what one call per cell gives."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("spi_mode", SPI_MODES)
    def test_same_year_stats_as_per_cell_calls(self, seed, spi_mode):
        records = random_registry(seed)
        if spi_mode == "top11":
            records = [r for r in records if r.meeting_share is not None]
        assert any(r.meeting_share is None for r in records) == (spi_mode != "top11")
        assert any(2 * r.shares[0] == pytest.approx(math.fsum(r.shares)) for r in records)
        random.Random(seed).shuffle(records)
        report = run_pipeline(registry(records), PipelineConfig(spi_mode=spi_mode, min_sample=1))
        expected = per_cell_stats(records, spi_mode)
        assert len(expected) >= 2
        assert {g: r.years for g, r in report.groups.items()} == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_smaller_mode_powers_equal_a_direct_count(self, seed):
        # rows without a tenth holder take their top9 power for top10, and
        # rows without a meeting residual their top10 power for top11; a
        # direct count of every full block of the rows' own integer units
        # (shares at 4 decimals) must give the same floats. One
        # firm a year, so each cell shows its row's power in every mode:
        # r_spi_1_top* is 1 or 0, and spi_lt1_mean is the mode's power below 1.
        rng = random.Random(seed)
        records, rows, attended = [], [], []
        for year in range(1000, 1400):
            n = rng.randint(2, 10)
            kind = rng.random()
            if kind < 0.15:  # a dictator: the leader outweighs all others
                rest = sorted((rng.randint(1, 300) for _ in range(n - 1)), reverse=True)
                units = [sum(rest) + rng.randint(1, 300)] + rest
            elif kind < 0.3:  # the leader holds exactly half the total
                rest = sorted((rng.randint(1, 400) for _ in range(n - 1)), reverse=True)
                units = [sum(rest)] + rest
            elif kind < 0.45:  # two sides of equal weight, the leader's side included
                k = rng.randint(1, n - 1)
                sides = [sorted(rng.sample(range(1, 2000), parts - 1)) for parts in (k, n - k)]
                units = sorted((b - a for cuts in sides for a, b in zip([0] + cuts, cuts + [2000])), reverse=True)
            else:
                units = sorted((rng.randint(1, 950) for _ in range(n)), reverse=True)
            shares = tuple(u / 10_000 for u in units)
            total = math.fsum(shares)
            # attendance below, at or just above the top-10 total, or well above it
            meeting = rng.choice([None, round(rng.uniform(0.0, total), 4), round(total + rng.choice([0.0, 1e-4]), 4),
                                  round(rng.uniform(total, 1.0), 4)])
            records.append(Row(f"f{year}", year, "main", "private", shares, meeting))
            rows.append(units + [0] * (10 - n))
            attended.append(0 if meeting is None else round(meeting * 10_000))
        table = registry(records)
        has = table.has_meeting
        units = np.array(rows)
        # the table holds the same units, at 10^scale <= 10^4
        assert (table.units * _POW10[4 - table.scale][:, None] == np.column_stack((units, attended))).all()
        residual = np.maximum(np.array(attended) - units.sum(axis=1), 0)
        assert (units[:, 9] == 0).any() and (units[:, 9] > 0).any()
        assert (has & (residual == 0)).any() and (residual > 0).any() and not has.all()
        top11 = np.full(len(records), np.nan)
        top11[has] = top_holder_numerators(np.column_stack((units[has], residual[has]))) / math.factorial(11)
        direct = {
            "top9": top_holder_numerators(units[:, :9]) / math.factorial(9),
            "top10": top_holder_numerators(units) / math.factorial(10),
            "top11": top11,
        }
        assert (direct["top9"] == 1).any() and (direct["top9"] == 0.5).any()
        for spi_mode in SPI_MODES:
            index = np.flatnonzero(has) if spi_mode == "top11" else np.arange(len(records))
            stats = pipeline._group_stats(table, index, spi_mode)
            assert [(ys.r_spi_1_top9, ys.r_spi_1_top10, ys.r_spi_1_top11, ys.r_spi_1, ys.spi_lt1_mean, ys.n_spi_lt1)
                    for ys in stats] == [
                (float(direct["top9"][i] == 1), float(direct["top10"][i] == 1),
                 float(top11[i] == 1) if has[i] else None, float(power == 1),
                 None if power == 1 else power, int(power != 1))
                for i, power in zip(index.tolist(), direct[spi_mode][index].tolist())
            ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("spi_mode", SPI_MODES)
    def test_full_power_ratios_equal_a_direct_count(self, seed, spi_mode):
        # r_spi_1_top9/10/11 come from 2 * s1 > T, not from a count; every
        # row's game of each mode counted in full must give the same ratios
        records = random_registry(seed, blank_meeting=0.0 if spi_mode == "top11" else 0.15)
        cells = {}
        for r in records:
            cells.setdefault((r.board, r.ownership, r.year), []).append(r)

        def full(games):
            return top_holder_numerators(games) == math.factorial(games.shape[1])

        fulls = 0
        for cell in cells.values():
            table = registry(cell)
            (stats,) = group_stats(table, spi_mode)
            units, has = table.units[:, :10], table.has_meeting
            residual = np.maximum(table.units[:, 10] - units.sum(axis=1), 0)
            top11 = full(np.column_stack((units, residual)))[has]
            assert (stats.r_spi_1_top9, stats.r_spi_1_top10, stats.r_spi_1_top11) == (
                full(units[:, :9]).sum() / len(cell), full(units).sum() / len(cell),
                top11.sum() / has.sum() if has.any() else None)
            fulls += full(units).sum()
        assert fulls > 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_top11_names_the_first_firm_without_meeting_share(self, seed):
        records = [r for r in random_registry(seed, blank_meeting=0.0) if r.shares[0] < 0.5]
        groups = sorted({(r.board, r.ownership) for r in records})
        # the first group's last year comes before the last group's first
        # year, though the sorted records run the other way
        late = max((r for r in records if (r.board, r.ownership) == groups[0]), key=lambda r: r.year)
        early = min((r for r in records if (r.board, r.ownership) == groups[-1]), key=lambda r: r.year)
        assert late.year > early.year
        blank = {late.firm_id, early.firm_id} | {r.firm_id for r in random.Random(seed).sample(records, 2)}
        records = [r._replace(meeting_share=None) if r.firm_id in blank else r for r in records]
        with pytest.raises(DataError) as per_cell:
            per_cell_stats(records, "top11")
        with pytest.raises(DataError) as batched:
            run_pipeline(registry(records), PipelineConfig(spi_mode="top11", min_sample=1))
        assert str(batched.value) == str(per_cell.value)

    @pytest.mark.parametrize("spi_mode", SPI_MODES)
    def test_one_batch_per_mode_per_group(self, spi_mode, monkeypatch):
        # only the summarised mode is counted: each group in one batch per
        # distinct game width of that mode, each row at its own width, and
        # no batch for the other modes
        records = random_registry(5, blank_meeting=0.0 if spi_mode == "top11" else 0.15)
        calls = []

        def counting(rows):
            calls.append((len(rows), rows.shape[1]))
            return top_holder_numerators(rows)

        monkeypatch.setattr(pipeline, "top_holder_numerators", counting)
        report = run_pipeline(registry(records), PipelineConfig(spi_mode=spi_mode, min_sample=1))
        widths = {}
        for r in records:
            if r.shares[0] < 0.5:
                units = [round(v * 10_000) for v in r.shares] + [0] * (10 - len(r.shares))
                width = 10 if spi_mode != "top9" and units[9] > 0 else 9
                if spi_mode == "top11" and round(r.meeting_share * 10_000) > sum(units):
                    width = 11
                group = widths.setdefault((r.board, r.ownership), {})
                group[width] = group.get(width, 0) + 1
        assert len(report.groups) == len(widths) >= 2
        assert sorted(calls) == sorted((rows, width) for group in widths.values() for width, rows in group.items())
        assert len(calls) > len(widths) if spi_mode != "top9" else len(calls) == len(widths)


class TestDefaultGridFailsFast:
    def _no_power(self, monkeypatch):
        def fail(rows):
            raise AssertionError("a power batch ran before the grid was checked")

        monkeypatch.setattr(pipeline, "top_holder_numerators", fail)

    @pytest.mark.parametrize("spi_mode", SPI_MODES)
    def test_oversized_default_grid_before_any_power_batch(self, spi_mode, monkeypatch):
        records = random_registry(6)
        config = PipelineConfig(spi_mode=spi_mode, min_sample=1, grid_step=1e-9)
        stats = per_cell_stats(records, "top10")
        with pytest.raises(ValueError, match="trial periods") as fit_error:
            build_report(stats, config)  # the error the first fit raises
        self._no_power(monkeypatch)
        # in top11 mode the grid error comes before the missing meeting_share
        with pytest.raises(ValueError) as early:
            run_pipeline(registry(records), config)
        assert str(early.value) == str(fit_error.value)

    def test_only_groups_that_are_fitted_are_checked(self):
        records = random_registry(6)
        # every year below the threshold: nothing is fitted and the grid never matters
        with pytest.raises(DataError, match="minimum sample size"):
            run_pipeline(registry(records), PipelineConfig(min_sample=100, grid_step=1e-9))
        # fewer than MIN_FIT_YEARS fitted years: no fit, so no grid
        short = [r for r in records if r.year < 2000 + MIN_FIT_YEARS - 1]
        assert run_pipeline(registry(short), PipelineConfig(min_sample=1, grid_step=1e-9)).groups

    def test_explicit_range_is_left_to_the_config(self, monkeypatch):
        self._no_power(monkeypatch)
        with pytest.raises(ValueError, match="trial periods"):
            run_pipeline(registry(random_registry(6)), PipelineConfig(period_range=(4.0, 50.0), grid_step=1e-9))


    @staticmethod
    def _outcomes(**overrides):
        # the source `pipeline --synth outcomes` builds
        return dataclasses.replace(SynthConfig(years=DEFAULT_SYNTH_YEARS, firms_per_year=500, seed=5,
                                               pdf=ControlPowerPdf(wave=ideal_wave(1.5))), **overrides)

    @pytest.mark.parametrize("flag, value, overrides", [
        ("--period-range", "1,10", {"period_range": (1.0, 10.0)}),  # below the Nyquist floor
        ("--grid-step", "0.000000001", {"grid_step": 1e-9}),  # an oversized default grid
    ])
    def test_outcomes_range_before_any_draw(self, flag, value, overrides, tmp_path, monkeypatch, capsys):
        source = self._outcomes()
        config = PipelineConfig(**overrides)
        draws = pipeline.synth_outcomes(source)
        stats = pipeline._draws_stats(draws)
        with pytest.raises(ValueError) as fit_error:
            build_report({source.group: stats}, config)  # the error the first fit raises

        def no_draws(config):
            raise AssertionError("outcomes were drawn before the period range was checked")

        monkeypatch.setattr(pipeline, "synth_outcomes", no_draws)
        with pytest.raises(ValueError) as early:
            run_pipeline(source, config)
        assert str(early.value) == str(fit_error.value)
        code = main(["pipeline", "--synth", "outcomes", "--seed", "5", flag, value, "--output", str(tmp_path)])
        assert (code, capsys.readouterr().err) == (2, f"controlpower: {fit_error.value}\n")

    def test_outcomes_without_a_fit_are_not_checked(self, monkeypatch):
        # below min_sample or under MIN_FIT_YEARS years nothing is fitted, so the grid never matters
        config = PipelineConfig(grid_step=1e-9)
        with pytest.raises(DataError, match="minimum sample size"):
            run_pipeline(self._outcomes(firms_per_year=config.min_sample - 1), config)
        short = self._outcomes(years=DEFAULT_SYNTH_YEARS[: MIN_FIT_YEARS - 1])
        assert not run_pipeline(short, config).groups[short.group].fits


class TestPredictionDiagnostics:
    def build(self, phase_offset=math.pi):
        years = range(1996, 2022)
        period = 18.0
        stats = []
        for y in years:
            t = float(y - 1996)
            m_top1 = 0.28 + 0.03 * math.cos(2 * math.pi * t / period + math.pi)
            m_210 = 0.30 + 0.02 * (math.cos(2 * math.pi * t / (period / 2) + phase_offset) - 1.0)
            r1 = 0.58 + 0.05 * math.cos(2 * math.pi * t / (period / 2))
            stats.append(
                YearStats(year=y, n_sample=500, r_spi_1=r1, m_top1=m_top1, m_top2_10=m_210)
            )
        return build_report({MAIN_PRIVATE: stats}, PipelineConfig())

    def test_period_ratio_and_phase(self):
        diag = self.build().groups[MAIN_PRIVATE].diagnostics
        assert diag.period_ratio == pytest.approx(0.5, rel=0.01)
        assert diag.phase_diff == pytest.approx(math.pi, abs=0.01)
        assert diag.period_ratio_ok and diag.phase_diff_ok
        assert diag.period_ratio_rtol == 0.05
        assert diag.phase_diff_tol == 0.1

    def test_phase_mismatch_flagged(self):
        diag = self.build(phase_offset=math.pi / 2).groups[MAIN_PRIVATE].diagnostics
        assert diag.phase_diff_ok is False


@dataclasses.dataclass(frozen=True)
class Flat:
    n: int
    x: float | None
    name: str = "flat"


@dataclasses.dataclass(frozen=True)
class Holding:
    pair: tuple
    table: dict


@dataclasses.dataclass(frozen=True)
class NoFields:
    pass


class TestJsonWriter:
    """pipeline._json_text is json.dumps(value, indent=2, sort_keys=True), byte for byte,
    and writes a dataclass as json.dumps writes its dataclasses.asdict."""

    @staticmethod
    def dumps(value):
        return json.dumps(value, indent=2, sort_keys=True, default=dataclasses.asdict)

    def test_golden_report(self):
        text = (Path(__file__).parent / "data" / "golden" / "report.json").read_text(encoding="utf-8")
        assert pipeline._json_text(json.loads(text)) + "\n" == text

    @pytest.mark.parametrize("source", [
        registry_config(),
        SynthConfig(years=DEFAULT_SYNTH_YEARS, firms_per_year=500, seed=5, pdf=ControlPowerPdf(wave=ideal_wave(1.5))),
    ], ids=["registry", "outcomes"])
    def test_reports(self, source):
        # the report's own objects give what json.dumps writes for the
        # dataclasses.asdict of each group, keyed by its label, without
        # and with macro correlations
        macro = {year: float(year - 1990) for year in DEFAULT_SYNTH_YEARS}
        for macros in ({}, {"m": macro}):
            report = run_pipeline(source, PipelineConfig(min_sample=40, macros=macros))
            assert all(bool(g.correlations) == bool(macros) for g in report.groups.values())
            expected = {
                "version": report.version,
                "provenance": report.provenance,
                "groups": {f"{k.board}/{k.ownership}": {f: v for f, v in dataclasses.asdict(g).items() if f != "group"}
                           for k, g in report.groups.items()},
            }
            assert report.to_json() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [
        {}, [], (), "", 0, None,
        {"a": {}, "b": [], "c": {"d": {}, "e": [[]]}},
        [[], [[]], [[], {}], {}],
        [[1, 2], [3, [4, []]], ({"x": ()},)],
        {"q\"uote": 1, "back\\slash": {"tab\t": [None]}, "line\nend": "\x00\x1f", "ünï": {"中": "é"}},
        {"\ud800": [1], "\U0001f600": "\ud83d"},
        [math.nan, math.inf, -math.inf, -0.0, 1e-320, 0.1, 1e300, [math.nan]],
        {"t": True, "f": False, "n": None, "nested": [True, [False, None]]},
        [2**63, -(2**63) - 1, 10**40, {"big": [2**64]}],
        {"b": 1, "a": 2, "B": 3, "": 4, "aa": {"z": 0, "a": 1}},
        {1: {"x": 1}, 2.5: [2], -3: {}}, {True: [1], False: {}}, {None: [3]}, {math.nan: [1], -math.inf: 2},
        Flat(1, 0.5), Flat(-2, None, "é"), Holding((1, 2.5, None), {"k": "v", "n": 3}),
        Holding((Flat(3, math.inf), ()), {"flat": Flat(4, -0.0), "list": [Flat(5, 1e-320)], "empty": {}}),
        [Flat(6, 0.1), Flat(7, None)], {"a": Flat(8, 2.0), "b": [NoFields()], "c": NoFields()},
        NoFields(), [NoFields()], Holding((), {}),
    ], ids=repr)
    def test_hand_made(self, value):
        assert pipeline._json_text(value) == self.dumps(value)

    @pytest.mark.parametrize("value", [{(1,): []}, {"a": {(1,): 1}}, {b"k": [1]}])
    def test_keys_json_cannot_write_are_refused(self, value):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            self.dumps(value)
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            pipeline._json_text(value)

    def test_one_encoder_per_depth(self):
        assert pipeline._flat_encoder(3) is pipeline._flat_encoder(3)


class TestReportEmission:
    @pytest.fixture()
    def report(self):
        return run_pipeline(registry_config(), PipelineConfig(min_sample=40))

    def test_json_round_trip(self, report, tmp_path):
        paths = emit_report(report, "json", str(tmp_path))
        assert [p.endswith("report.json") for p in paths] == [True]
        text = (tmp_path / "report.json").read_text()
        assert text == report.to_json()
        # parsing and re-dumping gives the same text: no NaN, every float exact
        parsed = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text
        for group, g in report.groups.items():
            years = parsed["groups"][f"{group.board}/{group.ownership}"]["years"]
            assert tuple(YearStats(**y) for y in years) == g.years

    def test_csv_tables(self, report, tmp_path):
        paths = emit_report(report, "csv-tables", str(tmp_path))
        names = {p.rsplit("/", 1)[-1] for p in paths}
        assert names == {
            "table_meeting.csv",
            "table_spi1_ratio.csv",
            "table_spi_lt1.csv",
            "table_shares.csv",
            "table_fits.csv",
            "table_correlations.csv",
        }
        header = (tmp_path / "table_spi1_ratio.csv").read_text().splitlines()[0]
        assert header == "group,year,ratio,n"
        rows = (tmp_path / "table_spi1_ratio.csv").read_text().splitlines()[1:]
        assert len(rows) == len(report.groups[MAIN_PRIVATE].years)

    def test_yearstats_reproducible_from_tables(self, report, tmp_path):
        # every YearStats field must be recoverable from the CSVs alone
        import csv as csv_mod

        emit_report(report, "csv-tables", str(tmp_path))

        def load(name):
            with open(tmp_path / name, newline="") as fh:
                return {int(row["year"]): row for row in csv_mod.DictReader(fh)}

        def cell(row, key, kind=float):
            return None if row[key] == "" else kind(row[key])

        spi1 = load("table_spi1_ratio.csv")
        meeting = load("table_meeting.csv")
        lt1 = load("table_spi_lt1.csv")
        shares = load("table_shares.csv")
        for ys in report.groups[MAIN_PRIVATE].years:
            assert cell(spi1[ys.year], "ratio") == ys.r_spi_1
            assert int(spi1[ys.year]["n"]) == ys.n_sample
            m = meeting[ys.year]
            assert cell(m, "s_meeting_over_s_top10_mean") == ys.meeting_ratio_mean
            assert cell(m, "s_meeting_over_s_top10_sd") == ys.meeting_ratio_sd
            assert cell(m, "band_count_ratio") == ys.band_count_ratio
            assert int(m["n_meeting"]) == ys.n_meeting
            assert cell(m, "r_spi_1_top9") == ys.r_spi_1_top9
            assert cell(m, "r_spi_1_top10") == ys.r_spi_1_top10
            assert cell(m, "r_spi_1_top11") == ys.r_spi_1_top11
            assert int(m["n_top11"]) == ys.n_top11
            l = lt1[ys.year]
            assert cell(l, "mean") == ys.spi_lt1_mean
            assert cell(l, "sd") == ys.spi_lt1_sd
            assert cell(l, "band_ratio") == ys.spi_lt1_band
            assert int(l["n"]) == ys.n_spi_lt1
            s = shares[ys.year]
            assert cell(s, "top1_mean") == ys.m_top1
            assert cell(s, "top1_sd") == ys.m_top1_sd
            assert cell(s, "top2_10_mean") == ys.m_top2_10
            assert cell(s, "top2_10_sd") == ys.m_top2_10_sd

    def test_plot_data_shape(self, report, tmp_path):
        paths = emit_report(report, "plot-data", str(tmp_path))
        assert paths
        for path in paths:
            with open(path) as handle:
                lines = handle.read().splitlines()
            assert lines[0] == "t,observed,fitted"
            assert len(lines) - 1 == len(report.groups[MAIN_PRIVATE].fitted_years)

    def test_plot_data_matches_fit_predictions(self, report, tmp_path):
        emit_report(report, "plot-data", str(tmp_path))
        fit = report.groups[MAIN_PRIVATE].fits["r_spi_1"]
        path = tmp_path / "plot_main_private_r_spi_1.csv"
        for line in path.read_text().splitlines()[1:]:
            t, _, fitted = (float(v) for v in line.split(","))
            assert fitted == pytest.approx(wave_eval(fit.params, t), abs=1e-12)

    def test_unknown_format_rejected(self, report, tmp_path):
        with pytest.raises(ValueError):
            emit_report(report, "yaml", str(tmp_path))


class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        a = run_pipeline(registry_config(), PipelineConfig(min_sample=40))
        b = run_pipeline(registry_config(), PipelineConfig(min_sample=40))
        assert a.to_json().encode() == b.to_json().encode()

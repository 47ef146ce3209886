"""Command-line interface.

Subcommands: spi (power of a share list), evolve (ladder sequences, walks,
waves), fit (first-order Fourier fit of a t,y CSV), synth (seeded
generators), pipeline (full procedure plus report emission).

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .dataset import (
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
from .evolution import (
    ControlPowerPdf,
    WaveParams,
    collapse_walk,
    ideal_wave,
    ratio_sequence,
    wave_eval,
)
from .fitting import DEFAULT_GRID_STEP, TimeSeries, fit_fourier1, fourier_extrema
from .pipeline import (
    REPORT_FORMATS,
    SPI_MODES,
    PipelineConfig,
    emit_report,
    run_pipeline,
)
from .power_index import make_game, spi_dp

USAGE_ERROR = 1
DATA_ERROR = 2

DEFAULT_SYNTH_YEARS = tuple(range(1996, 2022))
DEFAULT_TOP1 = MomentTarget(0.278, 0.106)
DEFAULT_TOP2_10 = MomentTarget(0.293, 0.127)


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _fmt(value: float) -> str:
    return format(float(value), ".4g")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _parse_years(text: str) -> tuple[int, ...]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_range(text: str) -> tuple[float, float]:
    values = _parse_floats(text)
    if len(values) != 2:
        raise ValueError("period range needs two numbers, e.g. 4,50")
    return values[0], values[1]


def _parse_group(text: str) -> GroupKey:
    board, ownership = text.split("/", 1)
    if board not in BOARDS or ownership not in OWNERSHIPS:
        raise ValueError(f"group must be one of {BOARDS} / {OWNERSHIPS}")
    return GroupKey(board, ownership)


def _emit_series(rows, output, header=("step_or_t", "value")):
    if output:
        with open(output, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))


def _cmd_spi(args) -> int:
    share_lists = []
    if args.shares:
        share_lists.append(_parse_floats(args.shares))
    if args.input:
        with open(args.input, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line and not line.startswith("#"):
                    share_lists.append(_parse_floats(line))
    if not share_lists:
        print("spi: provide --shares or --input", file=sys.stderr)
        return USAGE_ERROR
    for shares in share_lists:
        profile = spi_dp(make_game(shares))
        print(", ".join(_fmt(v) for v in profile.spi))
    return 0


def _cmd_evolve(args) -> int:
    if args.what == "ratios":
        values = ratio_sequence(args.k)
        if args.output:
            _emit_series([(i + 1, float(v)) for i, v in enumerate(values)], args.output)
        else:
            print(", ".join(_fmt(v) for v in values))
        return 0
    if args.what == "walk":
        if args.seed is None:
            print("evolve walk: --seed is required", file=sys.stderr)
            return USAGE_ERROR
        law = tuple(_parse_floats(args.law)) if args.law else (0.25, 0.25, 0.25, 0.25)
        states = collapse_walk(args.operations, args.seed, law)
        _emit_series([(i, float(v)) for i, v in enumerate(states)], args.output)
        return 0
    # wave
    if args.a0 is not None:
        params = WaveParams(args.a0, args.a1, args.b1, args.period)
    else:
        params = ideal_wave(args.h)
    if not (math.isfinite(args.t_step) and args.t_step > 0):
        raise ValueError("--t-step must be a finite positive number")
    if not args.t_max / args.t_step + 1 <= 1e6:
        raise ValueError("--t-max / --t-step gives more than 10^6 rows")
    rows = []
    t = 0.0
    while t <= args.t_max + 1e-9:
        rows.append((t, wave_eval(params, t)))
        t += args.t_step
    _emit_series(rows, args.output)
    return 0


def _read_pairs(path: str, key) -> list[tuple]:
    """(key(first cell), float(second cell)) of each row of a two-column CSV.

    Rows whose first cell does not parse (blank, header, comment) are
    skipped; a row whose first cell parses but whose second cell is
    missing or not a number, or whose key an earlier row already had, is
    a DataError naming the file and line.
    """
    pairs = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for row in reader:
            try:
                first = key(row[0])
            except (IndexError, ValueError):
                continue
            if first in seen:
                raise DataError(f"{path} line {reader.line_num}: {row[0]!r} repeats an earlier row")
            seen.add(first)
            try:
                pairs.append((first, float(row[1])))
            except (IndexError, ValueError):
                raise DataError(f"{path} line {reader.line_num}: no number after {row[0]!r}") from None
    return pairs


def _cmd_fit(args) -> int:
    # _read_pairs rejects a repeated t, so sorting by t is unambiguous
    series = TimeSeries.from_pairs(sorted(_read_pairs(args.input, float)))
    period_range = _parse_range(args.period_range) if args.period_range else None
    fit = fit_fourier1(series, period_range, grid_step=args.grid_step)
    payload = {
        "a0": fit.a0,
        "a1": fit.a1,
        "b1": fit.b1,
        "T": fit.period,
        "sse": fit.sse,
        "r2": fit.r_squared,
        "degenerate": fit.degenerate,
    }
    if fit.degenerate:
        payload["max"] = payload["min"] = None
    else:
        payload["max"], payload["min"] = fourier_extrema(fit)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args) -> int:
    years = _parse_years(args.years)
    if args.what == "registry":
        top1 = MomentTarget(*_parse_floats(args.top1))
        top2_10 = MomentTarget(*_parse_floats(args.top2_10))
        config = SynthConfig(
            years=years,
            firms_per_year=args.firms_per_year,
            seed=args.seed,
            group=_parse_group(args.group),
            top1=top1,
            top2_10=top2_10,
        )
        records = synth_registry(config)
        if args.output:
            emit_csv(records, args.output)
        else:
            emit_csv(records, sys.stdout)
        return 0
    # outcomes
    pdf = ControlPowerPdf(wave=ideal_wave(args.h), mu=args.mu, sigma=args.sigma)
    config = SynthConfig(
        years=years,
        firms_per_year=args.draws_per_year,
        seed=args.seed,
        group=_parse_group(args.group),
        pdf=pdf,
    )
    draws = synth_outcomes(config)
    rows = [(year, float(v)) for year in sorted(draws) for v in draws[year]]
    _emit_series(rows, args.output, header=("year", "spi"))
    return 0


def _default_synth(seed: int) -> SynthConfig:
    return SynthConfig(
        years=DEFAULT_SYNTH_YEARS,
        firms_per_year=100,
        seed=seed,
        top1=DEFAULT_TOP1,
        top2_10=DEFAULT_TOP2_10,
    )


def _cmd_pipeline(args) -> int:
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    if not formats:
        print("pipeline: --format names no format", file=sys.stderr)
        return USAGE_ERROR
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            print(f"pipeline: unknown format {fmt!r}", file=sys.stderr)
            return USAGE_ERROR
    if not args.output and formats != ["json"]:
        print("pipeline: stdout takes --format json only; give --output for other formats", file=sys.stderr)
        return USAGE_ERROR
    macros = {}
    for item in args.macro or []:
        name, _, path = item.partition("=")
        if not path:
            print("pipeline: --macro expects name=path", file=sys.stderr)
            return USAGE_ERROR
        macros[name] = dict(_read_pairs(path, int))
        if not macros[name]:
            raise DataError(f"macro file {path} has no (year, value) rows")
    config = PipelineConfig(
        spi_mode=args.spi_mode,
        min_sample=args.min_sample,
        h=args.h,
        period_range=_parse_range(args.period_range) if args.period_range else None,
        grid_step=args.grid_step,
        workers=args.workers,
        macros=macros,
    )
    if args.synth:
        if args.seed is None:
            print("pipeline: --seed is required with --synth", file=sys.stderr)
            return USAGE_ERROR
        if args.synth == "default" or args.synth == "registry":
            source = _default_synth(args.seed)
        elif args.synth == "outcomes":
            pdf = ControlPowerPdf(wave=ideal_wave(args.h))
            source = SynthConfig(
                years=DEFAULT_SYNTH_YEARS,
                firms_per_year=500,
                seed=args.seed,
                pdf=pdf,
            )
        else:
            print(f"pipeline: unknown synth mode {args.synth!r}", file=sys.stderr)
            return USAGE_ERROR
    elif args.input:
        source = ingest_csv(args.input)
    else:
        print("pipeline: provide --input or --synth", file=sys.stderr)
        return USAGE_ERROR
    report = run_pipeline(source, config)
    if args.output:
        for fmt in formats:
            emit_report(report, fmt, args.output)
    else:
        sys.stdout.write(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="controlpower", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spi", help="power profile of a share list")
    p.add_argument("--shares", help="comma-separated share weights, e.g. 2,1,1")
    p.add_argument("--input", help="file with one comma-separated share list per line")
    p.set_defaults(func=_cmd_spi)

    p = sub.add_parser("evolve", help="ladder sequences, collapse walks, waves")
    sub_ev = p.add_subparsers(dest="what", required=True)
    q = sub_ev.add_parser("ratios")
    q.add_argument("--k", type=int, default=5)
    q.add_argument("--output")
    q = sub_ev.add_parser("walk")
    q.add_argument("--operations", type=int, default=100)
    q.add_argument("--seed", type=int)
    q.add_argument("--law", help="four comma-separated episode-length weights")
    q.add_argument("--output")
    q = sub_ev.add_parser("wave")
    q.add_argument("--h", type=float, default=1.5)
    q.add_argument("--a0", type=float)
    q.add_argument("--a1", type=float, default=0.0)
    q.add_argument("--b1", type=float, default=0.0)
    q.add_argument("--period", type=float, default=18.0)
    q.add_argument("--t-max", type=float, default=26.0)
    q.add_argument("--t-step", type=float, default=1.0)
    q.add_argument("--output")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("fit", help="first-order Fourier fit of a t,y CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--period-range", help="lo,hi in years")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("synth", help="seeded synthetic generators")
    sub_sy = p.add_subparsers(dest="what", required=True)
    q = sub_sy.add_parser("registry")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--years", default="1996-2021")
    q.add_argument("--firms-per-year", type=int, default=100)
    q.add_argument("--group", default="main/private")
    q.add_argument("--top1", default="0.278,0.106", help="mean,sd of the leading share")
    q.add_argument("--top2-10", dest="top2_10", default="0.293,0.127", help="mean,sd of the co-holders' total")
    q.add_argument("--output")
    q = sub_sy.add_parser("outcomes")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--years", default="1996-2021")
    q.add_argument("--draws-per-year", type=int, default=500)
    q.add_argument("--group", default="main/private")
    q.add_argument("--h", type=float, default=1.5)
    q.add_argument("--mu", type=float, default=0.466)
    q.add_argument("--sigma", type=float, default=0.165)
    q.add_argument("--output")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pipeline", help="full procedure plus report emission")
    p.add_argument("--input", help="registry CSV")
    p.add_argument("--synth", help="default | registry | outcomes")
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="report directory; stdout JSON when omitted")
    p.add_argument("--format", default="json",
                   help="comma list of json,csv-tables,plot-data; formats other than json need --output")
    p.add_argument("--spi-mode", default="top10", choices=SPI_MODES)
    p.add_argument("--min-sample", type=int, default=50)
    p.add_argument("--h", type=float, default=1.5)
    p.add_argument("--period-range", help="lo,hi in years")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility, has no effect")
    p.add_argument("--macro", action="append", help="name=path of a year,value CSV; repeatable")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # DataError is a ValueError
        print(f"controlpower: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

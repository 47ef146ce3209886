"""Command-line interface.

Subcommands: spi (power of a share list), evolve (ladder sequences, walks,
waves), fit (first-order Fourier fit of a t,y CSV), synth (seeded
generators), pipeline (full procedure plus report emission).

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import codecs
import math
import re
import sys

from .dataset import (
    BOARDS,
    OWNERSHIPS,
    DataError,
    GroupKey,
    MomentTarget,
    SynthConfig,
    _MAX_DECIMALS,
    _PLAIN,
    _int,
    _write_csv,
    emit_csv,
    ingest_csv,
    synth_outcomes,
    synth_registry,
)
from .evolution import (
    UNIFORM_LAW,
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
    _json_text,
    emit_report,
    run_pipeline,
)
from .power_index import MAX_PLAYERS, WeightedVotingGame, make_game, profile_numerators

USAGE_ERROR = 1
DATA_ERROR = 2

DEFAULT_SYNTH_YEARS = tuple(range(1996, 2022))
DEFAULT_TOP1 = MomentTarget(0.278, 0.106)
DEFAULT_TOP2_10 = MomentTarget(0.293, 0.127)
# the defaults above as `synth` options write them
_DEFAULT_YEARS = f"{DEFAULT_SYNTH_YEARS[0]}-{DEFAULT_SYNTH_YEARS[-1]}"
_DEFAULT_TOP1, _DEFAULT_TOP2_10 = (f"{target.mean!r},{target.sd!r}" for target in (DEFAULT_TOP1, DEFAULT_TOP2_10))
_SPI_GAMES = 1 << 12  # games per profile_numerators call; their numerators wait to be printed
_SIGNED = "-?" + _PLAIN  # the registry's plain decimal, with a sign where a value may be negative
_PLAIN_LIST = re.compile(f"(?:{_PLAIN}(?:,{_PLAIN})*)?")  # a comma join of plain cells, or of none
_MAX_SYNTH_ROWS = 10**6  # most rows or draws `synth` makes
_SERIES = ("step_or_t", "value")  # the header of an `evolve` series


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _fmt(value: float) -> str:
    return format(float(value), ".4g")


def _parse_floats(text: str, option: str) -> list[float]:
    """The numbers of an option's list, split at ',' or ';', blank items
    skipped: plain decimals, as registry cells are, or nan and +-inf, which
    each value's own range check names."""
    values = []
    for cell in filter(str.strip, text.replace(";", ",").split(",")):
        values.append(float(cell))
        if math.isfinite(values[-1]) and not re.fullmatch(_PLAIN, cell.strip()):
            raise ValueError(f"{option}: not a plain decimal number: {cell!r}")
    return values


def _spi_game(text: str) -> WeightedVotingGame:
    """The game of one share list: cells split at ',' or ';', blank ones
    skipped, each a plain decimal (the registry's grammar). It is counted on
    the cells' exact units at 10^d, d the most places any cell needs, when d
    is at most 12 and the weights total below 2^50 / 10^d; otherwise, and
    for the errors it raises, on make_game's grid. Below 2^51 each unit is
    the exact rounding of its cell's float times 10^d, since the float is
    within 2^-53 of the cell, relative."""
    cells = list(filter(None, map(str.strip, text.replace(";", ",").split(","))))
    weights = list(map(float, cells))  # a cell float refuses raises its own error
    if not _PLAIN_LIST.fullmatch(",".join(cells)):
        raise ValueError(f"not a plain decimal number: {next(c for c in cells if not re.fullmatch(_PLAIN, c))!r}")
    places = max([len(cell.partition(".")[2].rstrip("0")) for cell in cells], default=0)
    # inf past the float range, so such a list takes make_game's error
    if places <= _MAX_DECIMALS and 1 <= len(cells) <= MAX_PLAYERS and 0 < sum(weights) * 10**places < 2**50:
        units = map(round, map(float(10**places).__mul__, weights))
        return WeightedVotingGame(weights=tuple(weights), int_weights=tuple(units))
    return make_game(weights)


def _number(form: str):
    """The argparse type of a scalar option: the float of a value written in
    ``form``, refused (exit 1) unless it matches and is finite."""

    def read(text: str) -> float:
        value = float(text) if re.fullmatch(form, text.strip()) else math.nan
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"not a finite plain decimal number: {text!r}")
        return value

    return read


_DECIMAL, _SIGNED_DECIMAL = _number(_PLAIN), _number(_SIGNED)


def _parse_years(text: str, per_year: int, option: str) -> tuple[int, ...]:
    """The years of ``lo-hi`` or of a comma list, blank items skipped; each
    year is digits only. Refused when the years times ``per_year``, the
    value of ``option``, exceed _MAX_SYNTH_ROWS, counted from a range's
    bounds before the range is built."""
    lo, dash, hi = text.partition("-")
    tokens = [lo, hi] if dash else [tok for tok in text.split(",") if tok.strip()]
    for tok in tokens:
        if not re.fullmatch("[0-9]+", tok.strip()):
            raise ValueError(f"--years: not a year of digits: {tok!r}")
    try:
        years = tuple(map(_int, tokens))
    except DataError as exc:
        raise ValueError(f"--years: {exc}") from None
    count = years[1] - years[0] + 1 if dash else len(years)
    if max(count, 0) * per_year > _MAX_SYNTH_ROWS:
        raise ValueError(f"--years times {option} is more than 10^6")
    return tuple(range(years[0], years[1] + 1)) if dash else years


def _parse_pair(text: str, what: str, example: str) -> tuple[float, float]:
    values = _parse_floats(text, what)
    if len(values) != 2:
        raise ValueError(f"{what} needs two numbers, e.g. {example}")
    return values[0], values[1]


def _parse_group(text: str) -> GroupKey:
    board, _, ownership = text.partition("/")
    if board not in BOARDS or ownership not in OWNERSHIPS:
        raise ValueError(f"group must be one of {BOARDS} / {OWNERSHIPS}")
    return GroupKey(board, ownership)


def _cmd_spi(args) -> int:
    # every game is built before any profile is printed, so a bad line
    # stops the command with no partial output
    games = []
    if args.shares:
        games.append(_spi_game(args.shares))
    if args.input:
        given = len(games)
        with open(args.input, "rb") as handle:
            data = handle.read().removeprefix(codecs.BOM_UTF8)
        # split at "\n", "\r" and "\r\n", as a file read as text is
        for number, line in enumerate(data.splitlines(), start=1):
            try:
                line = line.decode().strip()
            except UnicodeDecodeError as exc:
                raise DataError(f"{args.input} line {number}: not UTF-8 (byte 0x{line[exc.start]:02x})") from None
            if line and not line.startswith("#"):
                try:
                    games.append(_spi_game(line))
                except ValueError as exc:
                    raise DataError(f"{args.input} line {number}: {exc}") from None
        if len(games) == given:
            raise DataError(f"{args.input} has no share lists")
    if not games:
        print("spi: provide --shares or --input", file=sys.stderr)
        return USAGE_ERROR
    # v / n! is correctly rounded, as float(Fraction(v, n!)) is
    for at in range(0, len(games), _SPI_GAMES):
        batch = games[at : at + _SPI_GAMES]
        lines = []
        for game, nums in zip(batch, profile_numerators(batch)):
            n_fact = math.factorial(game.n)
            lines.append(", ".join([format(v / n_fact, ".4g") for v in nums]) + "\n")
        sys.stdout.write("".join(lines))
    return 0


def _cmd_evolve(args) -> int:
    if args.what == "ratios":
        # the k-th state is a Fraction of Fibonacci numbers of about k / 5
        # digits, so the time grows faster than k^2
        if args.k > 10**4:
            raise ValueError("--k gives more than 10^4 states")
        values = ratio_sequence(args.k)
        if args.output:
            _write_csv(args.output, _SERIES, [(i + 1, float(v)) for i, v in enumerate(values)])
        else:
            print(", ".join(_fmt(v) for v in values))
        return 0
    if args.what == "walk":
        if args.operations > 10**6:
            raise ValueError("--operations gives more than 10^6 operations")
        law = tuple(_parse_floats(args.law, "--law")) if args.law else UNIFORM_LAW
        states = collapse_walk(args.operations, args.seed, law)
        _write_csv(args.output or sys.stdout, _SERIES, [(i, float(v)) for i, v in enumerate(states)])
        return 0
    # wave: --a0 with its other terms, else the ideal wave of --h
    if args.a0 is None:
        for option in ("a1", "b1", "period"):
            if getattr(args, option) is not None:
                print(f"evolve wave: --{option} needs --a0", file=sys.stderr)
                return USAGE_ERROR
        params = ideal_wave(1.5 if args.h is None else args.h)
    elif args.h is not None:
        print("evolve wave: --h is not allowed with --a0", file=sys.stderr)
        return USAGE_ERROR
    else:
        params = WaveParams(args.a0, *(0.0 if v is None else v for v in (args.a1, args.b1)),
                            18.0 if args.period is None else args.period)
    if not args.t_step > 0:
        raise ValueError("--t-step must be a finite positive number")
    if not args.t_max / args.t_step + 1 <= 1e6:
        raise ValueError("--t-max / --t-step gives more than 10^6 rows")
    rows = []
    t = 0.0
    while t <= args.t_max + 1e-9:
        rows.append((t, wave_eval(params, t)))
        t += args.t_step
    _write_csv(args.output or sys.stdout, _SERIES, rows)
    return 0


def _read_pairs(path: str, key, grammar: str) -> list[tuple]:
    """(key(first cell), float(second cell)) of each row of a two-column CSV,
    read as a registry is (``csvbytes``).

    A row whose first cell ``key`` cannot read is skipped when it is the
    first row (a header) or that cell holds no digit (a blank row or a
    comment). Any other row is a DataError naming the file and line if
    ``key`` cannot read its first cell, its key repeats an earlier row's,
    its second cell is missing or not a number, either number is not
    finite, or a cell is not written in its grammar: ``grammar`` for the
    first, ``_SIGNED`` for the second; so is a field past the CSV field
    limit, such as an unclosed quote, or a byte that is not UTF-8.
    """
    from .csvbytes import _blocks, _record

    def records(handle):  # (the line each record ends on, its cells)
        for block in _blocks(handle, path, True):
            for k, line in enumerate(block.line.tolist()):
                yield line, _record(block, k)
            if block.error:
                raise DataError(block.error)

    pairs = []
    seen = set()
    with open(path, "rb") as handle:
        for index, (line, row) in enumerate(records(handle)):
            try:
                first = key(row[0])
            except DataError as exc:
                raise DataError(f"{path} line {line}: {exc}") from None
            except (IndexError, ValueError):
                if index == 0 or not re.search("[0-9]", "".join(row[:1])):
                    continue
                raise DataError(f"{path} line {line}: not a plain decimal number: {row[0]!r}") from None
            if first in seen:
                raise DataError(f"{path} line {line}: {row[0]!r} repeats an earlier row")
            seen.add(first)
            try:
                pair = (first, float(row[1]))
            except (IndexError, ValueError):
                raise DataError(f"{path} line {line}: no number after {row[0]!r}") from None
            if not all(map(math.isfinite, pair)):
                raise DataError(f"{path} line {line}: {row[0]!r}, {row[1]!r} must be finite numbers")
            for cell, form in zip(row, (grammar, _SIGNED)):
                if not re.fullmatch(form, cell.strip()):
                    raise DataError(f"{path} line {line}: not a plain decimal number: {cell!r}")
            pairs.append(pair)
    return pairs


def _cmd_fit(args) -> int:
    # _read_pairs rejects a repeated t, so sorting by t is unambiguous
    series = TimeSeries.from_pairs(sorted(_read_pairs(args.input, float, _SIGNED)))
    period_range = _parse_pair(args.period_range, "period range", "4,50") if args.period_range else None
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
    text = _json_text(payload) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args) -> int:
    if args.what == "registry":
        years = _parse_years(args.years, args.firms_per_year, "--firms-per-year")
        config = SynthConfig(
            years=years,
            firms_per_year=args.firms_per_year,
            seed=args.seed,
            group=_parse_group(args.group),
            top1=MomentTarget(*_parse_pair(args.top1, "--top1", _DEFAULT_TOP1)),
            top2_10=MomentTarget(*_parse_pair(args.top2_10, "--top2-10", _DEFAULT_TOP2_10)),
        )
        emit_csv(synth_registry(config), args.output or sys.stdout)
        return 0
    # outcomes
    years = _parse_years(args.years, args.draws_per_year, "--draws-per-year")
    config = SynthConfig(
        years=years,
        firms_per_year=args.draws_per_year,
        seed=args.seed,
        group=_parse_group(args.group),
        pdf=ControlPowerPdf(wave=ideal_wave(args.h), mu=args.mu, sigma=args.sigma),
    )
    draws = synth_outcomes(config)
    rows = [(year, float(v)) for year in sorted(draws) for v in draws[year]]
    _write_csv(args.output or sys.stdout, ("year", "spi"), rows)
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
    named = [item.partition("=")[::2] for item in args.macro or []]
    names = [name for name, _ in named]
    for name, path in named:
        if not name or not path:
            print("pipeline: --macro expects name=path", file=sys.stderr)
            return USAGE_ERROR
        if names.count(name) > 1:
            print(f"pipeline: --macro name {name!r} is given more than once", file=sys.stderr)
            return USAGE_ERROR
    macros = {}
    for name, path in named:
        macros[name] = dict(_read_pairs(path, _int, "[0-9]+"))
        if not macros[name]:
            raise DataError(f"macro file {path} has no (year, value) rows")
    config = PipelineConfig(
        spi_mode=args.spi_mode,
        min_sample=args.min_sample,
        h=args.h,
        period_range=_parse_pair(args.period_range, "period range", "4,50") if args.period_range else None,
        grid_step=args.grid_step,
        macros=macros,
    )
    if args.synth:
        if args.seed is None:
            print("pipeline: --seed is required with --synth", file=sys.stderr)
            return USAGE_ERROR
        if args.synth == "outcomes":
            source = SynthConfig(
                years=DEFAULT_SYNTH_YEARS,
                firms_per_year=500,
                seed=args.seed,
                pdf=ControlPowerPdf(wave=ideal_wave(args.h)),
            )
        else:
            source = _default_synth(args.seed)
    else:
        source = ingest_csv(args.input)
    report = run_pipeline(source, config)
    if args.output:
        for fmt in formats:
            emit_report(report, fmt, args.output)
    else:
        sys.stdout.write(report.to_json())
    return 0


def _spi_options(p):
    p.add_argument("--shares", help="comma-separated share weights, e.g. 2,1,1")
    p.add_argument("--input", help="file with one comma-separated share list per line")


def _evolve_options(p):
    sub = p.add_subparsers(dest="what", required=True)
    q = sub.add_parser("ratios")
    q.add_argument("--k", type=int, default=5)
    q.add_argument("--output")
    q = sub.add_parser("walk")
    q.add_argument("--operations", type=int, default=100)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--law", help="four comma-separated episode-length weights")
    q.add_argument("--output")
    q = sub.add_parser("wave")
    # --a1, --b1 and --period (default 0, 0 and 18) go with --a0; --h (default 1.5) without it
    q.add_argument("--h", type=_DECIMAL)
    q.add_argument("--a0", type=_SIGNED_DECIMAL)
    q.add_argument("--a1", type=_SIGNED_DECIMAL)
    q.add_argument("--b1", type=_SIGNED_DECIMAL)
    q.add_argument("--period", type=_DECIMAL)
    q.add_argument("--t-max", type=_SIGNED_DECIMAL, default=26.0)
    q.add_argument("--t-step", type=_DECIMAL, default=1.0)
    q.add_argument("--output")


def _fit_options(p):
    p.add_argument("--input", required=True)
    p.add_argument("--period-range", help="lo,hi in years")
    p.add_argument("--grid-step", type=_DECIMAL, default=DEFAULT_GRID_STEP)
    p.add_argument("--output")


def _synth_options(p):
    sub = p.add_subparsers(dest="what", required=True)
    q = sub.add_parser("registry")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--years", default=_DEFAULT_YEARS)
    q.add_argument("--firms-per-year", type=int, default=100)
    q.add_argument("--group", default="main/private")
    q.add_argument("--top1", default=_DEFAULT_TOP1, help="mean,sd of the leading share")
    q.add_argument("--top2-10", dest="top2_10", default=_DEFAULT_TOP2_10, help="mean,sd of the co-holders' total")
    q.add_argument("--output")
    q = sub.add_parser("outcomes")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--years", default=_DEFAULT_YEARS)
    q.add_argument("--draws-per-year", type=int, default=500)
    q.add_argument("--group", default="main/private")
    q.add_argument("--h", type=_DECIMAL, default=1.5)
    q.add_argument("--mu", type=_SIGNED_DECIMAL, default=ControlPowerPdf.mu)
    q.add_argument("--sigma", type=_DECIMAL, default=ControlPowerPdf.sigma)
    q.add_argument("--output")


def _pipeline_options(p):
    sources = p.add_mutually_exclusive_group(required=True)
    sources.add_argument("--input", help="registry CSV")
    sources.add_argument("--synth", choices=("default", "outcomes"))
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="report directory; stdout JSON when omitted")
    p.add_argument("--format", default="json",
                   help="comma list of json,csv-tables,plot-data; formats other than json need --output")
    p.add_argument("--spi-mode", default=PipelineConfig.spi_mode, choices=SPI_MODES)
    p.add_argument("--min-sample", type=int, default=PipelineConfig.min_sample)
    p.add_argument("--h", type=_DECIMAL, default=PipelineConfig.h)
    p.add_argument("--period-range", help="lo,hi in years")
    p.add_argument("--grid-step", type=_DECIMAL, default=DEFAULT_GRID_STEP)
    p.add_argument("--macro", action="append", help="name=path of a year,value CSV; repeatable")


# each command's help, the function that adds its options and the one that runs it
_COMMANDS = {
    "spi": ("power profile of a share list", _spi_options, _cmd_spi),
    "evolve": ("ladder sequences, collapse walks, waves", _evolve_options, _cmd_evolve),
    "fit": ("first-order Fourier fit of a t,y CSV", _fit_options, _cmd_fit),
    "synth": ("seeded synthetic generators", _synth_options, _cmd_synth),
    "pipeline": ("full procedure plus report emission", _pipeline_options, _cmd_pipeline),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone when it names one, else of every
    command, each registered with its help and options."""
    parser = _Parser(prog="controlpower", description=__doc__)
    # one command's parser names all five in its usage line, so its messages
    # are the full parser's; the full parser names its choices itself
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (summary, add_options, run) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=summary)
            add_options(p)
            p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    """Run the command of ``argv`` (``sys.argv[1:]`` when None) and return
    its exit code. A first argument that names a command builds that
    command's parser alone; help, "--" and an unknown or missing command
    take the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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

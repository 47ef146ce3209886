"""Independent correctness checks: an exact integer power oracle and
report self-consistency checks.

Nothing here imports the program. Share cells are parsed from the input's
decimal strings into exact integers at a common 10^d scale; a coalition
wins iff twice its weight strictly exceeds the total. Power values are
counted over all coalitions (subset enumeration, a different algorithm
from the program's dynamic programs) and returned as exact fractions.

A game is a *tie game* when some coalition weighs exactly half the total,
or lies closer to half than a 10^-6 share grid can resolve. An engine that
rounds weights to such a grid may decide those coalitions either way (the
known tie defect in ROADMAP.md), and nothing else: rounding n weights moves
a coalition's margin by at most n/2 grid units. So on a tie game the
oracle also gives, per player, the least and the greatest power that any
decision of the near-half coalitions yields. A mismatch counts as that
defect only when the game is a tie game for the output checked and the
printed value lies within those bounds; any other mismatch makes the run
incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

TIE_RESOLUTION = 10**6  # shares closer than 1/TIE_RESOLUTION of the total count as tied
FLOAT_TOL = 1e-12
FIT_RTOL = 1e-9

_BITS: dict[int, np.ndarray] = {}


def _bits(n: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix: row m holds the membership bits of coalition m."""
    if n not in _BITS:
        masks = np.arange(1 << n, dtype=np.int64)
        _BITS[n] = (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1
    return _BITS[n]


def exact_units(cells) -> list[int]:
    """Exact decimal strings -> integers on their common 10^d scale."""
    values = [Fraction(c) for c in cells]
    scale = math.lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values]


@dataclass(frozen=True)
class Game:
    """Exact strict-majority game on integer weights."""

    weights: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.weights)

    def coalition_sums(self) -> np.ndarray:
        return _bits(len(self.weights)) @ np.asarray(self.weights, dtype=np.int64)

    def top_full(self) -> bool:
        """Player 0 alone is a winning coalition, so its power is exactly 1."""
        return 2 * self.weights[0] > self.total

    def near_half(self, sums: np.ndarray) -> np.ndarray:
        """Coalitions a 10^-6 share grid may decide either way."""
        total = self.total
        return np.abs(2 * sums - total) * TIE_RESOLUTION <= len(self.weights) * total

    def is_tie(self, sums: np.ndarray | None = None) -> bool:
        sums = self.coalition_sums() if sums is None else sums
        return bool(np.any(self.near_half(sums)))

    def _power(self, i: int, lose: np.ndarray, win: np.ndarray) -> Fraction:
        """Player i gets k!(n-1-k)!/n! for each coalition S of size k without i
        that ``lose`` marks while S + {i} is marked by ``win``."""
        n = len(self.weights)
        bits = _bits(n)
        without = np.flatnonzero(bits[:, i] == 0)
        pivots = without[lose[without] & win[without | (1 << i)]]
        fact = [math.factorial(k) for k in range(n + 1)]
        coeff = np.array([fact[k] * fact[n - 1 - k] for k in range(n)], dtype=np.int64)
        return Fraction(int(coeff[bits[pivots].sum(axis=1)].sum()), fact[n])

    def powers(self, players=None, sums: np.ndarray | None = None) -> list[Fraction]:
        """Exact Shapley-Shubik power of the given players (default: all)."""
        players = range(len(self.weights)) if players is None else players
        sums = self.coalition_sums() if sums is None else sums
        win = 2 * sums > self.total
        return [self._power(i, ~win, win) for i in players]

    def power_bounds(self, players=None, sums: np.ndarray | None = None) -> list[tuple[Fraction, Fraction]]:
        """(least, greatest) power of each player over every way of deciding the
        near-half coalitions; both equal the exact power on a game without ties."""
        players = range(len(self.weights)) if players is None else players
        sums = self.coalition_sums() if sums is None else sums
        win, near = 2 * sums > self.total, self.near_half(sums)
        surely, maybe = win & ~near, win | near
        return [(self._power(i, ~maybe, surely), self._power(i, ~surely, maybe)) for i in players]

    def top_full_bounds(self, sums: np.ndarray) -> tuple[bool, bool]:
        """(surely, maybe) player 0 alone wins, i.e. has power exactly 1."""
        full, near = self.top_full(), bool(self.near_half(sums)[1])  # coalition 1 is {player 0}
        return full and not near, full or near


def _fmt4(value: Fraction) -> str:
    return format(float(value), ".4g")


@dataclass
class Tally:
    """Checked outputs, mismatches, and the mismatches the tie defect explains."""

    checked: int = 0
    wrong: int = 0
    explained: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, tie: bool = False, note: str = "") -> None:
        """One checked output; ``tie`` says a mismatch is the tie defect."""
        self.checked += 1
        if not ok:
            self.wrong += 1
            self.explained += tie
            if len(self.notes) < 20:
                self.notes.append(note + (" (tie defect)" if tie else ""))

    def merge(self, other: "Tally") -> None:
        self.checked += other.checked
        self.wrong += other.wrong
        self.explained += other.explained
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])

    @property
    def unexplained(self) -> int:
        return self.wrong - self.explained


# spi profiles ----------------------------------------------------------------


@dataclass(frozen=True)
class ProfileExpectation:
    line: str  # the CLI's printed profile at 4 significant digits
    tie: bool
    full: bool
    bounds: tuple[tuple[Fraction, Fraction], ...]  # per-player power bounds (see Game.power_bounds)


def expect_profile(cells) -> ProfileExpectation:
    game = Game(tuple(exact_units(cells)))
    sums = game.coalition_sums()
    powers = game.powers(sums=sums)
    if sum(powers) != 1:
        raise AssertionError(f"oracle profile of {cells} does not sum to 1")
    tie = game.is_tie(sums)
    bounds = game.power_bounds(sums=sums) if tie else [(p, p) for p in powers]
    return ProfileExpectation(", ".join(_fmt4(p) for p in powers), tie, game.top_full(), tuple(bounds))


def _printed_within(line: str, bounds) -> bool:
    """Every value of a printed profile is the 4-significant-digit form of some
    power within that player's bounds."""
    cells = line.split(", ")
    if len(cells) != len(bounds):
        return False
    for cell, (lo, hi) in zip(cells, bounds):
        try:
            value = Decimal(cell)
        except InvalidOperation:
            return False
        if not value.is_finite():
            return False
        if value == 0:  # %.4g prints 0 for 0 only
            if lo != 0:
                return False
            continue
        half_digit = Fraction(1, 2) * Fraction(10) ** (value.adjusted() - 3)
        if Fraction(value) - half_digit > hi or Fraction(value) + half_digit < lo:
            return False
    return True


def check_profiles(expected: list[ProfileExpectation], text: str) -> Tally:
    tally = Tally()
    lines = text.splitlines()
    if len(lines) != len(expected):
        tally.record(False, note=f"{len(lines)} profile lines for {len(expected)} lists")
        return tally
    for exp, got in zip(expected, lines):
        tally.record(got == exp.line, exp.tie and _printed_within(got, exp.bounds),
                     f"profile {got!r} != {exp.line!r}")
    return tally


# registry cells --------------------------------------------------------------

SPI_MODES = ("top9", "top10", "top11")
UNBOUNDED = (-math.inf, math.inf)


@dataclass(frozen=True)
class CellExpectation:
    """Exact expected aggregates of one (group, year) cell, top10 default mode.

    ``tie_ranges`` holds, for the fields a tie game of the cell can move,
    the range the field may take under any decision of the near-half
    coalitions. Fields it omits (the counts of firms, and every field of a
    cell without ties in the mode the field comes from) must match exactly.
    """

    fields: dict
    tie_ranges: dict
    games: int
    full_games: int
    tie_games: int


def _mean_sd_band(values: list[Fraction]):
    n = len(values)
    if n == 0:
        return None, None, None
    mean = sum(values) / n
    if n == 1:
        return float(mean), None, None
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    inside = sum(1 for v in values if (v - mean) ** 2 <= var)  # closed band, decided exactly
    return float(mean), math.sqrt(float(var)), inside / n


def expect_registry(rows: list[list[str]]) -> dict[tuple[str, int], CellExpectation]:
    """Exact cell aggregates for registry rows, after the top1 < 1/2 filter."""
    by_cell: dict[tuple[str, int], list[tuple[list[str], str]]] = {}
    for row in rows:
        shares = [c for c in row[4:14] if c]
        if Fraction(shares[0]) >= Fraction(1, 2):
            continue
        by_cell.setdefault((f"{row[2]}/{row[3]}", int(row[1])), []).append((shares, row[14]))
    out = {}
    for key, firms in by_cell.items():
        n = len(firms)
        full = dict.fromkeys(SPI_MODES, 0)
        full_lo, full_hi = dict(full), dict(full)  # full-power games under any tie decision
        lt1: list[Fraction] = []
        lt1_lo: list[Fraction] = []
        lt1_hi: list[Fraction] = []
        top10_tie = False  # some top10 game's top-holder power depends on a tie decision
        ties = games = 0
        for shares, meeting in firms:
            units = exact_units(shares + [meeting])
            top10, meeting_units = units[:-1], units[-1]
            residual = max(meeting_units - sum(top10), 0)
            for mode, weights in (("top9", top10[:9]), ("top10", top10), ("top11", top10 + [residual])):
                game = Game(tuple(weights))
                sums = game.coalition_sums()
                games += 1
                tie = game.is_tie(sums)
                ties += tie
                surely, maybe = game.top_full_bounds(sums)
                full[mode] += game.top_full()
                full_lo[mode] += surely
                full_hi[mode] += maybe
                if mode != "top10":
                    continue
                top10_tie |= surely != maybe
                if not game.top_full():
                    lt1.append(game.powers([0], sums)[0])
                    lo, hi = game.power_bounds([0], sums)[0] if tie else (lt1[-1], lt1[-1])
                    top10_tie |= lo != hi
                    lt1_lo.append(lo)
                    lt1_hi.append(hi)
        mean, sd, band = _mean_sd_band(lt1)
        fields = {
            "n_sample": n,
            "r_spi_1": full["top10"] / n,
            "r_spi_1_top9": full["top9"] / n,
            "r_spi_1_top10": full["top10"] / n,
            "r_spi_1_top11": full["top11"] / n,
            "n_top11": n,
            "n_meeting": n,
            "n_spi_lt1": len(lt1),
            "spi_lt1_mean": mean,
            "spi_lt1_sd": sd,
            "spi_lt1_band": band,
        }
        tie_ranges = {}
        for mode in SPI_MODES:
            if full_lo[mode] != full_hi[mode]:
                tie_ranges[f"r_spi_1_{mode}"] = (full_lo[mode] / n, full_hi[mode] / n)
        if "r_spi_1_top10" in tie_ranges:
            tie_ranges["r_spi_1"] = tie_ranges["r_spi_1_top10"]
            tie_ranges["n_spi_lt1"] = (n - full_hi["top10"], n - full_lo["top10"])
        if top10_tie:
            # With the below-full set fixed, the mean is bounded by the
            # players' bounds; otherwise the set itself may change.
            certain = "n_spi_lt1" not in tie_ranges and lt1_lo
            tie_ranges["spi_lt1_mean"] = (
                (float(sum(lt1_lo) / len(lt1_lo)), float(sum(lt1_hi) / len(lt1_hi))) if certain else UNBOUNDED
            )
            tie_ranges["spi_lt1_sd"] = tie_ranges["spi_lt1_band"] = UNBOUNDED
        out[key] = CellExpectation(fields, tie_ranges, games, sum(full.values()), ties)
    return out


def _same(expected, got, exact: bool) -> bool:
    if expected is None or got is None:
        return expected is None and got is None
    if exact:
        return expected == got
    return abs(expected - got) <= FLOAT_TOL


def _in_range(got, bounds) -> bool:
    if bounds is None or not isinstance(got, (int, float)):
        return False
    return bounds[0] - FLOAT_TOL <= got <= bounds[1] + FLOAT_TOL


def check_cells(expected: dict[tuple[str, int], CellExpectation], report: dict) -> Tally:
    tally = Tally()
    seen = set()
    for group, payload in report["groups"].items():
        for ys in payload["years"]:
            key = (group, ys["year"])
            seen.add(key)
            exp = expected.get(key)
            if exp is None:
                tally.record(False, note=f"unexpected cell {key}")
                continue
            for name, value in exp.fields.items():
                got = ys.get(name)
                exact = not name.startswith("spi_lt1_")
                tally.record(_same(value, got, exact), _in_range(got, exp.tie_ranges.get(name)),
                             f"{key} {name}={got!r}, oracle {value!r}")
    for key in expected.keys() - seen:
        tally.record(False, note=f"missing cell {key}")
    return tally


# Fourier fits and plot data -----------------------------------------------------


def fourier_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Trial periods lo, lo+step, ... up to hi, with hi itself appended."""
    steps = int(math.floor((hi - lo) / step + 1e-9))
    grid = [lo + k * step for k in range(steps + 1)]
    if grid[-1] < hi - 1e-12:
        grid.append(hi)
    return np.array(grid)


def best_grid_sse(t: np.ndarray, y: np.ndarray, periods: np.ndarray) -> float:
    """Least residual of y ~ a0 + a1 cos + b1 sin over all trial periods at once."""
    theta = 2.0 * math.pi * t[None, :] / periods[:, None]
    design = np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta)], axis=2)
    gram = np.einsum("pni,pnj->pij", design, design)
    rhs = np.einsum("pni,n->pi", design, y)
    coef = np.linalg.solve(gram, rhs[..., None])[..., 0]
    resid = y[None, :] - np.einsum("pni,pi->pn", design, coef)
    return float((resid * resid).sum(axis=1).min())


def _wave(fit: dict, t: np.ndarray) -> np.ndarray:
    theta = 2.0 * math.pi * t / fit["period"]
    return fit["a0"] + fit["a1"] * np.cos(theta) + fit["b1"] * np.sin(theta)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FIT_RTOL * max(abs(a), abs(b)) + 1e-15


def check_fits(report: dict, plots: dict[str, str]) -> Tally:
    """Each Fourier fit matches its own coefficients and beats every grid period;
    each plot-data file repeats the observed series and the fitted wave."""
    tally = Tally()
    prov = report["provenance"]
    for group, payload in report["groups"].items():
        fitted = payload["fitted_years"]
        origin = fitted[0] if fitted else 0
        by_year = {ys["year"]: ys for ys in payload["years"]}
        for name, fit in payload["fits"].items():
            pts = [(float(yr - origin), by_year[yr][name]) for yr in fitted if by_year[yr][name] is not None]
            t = np.array([p[0] for p in pts])
            y = np.array([p[1] for p in pts])
            label = f"{group} {name}"
            if fit["degenerate"]:
                ok = fit["period"] is None and fit["a1"] == 0.0 and fit["b1"] == 0.0
                tally.record(ok, note=f"{label}: malformed degenerate fit")
            else:
                lo, hi = prov["period_range"] or (4.0, 2.0 * (t[-1] - t[0]))
                sse = float(((y - _wave(fit, t)) ** 2).sum())
                sst = float(((y - y.mean()) ** 2).sum())
                grid_best = best_grid_sse(t, y, fourier_grid(lo, hi, prov["grid_step"]))
                ok = (
                    _close(sse, fit["sse"])
                    and _close(1.0 - sse / sst, fit["r_squared"])
                    and fit["sse"] <= grid_best * (1.0 + FIT_RTOL) + 1e-15
                )
                tally.record(ok, note=f"{label}: sse {fit['sse']!r}, recomputed {sse!r}, grid best {grid_best!r}")
            slug = group.replace("/", "_")
            text = plots.get(f"plot_{slug}_{name}.csv")
            if text is None:
                tally.record(False, note=f"{label}: no plot-data file")
                continue
            rows = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]).reshape(-1, 3)
            fitted_y = np.full(len(t), fit["a0"]) if fit["degenerate"] else _wave(fit, t)
            ok = (
                rows.shape[0] == len(t)
                and np.array_equal(rows[:, 0], t)
                and np.array_equal(rows[:, 1], y)
                and bool(np.all(np.abs(rows[:, 2] - fitted_y) <= FLOAT_TOL))
            )
            tally.record(ok, note=f"{label}: plot-data disagrees with the report")
    return tally


def check_outcome_years(report: dict) -> Tally:
    """Per year: full-power ratio and below-full count describe the same draws."""
    tally = Tally()
    for group, payload in report["groups"].items():
        for ys in payload["years"]:
            n, lt1 = ys["n_sample"], ys["n_spi_lt1"]
            ok = 0 <= lt1 <= n and ys["r_spi_1"] == (n - lt1) / n
            tally.record(ok, note=f"{group} {ys['year']}: r_spi_1 {ys['r_spi_1']!r} vs n_spi_lt1 {lt1}")
    return tally

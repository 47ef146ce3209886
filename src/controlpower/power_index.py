"""Weighted voting games and exact Shapley-Shubik power computation.

Games use the strict-majority rule of a shareholders' meeting: a coalition
wins iff its combined weight strictly exceeds half the total weight of all
players in the game. Exactly half loses, so a coalition and its complement
can never both win, and the grand coalition always wins.

All voting decisions are made in exact integer arithmetic on a game's
integer weights. ``top_holder_numerators`` takes them as given: the
pipeline passes a registry's exact decimal units (see the ``dataset``
module), so its ties are decided exactly. ``make_game`` places float
weights, such as ``spi``'s input past exact units, on a fixed integer
grid: proportions of their own total (a ``math.fsum``), ``GRID`` units per
unit of total weight, rounded half to even. Power values are exact:
``fractions.Fraction``, or numerators over n! (int64 from
``top_holder_numerators``, else int).

One counting engine serves the library: a batched numpy kernel that sums,
for a whole batch of games at once, the pivot weights k!(n-1-k)! of one
player over every coalition of the others (subset counting in the manner
of Matsui & Matsui 2000 and Bilbao et al. 2000). A coalition and its
complement among the others carry the same weight, so one pass over the
half of the coalitions that leave out the second player scores each pair
at once. ``top_holder_numerators`` runs it over the leading holders of
many share lists, ``profile_numerators`` over every player of many games
(``spi_dp`` is its one-game case): games of fewer than ``_PAD_PLAYERS``
players in one batch, zero-padded to that width, which is exact because
a zero weight is a null player (see ``profile_numerators``), and larger
ones in one batch per player count. Permutation and pure-Python subset
enumeration are kept as independent test oracles; all three agree bit
for bit.

Counts are exact integers. Weights are float64, which holds them exactly
while 2 * total <= 2^53 (any game on the grid, and any registry row at up
to 12 decimals); ``profile_numerators`` and ``top_holder_numerators``
refuse a game above that. A batch whose 2 * T_max is below 2^24 (every
grid game: 2 * T is about 2 * 10^6; registry rows up to 6 decimals) sums
the subsets in float32, where every partial sum is an integer of at most
2 * T and so exact in whatever order the BLAS adds; a pair's score is
taken from integers of magnitude at most 2 * T + 1 < 2^24, exact too. It
counts the pivots against the weights k!(n-1-k)! divided by their gcd g:
one player's pivot sum is then at most n!/g = lcm(1..n), which is below
2^24 up to n = 18 (12,252,240), and the int64 count is multiplied back
by g. Other batches sum in float64 and count in float64 while n! <= 2^53
(n <= 18), else in int64 (20! < 2^63).

A batch is counted in chunks of games whose (games x coalitions)
subset-sum intermediate holds at most ``_MAX_BYTES`` bytes, so that every
intermediate of one chunk stays in a core's L2 cache; a float32 chunk
holds twice the games of a float64 one. Measured on all three modes of
one 2,547-firm registry group in float64 (2-vCPU Xeon, 2 MiB L2 per core,
numpy 2.4, median of 25 runs), chunks of 2^15 / 2^17 / 2^19 / 2^21 / 2^23
bytes took 45 / 36 / 36 / 40 / 56 ms, with a traced allocation peak of
1.0 / 1.4 / 2.9 / 9.1 / 26 MiB: 2^17 is the smallest size on the fast
plateau. In float32, the pipeline's per-group stage (all three modes)
over the four groups of a 10,221-row registry took 40 / 38 / 36-39 /
36-41 / 46-56 ms at 2^15 / 2^16 / 2^17 / 2^18 / 2^19 bytes (same
machine, median of 9, three rounds), so 2^17 stays. The chunk size never changes a result.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

GRID = 10**6
MAX_PLAYERS = 20
ORACLE_MAX_PLAYERS = 9

# Largest size in bytes of one (games x coalitions) subset-sum intermediate
# of the counting kernel; batches are cut along the game axis to stay
# below. 128 KiB keeps a chunk's few intermediates in L2; smaller chunks
# pay more per-chunk overhead, larger ones spill (see the module docstring
# for the measured sweep).
_MAX_BYTES = 1 << 17
# Players enumerated by one cached subset matrix; larger games pair two.
_BLOCK_PLAYERS = 10
# Integers up to 2^53 are exact in float64 and up to 2^24 in float32, and
# so is every sum of them that stays within that bound.
_FLOAT_EXACT = 2**53
_FLOAT32_EXACT = 2**24
# Most players whose gcd-scaled pivot weights sum below 2^24: n!/g is
# lcm(1..n), 12,252,240 at 18 players and 232,792,560 at 19.
_FLOAT32_PLAYERS = 18
# Games whose rotated rows profile_numerators builds at once (3.2 MB at 20 players).
_PROFILE_GAMES = 1 << 10
# Width at which profile_numerators counts every smaller game, zero-padded,
# in one kernel call; a kernel call costs about the same from 2 to 8
# players. Over ten 60-list benchmark files of 2-11 players (2-vCPU Xeon,
# numpy 2.4, median of 30 interleaved rounds of best of 5 per file)
# profile_numerators took 0.49 / 0.46 / 0.51 ms padding to 8 / 9 / 10
# players, against 0.76 ms with one call per player count, and on a file of
# only 9-11 players 0.66 / 0.68 / 0.68 against 0.69 ms. Three more runs of
# 60 rounds put 9 at 0.6-4.8% under 8, about 0.02 ms of a 3 ms spi invocation,
# below what the benchmark resolves, so the flat-cost width 8 stays.
_PAD_PLAYERS = 8


@dataclass(frozen=True)
class WeightedVotingGame:
    """Players with non-negative weights under the strict-majority rule.

    ``weights`` are the raw shares as given; ``int_weights`` are the
    integers every win/lose decision uses: make_game's grid units, or the
    exact units of decimal shares.
    """

    weights: tuple[float, ...]
    int_weights: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def int_total(self) -> int:
        return sum(self.int_weights)


@dataclass(frozen=True)
class PowerProfile:
    """Per-player power values, exact rationals summing to exactly 1."""

    exact: tuple[Fraction, ...]

    @property
    def spi(self) -> tuple[float, ...]:
        """Float view of the exact values (error only at this boundary)."""
        return tuple(float(v) for v in self.exact)


def make_game(shares: Sequence[float]) -> WeightedVotingGame:
    """Build the strict-majority voting game on the given share weights.

    Raises ValueError on an empty list, any negative or non-finite share,
    an all-zero total, or more than MAX_PLAYERS players.
    """
    shares = tuple(float(s) for s in shares)
    if not shares:
        raise ValueError("a game needs at least one player")
    if len(shares) > MAX_PLAYERS:
        raise ValueError(f"at most {MAX_PLAYERS} players supported, got {len(shares)}")
    for s in shares:
        if not math.isfinite(s):
            raise ValueError(f"weight {s!r} is not finite")
        if s < 0:
            raise ValueError(f"negative weight {s!r}")
    total = math.fsum(shares)
    if total <= 0:
        raise ValueError("total weight must be positive")
    int_weights = tuple(round(s / total * GRID) for s in shares)
    return WeightedVotingGame(weights=shares, int_weights=int_weights)


def _pivot_coeffs(n: int) -> list[int]:
    # k!(n-1-k)! for k = 0..n-1; dividing by n! happens once at the end
    fact = [math.factorial(i) for i in range(n + 1)]
    return [fact[k] * fact[n - 1 - k] for k in range(n)]


def spi_permutation_oracle(game: WeightedVotingGame) -> PowerProfile:
    """Reference computation by full enumeration of all n! player orderings.

    In every ordering exactly one player tips the accumulating coalition
    from losing to winning; their pivot count over n! is their power.
    Refuses games above ORACLE_MAX_PLAYERS players.
    """
    n = game.n
    if n > ORACLE_MAX_PLAYERS:
        raise ValueError(f"oracle enumeration is limited to {ORACLE_MAX_PLAYERS} players")
    weights = game.int_weights
    total = game.int_total
    counts = [0] * n
    for perm in itertools.permutations(range(n)):
        acc = 0
        for p in perm:
            acc += weights[p]
            if 2 * acc > total:
                counts[p] += 1
                break
    n_fact = math.factorial(n)
    return PowerProfile(tuple(Fraction(c, n_fact) for c in counts))


def spi_subset(game: WeightedVotingGame) -> PowerProfile:
    """Power via enumeration of all 2^n coalitions.

    Player i is credited k!(n-1-k)!/n! for every size-k subset S not
    containing i with S losing and S + {i} winning. Cost grows as n * 2^n.
    """
    n = game.n
    weights = game.int_weights
    total = game.int_total
    # accumulated weight of every bitmask, built from the lowest set bit
    acc = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        acc[mask] = acc[mask ^ low] + weights[low.bit_length() - 1]
    coeffs = _pivot_coeffs(n)
    nums = [0] * n
    for mask in range(1 << n):
        w = acc[mask]
        if 2 * w > total:
            continue  # S already wins, nobody can pivot into it
        coef = coeffs[mask.bit_count()]
        for i in range(n):
            if not (mask >> i) & 1 and 2 * (w + weights[i]) > total:
                nums[i] += coef
    n_fact = math.factorial(n)
    return PowerProfile(tuple(Fraction(v, n_fact) for v in nums))


@functools.cache
def _subsets(m: int, dtype: type) -> np.ndarray:
    """0/1 membership of m players (rows) in all 2^m coalitions (column c
    is bitmask c) as ``dtype``."""
    return ((np.arange(1 << m)[None, :] >> np.arange(m)[:, None]) & 1).astype(dtype)


@functools.cache
def _coalition_coeffs(n: int, dtype: type) -> tuple[np.ndarray, int]:
    """The pivot weight k!(n-1-k)! / g of every coalition c of the n - 2
    players after player 1 (bit i of c is player i + 2, the kernel's column
    order), as ``dtype``, and g, the gcd of the weights."""
    coeffs = _pivot_coeffs(n)
    g = math.gcd(*coeffs)
    sizes = np.zeros(1, dtype=np.int64)
    for _ in range(n - 2):
        sizes = np.concatenate((sizes, sizes + 1))  # coalitions with the next player follow those without
    return np.array([c // g for c in coeffs], dtype=dtype)[sizes], g


def _pivot_numerators(weights: np.ndarray) -> np.ndarray:
    """n!-scaled power of player 0 in each row's game, as int64.

    ``weights`` holds one game of n integer weights per row as float64,
    with 2 * T <= 2^53 (see the module docstring). Player 0 pivots on
    every coalition S of the others with F < x <= T, where x = 2*w(S) and
    F = T - 2*w_0, each worth |S|!(n-1-|S|)!. A dictator (F < 0) and a
    zero-weight leader (F = T) are settled in closed form. The other rows
    count each S that leaves out player 1 together with its complement
    among the others: that pair shares one weight, and the complement
    pivots iff F <= x < T, so the pair scores clip(min(x - F + 1, T + 1 - x),
    0, 2) pivots, integers of magnitude at most 2T + 1. The count runs in
    float32 where the batch allows it exactly.
    """
    n = weights.shape[1]
    totals = weights.sum(axis=1)
    floors = totals - 2 * weights[:, 0]
    dictator = floors < 0
    nums = np.where(dictator, math.factorial(n), 0).astype(np.int64)
    contested = np.flatnonzero(~dictator & (weights[:, 0] > 0))
    if not contested.size:
        return nums
    if n <= _FLOAT32_PLAYERS and 2 * totals[contested].max() < _FLOAT32_EXACT:
        sum_type = count_type = np.float32
    else:
        sum_type = np.float64
        count_type = np.float64 if math.factorial(n) <= _FLOAT_EXACT else np.int64
    twice_w = (2 * weights).astype(sum_type, copy=False)
    upper = (totals + 1).astype(sum_type, copy=False)  # T + 1 - x
    lower = (floors - 1).astype(sum_type, copy=False)  # x - F + 1 = x - (F - 1)
    m = n - 2  # players 2..n-1: their coalitions pair with their complements
    lo = min(m, _BLOCK_PLAYERS)
    bits_lo, bits_hi = _subsets(lo, sum_type), _subsets(m - lo, sum_type)
    coeffs, g = _coalition_coeffs(n, count_type)
    step = max(1, _MAX_BYTES // (np.dtype(sum_type).itemsize << m))
    for at in range(0, contested.size, step):
        rows = contested[at : at + step]
        w = twice_w[rows]
        twice = w[:, 2 : 2 + lo] @ bits_lo
        if m > lo:
            twice = ((w[:, 2 + lo :] @ bits_hi)[:, :, None] + twice[:, None, :]).reshape(len(rows), -1)
        score = np.minimum(twice - lower[rows, None], upper[rows, None] - twice)
        np.clip(score, 0, 2, out=score)
        nums[rows] = (score.astype(count_type, copy=False) @ coeffs).astype(np.int64) * g
    return nums


@functools.cache
def _profile_layout(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The players of a width-player game in the order of row i (player i
    first, the others after in order), and width!/n! for n = 0..width."""
    rotate = np.array([[i, *range(i), *range(i + 1, width)] for i in range(width)])
    fact = [math.factorial(n) for n in range(width + 1)]
    return rotate, np.array([fact[width] // f for f in fact])


def profile_numerators(games: Sequence[WeightedVotingGame]) -> list[tuple[int, ...]]:
    """n!-scaled power of every player of every game, as Python ints, in
    input order. Row i of a game is the game seen from player i (that player
    first, the others after in order).

    A game of fewer than ``_PAD_PLAYERS`` players is counted at that width,
    padded with zero weights after the real players, and only the rows of
    real players are kept. A zero weight is a null player: it leaves every
    power the same rational, so a row's numerator over _PAD_PLAYERS! is its
    numerator over n! times _PAD_PLAYERS!/n!, and dividing by that factor is
    exact. Larger games are counted at their own player count. Each width is
    counted ``_PROFILE_GAMES`` games at a time, so the rows alive at once do
    not grow with the batch. Raises ValueError, before counting any game, on
    a game whose 2 * int_total exceeds 2^53, which float64 cannot count
    exactly."""
    if any(2 * game.int_total > _FLOAT_EXACT for game in games):
        raise ValueError("twice the total integer weight exceeds 2^53")
    widths = [max(game.n, _PAD_PLAYERS) for game in games]
    out: list = [None] * len(games)
    for width in set(widths):
        rotate, factors = _profile_layout(width)
        indices = [k for k, w in enumerate(widths) if w == width]
        for at in range(0, len(indices), _PROFILE_GAMES):
            chunk = indices[at : at + _PROFILE_GAMES]
            sizes = [games[k].n for k in chunk]
            # padding rows lead with a zero weight, which the kernel settles in closed form
            padded = [games[k].int_weights + (0,) * (width - n) for k, n in zip(chunk, sizes)]
            weights = np.array(padded, dtype=np.float64)
            nums = _pivot_numerators(weights[:, rotate].reshape(-1, width)).reshape(len(chunk), width)
            nums //= factors[sizes, None]
            for k, n, row in zip(chunk, sizes, nums.tolist()):
                out[k] = tuple(row[:n])
    return out


def spi_dp(game: WeightedVotingGame) -> PowerProfile:
    """Every player's power as exact fractions: ``profile_numerators`` of one
    game. The name is kept from the dynamic program this engine replaced."""
    n_fact = math.factorial(game.n)
    return PowerProfile(tuple(Fraction(v, n_fact) for v in profile_numerators([game])[0]))


def top_holder_numerators(weights: np.ndarray) -> np.ndarray:
    """n!-scaled power of player 0 in the game of every row of the (games x
    n) array ``weights`` of non-negative integers (int or integral float),
    as int64, in one batch.

    A zero weight is a null player, so zero-padding rows to one length
    leaves every power as it is. ``num / n!`` (correctly rounded int
    division, or float64 division for n <= 18) is the float of the exact
    power, with no ``Fraction`` built. Raises ValueError on a weight that is
    negative or not an integer, a row of zero total, or one whose twice
    total exceeds 2^53, which float64 cannot count exactly.
    """
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise ValueError("weight rows must form a 2-D array")
    n = weights.shape[1]
    if not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"a game needs 1 to {MAX_PLAYERS} players, got {n}")
    weights = np.asarray(weights, dtype=np.float64)  # exact for integers up to 2^53
    if not (np.isfinite(weights) & (weights == np.rint(weights))).all():
        raise ValueError("weights must be integers")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    totals = weights.sum(axis=1)
    if not (totals > 0).all():
        raise ValueError("total weight must be positive")
    if (2 * totals > _FLOAT_EXACT).any():
        raise ValueError("twice the total integer weight exceeds 2^53")
    return _pivot_numerators(weights)

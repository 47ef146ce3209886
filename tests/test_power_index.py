import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from controlpower import power_index
from controlpower.power_index import (
    GRID,
    MAX_PLAYERS,
    ORACLE_MAX_PLAYERS,
    WeightedVotingGame,
    make_game,
    profile_numerators,
    spi_dp,
    spi_permutation_oracle,
    spi_subset,
    top_holder_numerators,
)

THIRD = Fraction(1, 3)


def numerator_pairs(rows):
    """(numerator, n!) of player 0 in make_game(row) for every row, with one
    top_holder_numerators batch of the rows' grid weights per row length."""
    out = [None] * len(rows)
    by_length = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    for n, index in by_length.items():
        weights = np.array([make_game(rows[i]).int_weights for i in index]).reshape(len(index), n)
        nums = top_holder_numerators(weights)
        for i, num in zip(index, nums.tolist()):
            out[i] = (num, math.factorial(n))
    return out


def top_holder_powers(rows):
    """Exact power of player 0 in make_game(row) for every row."""
    return [Fraction(num, n_fact) for num, n_fact in numerator_pairs(rows)]


def random_game(rng, n_max=9, allow_zero=True, integer=False):
    n = rng.randint(1, n_max)
    if integer:
        weights = [rng.randint(0, 1000) for _ in range(n)]
    else:
        weights = [rng.uniform(0.0, 1.0) for _ in range(n)]
    if allow_zero and n > 1 and rng.random() < 0.3:
        weights[rng.randrange(n)] = 0
    if sum(weights) <= 0:
        weights[0] = 1
    return make_game(weights)


class TestMakeGame:
    def test_direct_construction(self):
        game = make_game([0.30, 0.10, 0.05])
        assert game.n == 3
        assert game.weights == (0.30, 0.10, 0.05)
        assert game.int_weights == (666667, 222222, 111111)
        assert game.int_total == GRID

    def test_single_player_is_dictator(self):
        game = make_game([0.51])
        assert game.int_weights == (GRID,)
        assert spi_dp(game).exact == (Fraction(1),)

    def test_ten_player_top_heavy_total(self):
        shares = [0.278] + [0.293 / 9] * 9
        game = make_game(shares)
        assert game.n == 10
        assert math.fsum(game.weights) == pytest.approx(0.571)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_game([])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            make_game([0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_game([0.5, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_game([0.5, float("nan")])

    def test_rejects_too_many_players(self):
        with pytest.raises(ValueError):
            make_game([1.0] * (MAX_PLAYERS + 1))


class TestPermutationOracle:
    def test_symmetric_three(self):
        profile = spi_permutation_oracle(make_game([1, 1, 1]))
        assert profile.exact == (THIRD, THIRD, THIRD)

    def test_dictator_and_dummies(self):
        profile = spi_permutation_oracle(make_game([60, 40]))
        assert profile.exact == (Fraction(1), Fraction(0))

    def test_two_one_one(self):
        # all 6 orderings by hand: player 0 pivots in 4, players 1 and 2 in 1 each
        profile = spi_permutation_oracle(make_game([2, 1, 1]))
        assert profile.exact == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))

    def test_refuses_ten_players(self):
        with pytest.raises(ValueError):
            spi_permutation_oracle(make_game([1] * 10))


class TestSubset:
    def test_two_one_one(self):
        profile = spi_subset(make_game([2, 1, 1]))
        assert profile.exact == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))

    def test_matches_oracle_on_four_players(self):
        game = make_game([3, 2, 1, 1])
        assert spi_subset(game).exact == spi_permutation_oracle(game).exact

    def test_single_player(self):
        assert spi_subset(make_game([1])).exact == (Fraction(1),)

    def test_refuses_oversized(self):
        with pytest.raises(ValueError):
            spi_subset(make_game([1] * 21))


class TestDp:
    def test_even_split(self):
        assert spi_dp(make_game([0.50, 0.50])).exact == (Fraction(1, 2), Fraction(1, 2))

    def test_agrees_with_oracle_on_random_games(self):
        rng = random.Random(11)
        for _ in range(60):
            game = random_game(rng, n_max=7)
            oracle = spi_permutation_oracle(game)
            assert spi_dp(game).exact == oracle.exact
            assert spi_subset(game).exact == oracle.exact

    def test_ten_player_cross_algorithm(self):
        shares = [0.278] + [0.293 / 9] * 9
        game = make_game(shares)
        assert spi_dp(game).exact == spi_subset(game).exact

    def test_spi_single_matches_profile(self):
        # one batch of every player's view of 20 games: player i moved first
        # keeps make_game's grid weights, so its top-holder power is profile[i]
        rng = random.Random(23)
        rows, expected = [], []
        for _ in range(20):
            game = random_game(rng, n_max=8)
            w = game.weights
            rows += [(w[i],) + w[:i] + w[i + 1 :] for i in range(game.n)]
            expected += spi_dp(game).exact
        assert top_holder_powers(rows) == expected

    def test_spi_single_rejects_bad_index(self):
        # a row without a player 0, or too many players, has no top holder
        for rows in ([[]], [[1, 1], []], [[1.0] * (MAX_PLAYERS + 1)]):
            with pytest.raises(ValueError):
                top_holder_powers(rows)


def _oracle(game):
    if game.n <= ORACLE_MAX_PLAYERS:
        return spi_permutation_oracle(game).exact
    return spi_subset(game).exact


class TestEngine:
    """The batched engine against the enumeration oracles."""

    def test_mixed_player_counts_in_one_batch(self):
        rng = random.Random(41)
        rows = []
        for n in list(range(1, 12)) * 4:
            row = [rng.uniform(0.0, 1.0) for _ in range(n)]
            if n > 1 and rng.random() < 0.5:
                row[rng.randrange(1, n)] = 0.0  # zero-weight players
            rows.append(sorted(row, reverse=True))
        rng.shuffle(rows)
        games = [make_game(row) for row in rows]
        assert top_holder_powers(rows) == [_oracle(g)[0] for g in games]
        for game in games:
            assert spi_dp(game).exact == _oracle(game)

    def test_zero_weight_players(self):
        rows = [[0.3, 0.0], [0.0, 0.3, 0.2], [0.2, 0.2, 0.0, 0.0, 0.1], [0.0, 0.0, 1.0]]
        for row in rows:
            game = make_game(row)
            profile = spi_dp(game).exact
            assert profile == _oracle(game)
            assert all(v == 0 for v, w in zip(profile, row) if w == 0)
        assert top_holder_powers(rows) == [_oracle(make_game(r))[0] for r in rows]

    def test_planted_exact_half_coalitions(self):
        # integer weights whose total splits exactly in two: the half
        # coalition loses, so units at twice each weight keep the tie
        rng = random.Random(43)
        ties = 0
        for _ in range(150):
            n = rng.randint(3, 11)
            half = [rng.randint(1, 50) for _ in range(rng.randint(1, n - 1))]
            rest = [rng.randint(1, 50) for _ in range(n - len(half) - 1)]
            rest.append(sum(half) - sum(rest))
            if rest[-1] < 0:
                continue
            row = sorted(half + rest, reverse=True)
            game = WeightedVotingGame(weights=tuple(row), int_weights=tuple(2 * w for w in row))
            assert spi_dp(game).exact == _oracle(game)
            ties += 1
        assert ties >= 50
        rows = [[3, 2, 1], [2, 1, 1], [5, 3, 2], [4, 4], [3, 3, 2, 2, 1, 1]]
        assert top_holder_powers(rows) == [_oracle(make_game(r))[0] for r in rows]

    def test_half_total_is_not_full_power(self):
        # 2 * w1 == T: the leader alone ties and loses, so power < 1
        rows = [[1, 1], [2, 1, 1], [0.5, 0.25, 0.25], [0.3, 0.2, 0.1]]
        powers = top_holder_powers(rows)
        assert powers == [Fraction(1, 2), Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)]
        assert all(p < 1 for p in powers)
        assert top_holder_powers([[0.500001, 0.499999]]) == [Fraction(1)]

    def test_clipped_top11_residual_is_a_dummy(self):
        # the top11 row appends max(meeting - top total, 0): a zero residual
        # is a dummy and leaves the leader's power unchanged
        rng = random.Random(47)
        rows = [sorted((round(rng.uniform(0.01, 0.3), 4) for _ in range(10)), reverse=True) for _ in range(40)]
        meeting = [round(rng.uniform(0.3, 1.0), 4) for _ in rows]
        top11 = [tuple(r) + (max(m - math.fsum(r), 0.0),) for r, m in zip(rows, meeting)]
        assert any(row[-1] == 0.0 for row in top11) and any(row[-1] > 0 for row in top11)
        powers = top_holder_powers(top11)
        assert powers == [spi_subset(make_game(row)).exact[0] for row in top11]
        plain = top_holder_powers(rows)
        for row, p, q in zip(top11, powers, plain):
            if row[-1] == 0.0:
                assert p == q

    @pytest.mark.parametrize("width", [9, 10, 11])
    def test_zero_padding_leaves_the_power_unchanged(self, width):
        # a zero weight is a null player: rows padded with zeros to one width
        # give the exact power of the unpadded row, ties at half included
        rng = random.Random(71 + width)
        rows = [[0.25, 0.25], [0.3, 0.2, 0.1], [0.2, 0.2, 0.1, 0.1], [0.4, 0.2, 0.2], [0.5], [0.1] * 4]
        rows += [sorted((round(rng.uniform(0.01, 0.3), rng.randint(2, 4)) for _ in range(rng.randint(1, width))),
                        reverse=True) for _ in range(200)]
        if width == 11:
            # top11 rows: ten padded holders, then a meeting residual clipped at 0
            top10 = [r[:10] for r in rows]
            residual = [max(round(rng.uniform(0.2, 1.0), 4) - math.fsum(r), 0.0) for r in top10]
            rows = [r + [0.0] * (10 - len(r)) + [x] for r, x in zip(top10, residual)]
            assert sum(x == 0.0 for x in residual) >= 20 and sum(x > 0.0 for x in residual) >= 20
            unpadded = [[w for w in r[:10] if w > 0] + [r[10]] for r in rows]
        else:
            unpadded = rows
            rows = [r + [0.0] * (width - len(r)) for r in rows]
        exact = [spi_subset(make_game(r)).exact[0] for r in unpadded]
        if width < 11:  # the first rows tie at exactly half the total
            assert exact[0] == Fraction(1, 2) and exact[3] == Fraction(2, 3)
        nums = top_holder_numerators(np.array([make_game(r).int_weights for r in rows])).tolist()
        assert [Fraction(num, math.factorial(width)) for num in nums] == exact

    def test_rows_must_form_a_2d_array(self):
        with pytest.raises(ValueError, match="2-D"):
            top_holder_numerators(np.array([0.3, 0.2]))
        with pytest.raises(ValueError):
            top_holder_numerators([[0.3, 0.2], [0.5]])

    def test_numerators_divide_to_the_exact_float(self):
        # int true division is correctly rounded, so num / n! is the float
        # of the exact power, also where n! exceeds 2^53 (19 and 20 players)
        rng = random.Random(59)
        rows = [[round(rng.uniform(0.01, 1.0), rng.randint(2, 4)) for _ in range(n)]
                for n in list(range(1, 12)) * 6 + [19, 20, 20]]
        rng.shuffle(rows)
        pairs = numerator_pairs(rows)
        assert [n_fact for _, n_fact in pairs] == [math.factorial(len(row)) for row in rows]
        exact = top_holder_powers(rows)
        assert [Fraction(num, n_fact) for num, n_fact in pairs] == exact
        assert [num / n_fact for num, n_fact in pairs] == [float(v) for v in exact]
        assert any(0 < v < 1 for row, v in zip(rows, exact) if len(row) >= 19)
        assert top_holder_numerators(np.empty((0, 3))).shape == (0,)

    def test_max_players_game_is_fast_and_exact(self):
        rng = random.Random(53)
        game = make_game([rng.uniform(0.0, 1.0) for _ in range(MAX_PLAYERS)])
        start = time.perf_counter()
        profile = spi_dp(game)
        assert time.perf_counter() - start < 5.0
        assert sum(profile.exact) == 1
        assert top_holder_powers([game.weights]) == [profile.exact[0]]

    def test_oversized_game_is_refused(self):
        # float64 counts exactly while 2 * total <= 2^53; a directly built
        # game above that is refused, not rounded
        edge = WeightedVotingGame(weights=(2.0, 1.0, 1.0), int_weights=(2**51, 2**50, 2**50))
        assert spi_dp(edge).exact == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
        for units in ((2**51, 2**50, 2**50 + 1), (10**19, 5 * 10**18, 5 * 10**18)):
            with pytest.raises(ValueError, match="exceeds 2\\^53"):
                spi_dp(WeightedVotingGame(weights=(2.0, 1.0, 1.0), int_weights=units))

    @pytest.mark.parametrize("profile_games", [power_index._PROFILE_GAMES, 2])
    def test_profile_batch_matches_one_game_calls(self, profile_games, monkeypatch):
        # a shuffled batch of 1-20 players: one subset block up to 11
        # players, two from 12, int64 counts from 19; each planted game
        # splits into two sides of equal integer weight, which both tie
        rng = random.Random(71)
        games = []
        for n in list(range(1, MAX_PLAYERS + 1)) + list(range(1, 13)) * 2:
            games.append(make_game([rng.uniform(0.0, 1.0) for _ in range(n)]))
            if n >= 2:
                k = rng.randint(1, n - 1)
                sides = [sorted(rng.sample(range(1, 500), parts - 1)) for parts in (k, n - k)]
                row = [b - a for cuts in sides for a, b in zip([0] + cuts, cuts + [500])]
                rng.shuffle(row)
                games.append(WeightedVotingGame(weights=tuple(row), int_weights=tuple(2 * w for w in row)))
        rng.shuffle(games)
        monkeypatch.setattr(power_index, "_PROFILE_GAMES", profile_games)
        batch = profile_numerators(games)
        assert batch == [profile_numerators([game])[0] for game in games]
        assert all(type(v) is int for nums in batch for v in nums)
        for game, nums in zip(games, batch):
            assert sum(nums) == math.factorial(game.n)
            if game.n <= 12:
                assert tuple(Fraction(v, math.factorial(game.n)) for v in nums) == spi_subset(game).exact

    def test_profile_batch_refuses_an_oversized_game_before_counting(self, monkeypatch):
        def no_count(weights):
            raise AssertionError("no game may be counted")

        games = [make_game([3, 2, 1]), make_game([1] * 12)] * 3
        games.insert(4, WeightedVotingGame(weights=(2.0, 1.0, 1.0), int_weights=(2**51, 2**50, 2**50 + 1)))
        monkeypatch.setattr(power_index, "_pivot_numerators", no_count)
        with pytest.raises(ValueError, match="exceeds 2\\^53"):
            profile_numerators(games)

    @pytest.mark.parametrize("max_bytes", [1, 3 << 9])  # one game per chunk; 3 at 8 players in float32
    def test_chunk_size_does_not_change_numerators(self, max_bytes, monkeypatch):
        rng = random.Random(61)
        mixed = [sorted((round(rng.uniform(0.0, 1.0), 4) for _ in range(n)), reverse=True)
                 for n in list(range(1, 12)) * 5]
        rng.shuffle(mixed)
        float_games = [make_game([rng.uniform(0.0, 1.0) for _ in range(n)]) for n in (2, 7, 10, 11)]
        twenty = make_game([rng.uniform(0.0, 1.0) for _ in range(MAX_PLAYERS)])
        games = float_games + [twenty]

        def results():
            return numerator_pairs(mixed), [spi_dp(g).exact for g in games]

        expected = results()
        monkeypatch.setattr(power_index, "_MAX_BYTES", max_bytes)
        assert results() == expected

    @pytest.mark.parametrize("max_bytes", [power_index._MAX_BYTES, 1])
    def test_float_and_int_counts_exact_at_12_to_20_players(self, max_bytes, monkeypatch):
        # 12-18 players count pivots in float32, 19-20 in int64; both must
        # match a pure-Python count over make_game's grid units
        def leader_numerator(row):
            units = make_game(row).int_weights
            total, floor = sum(units), sum(units) - 2 * units[0]
            acc, size = [0], [0]
            for w in units[1:]:
                acc += [a + w for a in acc]
                size += [k + 1 for k in size]
            fact = [math.factorial(k) for k in range(len(units))]
            return sum(fact[k] * fact[-1 - k] for a, k in zip(acc, size) if floor < 2 * a <= total)

        rng = random.Random(67)
        rows = []
        for n in range(12, MAX_PLAYERS + 1):
            rows += [[rng.uniform(0.0, 1.0) for _ in range(n)] for _ in range(2)]
            # two sides of 500 units each out of 1000: on the 10^6 grid the side
            # without player 0 ties at exactly half, and so does player 0's side
            k = rng.randint(2, n - 2)
            sides = [sorted(rng.sample(range(1, 500), parts - 1)) for parts in (k, n - k)]
            row = [b - a for cuts in sides for a, b in zip([0] + cuts, cuts + [500])]
            rng.shuffle(row)
            assert make_game(row).int_weights == tuple(1000 * w for w in row)
            rows.append(row)
        monkeypatch.setattr(power_index, "_MAX_BYTES", max_bytes)
        pairs = numerator_pairs(rows)
        assert pairs == [(leader_numerator(row), math.factorial(len(row))) for row in rows]
        assert sum(0 < num < n_fact for num, n_fact in pairs) >= 20


def integer_parts(rng, total, parts):
    """``parts`` positive integers summing to ``total``, in random order."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


class TestIntegerWeights:
    """top_holder_numerators counts integer weights as given, the way a
    registry row's exact decimal units reach it: ties at exactly half the
    total are decided exactly, at any scale up to 2 * T = 2^53."""

    def test_matches_the_subset_oracle_with_planted_ties(self):
        rng = random.Random(89)
        by_size, ties = {}, 0
        for _ in range(400):
            n = rng.randint(1, 11)
            top = 10 ** rng.randint(1, 12)  # units of 1 to 12 decimals
            units = [rng.randint(0, top) for _ in range(n)]
            if n >= 2 and rng.random() < 0.6:
                # a coalition S (the leader's side or not) weighs exactly half
                side = set(rng.sample(range(n), rng.randint(1, n - 1)))
                gap = sum(units[i] for i in side) - sum(u for i, u in enumerate(units) if i not in side)
                units[rng.choice([i for i in range(n) if (i in side) == (gap < 0)])] += abs(gap)
            if not any(units):
                units[0] = 1
            ties += any(2 * sum(units[i] for i in range(n) if mask >> i & 1) == sum(units)
                        for mask in range(1, 1 << n))
            by_size.setdefault(n, []).append(units)
        assert ties >= 150
        for n, rows in by_size.items():
            expected = [spi_subset(WeightedVotingGame(tuple(map(float, r)), tuple(r))).exact[0] * math.factorial(n)
                        for r in rows]
            for block in (np.array(rows, dtype=np.int64), np.array(rows, dtype=float)):
                assert top_holder_numerators(block).tolist() == expected

    def test_paired_coalitions_match_the_subset_oracle_on_small_weights(self):
        # small integer weights tie often: many coalitions sit exactly at
        # half the total, where a coalition and its complement both lose;
        # some leaders weigh 0. Counted in float32 as given, and in float64
        # at 2^30 times the weights
        rng = random.Random(97)
        ties = zeros = 0
        for n in range(1, 13):
            rows = []
            for _ in range(6 if n > 10 else 25):
                units = [rng.randint(0, 6) for _ in range(n)]
                if n >= 2 and rng.random() < 0.6:
                    side = set(rng.sample(range(n), rng.randint(1, n - 1)))
                    gap = sum(units[i] for i in side) - sum(u for i, u in enumerate(units) if i not in side)
                    units[rng.choice([i for i in range(n) if (i in side) == (gap < 0)])] += abs(gap)
                if n >= 2 and rng.random() < 0.25:
                    units[0] = 0
                if not any(units):
                    units[-1] = 1
                ties += any(2 * sum(units[i] for i in range(n) if mask >> i & 1) == sum(units)
                            for mask in range(1, 1 << n))
                zeros += units[0] == 0
                rows.append(units)
            expected = [spi_subset(WeightedVotingGame(tuple(map(float, r)), tuple(r))).exact[0] * math.factorial(n)
                        for r in rows]
            block = np.array(rows, dtype=float)
            assert power_index._pivot_numerators(block).tolist() == expected
            assert power_index._pivot_numerators(block * 2**30).tolist() == expected
        assert ties >= 100 and zeros >= 20

    def test_decimal_units_decide_ties_the_grid_misses(self):
        # 2885 + 2380 + ... at 4 decimals: the grid rounds a coalition at
        # exactly half onto the winning side (113/630); the units give 5/28
        units = [2885, 2380, 2008, 1949, 1863, 1764, 1382, 1090, 1044, 883]
        exact = spi_subset(WeightedVotingGame(tuple(map(float, units)), tuple(units))).exact[0]
        assert exact == Fraction(5, 28)
        assert top_holder_numerators(np.array([units])).tolist() == [exact * math.factorial(10)]
        assert top_holder_powers([[u / 10_000 for u in units]]) == [Fraction(113, 630)]
        # 0.5000004 against 0.4999996: the leader holds more than half
        assert top_holder_numerators(np.array([[5_000_004, 4_999_996]])).tolist() == [2]
        assert top_holder_powers([[0.5000004, 0.4999996]]) == [Fraction(1, 2)]

    @pytest.mark.parametrize("rows, problem", [
        ([[0.5, 1.0]], "integers"),
        ([[np.nan, 1.0]], "integers"),
        ([[-1, 2]], "non-negative"),
        ([[0, 0]], "positive"),
        ([[2**52, 1]], "2\\^53"),
    ])
    def test_refuses_weights_it_cannot_count_exactly(self, rows, problem):
        with pytest.raises(ValueError, match=problem):
            top_holder_numerators(np.array(rows))


class TestFloat32Counts:
    """A batch whose 2 * T_max is below 2^24 is summed and counted in float32;
    every other batch in float64 or int64. Both must be exact, in whatever
    order the BLAS adds."""

    @pytest.fixture
    def count_types(self, monkeypatch):
        seen = []
        coeffs = power_index._coalition_coeffs
        monkeypatch.setattr(power_index, "_coalition_coeffs", lambda n, dtype: seen.append(dtype) or coeffs(n, dtype))
        return seen

    @staticmethod
    def leader_powers(rows):
        return [spi_subset(WeightedVotingGame(weights=tuple(map(float, row)), int_weights=tuple(row))).exact[0]
                for row in rows]

    def test_grid_games_of_2_to_18_players(self, count_types):
        # every grid game has 2 * T near 2 * 10^6; the same games scaled by 16
        # are the same games in float64, and subset enumeration is the oracle
        rng = random.Random(79)
        for n in range(2, 19):
            rows = [make_game([rng.uniform(0.0, 1.0) for _ in range(n)]).int_weights for _ in range(2)]
            k = rng.randint(1, n - 1)  # two sides of 500,000 units: both tie at half
            rows.append(tuple(integer_parts(rng, GRID // 2, k) + integer_parts(rng, GRID // 2, n - k)))
            weights = np.array(rows, dtype=float)
            nums = power_index._pivot_numerators(weights).tolist()
            assert power_index._pivot_numerators(16 * weights).tolist() == nums
            assert count_types[-2:] == [np.float32, np.float64]
            assert [Fraction(v, math.factorial(n)) for v in nums] == self.leader_powers(rows)

    @pytest.mark.parametrize("twice_total, count_type", [(2**24 - 2, np.float32), (2**24, np.float64)])
    def test_batches_at_the_float32_bound(self, twice_total, count_type, count_types):
        # a contested row of total T (player 0 the smallest) sets the batch's
        # type; planted rows of the largest even total up to T tie at half
        rng = random.Random(twice_total)
        total = twice_total // 2
        half = total // 2
        for n in range(3, 15):
            rows = [sorted(integer_parts(rng, total, n))]
            for _ in range(2):
                k = rng.randint(1, n - 1)
                rows.append(integer_parts(rng, half, k) + integer_parts(rng, half, n - k))
            nums = power_index._pivot_numerators(np.array(rows, dtype=float)).tolist()
            assert count_types[-1] is count_type
            assert [Fraction(v, math.factorial(n)) for v in nums] == self.leader_powers(rows)

    def test_profiles_of_games_above_2_to_the_23(self, count_types):
        # directly built games whose int weights total above 2^23 count in
        # float64, every player against subset enumeration
        rng = random.Random(83)
        games = []
        for n in range(2, 13):
            for total in (2**23 + 1, 2**23 + 2, 10**9, 2**40):
                row = integer_parts(rng, total, n)
                if total % 2 == 0 and n > 2:
                    k = rng.randint(1, n - 1)
                    row = integer_parts(rng, total // 2, k) + integer_parts(rng, total // 2, n - k)
                games.append(WeightedVotingGame(weights=tuple(map(float, row)), int_weights=tuple(row)))
        batch = profile_numerators(games)
        assert set(count_types) == {np.float64}
        for game, nums in zip(games, batch):
            assert tuple(Fraction(v, math.factorial(game.n)) for v in nums) == spi_subset(game).exact


class TestAxioms:
    def test_efficiency_exact(self):
        rng = random.Random(7)
        for _ in range(100):
            profile = spi_dp(random_game(rng, n_max=8))
            assert sum(profile.exact) == 1

    def test_symmetry_for_duplicated_weights(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 8)
            weights = [rng.uniform(0, 1) for _ in range(n)]
            weights[rng.randrange(n)] = weights[0]  # force one duplicate pair
            profile = spi_dp(make_game(weights))
            for i in range(n):
                for j in range(n):
                    if weights[i] == weights[j]:
                        assert profile.exact[i] == profile.exact[j]

    def test_zero_weight_is_dummy(self):
        profile = spi_dp(make_game([0.4, 0.3, 0.0]))
        assert profile.exact[2] == 0

    def test_appended_dummy_leaves_others_unchanged(self):
        rng = random.Random(17)
        for _ in range(30):
            game = random_game(rng, n_max=8, allow_zero=False)
            extended = make_game(game.weights + (0.0,))
            base = spi_dp(game).exact
            ext = spi_dp(extended).exact
            assert ext[: game.n] == base
            assert ext[game.n] == 0

    def test_scale_invariance(self):
        rng = random.Random(19)
        for _ in range(60):
            game = random_game(rng, n_max=9, allow_zero=False)
            c = math.exp(rng.uniform(-4, 4))
            scaled = make_game([w * c for w in game.weights])
            assert spi_dp(scaled).exact == spi_dp(game).exact

    def test_monotone_in_weight(self):
        rng = random.Random(29)
        for _ in range(60):
            game = random_game(rng, n_max=9)
            profile = spi_dp(game).exact
            order = sorted(range(game.n), key=lambda i: game.int_weights[i])
            for a, b in zip(order, order[1:]):
                assert profile[a] <= profile[b]

    def test_full_power_iff_dictator(self):
        rng = random.Random(31)
        dictators = followers = 0
        for _ in range(120):
            n = rng.randint(2, 8)
            weights = [rng.uniform(0, 1) for _ in range(n)]
            if rng.random() < 0.5:
                weights[0] = sum(weights[1:]) * rng.uniform(1.01, 2.0)
            game = make_game(weights)
            profile = spi_dp(game)
            is_dictator = game.int_weights[0] > sum(game.int_weights[1:])
            dictators += is_dictator
            followers += not is_dictator
            assert (profile.exact[0] == 1) == is_dictator
        assert dictators >= 20 and followers >= 20


from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from plsim import drawing
from plsim.drawing import (
    PrizeSchedule,
    best_payout,
    bracket_bounds,
    draw,
    expected_interest,
    expected_payout,
    payouts,
    winner_blocks,
    worst_payout,
)
from plsim.pareto import ParetoParams
from plsim.population import AccountPopulation, generate

POP4 = AccountPopulation.from_balances([100.0, 200.0, 300.0, 400.0])
TWO_AT_100 = PrizeSchedule(2, 1.0)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrizeSchedule(0, 1.0)
        with pytest.raises(ValueError):
            PrizeSchedule(5, 0.0)

    @pytest.mark.parametrize("multiple", [np.inf, np.nan])
    def test_rejects_non_finite_multiple(self, multiple):
        with pytest.raises(ValueError, match="finite"):
            PrizeSchedule(3, multiple)

    def test_label(self):
        assert PrizeSchedule(1000, 1.0).label() == "1000x100%"
        assert PrizeSchedule(10, 99.0).label() == "10x9900%"


class TestExpectedPayout:
    def test_direct_formula(self):
        pop = AccountPopulation.from_balances(np.full(10, 3900.0))
        assert expected_payout(pop, PrizeSchedule(5, 1.0)) == pytest.approx(19_500.0)
        pop250 = AccountPopulation.from_balances(np.full(4, 250.0))
        assert expected_payout(pop250, PrizeSchedule(1, 2.0)) == pytest.approx(500.0)

    def test_matches_enumeration(self):
        # brute force over all C(4,2)=6 equally likely winner sets
        payouts = [POP4.balances[list(s)].sum() for s in combinations(range(4), 2)]
        assert expected_payout(POP4, TWO_AT_100) == pytest.approx(np.mean(payouts))
        assert expected_payout(POP4, TWO_AT_100) == pytest.approx(500.0)

    def test_capped_mean_prices_the_same_schedule(self):
        # balances 100, 200, 250, 250: mean 200
        assert expected_payout(POP4, TWO_AT_100, 250.0) == 400.0
        assert expected_payout(POP4, TWO_AT_100, np.inf) == 500.0


class TestExpectedInterest:
    def test_paper_setups(self):
        assert expected_interest([PrizeSchedule(1000, 1.0)], 100_000) == 0.01
        assert expected_interest([PrizeSchedule(100, 9.0)], 100_000) == 0.009
        assert expected_interest([], 100_000) == 0.0

    def test_needs_accounts(self):
        with pytest.raises(ValueError):
            expected_interest([PrizeSchedule(1, 1.0)], 0)


class TestBracketBounds:
    def test_even_split(self):
        np.testing.assert_array_equal(bracket_bounds(4, 2), [0, 2, 4])

    def test_remainder_goes_to_first_brackets(self):
        np.testing.assert_array_equal(bracket_bounds(10, 3), [0, 4, 7, 10])

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            bracket_bounds(3, 4)
        with pytest.raises(ValueError):
            bracket_bounds(3, 0)


class TestDrawRandom:
    def test_rejects_oversized_schedule(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw(POP4, PrizeSchedule(5, 1.0), "random", rng)

    def test_all_accounts_win_when_count_is_population(self):
        rng = np.random.default_rng(0)
        out = draw(POP4, PrizeSchedule(4, 2.0), "random", rng)
        assert out.payout == pytest.approx(2.0 * 1000.0)
        assert sorted(out.winners.tolist()) == [0, 1, 2, 3]

    def test_outcome_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            out = draw(POP4, TWO_AT_100, "random", rng)
            assert len(set(out.winners.tolist())) == 2
            assert out.payout == pytest.approx(POP4.balances[out.winners].sum())

    def test_subsets_equally_likely(self):
        # chi-square over the 6 possible winner sets at 60k draws
        index = {frozenset(s): i for i, s in enumerate(combinations(range(4), 2))}
        rng = np.random.default_rng(11)
        counts = np.zeros(6)
        per_account = np.zeros(4)
        draws = 60_000
        for _ in range(draws):
            out = draw(POP4, TWO_AT_100, "random", rng)
            counts[index[frozenset(out.winners.tolist())]] += 1
            per_account[out.winners] += 1
        assert stats.chisquare(counts).pvalue > 0.001
        # each account wins with probability count/population = 1/2
        np.testing.assert_allclose(per_account / draws, 0.5, atol=0.011)


class TestDrawBracketed:
    def test_enumerated_outcomes(self):
        # brackets {100,200} and {300,400}: payouts 400/500/500/600 only
        rng = np.random.default_rng(13)
        seen = set()
        for _ in range(500):
            out = draw(POP4, TWO_AT_100, "bracketed", rng)
            seen.add(out.payout)
            assert out.payout in (400.0, 500.0, 600.0)
        assert seen == {400.0, 500.0, 600.0}

    def test_combos_equally_likely(self):
        rng = np.random.default_rng(13)
        counts = np.zeros((2, 2))
        per_account = np.zeros(4)
        draws = 40_000
        for _ in range(draws):
            out = draw(POP4, TWO_AT_100, "bracketed", rng)
            counts[out.winners.min(), out.winners.max() - 2] += 1
            per_account[out.winners] += 1
        assert stats.chisquare(counts.ravel()).pvalue > 0.001
        np.testing.assert_allclose(per_account / draws, 0.5, atol=0.013)

    def test_single_prize_is_uniform_over_population(self):
        # one bracket covers everything, matching the random mechanism
        rng = np.random.default_rng(17)
        counts = np.zeros(4)
        for _ in range(40_000):
            out = draw(POP4, PrizeSchedule(1, 1.0), "bracketed", rng)
            counts[out.winners[0]] += 1
        assert stats.chisquare(counts).pvalue > 0.001

    def test_rejects_oversized_schedule(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw(POP4, PrizeSchedule(9, 1.0), "bracketed", rng)


class TestWorstBest:
    def test_four_account_values(self):
        assert worst_payout(POP4, TWO_AT_100, "random") == pytest.approx(700.0)
        assert worst_payout(POP4, TWO_AT_100, "bracketed") == pytest.approx(600.0)
        assert best_payout(POP4, TWO_AT_100, "random") == pytest.approx(300.0)
        assert best_payout(POP4, TWO_AT_100, "bracketed") == pytest.approx(400.0)

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            worst_payout(POP4, TWO_AT_100, "sorted")

    def test_capped_worst_truncates_the_same_winners(self):
        assert worst_payout(POP4, TWO_AT_100, "random", 350.0) == 650.0
        assert worst_payout(POP4, TWO_AT_100, "bracketed", 350.0) == 550.0
        assert worst_payout(POP4, TWO_AT_100, "random", 50.0) == 100.0
        assert worst_payout(POP4, TWO_AT_100, "random", np.inf) == 700.0

    def test_bracketing_tightens_bounds_everywhere(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 200))
            pop = generate(ParetoParams(1.04, 150.0), n, rng)
            sched = PrizeSchedule(int(rng.integers(1, n + 1)), float(rng.uniform(0.1, 10)))
            assert worst_payout(pop, sched, "bracketed") <= worst_payout(pop, sched, "random")
            assert best_payout(pop, sched, "bracketed") >= best_payout(pop, sched, "random")

    def test_payouts_stay_within_bounds(self):
        pop = generate(ParetoParams(1.12, 250.0), 500, 31)
        sched = PrizeSchedule(25, 3.0)
        rng = np.random.default_rng(37)
        for mech in ("random", "bracketed"):
            lo, hi = best_payout(pop, sched, mech), worst_payout(pop, sched, mech)
            for _ in range(300):
                assert lo <= draw(pop, sched, mech, rng).payout <= hi

    def test_sorted_values_leave_the_account_order_uncomputed(self, monkeypatch):
        # only draw maps a sorted position back to an account; every other
        # reader of the sort needs the values alone, which np.sort gives
        # without the index sort
        def argsort(*args, **kwargs):
            raise AssertionError("the account order was computed")

        monkeypatch.setattr(np, "argsort", argsort)
        pop = generate(ParetoParams(1.04, 150.0), 2000, 3)
        sched = PrizeSchedule(10, 2.0)
        assert np.all(np.diff(pop.sorted_balances()) >= 0.0)
        for mech in ("random", "bracketed"):
            worst_payout(pop, sched, mech)
            worst_payout(pop, sched, mech, 1000.0)
            best_payout(pop, sched, mech)
        payouts(pop, sched, "bracketed", np.random.default_rng(5), 300, (1000.0,))


class TestBatchHelpers:
    def test_random_payouts_match_single_draws(self):
        pop = generate(ParetoParams(1.04, 150.0), 300, 41)
        sched = PrizeSchedule(7, 2.0)
        batch = payouts(pop, sched, "random", np.random.default_rng(99), 50)[0]
        rng = np.random.default_rng(99)
        singles = np.array([draw(pop, sched, "random", rng).payout for _ in range(50)])
        np.testing.assert_allclose(batch, singles)

    def test_bracketed_payouts_match_single_draws(self):
        pop = generate(ParetoParams(1.04, 150.0), 300, 43)
        sched = PrizeSchedule(6, 1.0)
        batch = payouts(pop, sched, "bracketed", np.random.default_rng(7), 40)[0]
        rng = np.random.default_rng(7)
        singles = np.array([draw(pop, sched, "bracketed", rng).payout for _ in range(40)])
        np.testing.assert_allclose(batch, singles)

    def test_winner_matrix_consistent_with_payouts(self):
        pop = generate(ParetoParams(1.04, 150.0), 300, 47)
        sched = PrizeSchedule(9, 4.0)
        winners = winner_matrix(pop, sched, np.random.default_rng(31), 60)
        replayed = pop.balances[winners].sum(axis=1) * sched.multiple
        direct = payouts(pop, sched, "random", np.random.default_rng(31), 60)[0]
        np.testing.assert_allclose(replayed, direct)
        # rows are distinct winner sets
        assert all(len(set(row.tolist())) == sched.count for row in winners)

    def test_payout_linear_in_multiple(self):
        pop = generate(ParetoParams(1.04, 150.0), 200, 53)
        base = payouts(pop, PrizeSchedule(5, 1.0), "random", np.random.default_rng(3), 30)[0]
        doubled = payouts(pop, PrizeSchedule(5, 2.0), "random", np.random.default_rng(3), 30)[0]
        np.testing.assert_array_equal(doubled, 2.0 * base)


def winner_matrix(pop, sched, rng, draws):
    """Random-mechanism winners of ``draws`` drawings, one row per drawing."""
    blocks = winner_blocks(pop, sched, "random", rng, draws)
    return np.concatenate([block for _, block in blocks])


def batched_rows(rng, n, k, rows):
    heights = [min(drawing._BATCH_ROWS, rows - lo) for lo in range(0, rows, drawing._BATCH_ROWS)]
    return np.concatenate(list(drawing._random_rows(rng, n, k, heights)))


def choice_loop(rng, n, k, rows):
    """The per-drawing reference the batched random kernel must reproduce."""
    out = np.empty((rows, k), dtype=np.int64)
    for row in out:
        row[:] = rng.choice(n, size=k, replace=False, shuffle=False)
    return out


class CountingGenerator:
    """A Generator's ``integers`` and ``choice``, counting ``choice`` calls."""

    def __init__(self, rng):
        self.rng, self.choice_calls = rng, 0

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.choice_calls += 1
        return self.rng.choice(*args, **kwargs)


class TestBatchedKernelsExact:
    ROWS = 2 * drawing._BATCH_ROWS + 3
    CROSSOVER = drawing._REPLAY_MAX_K

    @pytest.mark.parametrize("n, k", [
        (20, 19), (20, 20), (1, 1), (40, 10), (50, 7), (2_000, 500), (10_000, 500),
        (10_001, 500),
        (100_000, CROSSOVER - 1), (100_000, CROSSOVER), (100_000, CROSSOVER + 1),
        (2**24, 10),  # large range: Lemire rejections in most batches
        (100_000, 511), (100_000, 512), (100_000, 513),  # the key shift widens
        (100_000, 1000),  # the paper's largest schedule
        (2**22, 1000), (2**22 + 1, 1000),  # the last uint32 key; the calls
        (2**23, 1000),  # half of its keys would overflow uint32
        (2**24, 255), (2**24, 256),  # the same at the largest replayed population
    ])
    def test_random_rows_equal_choice_loop(self, n, k):
        for seed in (0, 1):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = batched_rows(rng, n, k, self.ROWS)
            assert np.array_equal(rows, choice_loop(ref, n, k, self.ROWS))
            # both leave the generator in the same state
            assert rng.integers(2**63) == ref.integers(2**63)

    def test_outside_floyd_regime_falls_back(self):
        # numpy tail-shuffles when n > 10_000 and k > n // 20
        n, k = 10_001, 501
        assert k <= drawing._REPLAY_MAX_K
        rows = batched_rows(np.random.default_rng(3), n, k, 5)
        assert np.array_equal(rows, choice_loop(np.random.default_rng(3), n, k, 5))

    @pytest.mark.parametrize("n, k, replayed", [
        (100_000, 10, True), (100_000, 100, True), (100_000, 500, True),
        (100_000, 1000, True), (100_000, CROSSOVER + 1, False),
        (2**22, 1000, True), (2**22 + 1, 1000, False),
        (2**24, 255, True), (2**24, 256, False),  # keys that do not fit uint32
    ])
    def test_replay_serves_prize_counts_up_to_its_crossover(self, n, k, replayed):
        rng = CountingGenerator(np.random.default_rng(0))
        batched_rows(rng, n, k, 3)
        assert (rng.choice_calls == 0) == replayed

    @pytest.mark.parametrize("k", [10, 513, CROSSOVER + 1])
    def test_random_payouts_equal_per_drawing_sums(self, k):
        pop = generate(ParetoParams(1.04, 150.0), 20_000, 59)
        sched = PrizeSchedule(k, 3.0)
        rng = np.random.default_rng(61)
        ref = np.array([pop.balances[row].sum()
                        for row in choice_loop(rng, pop.count, k, self.ROWS)])
        got = payouts(pop, sched, "random", np.random.default_rng(61), self.ROWS)[0]
        assert np.array_equal(got, ref * sched.multiple)
        matrix = winner_matrix(pop, sched, np.random.default_rng(61), self.ROWS)
        assert np.array_equal(matrix, choice_loop(np.random.default_rng(61), pop.count,
                                                  k, self.ROWS))

    @pytest.mark.parametrize("n, k", [(300, 6), (301, 6), (1000, 1000)])
    def test_bracketed_scalar_bound_equals_array_bound(self, n, k):
        pop = generate(ParetoParams(1.12, 250.0), n, 67)
        sched = PrizeSchedule(k, 2.0)
        bounds = bracket_bounds(n, k)
        offsets = np.random.default_rng(71).integers(0, np.diff(bounds), size=(self.ROWS, k))
        ref = pop.sorted_balances()[bounds[:-1] + offsets].sum(axis=1) * sched.multiple
        got = payouts(pop, sched, "bracketed", np.random.default_rng(71), self.ROWS)[0]
        assert np.array_equal(got, ref)

import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from plsim import drawing
from plsim.drawing import (
    MECHANISMS,
    PrizeSchedule,
    bracket_bounds,
    cap_label,
    expected_interest,
    expected_payout,
    payout_bounds,
    payouts,
    winner_blocks,
)
from plsim.experiments import DEFAULT_CAPS
from plsim.pareto import ParetoParams, quantile
from plsim.population import AccountPopulation, generate

POP4 = AccountPopulation([100.0, 200.0, 300.0, 400.0])
TWO_AT_100 = PrizeSchedule(2, 1.0)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrizeSchedule(0, 1.0)
        with pytest.raises(ValueError):
            PrizeSchedule(5, 0.0)

    @pytest.mark.parametrize("count", [True, np.True_, 2.5, 2.0, "2"],
                             ids=["bool", "numpy-bool", "fraction", "float", "str"])
    def test_rejects_a_count_that_is_not_an_integer(self, count):
        # True would draw one prize and label it "Truex100%"
        with pytest.raises(ValueError, match="^prize count must be an integer, got "):
            PrizeSchedule(count, 1.0)

    @pytest.mark.parametrize("multiple", [True, np.True_, "2", None],
                             ids=["bool", "numpy-bool", "str", "None"])
    def test_rejects_a_multiple_that_is_not_a_real_number(self, multiple):
        # True would be labelled "3x100%" and dumped as true
        with pytest.raises(ValueError, match="^prize multiple must be a real number, got "):
            PrizeSchedule(3, multiple)

    @pytest.mark.parametrize("multiple", [np.inf, np.nan])
    def test_rejects_non_finite_multiple(self, multiple):
        with pytest.raises(ValueError, match="finite"):
            PrizeSchedule(3, multiple)

    def test_label(self):
        assert PrizeSchedule(1000, 1.0).label() == "1000x100%"
        assert PrizeSchedule(10, 99.0).label() == "10x9900%"
        assert PrizeSchedule(np.int64(2), 1.0).label() == "2x100%"


class TestExpectedPayout:
    def test_direct_formula(self):
        pop = AccountPopulation(np.full(10, 3900.0))
        assert expected_payout(pop, PrizeSchedule(5, 1.0)) == pytest.approx(19_500.0)
        pop250 = AccountPopulation(np.full(4, 250.0))
        assert expected_payout(pop250, PrizeSchedule(1, 2.0)) == pytest.approx(500.0)

    def test_matches_enumeration(self):
        # brute force over all C(4,2)=6 equally likely winner sets
        payouts = [POP4.balances[list(s)].sum() for s in combinations(range(4), 2)]
        assert expected_payout(POP4, TWO_AT_100) == pytest.approx(np.mean(payouts))
        assert expected_payout(POP4, TWO_AT_100) == pytest.approx(500.0)

    def test_capped_mean_prices_the_same_schedule(self):
        # balances 100, 200, 250, 250: mean 200
        assert expected_payout(POP4, TWO_AT_100, (250.0,))[1] == 400.0
        assert expected_payout(POP4, TWO_AT_100, ())[0] == 500.0

    @pytest.mark.parametrize("cap", [np.nan, 0.0, -250.0])
    def test_refuses_a_cap_that_is_nan_or_not_positive(self, cap):
        with pytest.raises(ValueError, match="caps must be finite and positive"):
            expected_payout(POP4, TWO_AT_100, (cap,))


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

    @pytest.mark.parametrize("k", [4, 0])
    def test_rejects_bad_counts(self, k):
        with pytest.raises(ValueError, match=f"^cannot split 3 accounts into {k} brackets$"):
            bracket_bounds(3, k)


def successive_draws(sched, mechanism, seed, draws):
    """The winners of ``draws`` successive drawings from POP4 with a
    generator seeded ``seed``, one row each: from one ``winner_blocks`` call,
    whose rows are those of successive one-drawing calls, as the first 200
    are checked to be. POP4's balances ascend, so a bracketed winner's sorted
    position is its account index."""
    rng = np.random.default_rng(seed)
    winners = np.concatenate([block for _, block in
                              winner_blocks(POP4, sched, mechanism, rng, draws)])
    rng = np.random.default_rng(seed)
    np.testing.assert_array_equal(
        [next(winner_blocks(POP4, sched, mechanism, rng, 1))[1][0] for _ in range(200)],
        winners[:200])
    return winners


class TestDrawRandom:
    def test_rejects_oversized_schedule(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            payouts(POP4, PrizeSchedule(5, 1.0), "random", rng, 1)

    def test_all_accounts_win_when_count_is_population(self):
        sched = PrizeSchedule(4, 2.0)
        winners = winner_matrix(POP4, sched, np.random.default_rng(0), 1)
        assert sorted(winners[0].tolist()) == [0, 1, 2, 3]
        payout = payouts(POP4, sched, "random", np.random.default_rng(0), 1)[0, 0]
        assert payout == pytest.approx(2.0 * 1000.0)

    def test_subsets_equally_likely(self):
        # chi-square over the 6 possible winner sets at 60k draws; a set's
        # bit mask indexes its place among them
        index = np.zeros(16, dtype=int)
        for i, s in enumerate(combinations(range(4), 2)):
            index[sum(1 << a for a in s)] = i
        winners = successive_draws(TWO_AT_100, "random", 11, 60_000)
        counts = np.bincount(index[(1 << winners).sum(axis=1)], minlength=6)
        per_account = np.bincount(winners.ravel(), minlength=4)
        assert stats.chisquare(counts).pvalue > 0.001
        # each account wins with probability count/population = 1/2
        np.testing.assert_allclose(per_account / len(winners), 0.5, atol=0.011)


class TestDrawBracketed:
    def test_enumerated_outcomes(self):
        # brackets {100,200} and {300,400}: payouts 400/500/500/600 only
        got = payouts(POP4, TWO_AT_100, "bracketed", np.random.default_rng(13), 500)[0]
        assert set(got.tolist()) == {400.0, 500.0, 600.0}

    def test_combos_equally_likely(self):
        winners = successive_draws(TWO_AT_100, "bracketed", 13, 40_000)
        # (lower bracket's winner, upper bracket's winner - 2), row-major
        combos = 2 * winners.min(axis=1) + winners.max(axis=1) - 2
        counts = np.bincount(combos, minlength=4)
        per_account = np.bincount(winners.ravel(), minlength=4)
        assert stats.chisquare(counts).pvalue > 0.001
        np.testing.assert_allclose(per_account / len(winners), 0.5, atol=0.013)

    def test_single_prize_is_uniform_over_population(self):
        # one bracket covers everything, matching the random mechanism
        winners = successive_draws(PrizeSchedule(1, 1.0), "bracketed", 17, 40_000)
        assert stats.chisquare(np.bincount(winners[:, 0], minlength=4)).pvalue > 0.001

    def test_rejects_oversized_schedule(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            payouts(POP4, PrizeSchedule(9, 1.0), "bracketed", rng, 1)


class TestPayoutBounds:
    # random: the two smallest accounts, 100 and 200, and the two largest,
    # 300 and 400; bracketed: each bracket's smallest, 100 and 300, and
    # largest, 200 and 400; each cap truncates the same winners' balances
    @pytest.mark.parametrize("mechanism, bounds", [
        ("random", [[300.0, 300.0, 250.0], [700.0, 650.0, 300.0]]),
        ("bracketed", [[400.0, 400.0, 250.0], [600.0, 550.0, 300.0]]),
    ])
    def test_four_account_values(self, mechanism, bounds):
        got = payout_bounds(POP4, TWO_AT_100, mechanism, (350.0, 150.0))
        assert got.tolist() == bounds
        assert payout_bounds(POP4, TWO_AT_100, mechanism).tolist() == [[b[0]] for b in bounds]

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError, match="unknown mechanism 'sorted'"):
            payout_bounds(POP4, TWO_AT_100, "sorted")

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("cap", [np.nan, 0.0, -350.0])
    def test_refuses_a_cap_that_is_nan_or_not_positive(self, mechanism, cap):
        with pytest.raises(ValueError, match="caps must be finite and positive"):
            payout_bounds(POP4, TWO_AT_100, mechanism, (cap,))

    def test_sorted_values_leave_the_account_order_uncomputed(self, monkeypatch):
        # every reader of the sort needs the values alone, which np.sort
        # gives without the index sort
        def argsort(*args, **kwargs):
            raise AssertionError("the account order was computed")

        monkeypatch.setattr(np, "argsort", argsort)
        pop = generate(ParetoParams(1.04, 150.0), 2000, 3)
        sched = PrizeSchedule(10, 2.0)
        assert np.all(np.diff(pop.sorted_balances) >= 0.0)
        for mech in ("random", "bracketed"):
            payout_bounds(pop, sched, mech, (1000.0,))
        payouts(pop, sched, "bracketed", np.random.default_rng(5), 300, (1000.0,))


class TestBatchHelpers:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_payouts_refuse_ascending_caps(self, mechanism):
        # each cap truncates the previous cap's balances in place, so 1000
        # after 150 would price the 150-capped sums again
        with pytest.raises(ValueError, match="caps must be strictly descending"):
            payouts(POP4, TWO_AT_100, mechanism, np.random.default_rng(0), 3,
                    (150.0, 1000.0))

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_priced_calls_refuse_caps_of_one_label(self, mechanism):
        # strictly descending, but both name the cap_50000 columns and JSON key
        caps = (250_000.0, 50_000.01, 50_000.0)
        message = r"^caps 50000\.01 and 50000\.0 share the label '50000'$"
        with pytest.raises(ValueError, match=message):
            payouts(POP4, TWO_AT_100, mechanism, np.random.default_rng(0), 3, caps)
        with pytest.raises(ValueError, match=message):
            payout_bounds(POP4, TWO_AT_100, mechanism, caps)
        with pytest.raises(ValueError, match=message):
            expected_payout(POP4, TWO_AT_100, caps)

    def test_cap_label(self):
        assert [cap_label(c) for c in (250_000.0, 50_000.01, 2.5, 1234567.0)] == [
            "250000", "50000", "2.5", "1.23457e+06"]

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("cap", [np.nan, 0.0, -150.0, np.inf])
    def test_payouts_refuse_caps_not_finite_and_positive(self, mechanism, cap):
        with pytest.raises(ValueError, match="caps must be finite and positive"):
            payouts(POP4, TWO_AT_100, mechanism, np.random.default_rng(0), 3,
                    (1000.0, cap))

    def test_payout_linear_in_multiple(self):
        pop = generate(ParetoParams(1.04, 150.0), 200, 53)
        base = payouts(pop, PrizeSchedule(5, 1.0), "random", np.random.default_rng(3), 30)[0]
        doubled = payouts(pop, PrizeSchedule(5, 2.0), "random", np.random.default_rng(3), 30)[0]
        np.testing.assert_array_equal(doubled, 2.0 * base)


def winner_matrix(pop, sched, rng, draws):
    """Random-mechanism winners of ``draws`` drawings, one row per drawing."""
    blocks = winner_blocks(pop, sched, "random", rng, draws)
    return np.concatenate([block for _, block in blocks])


# the block height the Exact tests split their drawings by in place of the
# engine's own, so that their ROWS drawings span four full blocks and a short
# one of 3 at every prize count
HEIGHT = 64


def heights(rows):
    """Rows of each block of ``rows`` drawings split by ``HEIGHT``."""
    return [min(HEIGHT, rows - lo) for lo in range(0, rows, HEIGHT)]


def batched_rows(rng, n, k, rows):
    kernel = drawing._random_rows(rng, n, k)
    return np.concatenate([kernel(m) for m in heights(rows)])


def choice_loop(rng, n, k, rows):
    """The per-drawing numpy call the batched random kernel reproduces where
    numpy runs Floyd's algorithm."""
    out = np.empty((rows, k), dtype=np.int64)
    for row in out:
        row[:] = rng.choice(n, size=k, replace=False, shuffle=False)
    return out


def numpy_runs_floyd(n, k):
    """Where ``Generator.choice(n, k, replace=False)`` uses Floyd's algorithm
    and not a partial shuffle."""
    return n <= 10_000 or k <= n // 20


def floyd_loop(rng, n, k, rows):
    """Floyd's algorithm one drawing and one slot at a time: slot i draws
    from [0, n - k + i] by Lemire's multiply-and-reject on the next value of
    the 32-bit stream, and takes n - k + i when an earlier slot holds its
    draw."""
    # a value is rejected with probability below n / 2**32, so twice the
    # slots' count of values is ample
    raw = iter(rng.integers(0, 2**32, size=2 * rows * k, dtype=np.uint32).tolist())
    out = np.empty((rows, k), dtype=np.int64)
    for row in out:
        held = set()
        for i in range(k):
            size = n - k + i + 1
            product = next(raw) * size
            while product % 2**32 < 2**32 % size:
                product = next(raw) * size
            j = product >> 32
            if j in held:
                j = n - k + i
            held.add(j)
            row[i] = j
    return out


class TestBatchedKernelsExact:
    ROWS = 4 * HEIGHT + 3

    @pytest.mark.parametrize("n, k", [
        (20, 19), (20, 20), (1, 1), (100, 99), (1000, 1000), (5_000, 2_000),
        (10_000, 9_999),  # dense drawings, n < 4k
        (40, 10), (50, 7), (2_000, 500), (10_000, 500),
        (10_001, 500),  # numpy's last Floyd prize count at this population
        (100_000, 1023), (100_000, 1024), (100_000, 1025), (100_000, 2048),
        (2**24, 10),  # large range: Lemire rejections in most batches
        (100_000, 511), (100_000, 512), (100_000, 513),  # the key shift widens
        (100_000, 1000),  # the paper's largest schedule
        (2**22, 1000), (2**22 + 1, 1000),  # the last population with uint32 keys
        (2**23, 1000),  # half of its keys would overflow uint32
        (2**24, 255), (2**24, 256), (2**25, 100), (2**26, 1000),
        (2**32, 2),  # the largest population: slot 1 takes the raw value as is
    ])
    def test_random_rows_equal_choice_loop(self, n, k):
        assert numpy_runs_floyd(n, k)
        for seed in (0, 1):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = batched_rows(rng, n, k, self.ROWS)
            assert np.array_equal(rows, choice_loop(ref, n, k, self.ROWS))
            # both leave the generator in the same state, except where n == k:
            # numpy reads no value for slot 0's one-value range, Lemire one
            if n > k:
                assert rng.integers(2**63) == ref.integers(2**63)

    @pytest.mark.parametrize("n, k", [(20, 19), (50, 7), (10_000, 500), (100_000, 100)])
    def test_floyd_loop_equals_choice_loop(self, n, k):
        # the reference agrees with numpy wherever numpy runs Floyd
        assert numpy_runs_floyd(n, k)
        assert np.array_equal(floyd_loop(np.random.default_rng(2), n, k, self.ROWS),
                              choice_loop(np.random.default_rng(2), n, k, self.ROWS))

    @pytest.mark.parametrize("n, k", [(10_001, 501), (20_000, 1500)])
    def test_random_rows_equal_floyd_loop_where_numpy_shuffles(self, n, k):
        assert not numpy_runs_floyd(n, k)
        rows = batched_rows(np.random.default_rng(3), n, k, self.ROWS)
        assert np.array_equal(rows, floyd_loop(np.random.default_rng(3), n, k, self.ROWS))

    def test_refuses_populations_beyond_the_32_bit_stream(self):
        # Lemire's window 2**32 // n would be 0; a population of that count,
        # a stand-in here without balances, is refused before any is read
        huge = SimpleNamespace(count=2**32 + 1)
        for mechanism in MECHANISMS:
            with pytest.raises(ValueError, match="at most 2\\*\\*32"):
                payouts(huge, PrizeSchedule(1, 1.0), mechanism, np.random.default_rng(0), 1)

    @pytest.mark.parametrize("k", [10, 513, 1025])
    def test_random_payouts_equal_per_drawing_sums(self, k):
        pop = generate(ParetoParams(1.04, 150.0), 20_000, 59)
        sched = PrizeSchedule(k, 3.0)
        # numpy shuffles at k = 1025 > 20_000 // 20, so the reference is Floyd's
        loop = choice_loop if numpy_runs_floyd(pop.count, k) else floyd_loop
        ref = np.array([pop.balances[row].sum()
                        for row in loop(np.random.default_rng(61), pop.count, k, self.ROWS)])
        got = payouts(pop, sched, "random", np.random.default_rng(61), self.ROWS)[0]
        assert np.array_equal(got, ref * sched.multiple)
        matrix = winner_matrix(pop, sched, np.random.default_rng(61), self.ROWS)
        assert np.array_equal(matrix, loop(np.random.default_rng(61), pop.count,
                                           k, self.ROWS))

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("k", [1000, 10])
    def test_blocks_at_the_engine_budget_equal_numpy_calls(self, mechanism, k):
        # the helpers above use their own height; here the engine sizes its
        # blocks, two full ones of _BLOCK_WINNERS // k drawings and one of 3
        pop = generate(ParetoParams(1.04, 150.0), 20_000, 59)
        sched = PrizeSchedule(k, 3.0)
        height = drawing._BLOCK_WINNERS // k
        draws = 2 * height + 3
        rng, ref = np.random.default_rng(61), np.random.default_rng(61)
        blocks = list(winner_blocks(pop, sched, mechanism, rng, draws))
        assert [len(block) for _, block in blocks] == [height, height, 3]
        if mechanism == "random":
            expected, won_from = choice_loop(ref, pop.count, k, draws), pop.balances
        else:
            bounds = bracket_bounds(pop.count, k)
            expected = bounds[:-1] + ref.integers(0, np.diff(bounds), size=(draws, k))
            won_from = pop.sorted_balances
        assert np.array_equal(np.concatenate([block for _, block in blocks]), expected)
        assert state(rng) == state(ref)
        got = payouts(pop, sched, mechanism, np.random.default_rng(61), draws)[0]
        assert np.array_equal(got, won_from[expected].sum(axis=1) * sched.multiple)

    @pytest.mark.parametrize("n, k", [(300, 6), (301, 6), (1000, 1000)])
    def test_bracketed_scalar_bound_equals_array_bound(self, n, k):
        pop = generate(ParetoParams(1.12, 250.0), n, 67)
        sched = PrizeSchedule(k, 2.0)
        bounds = bracket_bounds(n, k)
        offsets = np.random.default_rng(71).integers(0, np.diff(bounds), size=(self.ROWS, k))
        ref = pop.sorted_balances[bounds[:-1] + offsets].sum(axis=1) * sched.multiple
        got = payouts(pop, sched, "bracketed", np.random.default_rng(71), self.ROWS)[0]
        assert np.array_equal(got, ref)


def generator(seed, buffered):
    """A Generator on ``PCG64(seed)`` after ``buffered`` uint32 draws; after
    one, PCG64 holds the high half of its first output."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.integers(0, 2**32, size=buffered, dtype=np.uint32)
    return rng


def state(rng):
    """The whole ``bit_generator.state``, arrays as lists so that it compares."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


class TestRawStreamExact:
    """The engine reads every random number from PCG64's ``random_raw``: the
    population's uniforms from whole outputs, and both kernels' bounded
    integers from their halves, keeping the buffered half (``has_uint32``,
    ``uinteger``) by hand. Values and the whole generator state must equal
    the numpy calls they stand for: ``random``, successive ``choice`` calls
    and successive ``integers`` calls."""

    ROWS = 4 * HEIGHT + 3

    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize("count", [1, 2, 3, 1000, 1001])
    def test_raw32_equals_integers(self, buffered, count):
        # a range of 2**32 never rejects and its draw is the raw value as is,
        # so one block of `count` rows is the kernel's read of the 32-bit
        # stream; a window of 64 splits the longer reads
        rng, ref = (generator(5, buffered) for _ in range(2))
        got = drawing._lemire(rng, np.array([2**32], dtype=np.uint64), 64)(count)
        assert got.shape == (count, 1)
        assert np.array_equal(got[:, 0],
                              ref.integers(0, 2**32, size=count, dtype=np.uint32))
        assert state(rng) == state(ref)

    @pytest.mark.parametrize("buffered", [0, 1])
    # k = 7 makes the last block's m * k odd, so a half is left over; with
    # k = 1 every pair of sorted keys spans two rows
    @pytest.mark.parametrize("n, k", [(100_000, 100), (100_000, 7), (10_000, 500), (100, 1)])
    def test_blocks_and_state_equal_choice_calls(self, buffered, n, k):
        rng, ref = (generator(7, buffered) for _ in range(2))
        assert np.array_equal(batched_rows(rng, n, k, self.ROWS),
                              choice_loop(ref, n, k, self.ROWS))
        assert state(rng) == state(ref)

    @pytest.mark.parametrize("buffered", [0, 1])
    def test_rejections_read_the_stream_again(self, monkeypatch, buffered):
        # at n = 2**22 about one raw value in a thousand is rejected, so each
        # block redraws its rejected slots from a second read
        reads = []

        def counted(bitgen, count):
            reads.append(count)
            return halves(bitgen, count)

        halves = drawing._halves
        monkeypatch.setattr(drawing, "_halves", counted)
        rng, ref = (generator(11, buffered) for _ in range(2))
        n, k = 2**22, 1000
        assert np.array_equal(batched_rows(rng, n, k, self.ROWS),
                              choice_loop(ref, n, k, self.ROWS))
        assert state(rng) == state(ref)
        assert len(reads) > len(range(0, self.ROWS, HEIGHT))

    @pytest.mark.parametrize("buffered", [0, 1])
    def test_windows_restart_mid_row_after_rejections(self, buffered):
        # seven unequal sizes just above 2**31, where about half of all
        # values are rejected: a window of 21 values is three whole rows,
        # nearly every window ends at a rejection in mid-row, and the next
        # window runs whole rows from that slot, or the rest of the read or
        # of the block where less than a row is left
        sizes = 2**31 + np.arange(1, 8, dtype=np.int64)
        rng, ref = (generator(29, buffered) for _ in range(2))
        draw = drawing._lemire(rng, sizes, 21)
        for _ in range(4):
            assert np.array_equal(draw(5), ref.integers(0, sizes, size=(5, 7)))
            assert state(rng) == state(ref)

    @pytest.mark.parametrize("buffered", [0, 1])
    def test_single_draw_equals_one_choice_call(self, buffered):
        pop = generate(ParetoParams(1.04, 150.0), 20_000, 73)
        rng, ref = (generator(13, buffered) for _ in range(2))
        winners = winner_matrix(pop, PrizeSchedule(7, 1.0), rng, 1)
        assert np.array_equal(winners[0],
                              ref.choice(pop.count, 7, replace=False, shuffle=False))
        assert state(rng) == state(ref)

    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize("n", [1, 1001, 100_000])
    def test_population_equals_quantiles_of_random(self, buffered, n):
        params = ParetoParams(1.04, 150.0)
        rng, ref = (generator(17, buffered) for _ in range(2))
        pop = generate(params, n, rng)
        assert pop.balances.tobytes() == quantile(params, ref.random(n)).tobytes()
        assert state(rng) == state(ref)

    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize("n, k", [
        (300, 6), (2_000, 500), (100, 1), (2, 1),  # equal brackets
        (301, 6), (10, 3), (100_001, 1000), (100_001, 7),  # unequal brackets
        (100_000, 1000), (100_000, 500), (100_000, 100), (100_000, 10),  # the paper's
        (2**31 + 1, 1),  # about half of the values are rejected
        (2**32, 1),  # the largest bracket: each offset is a raw value as is
    ])
    def test_bracketed_blocks_and_state_equal_integers_calls(self, buffered, n, k):
        rng, ref = (generator(19, buffered) for _ in range(2))
        bounds = bracket_bounds(n, k)
        rows = drawing._bracketed_rows(rng, n, k)
        for m in heights(self.ROWS):
            expected = ref.integers(0, np.diff(bounds), size=(m, k))
            assert np.array_equal(rows(m), bounds[:-1] + expected)
        assert state(rng) == state(ref)

    def test_one_account_brackets_read_one_value_each(self):
        # where numpy reads none: the one declared departure from integers
        rng, ref = (generator(23, 0) for _ in range(2))
        rows = drawing._bracketed_rows(rng, 5, 5)
        assert np.array_equal(rows(3), np.tile(np.arange(5), (3, 1)))
        ref.integers(0, 2**32, size=15, dtype=np.uint32)
        assert state(rng) == state(ref)

    @pytest.mark.parametrize("call", [
        lambda rng: generate(ParetoParams(1.04, 150.0), 10, rng),
        lambda rng: winner_blocks(POP4, TWO_AT_100, "random", rng, 1),
        lambda rng: winner_blocks(POP4, TWO_AT_100, "bracketed", rng, 1),
        lambda rng: payouts(POP4, TWO_AT_100, "random", rng, 5),
        lambda rng: payouts(POP4, TWO_AT_100, "bracketed", rng, 5),
    ], ids=["generate", "winner-blocks-random", "winner-blocks-bracketed",
            "payouts-random", "payouts-bracketed"])
    def test_other_bit_generators_are_refused(self, call):
        with pytest.raises(ValueError, match="PCG64 generator only, got MT19937"):
            call(np.random.Generator(np.random.MT19937(0)))


def traced_peak(pop, k, mechanism, draws, caps=()):
    """Traced peak of one ``payouts`` call, in MiB, less the payouts it
    returns, which grow with ``draws`` and not with k."""
    tracemalloc.start()
    try:
        got = payouts(pop, PrizeSchedule(k, 1.0), mechanism, np.random.default_rng(1),
                      draws, caps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - got.nbytes) / 2**20


class TestPeakMemory:
    """A ``payouts`` call holds the arrays of one block of drawings at a time,
    and a block holds at most ``_BLOCK_WINNERS`` = 64,000 winners at any
    prize count k: ``_BLOCK_WINNERS // k`` drawings, 64 at k = 1000 and
    6,400 at k = 10. Each case draws two full blocks and a third of one
    drawing, at n = 100,000, and the bound leaves out the payouts the call
    returns, 8 B per drawing and level.

    A block's 64,000 int64 winner indices take 512,000 B (0.49 MiB), and
    pricing it gathers as many float64 balances, another 0.49 MiB, while the
    block is still held; the row sums go straight into the payouts. Lemire's
    tables hold one period of the uint64 range sizes and two of the uint32
    sizes and thresholds, 24 B per prize or 24 B in all where every range
    has one size, and its scratch lives while a block is drawn: the block's
    read of the 32-bit stream (0.24 MiB) and one window's rejection test
    (5 B for each of about 42,000 values, 0.2 MiB). That is 0.49 + 0.24 +
    0.2 = 0.93 MiB, under the 0.98 MiB of block and gather. The random kernel then runs
    Floyd's rule on the block: uint32 collision keys and their neighbour
    XOR (0.24 MiB each) and two bool flags per winner (0.12 MiB), 0.61 MiB,
    freed before the gather. Its peak is block and keys, 0.49 + 0.61 = 1.10
    MiB (1.10-1.13 at every k), under 1.3 MiB. The bracketed kernel draws
    through the same Lemire routine, and its peak is block and gather,
    0.98 MiB where the brackets have one size and 1.03 MiB at k = 999,
    where they differ, under 1.15 MiB. Keeping the previous block alive
    while the next block is drawn adds 0.49 MiB and breaks every bound.
    """

    @pytest.mark.parametrize("mechanism, caps, k, bound_mib", [
        *(("random", DEFAULT_CAPS, k, 1.3) for k in (1000, 999, 500, 100, 10)),
        *(("bracketed", (), k, 1.15) for k in (1000, 999, 500, 100, 10)),
    ])
    def test_payouts_hold_one_block_at_a_time(self, mechanism, caps, k, bound_mib):
        pop = generate(ParetoParams(1.04, 150.0), 100_000, 0)
        draws = 2 * (drawing._BLOCK_WINNERS // k) + 1
        assert traced_peak(pop, k, mechanism, draws, caps) <= bound_mib

    def test_payouts_scale_their_output_in_place(self):
        # 200,000 drawings priced at four levels return 6.1 MiB; a scaled
        # copy of them would come on top of the random bound
        pop = generate(ParetoParams(1.04, 150.0), 100_000, 0)
        assert traced_peak(pop, 10, "random", 200_000, DEFAULT_CAPS) <= 1.3

    def test_dense_payouts_hold_one_block_at_a_time(self):
        # 259 drawings of 9,999 winners from 10,000 accounts, in blocks of 6;
        # nearly every draw is at or above n - k, so the collision stage
        # holds int64 positions for nearly every winner, 0.46 MiB per array:
        # the candidates, their sources and the filtered copies of both,
        # beside the block, 2.63 MiB
        pop = generate(ParetoParams(1.04, 150.0), 10_000, 0)
        assert traced_peak(pop, 9_999, "random", 259) <= 3.0

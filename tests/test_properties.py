"""Invariants of the drawing kernels, the VaR reading, the config format and
the CPT prize specs, and every cell of a run against the exact payout law of
a small population, checked over generated inputs."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from plsim import experiments
from plsim.cpt import FixedPrizeSpec, utility_fixed_growth
from plsim.drawing import (
    MECHANISMS,
    PrizeSchedule,
    bracket_bounds,
    cap_label,
    payout_bounds,
    payouts,
    winner_blocks,
)
from plsim.experiments import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    level_label,
    run_bracketing,
    run_caps,
    var_rank,
)
from plsim.pareto import ParetoParams
from plsim.population import AccountPopulation, generate

# small populations keep each example to milliseconds; up to 300 drawings
# of more than 213 prizes cross a block boundary of the batched kernels
properties = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def drawings(draw_from):
    n = draw_from(st.integers(1, 300))
    pop = generate(ParetoParams(1.04, 150.0), n, draw_from(st.integers(0, 2**32)))
    sched = PrizeSchedule(draw_from(st.integers(1, n)),
                          draw_from(st.floats(0.1, 100.0)))
    return (pop, sched, draw_from(st.sampled_from(MECHANISMS)),
            draw_from(st.integers(0, 2**32)), draw_from(st.integers(1, 300)))


def descending(values) -> tuple:
    return tuple(sorted(values, reverse=True))


# caps of one label are refused, so the caps drawn have distinct labels
descending_caps = st.lists(st.floats(100.0, 1e6), min_size=1, max_size=4,
                           unique_by=cap_label).map(descending)


@properties
@given(drawings())
def test_draw_winners_distinct_or_one_per_bracket(case):
    pop, sched, mechanism, seed, draws = case
    winners = np.concatenate([block for _, block in winner_blocks(
        pop, sched, mechanism, np.random.default_rng(seed), draws)])
    if mechanism == "random":
        assert np.all(np.diff(np.sort(winners, axis=1), axis=1) > 0)
    else:
        # the bracketed kernel's winners are sorted positions
        bounds = bracket_bounds(pop.count, sched.count)
        assert np.all((bounds[:-1] <= winners) & (winners < bounds[1:]))


def within(rows, bounds, mechanism) -> bool:
    """Whether each of ``rows`` lies between its level's best and worst
    payout, the columns of ``bounds``. The bounds sum their balances in
    sorted order and a random drawing in Floyd's, which can round apart by
    an ulp or so; a bracketed drawing sums one balance per bracket in
    bracket order, as its bounds do, and rounding is monotone, so it stays
    within them exactly."""
    lo, hi = bounds[:, :, None]
    if mechanism == "random":
        lo, hi = lo * (1 - 1e-12), hi * (1 + 1e-12)
    return bool(np.all((lo <= rows) & (rows <= hi)))


@properties
@given(drawings())
def test_payouts_within_best_and_worst(case):
    pop, sched, mechanism, seed, draws = case
    got = payouts(pop, sched, mechanism, np.random.default_rng(seed), draws)
    assert within(got, payout_bounds(pop, sched, mechanism), mechanism)


@properties
@given(drawings(), descending_caps)
def test_capped_rows_never_increase(case, caps):
    pop, sched, mechanism, seed, draws = case
    got = payouts(pop, sched, mechanism, np.random.default_rng(seed), draws, caps)
    assert got.shape == (1 + len(caps), draws)
    assert np.all(got[1:] <= got[:-1])
    bounds = payout_bounds(pop, sched, mechanism, caps)
    assert bounds.shape == (2, 1 + len(caps))
    assert within(got, bounds, mechanism)
    uncapped = payouts(pop, sched, mechanism, np.random.default_rng(seed), draws)
    assert np.array_equal(got[:1], uncapped)


@properties
@given(drawings())
def test_batched_payouts_equal_single_draws(case):
    pop, sched, mechanism, seed, draws = case
    batched = payouts(pop, sched, mechanism, np.random.default_rng(seed), draws)[0]
    rng = np.random.default_rng(seed)
    singles = [payouts(pop, sched, mechanism, rng, 1)[0, 0] for _ in range(draws)]
    assert np.array_equal(batched, singles)


@properties
@given(st.integers(1, 10**6),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=2, max_size=6))
def test_var_non_decreasing_as_level_falls(draws, levels):
    ranks = [var_rank(draws, level) for level in sorted(levels, reverse=True)]
    assert 0 <= ranks[0] and ranks[-1] < draws
    assert all(lo <= hi for lo, hi in zip(ranks, ranks[1:]))


@st.composite
def exact_cases(draw_from, capped: bool):
    """A config whose winner sets can all be enumerated, and a run index.
    Capped configs have one to three caps of distinct labels, each placed
    between two of the run's sorted balances, so that every cap binds."""
    schedules = draw_from(st.lists(
        st.builds(PrizeSchedule, st.integers(2, 4), st.floats(0.1, 100.0)),
        min_size=1, max_size=2, unique_by=PrizeSchedule.label))
    # dense drawings (n < 4k) and n == k included: the random kernel has one
    # path for every population and prize count
    n = draw_from(st.integers(max(s.count for s in schedules), 20))
    run = draw_from(st.integers(0, 3))
    config = ExperimentConfig(
        pareto=ParetoParams(1.04, 150.0), n_accounts=n, schedules=tuple(schedules),
        draws_per_run=draw_from(st.integers(200, 2_000)), runs=run + 1,
        var_levels=draw_from(st.lists(st.sampled_from((0.05, 0.01, 0.001)),
                                      min_size=1, unique=True).map(descending)),
        master_seed=draw_from(st.integers(0, 2**32)))
    if capped:
        # the run's population does not depend on the caps
        balances = np.sort(experiments._population(config, run).balances)
        at = draw_from(st.lists(st.integers(1, n - 1), min_size=1, max_size=3,
                                unique=True))
        caps = {cap_label(cap): cap for cap in (float(balances[i - 1] + balances[i]) / 2
                                                for i in at)}
        config = replace(config, caps=descending(caps.values()))
    return config, run


def exact_scaled_payouts(balances, sched: PrizeSchedule, mechanism: str,
                         cap: float) -> np.ndarray:
    """Ascending payouts over the expected payout of every winner set, each
    as likely as any other: every ``count`` of the sorted ``balances``
    (random), or one from each bracket (bracketed), each balance truncated
    at ``cap``."""
    capped = [min(float(b), cap) for b in balances]
    n, k = len(capped), sched.count
    if mechanism == "random":
        sets = itertools.combinations(capped, k)
    else:
        # the first n % k brackets take one extra account
        size, extra = divmod(n, k)
        bounds = list(itertools.accumulate(
            [size + (i < extra) for i in range(k)], initial=0))
        sets = itertools.product(*(capped[lo:hi] for lo, hi in zip(bounds, bounds[1:])))
    expected = sched.count * sched.multiple * math.fsum(capped) / n
    return np.sort([sched.multiple * math.fsum(won) / expected for won in sets])


def exact_band(scaled: np.ndarray, draws: int, level: float, alpha: float = 1e-9):
    """The values a run's VaR reading at ``level`` lies between, but for a
    chance of at most ``alpha``, when its ``draws`` drawings follow the law
    of ``scaled``: the j-th smallest of them is at most x with chance
    P(Bin(draws, F(x)) >= j), j being ``var_rank`` + 1."""
    support, counts = np.unique(scaled, return_counts=True)
    at_most = binom.sf(var_rank(draws, level), draws, np.cumsum(counts) / scaled.size)
    return (support[np.argmax(at_most > alpha / 2)],
            support[np.argmax(at_most >= 1 - alpha / 2)])


# each example enumerates up to C(20, 4) = 4,845 winner sets per variant
@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_cells_match_the_exact_payout_law(capped, data):
    config, run = data.draw(exact_cases(capped))
    got = experiments._one_run(config, run)
    balances = np.sort(experiments._population(config, run).balances)
    variants = ([(mechanism, math.inf) for mechanism in MECHANISMS] if not config.caps
                else [("random", cap) for cap in (math.inf, *config.caps)])
    for i, sched in enumerate(config.schedules):
        for v, (mechanism, cap) in enumerate(variants):
            scaled = exact_scaled_payouts(balances, sched, mechanism, cap)
            where = (sched, mechanism, cap)
            # 1e-12 allows for the order in which the engine sums
            for j, level in enumerate(config.var_levels):
                lo, hi = exact_band(scaled, config.draws_per_run, level)
                assert lo * (1 - 1e-12) <= got[i, j, v] <= hi * (1 + 1e-12), (where, level)
            assert math.isclose(got[i, -1, v], scaled[-1], rel_tol=1e-12), where


@st.composite
def tied_populations(draw_from):
    # balances drawn from a handful of values, so most of them tie
    values = draw_from(st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=4))
    picks = draw_from(st.lists(st.integers(0, len(values) - 1), min_size=1,
                               max_size=300))
    return AccountPopulation([values[i] for i in picks])


@properties
@given(tied_populations())
def test_sorted_balances_equal_np_sort_and_are_read_only(pop):
    assert np.array_equal(pop.sorted_balances, np.sort(pop.balances))
    with pytest.raises(ValueError, match="read-only"):
        pop.sorted_balances[0] = 1.0


@st.composite
def configs(draw_from):
    schedules = draw_from(st.lists(
        st.builds(PrizeSchedule, st.integers(1, 50), st.floats(0.01, 100.0)),
        min_size=1, max_size=4, unique_by=PrizeSchedule.label))
    caps = draw_from(st.just(()) | descending_caps)
    return ExperimentConfig(
        pareto=ParetoParams(draw_from(st.floats(1.01, 5.0)),
                            draw_from(st.floats(1.0, 1e4))),
        n_accounts=draw_from(st.integers(max(s.count for s in schedules), 10**6)),
        schedules=tuple(schedules),
        draws_per_run=draw_from(st.integers(1, 10**5)),
        runs=draw_from(st.integers(1, 10**4)),
        var_levels=draw_from(st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=4,
            unique_by=level_label).map(descending)),
        caps=caps,
        master_seed=draw_from(st.integers(0, 2**63)),
    )


@properties
@given(configs())
def test_config_round_trips_through_json(config):
    assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


@st.composite
def tiny_configs(draw_from):
    n = draw_from(st.integers(1, 200))
    schedules = draw_from(st.lists(
        st.builds(PrizeSchedule, st.integers(1, n), st.floats(0.1, 10.0)),
        min_size=1, max_size=2, unique_by=PrizeSchedule.label))
    caps = draw_from(st.just(()) | descending_caps)
    return ExperimentConfig(
        pareto=ParetoParams(1.04, 150.0), n_accounts=n, schedules=tuple(schedules),
        draws_per_run=draw_from(st.integers(1, 50)), runs=draw_from(st.integers(2, 4)),
        var_levels=(0.99, 0.95), caps=caps,
        master_seed=draw_from(st.integers(0, 2**32)))


# each example starts a pool of two processes
@settings(max_examples=10, deadline=None, derandomize=True)
@given(tiny_configs())
def test_output_identical_at_one_and_two_workers(config):
    run = run_bracketing if not config.caps else run_caps
    one, two = (json.dumps(run(config, workers=w).to_json_dict()) for w in (1, 2))
    assert one == two


@properties
@given(st.floats(1e-2, 1e7), st.floats(1e-9, 1.0), st.floats(0.0, 1.0))
def test_fixed_growth_at_zero_rate_is_the_fixed_model(prize, slope, share):
    # share is the win probability X*c, so X spans [0, 1/c]
    spec = FixedPrizeSpec(prize, slope)
    assert spec.domain() == (0.0, 1.0 / slope, False)
    parts = utility_fixed_growth(spec, share / slope)
    # not winning returns the principal: a loss of +0.0, which prints as 0
    assert parts.loss == 0.0 and math.copysign(1.0, parts.loss) == 1.0
    assert parts.total == parts.gain

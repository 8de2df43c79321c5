"""Invariants of the drawing kernels, the VaR reading, the config format and
the CPT prize specs, checked over generated inputs."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plsim.cpt import CptParams, FixedPrizeSpec, utility_fixed_growth
from plsim.drawing import (
    MECHANISMS,
    PrizeSchedule,
    best_payout,
    bracket_bounds,
    draw,
    expected_payout,
    payouts,
    worst_payout,
)
from plsim.experiments import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    run_bracketing,
    run_caps,
)
from plsim.pareto import ParetoParams
from plsim.population import AccountPopulation, apply_cap, generate
from plsim.risk import scale, var_approx, var_rank

# small populations keep each example to milliseconds; up to 300 drawings
# cross the 128-row block boundary of the batched kernels
properties = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def drawings(draw_from):
    n = draw_from(st.integers(1, 300))
    pop = generate(ParetoParams(1.04, 150.0), n, draw_from(st.integers(0, 2**32)))
    sched = PrizeSchedule(draw_from(st.integers(1, n)),
                          draw_from(st.floats(0.1, 100.0)))
    return (pop, sched, draw_from(st.sampled_from(MECHANISMS)),
            draw_from(st.integers(0, 2**32)), draw_from(st.integers(1, 300)))


descending_caps = st.lists(st.floats(100.0, 1e6), min_size=1, max_size=4,
                           unique=True).map(lambda caps: sorted(caps, reverse=True))


@properties
@given(drawings())
def test_draw_winners_distinct_or_one_per_bracket(case):
    pop, sched, mechanism, seed, _ = case
    winners = draw(pop, sched, mechanism, np.random.default_rng(seed)).winners
    if mechanism == "random":
        assert len(set(winners.tolist())) == sched.count
    else:
        rank = np.argsort(pop.sort_order())  # position of each account in sort order
        bounds = bracket_bounds(pop.count, sched.count)
        assert np.all((bounds[:-1] <= rank[winners]) & (rank[winners] < bounds[1:]))


@properties
@given(drawings())
def test_payouts_within_best_and_worst(case):
    pop, sched, mechanism, seed, draws = case
    got = payouts(pop, sched, mechanism, np.random.default_rng(seed), draws)[0]
    # the bounds sum the same balances in sorted order, which can round apart
    # from a drawing's order by an ulp or so
    lo = best_payout(pop, sched, mechanism) * (1 - 1e-12)
    hi = worst_payout(pop, sched, mechanism) * (1 + 1e-12)
    assert np.all((lo <= got) & (got <= hi))


@properties
@given(drawings(), descending_caps)
def test_capped_rows_never_increase(case, caps):
    pop, sched, mechanism, seed, draws = case
    got = payouts(pop, sched, mechanism, np.random.default_rng(seed), draws, caps)
    assert got.shape == (1 + len(caps), draws)
    assert np.all(got[1:] <= got[:-1])
    uncapped = payouts(pop, sched, mechanism, np.random.default_rng(seed), draws)
    assert np.array_equal(got[:1], uncapped)


@properties
@given(drawings())
def test_batched_payouts_equal_single_draws(case):
    pop, sched, mechanism, seed, draws = case
    batched = payouts(pop, sched, mechanism, np.random.default_rng(seed), draws)[0]
    rng = np.random.default_rng(seed)
    singles = [draw(pop, sched, mechanism, rng).payout for _ in range(draws)]
    assert np.array_equal(batched, singles)


@properties
@given(drawings(), descending_caps)
def test_capped_worst_payout_equals_worst_of_capped_population(case, caps):
    pop, sched, mechanism, seed, draws = case
    got = payouts(pop, sched, mechanism, np.random.default_rng(seed), draws, caps)
    assert np.all(got[0] <= worst_payout(pop, sched, mechanism) * (1 + 1e-12))
    for row, cap in zip(got[1:], caps):
        worst = worst_payout(pop, sched, mechanism, cap)
        assert worst == worst_payout(apply_cap(pop, cap), sched, mechanism)
        assert np.all(row <= worst * (1 + 1e-12))


@properties
@given(st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=300),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=2, max_size=6))
def test_var_non_decreasing_as_level_falls(raw, levels):
    dist = scale(raw, float(np.mean(raw)))
    values = [var_approx(dist, level) for level in sorted(levels, reverse=True)]
    assert all(lo <= hi for lo, hi in zip(values, values[1:]))


@properties
@given(st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=300),
       st.floats(1e-3, 1e6), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_var_of_sorted_raw_payouts_equals_var_of_scaled(raw, expected, level):
    # the run sorts raw payouts and scales the order statistic it reads
    got = np.sort(raw)[var_rank(len(raw), level)] / expected
    assert got == var_approx(scale(raw, expected), level)


@properties
@given(drawings(), st.floats(100.0, 1e6) | st.just(math.inf))
def test_expected_payout_at_cap_equals_that_of_capped_population(case, cap):
    pop, sched, *_ = case
    assert expected_payout(pop, sched, cap) == expected_payout(apply_cap(pop, cap), sched)


@st.composite
def tied_populations(draw_from):
    # balances drawn from a handful of values, so most of them tie
    values = draw_from(st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=4))
    picks = draw_from(st.lists(st.integers(0, len(values) - 1), min_size=1,
                               max_size=300))
    return AccountPopulation.from_balances([values[i] for i in picks])


@properties
@given(tied_populations())
def test_sorted_balances_are_the_balances_in_sort_order(pop):
    assert np.array_equal(pop.sorted_balances(), pop.balances[pop.sort_order()])


@st.composite
def configs(draw_from):
    schedules = draw_from(st.lists(
        st.builds(PrizeSchedule, st.integers(1, 50), st.floats(0.01, 100.0)),
        min_size=1, max_size=4))
    caps = draw_from(st.none() | descending_caps)
    return ExperimentConfig(
        pareto=ParetoParams(draw_from(st.floats(1.01, 5.0)),
                            draw_from(st.floats(1.0, 1e4))),
        n_accounts=draw_from(st.integers(max(s.count for s in schedules), 10**6)),
        schedules=tuple(schedules),
        draws_per_run=draw_from(st.integers(1, 10**5)),
        runs=draw_from(st.integers(1, 10**4)),
        var_levels=tuple(draw_from(st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=4))),
        caps=None if caps is None else tuple(caps),
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
        min_size=1, max_size=2))
    caps = draw_from(st.none() | descending_caps)
    return ExperimentConfig(
        pareto=ParetoParams(1.04, 150.0), n_accounts=n, schedules=tuple(schedules),
        draws_per_run=draw_from(st.integers(1, 50)), runs=draw_from(st.integers(2, 4)),
        var_levels=(0.95, 0.99), caps=None if caps is None else tuple(caps),
        master_seed=draw_from(st.integers(0, 2**32)))


# each example starts a pool of two processes
@settings(max_examples=10, deadline=None, derandomize=True)
@given(tiny_configs())
def test_output_identical_at_one_and_two_workers(config):
    run = run_bracketing if config.caps is None else run_caps
    one, two = (json.dumps(run(config, workers=w).to_json_dict()) for w in (1, 2))
    assert one == two


@properties
@given(st.floats(1e-2, 1e7), st.floats(1e-9, 1.0), st.floats(0.0, 1.0))
def test_fixed_growth_at_zero_rate_is_the_fixed_model(prize, slope, share):
    # share is the win probability X*c, so X spans [0, 1/c]
    spec = FixedPrizeSpec(prize, slope)
    assert spec.domain() == (0.0, 1.0 / slope, False)
    parts = utility_fixed_growth(CptParams(), spec, share / slope)
    # not winning returns the principal: a loss of +0.0, which prints as 0
    assert parts.loss == 0.0 and math.copysign(1.0, parts.loss) == 1.0
    assert parts.total == parts.gain

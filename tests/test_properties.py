"""Invariants of the drawing kernels, checked over generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plsim.drawing import (
    MECHANISMS,
    PrizeSchedule,
    best_payout,
    bracket_bounds,
    draw,
    payouts,
    worst_payout,
)
from plsim.pareto import ParetoParams
from plsim.population import generate

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

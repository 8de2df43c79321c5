import math

import numpy as np
import pytest

from plsim.pareto import ParetoParams, tail_fraction
from plsim.population import AccountPopulation, generate, require_drawable

P104 = ParetoParams(1.04, 150.0)


def test_generate_rejects_empty():
    with pytest.raises(ValueError):
        generate(P104, 0, 1)


def test_single_account_at_least_scale():
    pop = generate(P104, 1, 123)
    assert pop.count == 1
    assert pop.balances[0] >= 150.0


def test_same_seed_identical():
    a = generate(P104, 5000, 42)
    b = generate(P104, 5000, 42)
    np.testing.assert_array_equal(a.balances, b.balances)
    assert a.mean == b.mean


def test_different_seeds_differ():
    a = generate(P104, 1000, 1)
    b = generate(P104, 1000, 2)
    assert not np.array_equal(a.balances, b.balances)


def test_mean_cache_matches_balances():
    pop = generate(P104, 20_000, 7)
    assert pop.mean == pytest.approx(pop.balances.mean(), rel=1e-9)
    assert pop.count == len(pop.balances)


def test_balances_are_read_only():
    pop = generate(P104, 100, 3)
    with pytest.raises(ValueError):
        pop.balances[0] = 1.0


@pytest.mark.parametrize("balances", [[], np.ones((2, 3)), 5.0],
                         ids=["empty", "2-D", "0-D"])
def test_rejects_balances_not_a_non_empty_1d_array(balances):
    with pytest.raises(ValueError, match="non-empty 1-D balance array"):
        AccountPopulation.from_balances(balances)


def test_rejects_nonpositive_balances():
    with pytest.raises(ValueError):
        AccountPopulation.from_balances([100.0, 0.0, 50.0])


@pytest.mark.parametrize("balances", [[100.0, math.inf], [1e308, 1e308]])
def test_rejects_balances_summing_past_float64(balances):
    with pytest.raises(ValueError, match="float64"):
        AccountPopulation.from_balances(balances)


def test_float64_range_bounds_accounts_times_largest_sample_times_multiple():
    # no balance exceeds b * 2**(53 / alpha), here 2**1000 * 2**13.25
    params = ParetoParams(4.0, 2.0**1000)
    require_drawable(params, 2**10, 1.0)
    require_drawable(params, 2**9, 2.0)
    for n, multiple in ((2**11, 1.0), (2**9, 4.0)):
        with pytest.raises(ValueError, match="can overflow float64"):
            require_drawable(params, n, multiple)
    pop = generate(params, 2**10, 5)
    assert pop.balances.max() <= 2.0**1000 * 2.0**(53 / 4)


def test_capped_fraction_matches_survival():
    # binomial sd of the capped fraction at n=1e5 is ~3.5e-4; the band
    # below is ~5 sigma around the analytic survival probability
    pop = generate(P104, 100_000, 2024)
    frac = (pop.balances > 10_000.0).mean()
    assert frac == pytest.approx(tail_fraction(P104, 10_000.0), abs=0.002)


def test_sample_mean_spread_is_heavy_tailed():
    # oracle over 1000 generations: mean/3900 has median ~0.40 with
    # p5-p95 of 0.33-0.88 and rare excursions to ~10; the spec's +-40%
    # guess holds for only ~10% of generations, so assert the real behavior
    ratios = []
    for seed in range(30):
        pop = generate(P104, 100_000, np.random.SeedSequence(3, spawn_key=(seed,)))
        ratios.append(pop.mean / 3900.0)
    ratios = np.asarray(ratios)
    assert np.all((ratios > 0.25) & (ratios < 10.0))
    assert 0.30 < np.median(ratios) < 0.60

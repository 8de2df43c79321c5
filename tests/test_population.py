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
    assert a.balances.mean() == b.balances.mean()


def test_different_seeds_differ():
    a = generate(P104, 1000, 1)
    b = generate(P104, 1000, 2)
    assert not np.array_equal(a.balances, b.balances)


def test_count_and_order_are_derived_from_the_balances():
    # no population can carry a count or an order its balances do not have
    pop = AccountPopulation([3.0, 1.0])
    assert pop.count == 2
    np.testing.assert_array_equal(pop.sorted_balances, [1.0, 3.0])
    with pytest.raises(TypeError):
        AccountPopulation([1.0, 3.0], count=3)
    with pytest.raises(TypeError):
        AccountPopulation([1.0, 3.0], sorted_balances=np.array([3.0, 1.0]))


def test_populations_compare_and_hash_by_identity():
    # the generated methods would compare and hash the balance arrays
    a, b = generate(P104, 10, 1), generate(P104, 10, 1)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_balances_are_read_only():
    pop = generate(P104, 100, 3)
    with pytest.raises(ValueError):
        pop.balances[0] = 1.0


@pytest.mark.parametrize("balances", [[], np.ones((2, 3)), 5.0],
                         ids=["empty", "2-D", "0-D"])
def test_rejects_balances_not_a_non_empty_1d_array(balances):
    with pytest.raises(ValueError, match="non-empty 1-D balance array"):
        AccountPopulation(balances)


def test_rejects_nonpositive_balances():
    with pytest.raises(ValueError):
        AccountPopulation([100.0, 0.0, 50.0])


@pytest.mark.parametrize("balances", [[100.0, math.inf], [1e308, 1e308]])
def test_rejects_balances_summing_past_float64(balances):
    with pytest.raises(ValueError, match="float64"):
        AccountPopulation(balances)


def test_float64_range_bounds_accounts_times_largest_sample_times_multiple():
    # no balance exceeds b * 2**(53 / alpha), here 2**1000 * 2**13.25
    params = ParetoParams(4.0, 2.0**1000)
    require_drawable(params, 2**10, [1.0])
    require_drawable(params, 2**9, [0.5, 2.0])
    for n, multiples in ((2**11, [1.0]), (2**9, [1.0, 4.0])):
        with pytest.raises(ValueError, match=f"at prize multiple {max(multiples):g} "
                                             "can overflow float64$"):
            require_drawable(params, n, multiples)
    pop = generate(params, 2**10, 5)
    assert pop.balances.max() <= 2.0**1000 * 2.0**(53 / 4)


TINY = np.finfo(float).tiny  # 2**-1022, the smallest normal float64


@pytest.mark.parametrize("b, multiples, caps, refused", [
    # no balance is below b, nor a capped one below the smallest cap, so no
    # payout is below the smaller of the two, times the smallest multiple
    # when below 1
    (1.0, [TINY], (), None),
    (1.0, [TINY / 2, 1.0], (), "at prize multiple 1.11254e-308"),
    (TINY, [1.0, 1e300], (), None),
    (TINY / 2, [1e300], (), "at prize multiple 1e+300"),  # subnormal balances
    (2.0, [0.5], (1.0, 2 * TINY), None),
    (2.0, [0.5], (1.0, TINY), "at cap 2.22507e-308 and prize multiple 0.5"),
    (1e-300, [1e-300], (), "at prize multiple 1e-300"),
])
def test_float64_range_bounds_smallest_balance_times_smallest_multiple(b, multiples, caps,
                                                                       refused):
    params = ParetoParams(4.0, b)
    if refused is None:
        require_drawable(params, 10, multiples, caps)
        return
    with pytest.raises(ValueError) as exc:
        require_drawable(params, 10, multiples, caps)
    assert str(exc.value) == (f"10 accounts of Pareto {params.label()} {refused} "
                              "can underflow float64")


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
        ratios.append(pop.balances.mean() / 3900.0)
    ratios = np.asarray(ratios)
    assert np.all((ratios > 0.25) & (ratios < 10.0))
    assert 0.30 < np.median(ratios) < 0.60

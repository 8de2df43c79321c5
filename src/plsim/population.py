"""Account populations: Pareto generation, summary statistics, the drawable range."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pareto import ParetoParams, sample


# eq=False: equality and hashing go by identity, since the generated
# methods would compare and hash the arrays
@dataclass(frozen=True, eq=False)
class AccountPopulation:
    """Immutable sample of account balances: a non-empty 1-D array of positive
    values with a finite float64 sum, kept as a read-only copy in generation
    order, from which ``count`` and ``sorted_balances``, the same values
    ascending (which bracketing and the extreme payouts read), are derived
    once, when the population is built, never given.
    """

    balances: np.ndarray
    count: int = field(init=False)
    sorted_balances: np.ndarray = field(init=False)

    def __post_init__(self):
        arr = np.array(self.balances, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("population requires a non-empty 1-D balance array")
        if not np.all(arr > 0.0):
            raise ValueError("all balances must be positive")
        with np.errstate(over="ignore"):  # refused below, not warned about
            total = arr.sum()
        if not total < math.inf:
            raise ValueError("balances must be finite and sum within float64")
        ordered = np.sort(arr)
        for values in (arr, ordered):
            values.setflags(write=False)
        object.__setattr__(self, "balances", arr)
        object.__setattr__(self, "count", int(arr.size))
        object.__setattr__(self, "sorted_balances", ordered)


def generate(params: ParetoParams, n: int, seed) -> AccountPopulation:
    """Draw ``n`` independent Pareto balances; deterministic for a fixed
    ``seed``: an int or SeedSequence, or an existing Generator on PCG64."""
    if n < 1:
        raise ValueError("population must contain at least one account")
    rng = np.random.default_rng(seed)
    return AccountPopulation(sample(params, rng, n))


def require_stream_range(n: int) -> None:
    """Refuse more accounts than the winner kernels' 32-bit stream can pick among."""
    if n > 2**32:
        raise ValueError(f"cannot draw from {n} accounts: the 32-bit stream "
                         "draws from at most 2**32")


def require_drawable(params: ParetoParams, n: int, multiple: float) -> None:
    """Refuse ``n`` balances of ``params``, paid out at ``multiple`` times a
    sum of them, before any is drawn: beyond the 32-bit stream's range, or
    where float64 can overflow. No balance exceeds b * 2**(53 / alpha), the
    quantile at the sampler's largest uniform 1 - 2**-53, so no sum or payout
    exceeds n times that, times the multiple when above 1."""
    if n < 1:
        return  # generate refuses an empty population
    require_stream_range(n)
    # in bits, so that the bound itself cannot overflow
    bits = (math.log2(n) + math.log2(params.b) + 53 / params.alpha
            + math.log2(max(1.0, multiple)))
    if bits >= 1024:  # float64 ends below 2**1024
        raise ValueError(f"{n} accounts of Pareto {params.label()} at prize multiple "
                         f"{multiple:g} can overflow float64")


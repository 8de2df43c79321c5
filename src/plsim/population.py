"""Account populations: Pareto generation, summary statistics, the drawable range."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pareto import ParetoParams, sample


@dataclass(frozen=True)
class AccountPopulation:
    """Immutable sample of account balances with a cached mean.

    Balances stay in generation order. The sorted values (needed for
    bracketing and the extreme payouts) come from ``np.sort`` and the account
    order from a stable ``argsort``, which only ``draw`` asks for; each is
    computed on first use and cached, which is safe because the arrays are
    read-only.
    """

    balances: np.ndarray
    mean: float
    count: int

    @classmethod
    def from_balances(cls, balances) -> "AccountPopulation":
        arr = np.array(balances, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("population requires a non-empty 1-D balance array")
        if not np.all(arr > 0.0):
            raise ValueError("all balances must be positive")
        with np.errstate(over="ignore"):  # refused below, not warned about
            mean = float(arr.mean())
        if not mean < math.inf:
            raise ValueError("balances must be finite and sum within float64")
        arr.setflags(write=False)
        return cls(balances=arr, mean=mean, count=int(arr.size))

    def sorted_balances(self) -> np.ndarray:
        cached = getattr(self, "_sorted", None)
        if cached is None:
            # equal to balances[sort_order()], since tied values are equal
            # and positive balances hold no NaN, without the index sort
            cached = np.sort(self.balances)
            cached.setflags(write=False)
            object.__setattr__(self, "_sorted", cached)
        return cached

    def sort_order(self) -> np.ndarray:
        # stable: ties broken by account index; computed only for draw, which
        # maps a bracketed winner's sorted position back to its account
        cached = getattr(self, "_order", None)
        if cached is None:
            cached = np.argsort(self.balances, kind="stable")
            cached.setflags(write=False)
            object.__setattr__(self, "_order", cached)
        return cached


def generate(params: ParetoParams, n: int, seed) -> AccountPopulation:
    """Draw ``n`` independent Pareto balances; deterministic for a fixed
    ``seed``: an int or SeedSequence, or an existing Generator on PCG64."""
    if n < 1:
        raise ValueError("population must contain at least one account")
    rng = np.random.default_rng(seed)
    return AccountPopulation.from_balances(sample(params, rng, n))


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


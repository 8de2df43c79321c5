"""Account populations: Pareto generation, balance caps, summary statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pareto import ParetoParams, sample


@dataclass(frozen=True)
class AccountPopulation:
    """Immutable sample of account balances with a cached mean.

    Balances stay in generation order; sorting (needed for bracketing) is
    cached lazily and shared, which is safe because the array is read-only.
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
        arr.setflags(write=False)
        return cls(balances=arr, mean=float(arr.mean()), count=int(arr.size))

    def sorted_balances(self) -> np.ndarray:
        cached = getattr(self, "_sorted", None)
        if cached is None:
            cached = self.balances[self.sort_order()]
            cached.setflags(write=False)
            object.__setattr__(self, "_sorted", cached)
        return cached

    def sort_order(self) -> np.ndarray:
        # stable: ties broken by account index
        cached = getattr(self, "_order", None)
        if cached is None:
            cached = np.argsort(self.balances, kind="stable")
            cached.setflags(write=False)
            object.__setattr__(self, "_order", cached)
        return cached


def generate(params: ParetoParams, n: int, seed) -> AccountPopulation:
    """Draw ``n`` independent Pareto balances; deterministic for a fixed seed.

    ``seed`` is anything ``numpy.random.default_rng`` accepts (int,
    SeedSequence, or an existing Generator).
    """
    if n < 1:
        raise ValueError("population must contain at least one account")
    rng = np.random.default_rng(seed)
    return AccountPopulation.from_balances(sample(params, rng, n))


def apply_cap(pop: AccountPopulation, cap: float) -> AccountPopulation:
    """Truncate every balance at ``cap`` and recompute the mean.

    Returns a new population; the input is never modified, so one sample can
    be evaluated at several cap levels.
    """
    if not cap > 0.0:
        raise ValueError("cap must be positive")
    return AccountPopulation.from_balances(np.minimum(pop.balances, cap))

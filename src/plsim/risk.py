"""VaR order statistics and the comparisons of per-run values.

A run scales its payouts by the expected payout (count * multiple * mean
balance), so 1.0 means a drawing cost exactly its expectation. VaR at level
q is read off the ascending order statistics: the k-th smallest with
k = round((1 - q) * draws). The single exception is the level whose
resolution equals the whole distribution (q * draws == 1, e.g. 0.01% of
10,000 draws or 0.1% of 1,000 draws): there the maximum is reported.
``var_rank`` holds that rule. Division by a positive number is monotone, so
sorting raw payouts and scaling the k-th smallest gives the same float.
"""

from __future__ import annotations

import numpy as np

# float-roundoff guard when testing q * draws against the resolution limit
_LEVEL_EPS = 1e-9


def var_rank(draws: int, level: float) -> int:
    """Position of the VaR at the given tail probability among ``draws``
    ascending payouts.

    Meaningful when level * draws >= 1; at or below that resolution limit
    it is the maximum's (the topmost approximation the distribution can
    resolve). Non-integer (1 - level) * draws rounds to nearest.
    """
    if draws == 0:
        raise ValueError("empty payout distribution")
    if not 0.0 < level < 1.0:
        raise ValueError("VaR level must lie in (0, 1)")
    if level * draws <= 1.0 + _LEVEL_EPS:
        return draws - 1
    k = int(round((1.0 - level) * draws))
    return min(max(k, 1), draws) - 1


def compare_percentage_higher(a, b) -> float:
    """Percent of paired runs where a_i is strictly higher than b_i."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.shape != b_arr.shape:
        raise ValueError("paired comparison requires equal-length inputs")
    return float(np.mean(a_arr > b_arr) * 100.0)


def relative_difference(random_avg: float, bracket_avg: float) -> float:
    """Percent by which the random average exceeds the bracket average."""
    return (random_avg / bracket_avg - 1.0) * 100.0


def std_dev(values) -> float:
    """Sample standard deviation (n-1 denominator) of per-run values."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("standard deviation needs at least two values")
    return float(np.std(arr, ddof=1))

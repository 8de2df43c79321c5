"""Closed-form Pareto (type I) distribution math and inverse-transform sampling.

The account-size model used throughout the package. Shape ``alpha`` controls
tail heaviness, scale ``b`` is the smallest possible value:

    density        f(x) = alpha * b**alpha / x**(alpha + 1)      for x >= b
    mean           E[X] = alpha * b / (alpha - 1)                for alpha > 1
    quantile       F^-1(p) = b / (1 - p)**(1 / alpha)
    survival       P(X > x) = (b / x)**alpha
    Gini           G = 1 / (2 * alpha - 1)

The distribution functions accept scalars or numpy arrays and are pure; the
sampler draws arrays, and its only state is the caller-owned generator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParetoParams",
    "pdf",
    "mean",
    "gini_from_alpha",
    "alpha_from_gini",
    "quantile",
    "tail_fraction",
    "sample",
]


def _real(value, what: str) -> float:
    """``value`` as a float, refused if it is a bool or not a real number: True
    would be labelled 1 and dumped as true, and "1.5" fail a comparison; or if
    it is an integer beyond float64, which JSON can hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be finite, got an integer of "
                         f"{len(str(abs(value)))} digits") from None


def _integer(value, what: str) -> int:
    """``value`` as an int, refused if it is a bool or not an integer: True
    would run once with seed 1 and 2.5 fail inside numpy; an int, unlike a
    numpy integer, dumps as JSON."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ParetoParams:
    """Shape/scale pair; ``b`` equals the minimum possible value.

    ``alpha`` must exceed 1 so the mean is finite, and both must be finite
    real numbers, not bools; they are stored as floats.
    """

    alpha: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha"))
        object.__setattr__(self, "b", _real(self.b, "scale b"))
        if not 1.0 < self.alpha < math.inf:
            raise ValueError(
                f"alpha must be finite and exceed 1 for a finite mean, got {self.alpha}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"scale b must be finite and positive, got {self.b}")

    def label(self) -> str:
        return f"{self.alpha:g}/{self.b:g}"


def _maybe_scalar(out: np.ndarray, like) -> float | np.ndarray:
    return float(out) if np.ndim(like) == 0 else out


def pdf(params: ParetoParams, x) -> float | np.ndarray:
    """Density alpha * b**alpha / x**(alpha + 1); undefined below b."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < params.b):
        raise ValueError(f"density undefined below the scale b={params.b}")
    out = params.alpha * params.b**params.alpha / x_arr ** (params.alpha + 1.0)
    return _maybe_scalar(out, x)


def mean(params: ParetoParams) -> float:
    """E[X] = alpha * b / (alpha - 1); finite because alpha > 1."""
    return params.alpha * params.b / (params.alpha - 1.0)


def gini_from_alpha(alpha) -> float | np.ndarray:
    """Gini coefficient G = 1 / (2 * alpha - 1) for shape alpha > 0.5."""
    a = np.asarray(alpha, dtype=float)
    if np.any(a <= 0.5):
        raise ValueError("Gini conversion requires alpha > 0.5")
    return _maybe_scalar(1.0 / (2.0 * a - 1.0), alpha)


def alpha_from_gini(gini) -> float | np.ndarray:
    """Inverse of :func:`gini_from_alpha`: alpha = (1 / G + 1) / 2."""
    g = np.asarray(gini, dtype=float)
    if np.any((g <= 0.0) | (g > 1.0)):
        raise ValueError("Gini coefficient must lie in (0, 1]")
    return _maybe_scalar((1.0 / g + 1.0) / 2.0, gini)


def quantile(params: ParetoParams, p) -> float | np.ndarray:
    """Inverse CDF b / (1 - p)**(1 / alpha) for p in [0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any((p_arr < 0.0) | (p_arr >= 1.0)):
        raise ValueError("quantile defined for probabilities in [0, 1)")
    out = params.b / (1.0 - p_arr) ** (1.0 / params.alpha)
    return _maybe_scalar(out, p)


def tail_fraction(params: ParetoParams, x) -> float | np.ndarray:
    """Survival probability P(X > x) = (b / x)**alpha for x >= b."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < params.b):
        raise ValueError(f"survival undefined below the scale b={params.b}")
    return _maybe_scalar((params.b / x_arr) ** params.alpha, x)


def require_pcg64(rng: np.random.Generator) -> np.random.PCG64:
    """``rng``'s bit generator, refused unless PCG64: plsim reads its raw
    outputs as numpy's methods do, and other bit generators' differ."""
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise ValueError(f"plsim draws from a PCG64 generator only, got {type(bitgen).__name__}")
    return bitgen


def sample(params: ParetoParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` inverse-transform draws through the quantile function, from
    the uniforms of ``rng.random(size)``: the top 53 bits of each PCG64
    output times 2**-53, on [0, 1), so u = 1 (an infinite quantile) is
    unreachable and every sample is >= b."""
    raw = require_pcg64(rng).random_raw(size)
    raw >>= 11
    u = raw.view(np.float64)
    np.copyto(u, raw)  # in place, element by element, where a ufunc would copy raw
    u *= 2.0**-53
    return quantile(params, u)

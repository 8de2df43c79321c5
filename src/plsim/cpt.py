"""Cumulative-prospect-theory utilities for prize-linked savings designs.

Value function and probability weighting follow the standard two-part form:

    v(x)  =  x**a                    for gains
          = -lam * (-x)**b           for losses
    w(p)  =  p**e / (p**e + (1-p)**e)**(1/e)

with a = b = GAIN_EXP = LOSS_EXP = 0.88, lam = LOSS_AVERSION = 2.25, and e =
GAIN_WEIGHT_EXP = 0.61 for gains, LOSS_WEIGHT_EXP = 0.69 for losses: Tversky &
Kahneman's median estimates ("Advances in prospect theory", 1992). Two prize
specs are evaluated over the savings amount X; each owns its domain:

* FixedPrizeSpec    a fixed prize ``y``; the chance of winning grows linearly
                    in X (slope ``c``) and the saver expects growth at rate
                    ``r``, so a win is worth y - X*r and not winning is felt
                    as the loss -X*r. Defined for X*c <= 1 and X < y/r. At
                    r = 0 (the fixed model) losing returns the principal, so
                    the loss branch is identically zero.
* DynamicPrizeSpec  the prize is a multiple ``w`` of the balance and the win
                    probability ``p`` is the same for every account; a win
                    is worth X*(w - r), not winning costs the forgone growth.

Analytic first/second derivatives are provided where they are simple closed
forms; everything else is probed with central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .pareto import _maybe_scalar, _real

# the median estimates of Tversky & Kahneman, J. Risk Uncertain. 5 (1992)
GAIN_EXP = LOSS_EXP = 0.88
LOSS_AVERSION = 2.25
GAIN_WEIGHT_EXP = 0.61
LOSS_WEIGHT_EXP = 0.69


def _store_floats(spec) -> None:
    """Store every field of a frozen spec as a float, refusing a bool or a
    value that is not a real number as ``pareto._real`` does."""
    for field in fields(spec):
        object.__setattr__(spec, field.name, _real(getattr(spec, field.name), field.name))


def _check_growth_rate(rate: float) -> None:
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"growth rate must be finite and non-negative, got {rate}")


@dataclass(frozen=True)
class FixedPrizeSpec:
    """Fixed prize ``prize``, win-probability slope ``prob_per_unit``
    (probability per unit saved), and assumed growth rate ``growth_rate``."""

    prize: float
    prob_per_unit: float
    growth_rate: float = 0.0

    def __post_init__(self):
        _store_floats(self)
        if not 0.0 < self.prize < math.inf:
            raise ValueError(f"prize must be finite and positive, got {self.prize}")
        if not 0.0 < self.prob_per_unit < math.inf:
            raise ValueError("probability slope must be finite and positive, "
                             f"got {self.prob_per_unit}")
        _check_growth_rate(self.growth_rate)

    def max_savings(self) -> float:
        """Upper end of the analyzed region: the prize net of forgone growth
        reaches zero at prize / growth_rate."""
        if self.growth_rate == 0.0:
            return np.inf
        return self.prize / self.growth_rate

    def domain(self) -> tuple[float, float, bool]:
        """(low, high, high_exclusive) for the savings amount: X*c <= 1, and
        X < prize/r where that bound is the tighter one."""
        prob_limit = 1.0 / self.prob_per_unit
        growth_limit = self.max_savings()
        if growth_limit <= prob_limit:
            return 0.0, growth_limit, True
        return 0.0, prob_limit, False


@dataclass(frozen=True)
class DynamicPrizeSpec:
    """Prize multiple ``multiple``, constant win probability ``win_prob``,
    and assumed growth rate ``growth_rate``; requires multiple > growth."""

    multiple: float
    win_prob: float
    growth_rate: float = 0.0

    def __post_init__(self):
        _store_floats(self)
        _check_growth_rate(self.growth_rate)
        if not self.growth_rate < self.multiple < math.inf:
            raise ValueError("prize multiple must be finite and exceed the growth "
                             f"rate, got {self.multiple}")
        if not 0.0 < self.win_prob < 1.0:
            raise ValueError("win probability must lie in (0, 1)")

    def domain(self) -> tuple[float, float, bool]:
        """(low, high, high_exclusive) for the savings amount: any X >= 0."""
        return 0.0, math.inf, False


@dataclass(frozen=True)
class UtilityParts:
    """Gain and loss components of a utility evaluation, plus their sum."""

    gain: float | np.ndarray
    loss: float | np.ndarray
    total: float | np.ndarray


def value(x) -> float | np.ndarray:
    """Two-part value function: concave over gains, convex and steeper
    (by the loss-aversion factor) over losses; v(0) = 0."""
    x_arr = np.asarray(x, dtype=float)
    gains = np.power(np.clip(x_arr, 0.0, None), GAIN_EXP)
    losses = -LOSS_AVERSION * np.power(np.clip(-x_arr, 0.0, None), LOSS_EXP)
    return _maybe_scalar(np.where(x_arr >= 0.0, gains, losses), x)


def _weight(p, exponent: float):
    p_arr = np.asarray(p, dtype=float)
    if np.any((p_arr < 0.0) | (p_arr > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    num = p_arr**exponent
    out = num / (num + (1.0 - p_arr) ** exponent) ** (1.0 / exponent)
    return _maybe_scalar(out, p)


def weight_gain(p) -> float | np.ndarray:
    """Decision weight for gains; fixes 0 and 1, overweights small p."""
    return _weight(p, GAIN_WEIGHT_EXP)


def weight_loss(p) -> float | np.ndarray:
    """Decision weight for losses (same form, loss exponent)."""
    return _weight(p, LOSS_WEIGHT_EXP)


# ---------------------------------------------------------------------------
# prize-model utilities


def _utility(x, won, p, lost) -> UtilityParts:
    """gain = v(won) * w_gain(p); loss = v(lost) * w_loss(1 - p), each
    shaped like ``x``."""
    gain = value(won) * weight_gain(p)
    loss = value(lost) * weight_loss(1.0 - p)
    return UtilityParts(gain=_maybe_scalar(gain, x), loss=_maybe_scalar(loss, x),
                        total=_maybe_scalar(gain + loss, x))


def utility_fixed_growth(spec: FixedPrizeSpec, x) -> UtilityParts:
    """Fixed prize with growth expectation.

    gain = v(prize - X*r) * w_gain(X*c); loss = v(-X*r) * w_loss(1 - X*c).
    Defined on 0 <= X < prize/r (beyond that even a win is a loss, outside
    the analyzed region). At r = 0 this is the fixed model: the loss is
    +0.0 because not winning returns the principal, and the total equals
    the gain exactly.
    """
    x_arr = np.asarray(x, dtype=float)
    p = x_arr * spec.prob_per_unit
    if np.any(x_arr < 0.0) or np.any(p > 1.0):
        raise ValueError("requires 0 <= X and X * prob_per_unit <= 1")
    if np.any(x_arr >= spec.max_savings()):
        raise ValueError("requires X < prize / growth_rate")
    rate = spec.growth_rate
    return _utility(x, spec.prize - x_arr * rate, p, -x_arr * rate)


def utility_dynamic(spec: DynamicPrizeSpec, x) -> UtilityParts:
    """Dynamic prize: gain = v(X*(w - r)) * w_gain(p), with the constant win
    probability leaving the weighting untouched by X; the loss of forgone
    growth, v(-X*r) * w_loss(1 - p), is reported separately so the gain-side
    behavior can be inspected on its own."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("savings amount must be non-negative")
    rate = spec.growth_rate
    return _utility(x, x_arr * (spec.multiple - rate), spec.win_prob, -x_arr * rate)


# ---------------------------------------------------------------------------
# analytic derivatives (simple closed forms only)


def fixed_growth_prize_slope(spec: FixedPrizeSpec, x):
    """d/dX of v(prize - X*r): -a * r * (prize - X*r)**(a - 1)."""
    a, r = GAIN_EXP, spec.growth_rate
    net = spec.prize - np.asarray(x, dtype=float) * r
    if np.any(net <= 0.0):
        raise ValueError("requires X < prize / growth_rate")
    return _maybe_scalar(-a * r * net ** (a - 1.0), x)


def fixed_growth_prize_curvature(spec: FixedPrizeSpec, x):
    """d2/dX2 of v(prize - X*r): a * (a - 1) * r**2 * (prize - X*r)**(a - 2)."""
    a, r = GAIN_EXP, spec.growth_rate
    net = spec.prize - np.asarray(x, dtype=float) * r
    if np.any(net <= 0.0):
        raise ValueError("requires X < prize / growth_rate")
    return _maybe_scalar(a * (a - 1.0) * r**2 * net ** (a - 2.0), x)


def dynamic_gain_slope(spec: DynamicPrizeSpec, x):
    """d/dX of the dynamic gain term:
    a * (w - r)**a * X**(a - 1) * w_gain(p), positive for all X > 0."""
    a, net = GAIN_EXP, spec.multiple - spec.growth_rate
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise ValueError("slope defined for X > 0")
    w = _weight(spec.win_prob, GAIN_WEIGHT_EXP)
    return _maybe_scalar(a * net**a * x_arr ** (a - 1.0) * w, x)


def dynamic_gain_curvature(spec: DynamicPrizeSpec, x):
    """d2/dX2 of the dynamic gain term:
    a * (a - 1) * (w - r)**a * X**(a - 2) * w_gain(p), negative for X > 0."""
    a, net = GAIN_EXP, spec.multiple - spec.growth_rate
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise ValueError("curvature defined for X > 0")
    w = _weight(spec.win_prob, GAIN_WEIGHT_EXP)
    return _maybe_scalar(a * (a - 1.0) * net**a * x_arr ** (a - 2.0) * w, x)


# ---------------------------------------------------------------------------
# finite differences and sign reporting


def adaptive_step(x: float) -> float:
    """Stencil half-width: relative 1e-6 with an absolute floor of 1e-6."""
    return max(1e-6, 1e-6 * abs(x))


def first_diff(f, x: float, h: float | None = None) -> float:
    """Central first difference (f(x+h) - f(x-h)) / 2h."""
    h = adaptive_step(x) if h is None else h
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x: float, h: float | None = None) -> float:
    """Three-point second difference (f(x+h) - 2 f(x) + f(x-h)) / h**2."""
    h = adaptive_step(x) if h is None else h
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def sign_char(v: float | None) -> str:
    """'+', '-', or '0' for a number; '' when the value is unavailable."""
    if v is None:
        return ""
    if v > 0.0:
        return "+"
    if v < 0.0:
        return "-"
    return "0"


@dataclass(frozen=True)
class CurvePoint:
    """Utility components at one savings amount plus their finite
    differences (None where the stencil would leave the spec's domain)."""

    x: float
    gain: float
    loss: float
    total: float
    gain_slope: float | None = None
    gain_curvature: float | None = None
    loss_slope: float | None = None
    loss_curvature: float | None = None
    total_slope: float | None = None
    total_curvature: float | None = None


def sign_report(spec, x_grid) -> list[CurvePoint]:
    """Evaluate a prize spec over a grid and probe first/second differences
    of the gain, loss, and total components at every point.

    Grid points must be finite and lie inside the spec's domain, and every
    value and difference at them finite in float64; points where the
    stencil itself would step outside, and the point of a one-point grid,
    get values but no differences.
    """
    lo, hi, hi_exclusive = spec.domain()
    grid = np.asarray(x_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    bad = grid[~np.isfinite(grid) | (grid < lo) | (grid > hi)
               | (hi_exclusive & (grid >= hi))]
    if bad.size:
        # the count and the ends, not every point: the message is one line
        raise ValueError(f"grid points outside the model domain: {bad.size} of "
                         f"{grid.size}, first {bad[0]}, last {bad[-1]}")
    utility = utility_dynamic if isinstance(spec, DynamicPrizeSpec) else utility_fixed_growth
    out, non_finite = [], []
    for x in grid.tolist():
        h = adaptive_step(x)
        feasible = grid.size > 1 and (x - h) >= lo and (
            (x + h) < hi if hi_exclusive else (x + h) <= hi)
        # the utility at each stencil point, evaluated once for all three parts
        stencil = (x - h, x, x + h) if feasible else (x,)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
            at = {t: utility(spec, t) for t in stencil}
            diffs: dict[str, float | None] = {}
            for name in ("gain", "loss", "total"):
                f = lambda t, name=name: getattr(at[t], name)
                diffs[f"{name}_slope"] = first_diff(f, x, h) if feasible else None
                diffs[f"{name}_curvature"] = second_diff(f, x, h) if feasible else None
        point = CurvePoint(x=x, gain=at[x].gain, loss=at[x].loss, total=at[x].total, **diffs)
        if not all(math.isfinite(v) for v in vars(point).values() if v is not None):
            non_finite.append(x)
        out.append(point)
    if non_finite:
        raise ValueError(f"utility not finite in float64 at grid points: {len(non_finite)} "
                         f"of {grid.size}, first {non_finite[0]}, last {non_finite[-1]}")
    return out

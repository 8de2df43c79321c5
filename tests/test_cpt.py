from dataclasses import replace

import numpy as np
import pytest

from plsim import cpt
from plsim.cpt import (
    CurvePoint,
    DynamicPrizeSpec,
    FixedPrizeSpec,
    dynamic_gain_curvature,
    dynamic_gain_slope,
    first_diff,
    fixed_growth_prize_curvature,
    fixed_growth_prize_slope,
    second_diff,
    sign_char,
    sign_report,
    utility_dynamic,
    utility_fixed_growth,
    value,
    weight_gain,
    weight_loss,
)

FIXED_NG = FixedPrizeSpec(prize=10_000.0, prob_per_unit=1e-6)
FIXED_G = FixedPrizeSpec(prize=10_000.0, prob_per_unit=1e-6, growth_rate=0.05)
DYN = DynamicPrizeSpec(multiple=1.0, win_prob=0.01, growth_rate=0.05)

# coarser stencil for curvature checks: at the default 1e-6 relative step the
# three-point formula's rounding noise (~1e-3 relative) would mask agreement
CURV_STEP = lambda x: 1e-4 * max(1.0, abs(x))


class TestValue:
    def test_reference_points(self):
        # the published median estimates, pinned here by name
        assert (cpt.GAIN_EXP, cpt.LOSS_EXP, cpt.LOSS_AVERSION) == (0.88, 0.88, 2.25)
        assert (cpt.GAIN_WEIGHT_EXP, cpt.LOSS_WEIGHT_EXP) == (0.61, 0.69)
        assert value(0.0) == 0.0
        assert value(1.0) == 1.0
        assert value(-1.0) == -2.25

    def test_strictly_increasing_and_s_shaped(self):
        xs = np.linspace(-50.0, 50.0, 401)
        vs = value(xs)
        assert np.all(np.diff(vs) > 0.0)
        gains = np.geomspace(0.1, 100.0, 50)
        # concave over gains, convex over losses
        assert all(second_diff(lambda t: value(t), x) < 0.0 for x in gains)
        assert all(second_diff(lambda t: value(-t), x) > 0.0 for x in gains)

    def test_array_input(self):
        out = value(np.array([-1.0, 0.0, 4.0]))
        np.testing.assert_allclose(out, [-2.25, 0.0, 4.0**0.88])


class TestWeights:
    def test_endpoints_fixed(self):
        assert weight_gain(0.0) == 0.0
        assert weight_gain(1.0) == 1.0
        assert weight_loss(0.0) == 0.0
        assert weight_loss(1.0) == 1.0

    def test_high_precision_reference_values(self):
        # frozen from 50-digit arithmetic
        assert weight_gain(0.1) == pytest.approx(0.186302566377, abs=1e-9)
        assert weight_gain(0.25) == pytest.approx(0.29074293416, abs=1e-9)
        assert weight_gain(0.5) == pytest.approx(0.420639354336, abs=1e-9)
        assert weight_loss(0.9) == pytest.approx(0.774903487231, abs=1e-9)

    def test_unit_exponent_is_identity(self):
        ps = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(cpt._weight(ps, 1.0), ps, atol=1e-12)

    def test_monotone_at_and_above_threshold(self):
        ps = np.linspace(0.0, 1.0, 400)
        for exp in (0.28, 0.4, 0.61, 0.69, 1.0):
            assert np.all(np.diff(cpt._weight(ps, exp)) > 0.0)

    def test_overweights_small_probabilities(self):
        ps = np.linspace(0.001, 0.0999, 60)
        assert np.all(weight_gain(ps) > ps)

    def test_domain_errors(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                weight_gain(bad)


class TestFixedNoGrowth:
    def test_boundary_values(self):
        assert utility_fixed_growth(FIXED_NG, 0.0).gain == 0.0
        top = utility_fixed_growth(FIXED_NG, 1.0 / FIXED_NG.prob_per_unit).gain
        assert top == pytest.approx(value(FIXED_NG.prize))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            utility_fixed_growth(FIXED_NG, 1.0 / FIXED_NG.prob_per_unit + 1.0).gain
        with pytest.raises(ValueError):
            utility_fixed_growth(FIXED_NG, -1.0).gain

    def test_concave_below_weight_inflection(self):
        # diminishing returns hold where the weighting curve is concave, i.e.
        # win probabilities below its inflection (with margin), which for the
        # gain exponent 0.61 lies at p = 0.4261922..., frozen from 40-digit
        # arithmetic
        x_top = 0.85 * 0.42619 / FIXED_NG.prob_per_unit
        f = lambda x: utility_fixed_growth(FIXED_NG, x).gain
        for x in np.geomspace(1_000.0, x_top, 80):
            assert second_diff(f, x) < 0.0


class TestFixedGrowth:
    def test_zero_savings_zero_utility(self):
        parts = utility_fixed_growth(FIXED_G, 0.0)
        assert parts.gain == 0.0
        assert parts.loss == 0.0
        assert parts.total == 0.0

    def test_domain_error_at_growth_limit(self):
        with pytest.raises(ValueError):
            utility_fixed_growth(FIXED_G, FIXED_G.max_savings())

    def test_gain_diminishes_everywhere(self):
        f = lambda x: utility_fixed_growth(FIXED_G, x).gain
        for x in np.geomspace(1.0, 0.995 * FIXED_G.max_savings(), 120):
            assert second_diff(f, x) < 0.0

    def test_loss_branch_is_convex(self):
        f = lambda x: utility_fixed_growth(FIXED_G, x).loss
        for x in np.geomspace(1.0, 0.995 * FIXED_G.max_savings(), 120):
            assert second_diff(f, x) > 0.0

    def test_analytic_prize_slope_matches_difference(self):
        # the function's own length scale is (prize - x*r)/r, not x; steps
        # tied to x suffer cancellation where the slope is tiny next to f
        f = lambda x: value(FIXED_G.prize - x * FIXED_G.growth_rate)
        for x in (1.0, 100.0, 10_000.0, 150_000.0):
            span = (FIXED_G.prize - x * FIXED_G.growth_rate) / FIXED_G.growth_rate
            analytic = fixed_growth_prize_slope(FIXED_G, x)
            assert analytic == pytest.approx(first_diff(f, x, h=1e-5 * span), rel=1e-6)
            assert analytic < 0.0

    def test_analytic_prize_curvature_matches_difference(self):
        f = lambda x: value(FIXED_G.prize - x * FIXED_G.growth_rate)
        for x in (1.0, 100.0, 10_000.0, 150_000.0):
            span = (FIXED_G.prize - x * FIXED_G.growth_rate) / FIXED_G.growth_rate
            analytic = fixed_growth_prize_curvature(FIXED_G, x)
            assert analytic == pytest.approx(
                second_diff(f, x, h=3e-4 * span), rel=1e-6)
            assert analytic < 0.0


class TestDynamic:
    def test_zero_savings_zero_utility(self):
        parts = utility_dynamic(DYN, 0.0)
        assert parts.gain == 0.0
        assert parts.loss == 0.0
        assert parts.total == 0.0

    def test_components_reported_separately(self):
        parts = utility_dynamic(DYN, 500.0)
        expected_gain = value(500.0 * 0.95) * weight_gain(0.01)
        expected_loss = value(-25.0) * weight_loss(0.99)
        assert parts.gain == pytest.approx(expected_gain)
        assert parts.loss == pytest.approx(expected_loss)
        assert parts.total == pytest.approx(expected_gain + expected_loss)

    def test_array_input(self):
        xs = np.array([0.0, 1.0, 10.0])
        parts = utility_dynamic(DYN, xs)
        assert parts.gain.shape == xs.shape
        np.testing.assert_allclose(parts.total, parts.gain + parts.loss)

    def test_gain_increasing_and_diminishing(self):
        f = lambda x: utility_dynamic(DYN, x).gain
        for x in np.geomspace(0.01, 1e6, 120):
            assert first_diff(f, x) > 0.0
            assert second_diff(f, x) < 0.0

    def test_analytic_slope_matches_difference(self):
        f = lambda x: utility_dynamic(DYN, x).gain
        for x in (0.5, 10.0, 1_000.0, 250_000.0):
            analytic = dynamic_gain_slope(DYN, x)
            assert analytic == pytest.approx(first_diff(f, x), rel=1e-6)
            assert analytic > 0.0

    def test_analytic_curvature_matches_difference(self):
        f = lambda x: utility_dynamic(DYN, x).gain
        for x in (0.5, 10.0, 1_000.0, 250_000.0):
            analytic = dynamic_gain_curvature(DYN, x)
            assert analytic == pytest.approx(second_diff(f, x, h=CURV_STEP(x)), rel=1e-6)
            assert analytic < 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DynamicPrizeSpec(multiple=0.05, win_prob=0.5, growth_rate=0.05)
        with pytest.raises(ValueError):
            DynamicPrizeSpec(multiple=1.0, win_prob=0.0)


@pytest.mark.parametrize("spec, field, bad", [
    (FIXED_G, "prize", True),
    (FIXED_G, "prob_per_unit", "1e-6"),
    (FIXED_G, "growth_rate", np.True_),
    (DYN, "multiple", "2"),
    (DYN, "win_prob", True),
    (DYN, "growth_rate", None),
], ids=["fixed-prize-True", "fixed-slope-str", "fixed-growth-np.True_",
        "dynamic-multiple-str", "dynamic-win-prob-True", "dynamic-growth-None"])
def test_specs_refuse_bools_and_non_reals(spec, field, bad):
    # True would be taken as 1, and "2" fail a comparison with a bare TypeError
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
        replace(spec, **{field: bad})


def test_specs_store_floats():
    fixed = FixedPrizeSpec(prize=10_000, prob_per_unit=np.float32(0.5),
                           growth_rate=np.int64(0))
    dynamic = DynamicPrizeSpec(multiple=np.int64(2), win_prob=np.float64(0.01), growth_rate=0)
    for spec in (fixed, dynamic):
        assert all(type(value) is float for value in vars(spec).values())
    assert (fixed.prize, fixed.prob_per_unit, dynamic.multiple) == (10_000.0, 0.5, 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
class TestNonFiniteInput:
    @pytest.mark.parametrize("field", ["prize", "prob_per_unit", "growth_rate"])
    def test_fixed_spec_rejects(self, field, bad):
        fields = {"prize": 10_000.0, "prob_per_unit": 1e-6, "growth_rate": 0.05}
        with pytest.raises(ValueError, match="finite"):
            FixedPrizeSpec(**{**fields, field: bad})

    @pytest.mark.parametrize("field", ["multiple", "growth_rate"])
    def test_dynamic_spec_rejects(self, field, bad):
        fields = {"multiple": 1.0, "win_prob": 0.01, "growth_rate": 0.05}
        with pytest.raises(ValueError, match="finite"):
            DynamicPrizeSpec(**{**fields, field: bad})

    @pytest.mark.parametrize("model, spec", [("fixed", FIXED_NG),
                                             ("fixed-growth", FIXED_G),
                                             ("dynamic", DYN)])
    def test_grid_point_outside_domain(self, model, spec, bad):
        with pytest.raises(ValueError, match="outside"):
            sign_report(spec, np.array([1.0, bad]))


class TestSignReport:
    def test_dynamic_signs(self):
        grid = np.geomspace(0.1, 1e5, 50)
        report = sign_report(DYN, grid)
        assert len(report) == 50
        for pt in report:
            assert pt.gain_slope > 0.0 and pt.gain_curvature < 0.0
            assert pt.loss_slope < 0.0 and pt.loss_curvature > 0.0
            assert sign_char(pt.gain_slope) == "+"

    def test_fixed_model_loss_is_flat_zero(self):
        report = sign_report(FIXED_NG, np.geomspace(10.0, 1e5, 10))
        for pt in report:
            assert pt.loss == 0.0
            assert sign_char(pt.loss_slope) == "0"
            assert sign_char(pt.loss_curvature) == "0"

    def test_out_of_domain_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            sign_report(FIXED_G, np.array([1.0, FIXED_G.max_savings() + 1.0]))

    @pytest.mark.parametrize("spec, grid, tally", [
        # finite inputs whose gain X * (w - r) overflows float64 from X = 1e150 on
        (replace(DYN, multiple=1e300), [1.0, 1e150, 1e300],
         "2 of 3, first 1e+150, last 1e+300"),
        # the values of a one-point grid, which gets no differences
        (replace(DYN, multiple=1e300), [1e300], "1 of 1, first 1e+300, last 1e+300"),
        # finite values, but the stencil's X + h overflows to inf, and so do
        # the differences
        (DYN, [1.0, np.finfo(float).max],
         "1 of 2, first 1.7976931348623157e+308, last 1.7976931348623157e+308"),
    ], ids=["overflowing-values", "one-point-grid", "overflowing-stencil"])
    def test_non_finite_curve_rejected(self, spec, grid, tally):
        with pytest.raises(ValueError) as err:
            sign_report(spec, np.array(grid))
        assert str(err.value) == f"utility not finite in float64 at grid points: {tally}"

    def test_stencil_infeasible_at_boundary(self):
        report = sign_report(DYN, np.array([0.0, 1.0]))
        assert report[0].gain_slope is None
        assert report[0].total_curvature is None
        assert report[1].gain_slope is not None

    def test_point_fields(self):
        pt = sign_report(DYN, np.array([2.0]))[0]
        assert isinstance(pt, CurvePoint)
        parts = utility_dynamic(DYN, 2.0)
        assert pt.gain == pytest.approx(parts.gain)
        assert pt.total == pytest.approx(parts.total)


@pytest.mark.parametrize("call, message", [
    (lambda: utility_dynamic(DYN, -1.0), "savings amount must be non-negative"),
    (lambda: fixed_growth_prize_slope(FIXED_G, FIXED_G.max_savings()),
     "requires X < prize / growth_rate"),
    (lambda: fixed_growth_prize_curvature(FIXED_G, 2 * FIXED_G.max_savings()),
     "requires X < prize / growth_rate"),
    (lambda: dynamic_gain_slope(DYN, 0.0), "slope defined for X > 0"),
    (lambda: dynamic_gain_curvature(DYN, np.array([1.0, -1.0])),
     "curvature defined for X > 0"),
    (lambda: sign_report(DYN, np.array([])), "non-empty 1-D array"),
    (lambda: sign_report(DYN, np.ones((2, 2))), "non-empty 1-D array"),
], ids=["dynamic-utility-negative-x", "fixed-slope-at-bound",
        "fixed-curvature-beyond-bound", "dynamic-slope-at-zero",
        "dynamic-curvature-negative-x", "sign-report-empty-grid", "sign-report-2d-grid"])
def test_refusals_outside_each_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()

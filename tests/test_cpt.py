import numpy as np
import pytest

from plsim.cpt import (
    CptParams,
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
    weight_inflection,
    weight_loss,
)

PARAMS = CptParams()
FIXED_NG = FixedPrizeSpec(prize=10_000.0, prob_per_unit=1e-6)
FIXED_G = FixedPrizeSpec(prize=10_000.0, prob_per_unit=1e-6, growth_rate=0.05)
DYN = DynamicPrizeSpec(multiple=1.0, win_prob=0.01, growth_rate=0.05)

# coarser stencil for curvature checks: at the default 1e-6 relative step the
# three-point formula's rounding noise (~1e-3 relative) would mask agreement
CURV_STEP = lambda x: 1e-4 * max(1.0, abs(x))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CptParams(gain_exp=1.0)
        with pytest.raises(ValueError):
            CptParams(loss_exp=0.0)
        with pytest.raises(ValueError):
            CptParams(loss_aversion=0.5)
        with pytest.raises(ValueError):
            CptParams(gain_weight_exp=1.2)

    def test_warns_on_nonmonotone_weighting(self):
        with pytest.warns(UserWarning):
            CptParams(gain_weight_exp=0.2)
        with pytest.warns(UserWarning):
            CptParams(loss_weight_exp=0.25)


class TestValue:
    def test_reference_points(self):
        assert value(PARAMS, 0.0) == 0.0
        assert value(PARAMS, 1.0) == 1.0
        assert value(PARAMS, -1.0) == -PARAMS.loss_aversion

    def test_strictly_increasing_and_s_shaped(self):
        xs = np.linspace(-50.0, 50.0, 401)
        vs = value(PARAMS, xs)
        assert np.all(np.diff(vs) > 0.0)
        gains = np.geomspace(0.1, 100.0, 50)
        # concave over gains, convex over losses
        assert all(second_diff(lambda t: value(PARAMS, t), x) < 0.0 for x in gains)
        assert all(second_diff(lambda t: value(PARAMS, -t), x) > 0.0 for x in gains)

    def test_array_input(self):
        out = value(PARAMS, np.array([-1.0, 0.0, 4.0]))
        np.testing.assert_allclose(out, [-2.25, 0.0, 4.0**0.88])


class TestWeights:
    def test_endpoints_fixed(self):
        assert weight_gain(PARAMS, 0.0) == 0.0
        assert weight_gain(PARAMS, 1.0) == 1.0
        assert weight_loss(PARAMS, 0.0) == 0.0
        assert weight_loss(PARAMS, 1.0) == 1.0

    def test_high_precision_reference_values(self):
        # frozen from 50-digit arithmetic
        assert weight_gain(PARAMS, 0.1) == pytest.approx(0.186302566377, abs=1e-9)
        assert weight_gain(PARAMS, 0.25) == pytest.approx(0.29074293416, abs=1e-9)
        assert weight_gain(PARAMS, 0.5) == pytest.approx(0.420639354336, abs=1e-9)
        assert weight_loss(PARAMS, 0.9) == pytest.approx(0.774903487231, abs=1e-9)

    def test_unit_exponent_is_identity(self):
        params = CptParams(gain_weight_exp=1.0)
        ps = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(weight_gain(params, ps), ps, atol=1e-12)

    def test_monotone_at_and_above_threshold(self):
        ps = np.linspace(0.0, 1.0, 400)
        for exp in (0.28, 0.4, 0.61, 0.69, 1.0):
            params = CptParams(gain_weight_exp=exp)
            assert np.all(np.diff(weight_gain(params, ps)) > 0.0)

    def test_overweights_small_probabilities(self):
        ps = np.linspace(0.001, 0.0999, 60)
        assert np.all(weight_gain(PARAMS, ps) > ps)

    def test_domain_errors(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                weight_gain(PARAMS, bad)

    def test_inflection_location(self):
        # frozen from 40-digit arithmetic: 0.4261922...
        assert weight_inflection(0.61) == pytest.approx(0.42619, abs=1e-4)
        assert weight_inflection(0.69) == pytest.approx(0.44757, abs=1e-4)


class TestFixedNoGrowth:
    def test_boundary_values(self):
        assert utility_fixed_growth(PARAMS, FIXED_NG, 0.0).gain == 0.0
        top = utility_fixed_growth(PARAMS, FIXED_NG, 1.0 / FIXED_NG.prob_per_unit).gain
        assert top == pytest.approx(value(PARAMS, FIXED_NG.prize))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            utility_fixed_growth(PARAMS, FIXED_NG, 1.0 / FIXED_NG.prob_per_unit + 1.0).gain
        with pytest.raises(ValueError):
            utility_fixed_growth(PARAMS, FIXED_NG, -1.0).gain

    def test_concave_below_weight_inflection(self):
        # diminishing returns hold where the weighting curve is concave,
        # i.e. win probabilities below the located inflection (with margin)
        inflection = weight_inflection(PARAMS.gain_weight_exp)
        x_top = 0.85 * inflection / FIXED_NG.prob_per_unit
        f = lambda x: utility_fixed_growth(PARAMS, FIXED_NG, x).gain
        for x in np.geomspace(1_000.0, x_top, 80):
            assert second_diff(f, x) < 0.0


class TestFixedGrowth:
    def test_zero_savings_zero_utility(self):
        parts = utility_fixed_growth(PARAMS, FIXED_G, 0.0)
        assert parts.gain == 0.0
        assert parts.loss == 0.0
        assert parts.total == 0.0

    def test_domain_error_at_growth_limit(self):
        with pytest.raises(ValueError):
            utility_fixed_growth(PARAMS, FIXED_G, FIXED_G.max_savings())

    def test_gain_diminishes_everywhere(self):
        f = lambda x: utility_fixed_growth(PARAMS, FIXED_G, x).gain
        for x in np.geomspace(1.0, 0.995 * FIXED_G.max_savings(), 120):
            assert second_diff(f, x) < 0.0

    def test_loss_branch_is_convex(self):
        f = lambda x: utility_fixed_growth(PARAMS, FIXED_G, x).loss
        for x in np.geomspace(1.0, 0.995 * FIXED_G.max_savings(), 120):
            assert second_diff(f, x) > 0.0

    def test_analytic_prize_slope_matches_difference(self):
        # the function's own length scale is (prize - x*r)/r, not x; steps
        # tied to x suffer cancellation where the slope is tiny next to f
        f = lambda x: value(PARAMS, FIXED_G.prize - x * FIXED_G.growth_rate)
        for x in (1.0, 100.0, 10_000.0, 150_000.0):
            span = (FIXED_G.prize - x * FIXED_G.growth_rate) / FIXED_G.growth_rate
            analytic = fixed_growth_prize_slope(PARAMS, FIXED_G, x)
            assert analytic == pytest.approx(first_diff(f, x, h=1e-5 * span), rel=1e-6)
            assert analytic < 0.0

    def test_analytic_prize_curvature_matches_difference(self):
        f = lambda x: value(PARAMS, FIXED_G.prize - x * FIXED_G.growth_rate)
        for x in (1.0, 100.0, 10_000.0, 150_000.0):
            span = (FIXED_G.prize - x * FIXED_G.growth_rate) / FIXED_G.growth_rate
            analytic = fixed_growth_prize_curvature(PARAMS, FIXED_G, x)
            assert analytic == pytest.approx(
                second_diff(f, x, h=3e-4 * span), rel=1e-6)
            assert analytic < 0.0


class TestDynamic:
    def test_zero_savings_zero_utility(self):
        parts = utility_dynamic(PARAMS, DYN, 0.0)
        assert parts.gain == 0.0
        assert parts.loss == 0.0
        assert parts.total == 0.0

    def test_components_reported_separately(self):
        parts = utility_dynamic(PARAMS, DYN, 500.0)
        expected_gain = value(PARAMS, 500.0 * 0.95) * weight_gain(PARAMS, 0.01)
        expected_loss = value(PARAMS, -25.0) * weight_loss(PARAMS, 0.99)
        assert parts.gain == pytest.approx(expected_gain)
        assert parts.loss == pytest.approx(expected_loss)
        assert parts.total == pytest.approx(expected_gain + expected_loss)

    def test_array_input(self):
        xs = np.array([0.0, 1.0, 10.0])
        parts = utility_dynamic(PARAMS, DYN, xs)
        assert parts.gain.shape == xs.shape
        np.testing.assert_allclose(parts.total, parts.gain + parts.loss)

    def test_gain_increasing_and_diminishing(self):
        f = lambda x: utility_dynamic(PARAMS, DYN, x).gain
        for x in np.geomspace(0.01, 1e6, 120):
            assert first_diff(f, x) > 0.0
            assert second_diff(f, x) < 0.0

    def test_analytic_slope_matches_difference(self):
        f = lambda x: utility_dynamic(PARAMS, DYN, x).gain
        for x in (0.5, 10.0, 1_000.0, 250_000.0):
            analytic = dynamic_gain_slope(PARAMS, DYN, x)
            assert analytic == pytest.approx(first_diff(f, x), rel=1e-6)
            assert analytic > 0.0

    def test_analytic_curvature_matches_difference(self):
        f = lambda x: utility_dynamic(PARAMS, DYN, x).gain
        for x in (0.5, 10.0, 1_000.0, 250_000.0):
            analytic = dynamic_gain_curvature(PARAMS, DYN, x)
            assert analytic == pytest.approx(second_diff(f, x, h=CURV_STEP(x)), rel=1e-6)
            assert analytic < 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DynamicPrizeSpec(multiple=0.05, win_prob=0.5, growth_rate=0.05)
        with pytest.raises(ValueError):
            DynamicPrizeSpec(multiple=1.0, win_prob=0.0)


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
            sign_report(PARAMS, spec, np.array([1.0, bad]))


class TestSignReport:
    def test_dynamic_signs(self):
        grid = np.geomspace(0.1, 1e5, 50)
        report = sign_report(PARAMS, DYN, grid)
        assert len(report) == 50
        for pt in report:
            assert pt.gain_slope > 0.0 and pt.gain_curvature < 0.0
            assert pt.loss_slope < 0.0 and pt.loss_curvature > 0.0
            assert sign_char(pt.gain_slope) == "+"

    def test_fixed_model_loss_is_flat_zero(self):
        report = sign_report(PARAMS, FIXED_NG, np.geomspace(10.0, 1e5, 10))
        for pt in report:
            assert pt.loss == 0.0
            assert sign_char(pt.loss_slope) == "0"
            assert sign_char(pt.loss_curvature) == "0"

    def test_out_of_domain_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            sign_report(PARAMS, FIXED_G, np.array([1.0, FIXED_G.max_savings() + 1.0]))

    def test_stencil_infeasible_at_boundary(self):
        report = sign_report(PARAMS, DYN, np.array([0.0, 1.0]))
        assert report[0].gain_slope is None
        assert report[0].total_curvature is None
        assert report[1].gain_slope is not None

    def test_point_fields(self):
        pt = sign_report(PARAMS, DYN, np.array([2.0]))[0]
        assert isinstance(pt, CurvePoint)
        parts = utility_dynamic(PARAMS, DYN, 2.0)
        assert pt.gain == pytest.approx(parts.gain)
        assert pt.total == pytest.approx(parts.total)

import numpy as np
import pytest
from scipy import integrate

from plsim.pareto import (
    ParetoParams,
    alpha_from_gini,
    gini_from_alpha,
    mean,
    pdf,
    quantile,
    sample,
    tail_fraction,
)

P104 = ParetoParams(1.04, 150.0)
P112 = ParetoParams(1.12, 250.0)


class TestParams:
    def test_rejects_infinite_mean_shape(self):
        with pytest.raises(ValueError):
            ParetoParams(1.0, 150.0)
        with pytest.raises(ValueError):
            ParetoParams(0.9, 150.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            ParetoParams(2.0, 0.0)
        with pytest.raises(ValueError):
            ParetoParams(2.0, -1.0)

    @pytest.mark.parametrize("alpha, b", [
        (np.inf, 150.0), (1.04, np.inf), (np.nan, 150.0), (1.04, np.nan)])
    def test_rejects_non_finite_parameters(self, alpha, b):
        with pytest.raises(ValueError, match="finite"):
            ParetoParams(alpha, b)


class TestPdf:
    def test_at_scale_equals_alpha_over_b(self):
        assert pdf(ParetoParams(2.0, 1.0), 1.0) == pytest.approx(2.0)
        assert pdf(P104, 150.0) == pytest.approx(1.04 / 150.0)

    def test_below_scale_rejected(self):
        with pytest.raises(ValueError):
            pdf(P104, 149.9)

    def test_integrates_to_one(self):
        total, _ = integrate.quad(lambda x: pdf(P104, x), 150.0, np.inf)
        assert total >= 0.999
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_tail_integral_matches_survival(self):
        # independent quadrature oracle for the density away from the scale
        tail, _ = integrate.quad(lambda x: pdf(P104, x), 300.0, np.inf)
        assert tail == pytest.approx(tail_fraction(P104, 300.0), rel=1e-9)


class TestMean:
    def test_published_values(self):
        assert mean(P104) == pytest.approx(3900.0, abs=1e-9)
        assert mean(P112) == pytest.approx(2333.33, abs=0.01)

    def test_double_scale(self):
        for b in (1.0, 7.5, 1234.0):
            assert mean(ParetoParams(2.0, b)) == pytest.approx(2.0 * b)


class TestGini:
    def test_known_values(self):
        assert gini_from_alpha(1.12) == pytest.approx(0.80645, abs=5e-6)
        assert gini_from_alpha(1.0) == pytest.approx(1.0)
        assert alpha_from_gini(0.8065) == pytest.approx(1.1200, abs=5e-4)

    def test_round_trip(self):
        gs = np.linspace(0.01, 1.0, 50)
        back = gini_from_alpha(alpha_from_gini(gs))
        np.testing.assert_allclose(back, gs, rtol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gini_from_alpha(0.5)
        with pytest.raises(ValueError):
            alpha_from_gini(0.0)
        with pytest.raises(ValueError):
            alpha_from_gini(1.5)


class TestQuantile:
    def test_published_values(self):
        assert quantile(P104, 0.5) == pytest.approx(292.11, abs=0.005)
        assert quantile(P112, 0.99) == pytest.approx(15263.51, abs=0.005)

    def test_zero_is_scale(self):
        assert quantile(P104, 0.0) == 150.0
        assert quantile(P112, 0.0) == 250.0

    def test_sqrt_two_case(self):
        assert quantile(ParetoParams(2.0, 1.0), 0.5) == pytest.approx(np.sqrt(2.0))

    def test_strictly_increasing(self):
        ps = np.linspace(0.0, 0.999, 200)
        qs = quantile(P104, ps)
        assert np.all(np.diff(qs) > 0.0)

    def test_domain_errors(self):
        for bad in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                quantile(P104, bad)


class TestTailFraction:
    def test_published_values(self):
        # each to within 0.001 percentage points of the rounded references
        assert tail_fraction(P104, 10_000.0) == pytest.approx(0.01268, abs=1e-5)
        assert tail_fraction(P104, 50_000.0) == pytest.approx(0.00238, abs=1e-5)
        assert tail_fraction(P104, 250_000.0) == pytest.approx(0.00045, abs=1e-5)
        assert tail_fraction(P112, 10_000.0) == pytest.approx(0.01606, abs=1e-5)
        assert tail_fraction(P112, 250_000.0) == pytest.approx(0.00044, abs=1e-5)

    def test_at_scale_is_one(self):
        assert tail_fraction(P104, 150.0) == 1.0

    def test_below_scale_rejected(self):
        with pytest.raises(ValueError):
            tail_fraction(P112, 100.0)

    def test_inverse_of_quantile(self):
        ps = np.concatenate([[0.0], np.linspace(0.1, 0.999, 100)])
        back = tail_fraction(P104, quantile(P104, ps))
        np.testing.assert_allclose(back, 1.0 - ps, rtol=1e-12)


class TestSample:
    def test_all_samples_at_least_scale(self):
        rng = np.random.default_rng(5)
        xs = sample(P112, rng, size=100_000)
        assert xs.min() >= 250.0

    def test_empirical_quantiles_match_analytic(self):
        # Monte Carlo bands sized from the quantile-estimator standard error
        # at n=1e5 (roughly 0.3%, 1%, 3% of the value at p50/p90/p99)
        rng = np.random.default_rng(2024)
        xs = sample(P104, rng, size=100_000)
        for p, rel in ((0.5, 0.02), (0.9, 0.05), (0.99, 0.20)):
            emp = np.quantile(xs, p)
            assert emp == pytest.approx(quantile(P104, p), rel=rel)

    def test_heavy_tail_sample_mean_band(self):
        # spec's +-5% guess was refuted by a 20-generation oracle: the
        # sample mean of an alpha=1.12 Pareto typically undershoots E[X]
        # (observed ratio range 0.73-1.11); assert the observed band
        for seed in (0, 1, 2):
            rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(seed,)))
            ratio = sample(P112, rng, size=1_000_000).mean() / 2333.33
            assert 0.6 < ratio < 1.4

    def test_light_tail_sample_mean_converges(self):
        # finite-variance case where the law of large numbers bites:
        # sd(mean) = b*sqrt(3)/2/sqrt(n), so 1% is a >5-sigma band
        params = ParetoParams(3.0, 100.0)
        rng = np.random.default_rng(9)
        est = sample(params, rng, size=100_000).mean()
        assert est == pytest.approx(mean(params), rel=0.01)

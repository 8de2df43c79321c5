import numpy as np
import pytest

from plsim.risk import compare_percentage_higher, relative_difference, std_dev, var_rank


class TestVarRank:
    def test_order_statistic_convention(self):
        ranks = [var_rank(10_000, level) for level in (0.05, 0.01, 0.001)]
        assert ranks == [9499, 9899, 9989]
        # topmost resolvable level reports the largest payout
        assert var_rank(10_000, 0.0001) == 9999

    def test_thousand_draw_convention(self):
        assert [var_rank(1_000, level) for level in (0.05, 0.01, 0.001)] == [949, 989, 999]

    def test_below_resolution_reports_maximum(self):
        assert var_rank(10, 0.001) == 9

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            var_rank(0, 0.05)

    def test_level_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                var_rank(100, bad)


class TestComparisons:
    def test_percentage_higher(self):
        assert compare_percentage_higher([2.0, 3.0], [1.0, 4.0]) == 50.0
        assert compare_percentage_higher([1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare_percentage_higher([1.0], [1.0, 2.0])

    def test_mutual_percentages_bounded(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 5, 200).astype(float)
        b = rng.integers(0, 5, 200).astype(float)
        total = compare_percentage_higher(a, b) + compare_percentage_higher(b, a)
        assert total <= 100.0

    def test_relative_difference_published_rows(self):
        assert round(relative_difference(2.044715, 1.864649), 1) == 9.7
        assert round(relative_difference(60.90616, 14.42867), 1) == 322.1
        assert relative_difference(3.0, 3.0) == 0.0


class TestStdDev:
    def test_known_values(self):
        assert std_dev([1.0, 1.0, 1.0]) == 0.0
        assert std_dev([0.0, 2.0]) == pytest.approx(np.sqrt(2.0))

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            std_dev([1.0])

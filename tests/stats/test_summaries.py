"""Tests for summary statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.summaries import (
    bootstrap_ci,
    mean,
    median,
    percentile,
    stdev,
)


class TestBasics:
    def test_mean(self):
        assert mean([1, 2, 3, 4]) == 2.5

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even(self):
        assert median([4, 1, 3, 2]) == 2.5

    def test_stdev_known(self):
        assert stdev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.138, abs=1e-3)

    def test_stdev_single_value(self):
        assert stdev([5.0]) == 0.0

    def test_percentile_bounds(self):
        data = list(range(101))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 100
        assert percentile(data, 50) == 50

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 25) == 2.5

    def test_percentile_range_check(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_mean_within_bounds(values):
    assert min(values) - 1e-6 <= mean(values) <= max(values) + 1e-6


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50), st.floats(0, 100))
def test_percentile_within_bounds(values, pct):
    assert min(values) <= percentile(values, pct) <= max(values)


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30))
def test_stdev_nonnegative(values):
    assert stdev(values) >= 0


class TestBootstrap:
    def test_ci_contains_estimate(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0] * 10
        ci = bootstrap_ci(values, seed=1)
        assert ci.low <= ci.estimate <= ci.high
        assert ci.contains(3.0)

    def test_ci_narrows_with_more_data(self):
        import random

        rng = random.Random(3)
        small = [rng.gauss(10, 2) for _ in range(10)]
        large = [rng.gauss(10, 2) for _ in range(1000)]
        ci_small = bootstrap_ci(small, seed=1)
        ci_large = bootstrap_ci(large, seed=1)
        assert (ci_large.high - ci_large.low) < (ci_small.high - ci_small.low)

    def test_deterministic_for_seed(self):
        values = [1.0, 5.0, 9.0, 2.0]
        a = bootstrap_ci(values, seed=7)
        b = bootstrap_ci(values, seed=7)
        assert (a.low, a.high) == (b.low, b.high)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], seed=0)

"""Tests of the runner's percentile estimate: python3 -m pytest bench/test_run.py"""

import random
import statistics

import run


def test_quantile_of_constant_and_symmetric_samples():
    assert abs(run._quantile([5.0] * 300, 95) - 5.0) < 1e-9
    assert abs(run._quantile(list(range(1, 202)), 50) - 101) < 1e-9


def test_quantile_is_close_to_the_interpolated_order_statistic():
    rng = random.Random(0)
    values = [rng.lognormvariate(0, 1) for _ in range(3000)]
    plain = statistics.quantiles(values, n=100)
    for q in (50, 95):
        assert abs(run._quantile(values, q) / plain[q - 1] - 1) < 0.02

"""The tail-percentile rule."""

import pytest

from perfbench import stats


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 31)]  # 30 samples
    value, percentile, count = stats.tail(samples)
    assert value == 20.0  # ten samples (21..30) lie beyond it
    assert percentile == pytest.approx(100 * 20 / 30)
    assert count == 30


def test_tail_on_a_hundred_samples_is_p90():
    value, percentile, _ = stats.tail([float(i) for i in range(100, 0, -1)])
    assert (value, percentile) == (90.0, 90.0)


def test_tail_falls_back_to_the_median_below_twenty_samples():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0] * 3  # 15 samples
    assert stats.tail(samples) == (3.0, 50.0, 15)


def test_tail_never_reports_below_the_median():
    for n in range(1, 60):
        samples = [float(i) for i in range(n)]
        assert stats.tail(samples)[0] >= stats.median(samples)


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        stats.tail([])

import math

import pytest

from stats import TAIL_BEYOND, percentile, spread, tail, tail_percentile


def beyond(n, q):
    return n - math.ceil(q / 100.0 * n)


@pytest.mark.parametrize("n", [20, 24, 30, 40, 100, 1000, 30000])
def test_tail_keeps_ten_samples_beyond_and_is_the_highest(n):
    q = tail_percentile(n)
    assert beyond(n, q) >= TAIL_BEYOND
    assert q == 99 or beyond(n, q + 1) < TAIL_BEYOND


@pytest.mark.parametrize("n,expected", [(20, 50), (24, 58), (30, 66),
                                        (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_values(n, expected):
    assert tail_percentile(n) == expected


def test_no_tail_below_twenty_samples():
    assert tail_percentile(19) is None
    value, q, n = tail(list(range(19)))
    assert (value, q, n) == (None, None, 19)


def test_tail_value_has_ten_larger_samples():
    samples = [float(i) for i in range(30)]
    value, q, n = tail(list(reversed(samples)))
    assert (q, n) == (66, 30)
    assert sum(1 for s in samples if s > value) == 10


def test_percentile_is_nearest_rank():
    assert percentile([3, 1, 2, 4], 50) == 2
    assert percentile([3, 1, 2, 4], 51) == 3
    assert percentile([5], 99) == 5


def test_spread_reports_quartiles_and_runs():
    record = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert record["median"] == 3.0
    assert record["runs"] == 5
    assert record["q1"] < record["median"] < record["q3"]
    assert spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "runs": 1}

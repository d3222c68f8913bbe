import pytest

from stats import quartiles, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),  # even the median has only five samples beyond it
        (19, None),
        (20, (50.0, 10)),
        (39, (50.0, 20)),
        (40, (75.0, 30)),
        (100, (90.0, 90)),
        (199, (90.0, 180)),
        (200, (95.0, 190)),
        (1000, (99.0, 990)),
        (10000, (99.9, 9990)),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # order must not matter
    assert tail_percentile(samples) == expected
    if expected is not None:
        assert sum(1 for x in samples if x > expected[1]) >= 10


def test_tail_rule_with_ties():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([1.0] * 20) == (50.0, 1.0)


def test_quartiles():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0

"""The pair summary of ``scripts/bench_pairs.py`` on a hand-computed example."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(wall_ref, score, correct=True, attempted=3, failed=0):
    return {"metrics": {"wall_ref": wall_ref, "score": score}, "correct": correct,
            "attempted": attempted, "failed": failed}


PAIRS = [
    {"first": "base", "base": run(10, 1), "change": run(9, 2)},
    {"first": "change", "base": run(12, 2), "change": run(12, 2)},
    {"first": "base", "base": run(11, 3), "change": run(10, 1, failed=1)},
    {"first": "change", "base": run(13, 4), "change": run(14, 5, correct=False)},
]


def test_summary_by_hand(bench_pairs):
    summary = bench_pairs.summarize(PAIRS, {"wall_ref": "lower", "score": "higher"})
    wall = summary["wall_ref"]
    # base 10 11 12 13: quartiles at ranks 1.25, 2.5 and 3.75 (exclusive method)
    assert wall["base_quartiles"] == (10.25, 11.5, 12.75)
    assert wall["change_quartiles"] == (9.25, 11.0, 13.5)  # change 9 10 12 14
    assert wall["base_iqr"] == 2.5
    assert wall["median_change"] == -0.5
    assert wall["relative_median_change"] == pytest.approx(-0.5 / 11.5)
    # lower is better: the change wins pairs 1 and 3, loses pair 4, and
    # pair 2 is a tie that counts for neither side
    assert (wall["change_wins"], wall["base_wins"]) == (2, 1)
    assert (wall["base"], wall["change"]) == ([10, 12, 11, 13], [9, 12, 10, 14])

    score = summary["score"]
    # higher is better: the change wins pairs 1 and 4, loses pair 3, ties pair 2
    assert (score["change_wins"], score["base_wins"]) == (2, 1)
    assert score["base_quartiles"] == (1.25, 2.5, 3.75)
    assert score["change_quartiles"] == (1.25, 2.0, 4.25)  # change 1 2 2 5
    assert score["better"] == "higher"


def test_totals_and_a_lone_pair(bench_pairs):
    assert bench_pairs.totals(PAIRS, "base") == {
        "correct": True, "attempted": 12, "failed": 0}
    assert bench_pairs.totals(PAIRS, "change") == {
        "correct": False, "attempted": 12, "failed": 1}
    lone = bench_pairs.summarize(PAIRS[:1], {"wall_ref": "lower"})["wall_ref"]
    assert lone["base_quartiles"] == (10, 10, 10)
    assert (lone["base_iqr"], lone["change_wins"], lone["base_wins"]) == (0, 1, 0)

import workloads
from workloads import Op, Runner


def op(name, outcomes, want=2, defect=None):
    """An operation returning successive outcomes and expecting ``want``."""
    queue = list(outcomes)

    def call():
        value = queue.pop(0)
        if isinstance(value, Exception):
            raise value
        return value

    def check(outcome):
        return [] if outcome == want else [f"got {outcome}"]

    return Op(name, call, check, str, defect)


def test_forced_mismatch_is_counted():
    runner = Runner([op("good", [2]), op("bad", [3])])
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.unexpected) == (2, 1, 1)
    assert runner.failures == ["bad: FAILED: got 3"]


def test_raising_operation_is_counted():
    runner = Runner([op("boom", [RuntimeError("no")])])
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.unexpected) == (1, 1, 1)


def test_region_that_changes_between_passes_is_counted():
    runner = Runner([op("drift", [2, 2.0, 2])])  # equal values, different text
    runner.run_pass()
    runner.run_pass()
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (3, 1)
    assert "comparison region differs" in runner.failures[0]


def test_known_defect_counts_as_failed_but_expected():
    runner = Runner([op("odd", [5, 7], defect=lambda outcome: outcome == 5)])
    runner.run_pass()
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.unexpected) == (2, 2, 1)


def test_spurious_amalgam_survivor_matches_the_disclosed_defect():
    def report(m, survivors, verdict="fail"):
        return {
            "verdict": verdict,
            "payload": {
                "binary_precision": m,
                "identity_only": len(survivors) == 1,
                "survivors": [
                    {"binary_offset": s, "ternary_offset": u, "ternary_precision": 1}
                    for s, u in survivors
                ],
            },
        }

    defect = workloads.amalgam_odd_precision_defect
    assert defect(1, report(3, [(0, 0), (4, 0)]))
    assert not defect(1, report(3, [(0, 0), (2, 0)]))
    assert not defect(1, report(4, [(0, 0), (8, 0)]))
    assert not defect(2, report(5, [(0, 0), (16, 0)]))
    assert workloads.check_amalgam_deck(report(5, [(0, 0), (16, 0)])["payload"])
    assert workloads.check_amalgam_deck(report(6, [(0, 0)], "pass")["payload"]) == []


def test_hall_recursion():
    # subgroups of index 1..4 in the free group of rank 2
    assert workloads.hall_subgroup_counts(4) == {1: 1, 2: 3, 3: 13, 4: 71}


def test_thue_morse_oracle():
    assert workloads.thue_morse(32) == "01101001100101101001011001101001"

"""Exact work counters at the default seed, and checks that pass under tracing."""

import pytest

import tracer
import workloads
from layers import PINNED_COUNTS


@pytest.mark.parametrize("workload", sorted(PINNED_COUNTS))
def test_pinned_counters_at_the_default_seed(workload):
    runner = workloads.Runner(workloads.build(workload, workloads.DEFAULT_SEED))
    with tracer.Tracer() as active:
        runner.run_pass()
        metrics = tracer.layer_metrics(active.spans)
    assert runner.unexpected == 0, runner.failures
    assert {k: metrics[k] for k in PINNED_COUNTS[workload]} == PINNED_COUNTS[workload]


def test_glue_error_rate_at_the_seed_is_the_disclosed_four_of_eleven():
    runner = workloads.Runner(workloads.build("glue", workloads.DEFAULT_SEED))
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.unexpected) == (11, 4, 0)
    assert sorted(line.split(":")[0] for line in runner.failures) == [
        f"amalgam-deck-m{m}" for m in (3, 5, 7, 9)
    ]

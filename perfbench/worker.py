"""One workload process: import liftlab, build the inputs, run timed passes.

Started by ``run.py``, one at a time. Protocol on standard output: one line
``ready <json>`` once ``liftlab.cli`` is imported and the inputs are built,
then, unless ``--setup-only``, one line ``result <json>``. Operation output
is captured in memory and never reaches this stream.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import statistics
import sys
from time import perf_counter

_started = perf_counter()
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
import liftlab.cli  # noqa: E402,F401  (the import is what setup measures)

IMPORT_S = perf_counter() - _started

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def emit(tag: str, data: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(data)}\n")
    sys.stdout.flush()


def pass_wall(runner: workloads.Runner) -> float:
    return sum(runner.run_pass().values())


def measure(seconds: float, one_round) -> None:
    """At least one round, then more while the next one is expected to end
    within ``seconds`` of measuring, so that a run's length stays bounded."""
    walls: list[float] = []
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        started = perf_counter()
        one_round()
        walls.append(perf_counter() - started)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    emit("ready", {"import_s": IMPORT_S})
    if args.setup_only:
        return 0

    sampler = hostspeed.Sampler()
    runner = workloads.Runner(
        ops, around_call=contextlib.nullcontext if args.trace else lambda: sampler
    )
    # One untimed pass first: lazy imports and the program's own caches fill
    # here. Its outputs are still checked and counted.
    started = perf_counter()
    runner.run_pass()
    seconds = max(args.seconds - (perf_counter() - started), 0.0)
    result: dict = {}
    if not args.trace:
        walls, refs = [], []

        def sampled_pass() -> None:
            sampler.reset()
            walls.append(pass_wall(runner))
            refs.append(sampler.reference_units(walls[-1]))

        measure(seconds, sampled_pass)
        result.update(walls=walls, wall_refs=refs)
    else:
        import tracer

        # Untraced and traced passes alternate in one process, so the ratio
        # of their medians is the tracing overhead, not drift of the host.
        walls, traced, layers = [], [], []

        def pair() -> None:
            walls.append(pass_wall(runner))
            with tracer.Tracer() as active:
                traced.append(pass_wall(runner))
            layers.append(tracer.layer_metrics(active.spans))

        measure(seconds, pair)
        result.update(walls=walls, traced_walls=traced, layers=layers)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        unexpected=runner.unexpected,
        failures=runner.failures,
    )
    emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

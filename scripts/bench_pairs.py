#!/usr/bin/env python3
"""Compare a base revision with the working tree in alternated pairs of runs.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --base REV --workload W [--workload W2 ...]
                                   [--scratch DIR] --out BENCH_<n>.json

The change side is the working tree as ``git add -A`` would stage it, read
through a private index. Before every run, the side's tree is exported
afresh with ``git archive`` into one scratch directory, so both sides run
from the same path and neither finds the other's bytecode. Each run is
``python3 perfbench/run.py --workload W --trace 0``, and the last line of
its standard output, one JSON object, is its result. Each workload gets
``PAIRS`` pairs; pair i runs the base first when i is even and the change
first when it is odd.

The output holds, per workload, every pair's metrics and operation counts,
and for each end-to-end metric of ``BENCHMARK.json`` both sides' quartiles,
the change of the median, and the pairs each side won in the metric's
better direction (a tie counts for neither). Each side is named by its
tree and by the trees of ``src`` and ``perfbench``, the code a run
executes, so a committed result can be matched to the commit's code even
after the result itself is added. ``nproc`` and the Python version are
recorded too. Quartiles are the benchmark's own (``perfbench/stats.py``).
The script uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from stats import quartiles  # noqa: E402  the benchmark's own quartiles

PAIRS = 10  # the fewest that can show a win in 9 of 10
RUN_CODE = ("src", "perfbench")


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def worktree_tree(scratch: pathlib.Path) -> str:
    """The working tree as ``git add -A`` would stage it, via a private index."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def identify(rev: str, tree: str) -> dict:
    """A side's revision and tree, and the trees of the code a run executes."""
    return {"rev": rev, "tree": tree,
            **{path: git("rev-parse", f"{tree}:{path}") for path in RUN_CODE}}


def export(tree: str, target: pathlib.Path) -> None:
    """Replace ``target`` with the files of ``tree``, and nothing else."""
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", "--format=tar", tree], cwd=ROOT,
                          stdout=subprocess.PIPE) as archive:
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(target, filter="data")
            else:
                tar.extractall(target)
    if archive.returncode:
        raise RuntimeError(f"git archive {tree} exited {archive.returncode}")


def run_once(tree: str, workload: str, checkout: pathlib.Path) -> dict:
    """One benchmark run of ``tree``: its last stdout line, parsed."""
    export(tree, checkout)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"{workload} run exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Per metric: both sides' values and quartiles, the median's move, wins."""
    summary = {}
    for name, better in directions.items():
        base = [pair["base"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        sign = 1 if better == "lower" else -1  # sign * (base - change) > 0: change won
        margins = [sign * (b - c) for b, c in zip(base, change)]
        base_q, change_q = quartiles(base), quartiles(change)
        summary[name] = {
            "better": better,
            "base": base,
            "change": change,
            "base_quartiles": base_q,
            "change_quartiles": change_q,
            "median_change": change_q[1] - base_q[1],
            "relative_median_change": (change_q[1] - base_q[1]) / base_q[1],
            "base_iqr": base_q[2] - base_q[0],
            "change_wins": sum(m > 0 for m in margins),
            "base_wins": sum(m < 0 for m in margins),
        }
    return summary


def totals(pairs: list[dict], side: str) -> dict:
    runs = [pair[side] for pair in pairs]
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--scratch", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as default_scratch:
        scratch = args.scratch or pathlib.Path(default_scratch)
        scratch.mkdir(parents=True, exist_ok=True)
        trees = {"base": git("rev-parse", f"{args.base}^{{tree}}"),
                 "change": worktree_tree(scratch)}
        checkout = scratch / "checkout"
        workloads = {}
        for workload in args.workload:
            pairs = []
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, checkout)
                    print(f"{workload} pair {i + 1}/{PAIRS} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}", flush=True)
                pairs.append(pair)
            workloads[workload] = {
                "runs": {side: totals(pairs, side) for side in ("base", "change")},
                "metrics": summarize(pairs, directions),
                "pairs": pairs,
            }
        shutil.rmtree(checkout, ignore_errors=True)

    report = {
        "base": identify(args.base, trees["base"]),
        "change": identify("worktree", trees["change"]),
        "pairs": PAIRS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

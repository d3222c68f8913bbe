#!/usr/bin/env python3
"""liftlab benchmark: time to verdict, cold start, memory and failed checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload covers|squaring|glue|shift|all]
                             [--seed 20260808] [--seconds 28] [--trace 0|1]

Each workload runs in fresh single-threaded worker processes, one at a time.
After one untimed warm-up pass, every pass is timed twice over: as wall
time (``wall_s``, on the readable lines) and as ``wall_ref``, the same time
in units of a reference loop sampled while the operations run, which takes
the shared host's drifting speed out of it (see ``hostspeed``). Both are
medians over the run's passes.
``--trace 0`` measures the end-to-end metrics (BENCHMARK.json
``end_to_end``); ``--trace 1`` runs the same operations traced from outside
and reports the per-layer metrics (``per_layer``) and the tracing overhead.
Without ``--trace`` both runs are made. Readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. When one invocation makes more
than one run (several workloads, or both trace settings), each metric name
in that JSON is prefixed with ``<workload>.``.

Failed operations divided by attempted ones is the error rate. It is
reported through ``attempted`` and ``failed`` and on the readable lines.
``correct`` is false if any operation fails in a way other than the one
disclosed defect (``amalgam-deck`` at odd precision on ``glue``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import select
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import METRICS, WORKLOADS  # noqa: E402
from stats import quartiles, tail_percentile  # noqa: E402

DEFAULT_SEED = 20260808
# Setup-only spawns before and after the measuring worker, so that the
# median of setup_s spans the run rather than one moment of a drifting host.
# One more uncounted spawn comes first and fills the bytecode cache.
SETUP_SPAWNS_BEFORE, SETUP_SPAWNS_AFTER = 6, 5
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


class Worker:
    """A worker process whose standard output is read line by line."""

    def __init__(self, args: list[str], deadline: float):
        self.deadline = deadline
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        self._buffer = b""

    def read(self, tag: str) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = self.deadline - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError(f"worker did not report {tag!r} before the deadline")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError(f"worker exited before reporting {tag!r}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        got, _, data = line.decode().partition(" ")
        if got != tag:
            raise BenchError(f"worker reported {got!r}, expected {tag!r}")
        return json.loads(data)

    def finish(self):
        """Wait for exit; returns the child's resource usage."""
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return usage

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def spawn(args: list[str], deadline: float, steps):
    worker = Worker(args, deadline)
    try:
        return steps(worker)
    finally:
        worker.kill()


def measure_setup(common: list[str], deadline: float, spawns: int, warm: bool,
                  setups: list[float], imports: list[float]) -> None:
    """Adds spawn-to-ready and in-process import times of setup-only workers."""

    def ready(worker: Worker):
        info = worker.read("ready")
        elapsed = perf_counter() - worker.started
        worker.finish()
        return elapsed, info["import_s"]

    if warm:
        spawn([*common, "--setup-only"], deadline, ready)
    for _ in range(spawns):
        elapsed, import_s = spawn([*common, "--setup-only"], deadline, ready)
        setups.append(elapsed)
        imports.append(import_s)


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups: list[float] = []
    imports: list[float] = []
    measure_setup(common, deadline, SETUP_SPAWNS_BEFORE, True, setups, imports)

    def measure(worker: Worker):
        worker.read("ready")
        result = worker.read("result")
        usage = worker.finish()
        result["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
        return result

    result = spawn([*common, "--trace", str(trace)], deadline, measure)
    measure_setup(common, deadline, SETUP_SPAWNS_AFTER, False, setups, imports)
    result.update(setups=setups, imports=imports)
    return result


def end_to_end_metrics(result: dict) -> dict[str, float]:
    return {
        "wall_ref": median(result["wall_refs"]),
        "setup_s": median(result["setups"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer_metrics(result: dict) -> dict[str, float]:
    passes = result["layers"]
    values = {
        name: median([p[name] for p in passes]) for name in passes[0]
    }
    values["cli.import_s"] = median(result["imports"])
    values["trace.overhead"] = median(result["traced_walls"]) / median(result["walls"])
    return {m["name"]: values[m["name"]] for m in METRICS}


def describe(samples: list[float]) -> str:
    q1, q2, q3 = quartiles(samples)
    tail = tail_percentile(samples)
    tail_text = (
        f"p{tail[0]:g} {tail[1]:.6f}" if tail
        else "no percentile has ten samples beyond it"
    )
    return f"median {q2:.6f}  q1 {q1:.6f}  q3 {q3:.6f}  {tail_text}  (n={len(samples)})"


def print_end_to_end(name: str, result: dict, metrics: dict) -> None:
    print(f"[{name}] end-to-end, tracing off")
    print(f"  wall_ref     ref    {describe(result['wall_refs'])}")
    print(f"  wall_s       s      {describe(result['walls'])}")
    print(f"  setup_s      s      {describe(result['setups'])}")
    print(f"  peak_rss_mb  MB     {metrics['peak_rss_mb']:.3f}")


def print_per_layer(name: str, metrics: dict) -> None:
    print(f"[{name}] per-layer, traced run")
    for m in METRICS:
        mark = "*" if name in m["workloads"] else " "
        value = metrics[m["name"]]
        text = f"{value:.6g}" if m["unit"] in ("s", "ratio") else f"{round(value)}"
        print(f"  {mark} {m['name']:46s} {m['unit']:6s} {text:>12s}"
              f"   moves {m['moves']} on {','.join(m['workloads'])}")


def print_errors(name: str, result: dict) -> None:
    rate = result["failed"] / result["attempted"]
    print(f"[{name}] error_rate ratio {rate:.6f} "
          f"({result['failed']} failed of {result['attempted']} attempted, "
          f"{result['unexpected']} unexpected)")
    for line in result["failures"]:
        print(f"    {line}")


def read_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return " ".join(f"{x:.2f}" for x in os.getloadavg())
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liftlab" / "cli.py").is_file():
        print(f"error: no liftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    single = len(names) == 1 and len(traces) == 1
    started = perf_counter()
    print(f"# run: seed={args.seed} seconds={args.seconds:g} nproc={os.cpu_count()} "
          f"python={platform.python_version()} cpu={cpu_model()!r} "
          f"loadavg_start='{loadavg()}' commit={read_commit()}")

    correct, attempted, failed, out = True, 0, 0, {}
    for name in names:
        for trace in traces:
            # the whole invocation shares one deadline only when it is one run
            deadline = (started if single else perf_counter()) + DEADLINE_S
            try:
                result = run_workload(name, args.seed, args.seconds, trace, deadline)
            except (BenchError, OSError, ValueError) as err:
                print(f"error: workload {name}: {err}", file=sys.stderr)
                return 1
            if trace:
                metrics = per_layer_metrics(result)
                print_per_layer(name, metrics)
            else:
                metrics = end_to_end_metrics(result)
                print_end_to_end(name, result, metrics)
            print_errors(name, result)
            correct = correct and result["unexpected"] == 0
            attempted += result["attempted"]
            failed += result["failed"]
            units = {m["name"]: m["unit"] for m in METRICS} | dict(END_TO_END)
            for key, value in metrics.items():
                label = key if single else f"{name}.{key}"
                out[label] = {"value": value, "unit": units[key]}

    print(f"# run: loadavg_end='{loadavg()}' elapsed_s={perf_counter() - started:.1f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host speed sampled while operations run, to take host drift out of wall time.

On a shared virtual machine the CPU's speed for one process drifts: on a
2-vCPU Xeon VM, a fixed pure-Python loop ran up to 2x slower from one second
to the next, in phases lasting seconds to minutes, with CPU time equal to
wall time. A pass's wall time follows that drift, so on its own it cannot
tell a slower program from a busier host.

``Sampler`` times a fixed reference loop every ``INTERVAL_S`` of wall time
while an operation runs (a ``SIGALRM`` handler, so in the same thread and on
the same CPU as the operation). A pass whose operations took ``net`` seconds,
less the time spent in the handler, did ``net * mean(1 / t_i)`` reference
loops' worth of time, where ``t_i`` are the loop's sampled times: each
sample stands for an equal slice of wall time, in which the host ran at
speed ``1 / t_i``. That count, ``wall_ref``, does not change when the whole
host gets slower or faster; it changes when the program does more or less
work, or does it faster or slower relative to the host.

The reference loop allocates nothing (it walks ``itertools.repeat`` and
keeps to cached small ints), so the allocator state the program leaves
behind does not affect it.
"""

from __future__ import annotations

import signal
from itertools import repeat
from time import perf_counter

INTERVAL_S = 0.01
LOOP_ROUNDS = 1500  # about 0.1 ms per sample, so about 1% of a pass


def reference_loop() -> int:
    x = 0
    for _ in repeat(None, LOOP_ROUNDS):
        x = (x + 7) & 127
        x = (x ^ 85) & 127
    return x


class Sampler:
    """Armed with ``with``: samples the reference loop until disarmed.

    Samples and handler time accumulate over every arming until ``reset``.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0  # wall time spent inside the handler
        self._previous = None

    def reset(self) -> None:
        self.samples.clear()
        self.stolen = 0.0

    def _sample(self, signum, frame) -> None:
        entered = perf_counter()
        reference_loop()
        left = perf_counter()
        self.samples.append(left - entered)
        self.stolen += perf_counter() - entered

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_units(self, gross_s: float) -> float:
        """``gross_s`` of operation time, less handler time, in reference loops.

        With no sample (operations shorter than one interval), the value is
        not defined; callers use passes long enough to hold many samples.
        """
        if not self.samples:
            raise ValueError("no host speed sample: the pass is shorter than one interval")
        net = gross_s - self.stolen
        return net * sum(1.0 / t for t in self.samples) / len(self.samples)

"""A fixed reference loop, timed between the workload's commands to track the
host's speed over the run.

On a shared host, load from outside can slow the CPU by up to a factor of two
for a minute or more, and a run that falls in such a spell reads slow on
every command.  The loop mixes interpreted float arithmetic with small numpy
calls, as the program's inner loops do, but does not touch the program, so a
change to the program cannot change its time.
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 12000      # about 30 ms on an unloaded 2-core VM
PER_PASS = 8       # reference slots spread evenly over a pass


def loop() -> float:
    gen = np.random.default_rng(0)
    q = np.ones(3)
    total = 0.0
    for i in range(STEPS):
        x = float(gen.exponential())
        q = q + 0.01 * (x - q)
        total += float(q[i % 3]) * x
    return total


def timed() -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def slots(n_ops: int) -> set[int]:
    """The operation indices before which the reference loop runs."""
    return {j * n_ops // PER_PASS for j in range(PER_PASS)}

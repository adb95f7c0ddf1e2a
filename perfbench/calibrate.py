"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared virtual machine the same code runs up to 1.5x slower when other
guests are busy: interpreter starts, sweeps and served requests all slow
down together, for minutes at a time.  The benchmark times this kernel many
times during each run and reports every time metric scaled to the speed at
which the kernel takes ``REFERENCE_SECONDS`` (times multiplied, rates
divided, by ``REFERENCE_SECONDS / median kernel time``).  The kernel does
what the program does most — builds frozensets, hashes them into a dict and
looks them up — and never changes, so a change to the program moves the
scaled metrics exactly as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

REFERENCE_SECONDS = 0.015


def kernel_seconds() -> float:
    """One timed pass of the kernel."""
    start = time.perf_counter()
    worlds = [frozenset(j for j in range(10) if i >> j & 1) for i in range(1024)]
    index = {world: number for number, world in enumerate(worlds)}
    total = 0
    for _ in range(2):
        for world in worlds:
            for agent in range(8):
                total += index[world ^ {agent}]
    if total != 8_380_416:
        raise RuntimeError("calibration kernel computed a wrong result")
    return time.perf_counter() - start


def slowdown(samples: List[float]) -> float:
    """How much slower than the reference speed the host ran (1.0 = reference)."""
    return statistics.median(samples) / REFERENCE_SECONDS

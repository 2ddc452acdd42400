"""A fixed pure-Python reference workload that tracks host speed.

Shared hosts change speed by up to 2x from one minute to the next,
while the program under test stays the same. The benchmark therefore
times this kernel between rounds, for about 2% of the run, and rescales
each round's host times to a nominal host: one on which the median
kernel pass around that round takes :data:`NOMINAL_REFERENCE_S`. The
kernel mixes what the simulator spends its time on: a binary heap of
timestamped events, attribute updates on slotted objects, dict stores
and periodic sorts of keyed tuples. It is part of the benchmark, not of
the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import random
import time

__all__ = ["NOMINAL_REFERENCE_S", "reference_samples"]

#: kernel time, in seconds, on the nominal host the metrics are scaled to
NOMINAL_REFERENCE_S = 0.010

_STEPS = 3000
_ITEMS = 300


class _Item:
    __slots__ = ("key", "weight", "tag", "service")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.tag = 0.0
        self.service = 0.0


def _kernel() -> float:
    """One timed pass of the reference workload, in seconds."""
    rng = random.Random(7)
    items = [_Item(i, rng.choice((1.0, 4.0, 10.0))) for i in range(_ITEMS)]
    heap = [(rng.random(), i, item) for i, item in enumerate(items)]
    heapq.heapify(heap)
    seq = len(heap)
    tags: dict[int, float] = {}
    start = time.perf_counter()
    for step in range(_STEPS):
        now, _, item = heapq.heappop(heap)
        item.service += 0.01
        item.tag += 0.01 / item.weight
        tags[item.key] = item.tag
        if step % 50 == 0:
            sorted((x.weight * (x.tag - now), x.key) for x in items)
        seq += 1
        heapq.heappush(heap, (now + rng.expovariate(10.0), seq, item))
    return time.perf_counter() - start


def reference_samples(repeats: int) -> list[float]:
    """Times of ``repeats`` back-to-back kernel passes, in seconds."""
    return [_kernel() for _ in range(repeats)]

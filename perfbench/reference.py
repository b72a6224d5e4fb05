"""The fixed reference workload :class:`common.HostSpeed` times.

Run as a child process of the benchmark, so its memory never counts in
the benchmark's own peak RSS.  It reads one whole number per line from
stdin -- a CPU number and how many samples to take there -- and answers
each with one line: the fastest sample's seconds.  It exits at the end
of stdin.

A sample is an interpreter loop (allocation, attribute and dict
traffic) followed by a pointer chase through a 16 MiB array in an order
no prefetcher follows.  The chase is there because the host's slow
phases hurt the detectors, whose heaps are far larger than the L2, much
more than a loop that fits in cache.  In a five-minute trial (19
windows of 15 seconds, a similar chase through a 32 MiB array) the
best time of one run-4det execution per window spread 26%
(interquartile range over median); divided by the best of the
interpreter loop it spread 12%, divided by the best of loop plus chase
5%.  Nothing here uses the repository, so no change to the program
moves it.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

#: chain length (a power of two) and the full-period LCG that orders it
SLOTS = 1 << 22
LCG_A, LCG_C = 1664525, 1013904223
CHASE_STEPS = 100_000
LOOP_ITERATIONS = 10_000


class _Cell:
    __slots__ = ("a", "b")


def _loop() -> int:
    table = {}
    out = []
    for i in range(LOOP_ITERATIONS):
        cell = _Cell()
        cell.a = i
        cell.b = i * 7 % 13
        key = i & 1023
        table[key] = table.get(key, 0) + cell.b
        out.append((cell.a, cell.b))
    return len(out)


def _chase(chain: array) -> int:
    slot = 0
    for _ in range(CHASE_STEPS):
        slot = chain[slot]
    return slot


def main() -> int:
    mask = SLOTS - 1
    chain = array("i", ((LCG_A * i + LCG_C) & mask for i in range(SLOTS)))
    for line in sys.stdin:
        cpu, count = map(int, line.split())
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(count):
            started = time.perf_counter()
            _loop()
            _chase(chain)
            best = min(best, time.perf_counter() - started)
        print(repr(best), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

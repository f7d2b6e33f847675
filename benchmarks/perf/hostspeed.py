"""Host speed, sampled beside every round, so that gated times repeat.

The sandbox this benchmark runs on is shared. For twenty to eighty
seconds at a time everything on it runs 25-70 % slower, whatever the
code under test does; steal time stays at zero and a busy second core
changes nothing, so it is contention from outside the guest. No
estimator over the rounds of one ten-second run removes a slow minute
(median and minimum of three rounds were both tried): ten runs of one
workload spread 3-8 % of their median in a quiet hour and up to 24 % in
a busy one, against a bound that may not exceed 25 %.

What does remove most of it is a reference that slows down with the
program: a fixed pure-Python loop — heap pushes and pops of tuples and
dict stores, the interpreter work a discrete-event kernel does — timed
by the benchmark process right before and right after each round. The
round's two gated times, ``run_s`` and ``setup_s``, are multiplied by
``REFERENCE_S / observed``: they read in seconds of the reference host
in a quiet minute. Measured over ten minutes holding one +70 % episode
(442 one-second simulations, each between two samples; a "run" = the
median of six, a set = ten consecutive runs), the worst inter-quartile
spread of a set fell from 0.224 to 0.096 and the median one from 0.032
to 0.015; over 25 milder minutes from 0.130 to 0.077 at 32 hosts and
from 0.155 to 0.108 at 648. The loop reacts about half as strongly as
the simulator, so a slow minute still shows, at about half its size;
a pointer-chasing loop and a larger working set tracked it no better.

The loop shares no code with the program, so a faster simulator reads
faster. Only work bound by the interpreter is scaled (simulations, the
campaign); the daemon workload mostly waits and stays as measured. Everything else — per-layer seconds, latencies, spans — is
reported as measured; ``bench.host_speed`` gives the factor.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Optional, Tuple

#: One sample on the reference host (this 2-core sandbox) in a quiet
#: minute, in seconds. Only fixes the unit: every comparison is between
#: runs scaled by the same constant.
REFERENCE_S = 0.067
#: A sample is the fastest of PASSES passes: a pass is short enough for
#: a timer tick or a waking neighbour to miss one of them (single long
#: passes spread 9-11 % on an idle host, the fastest of five 3-5 %),
#: while a slow minute slows them all.
PASSES = 4
ITERATIONS = 120_000
#: A sample this fresh also serves the next caller: the one taken after
#: a round is the one before the next round.
REUSE_S = 0.3


def one_pass_s(iterations: int = ITERATIONS) -> float:
    """Host seconds one pass of the reference loop takes right now."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    slots: dict = {}
    acc = 0
    t0 = perf_counter()
    for i in range(iterations):
        push(heap, ((i * 7919) % 1000003, i, None))
        if i & 1:
            acc += pop(heap)[0]
        slots[i & 1023] = acc
    return perf_counter() - t0


def sample_s() -> float:
    """The fastest of :data:`PASSES` passes."""
    return min(one_pass_s() for _ in range(PASSES))


class HostSpeed:
    """Samples on demand, handing a just-taken one out twice."""

    def __init__(self) -> None:
        self._last: Optional[Tuple[float, float]] = None  # (taken at, seconds)

    def sample(self) -> float:
        if self._last is None or perf_counter() - self._last[0] > REUSE_S:
            seconds = sample_s()
            self._last = (perf_counter(), seconds)
        return self._last[1]

    @staticmethod
    def factor(before_s: float, after_s: float) -> float:
        """What a round between the two samples is multiplied by: 1.0 on
        the reference host in a quiet minute, below 1 on a slower one."""
        return REFERENCE_S / ((before_s + after_s) / 2.0)

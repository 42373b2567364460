"""Interleaved machine-speed calibration for the host-time metrics.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, and a process's CPU time drifts with it: a fixed
amount of simulator work can take 25% more CPU seconds in one minute
than in the next. Timing a reference loop before and after a run does
not cancel that drift, because it changes within the run.

:class:`SpeedProbe` interleaves the reference work with the work being
measured instead. While it is running, a ``SIGPROF`` interval timer
interrupts the process every :data:`INTERVAL_S` of CPU time and runs
one fixed chunk of reference work in the signal handler, timing it. A
phase's own CPU time is its total minus the reference chunks that ran
inside it, and the reference chunks give the machine's speed over the
same seconds. :func:`reference_seconds` scales the phase's CPU time to
a machine that runs one reference chunk in :data:`REFERENCE_CHUNK_S`.

The reference work is a small discrete-event loop in plain Python
(generators, a heap, dicts, short-lived objects, bytes slicing) and an
arithmetic loop, so it exercises the interpreter the way the simulator
does. It is independent
of the repository's code: an optimisation of the simulator changes the
work measured, never the yardstick.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
import typing

#: Process CPU seconds between reference chunks.
INTERVAL_S = 0.025
#: Reference CPU seconds per chunk on the machine the benchmark was
#: tuned on (2-core x86 VM at 2.1 GHz, CPython 3.11); it only sets
#: the scale of the calibrated metrics.
REFERENCE_CHUNK_S = 0.006
#: Simulated tasks, and steps per task, of a reference chunk's event loop.
_TASKS = 48
_STEPS = 44
#: Iterations of a reference chunk's arithmetic loop.
_LOOP = 30000
_PAYLOAD = bytes(range(256)) * 16


def _task(index: int, table: dict[int, list[int]]) -> typing.Generator[int, None, None]:
    key = index * 7919
    for step in range(_STEPS):
        chunk = _PAYLOAD[(key + step) & 1023 : ((key + step) & 1023) + 64]
        table[(key + step) & 255] = [step, len(chunk), chunk[0]]
        yield (key ^ step) & 15


def _event_loop() -> int:
    table: dict[int, list[int]] = {}
    queue: list[tuple[int, int, typing.Generator[int, None, None]]] = []
    for index in range(_TASKS):
        heapq.heappush(queue, (0, index, _task(index, table)))
    now = seq = 0
    while queue:
        now, _, task = heapq.heappop(queue)
        try:
            delay = next(task)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (now + delay, seq + _TASKS, task))
    return now + seq + len(table)


def _arithmetic() -> int:
    total = 0
    for i in range(_LOOP):
        total += i * 3 & 255
    return total


def reference_chunk() -> int:
    """One fixed unit of reference work; returns a checksum of it.

    The cyclic garbage collector is off while it runs: a collection it
    triggered would scan the measured program's heap and charge that to
    the yardstick.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _event_loop() + _arithmetic()
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Runs reference chunks between slices of the measured work.

    Use as ``with SpeedProbe() as probe:`` around the work; read
    :attr:`chunks` and :attr:`chunk_seconds` to split out its cost.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.chunks = 0
        #: Process CPU seconds the reference chunks took.
        self.chunk_seconds = 0.0
        self._previous: typing.Any = None

    def _tick(self, _signum: int, _frame: typing.Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        # While a process-wide CPU timer is armed, Linux reads the process
        # CPU clock at tick granularity; the thread clock stays exact.
        start = time.thread_time()
        reference_chunk()
        self.chunk_seconds += time.thread_time() - start
        self.chunks += 1
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> tuple[int, float]:
        """Chunks and chunk seconds so far, to difference between phases."""
        return self.chunks, self.chunk_seconds


def reference_seconds(cpu_s: float, chunks: int, chunk_seconds: float) -> float:
    """`cpu_s` of own work scaled to the reference machine's speed.

    `chunks` reference chunks took `chunk_seconds` over the same
    interval; with none (an interval shorter than one tick) the
    raw CPU time is returned.
    """
    if not chunks:
        return cpu_s
    return cpu_s * REFERENCE_CHUNK_S * chunks / chunk_seconds

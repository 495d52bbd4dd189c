"""The speed probe: puts times measured on a host of varying speed at a
reference speed.

The host's speed swings by up to a factor of two within seconds and drifts
over minutes, on every core at once, so raw times of the same code spread far
more than any bound worth setting. ``speed_kernel`` is a fixed slice of
pure-Python work that takes PROBE_REF_S at the reference speed. Work that
took T seconds in a process whose probes averaged P seconds counts as
T * PROBE_REF_S / P seconds at that speed. The kernel does not touch arfrf,
so a change to the program moves the reported time as much as the wall time.

The probes always run in the process that does the work, between its own
steps, never beside it: a probe in another process would compete with the
work for a core whenever the two share one.

This module imports only built-in modules, so a child can load it before it
times ``import arfrf.cli`` without importing anything arfrf would.
"""

import gc
import signal
import time

PROBE_REF_S = 0.002


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


_PROBE_DATA = [(i * 7919) % 1009 for i in range(4000)]


def speed_kernel() -> int:
    """A fixed slice of pure-Python work like arfrf's own: generators of
    small tuples, dict updates and a sort. It takes about PROBE_REF_S."""
    count = sum(len(p) for p in _partitions(18, 18))
    table: dict[int, int] = {}
    for x in _PROBE_DATA:
        table[x] = table.get(x, 0) + 1
    return count + len(sorted(_PROBE_DATA)) + len(table)


def probe_seconds(count: int) -> list[float]:
    """Seconds each of ``count`` back-to-back runs of the kernel takes, with
    the collector paused so that the program's garbage never lands in one."""
    collecting = gc.isenabled()
    gc.disable()
    took = []
    try:
        for _ in range(count):
            t0 = time.perf_counter()
            speed_kernel()
            took.append(time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return took


def at_reference_speed(seconds: float, took: list[float]) -> float:
    """``seconds`` of wall time, which include the probes that took ``took``,
    as seconds of the work alone at the reference speed."""
    if not took:
        return seconds
    return (seconds - sum(took)) * PROBE_REF_S * len(took) / sum(took)


class SpeedSampler:
    """Probes the speed of this process all through a block of work: once as
    the block starts, every PERIOD_S on a timer signal in the main thread,
    and once as it ends. ``took`` lists the probe times."""

    PERIOD_S = 0.05

    def __enter__(self) -> "SpeedSampler":
        self.took = probe_seconds(1)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def _probe(self, signum, frame) -> None:
        self.took += probe_seconds(1)

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.took += probe_seconds(1)

"""Host-speed probe: divides the shared host's drift out of measured times.

Other tenants of a shared host slow it by up to 1.8x, in CPU time as
much as in wall time, in stretches from under a second to minutes, so
the median of a run's repetitions still moves with the share of slow
stretches in its window.  A :class:`Probe` times one fixed piece of
interpreter and numpy work every 50 ms, from a ``SIGALRM`` handler that
runs in the main thread between the measured code's bytecodes, in that
thread's CPU time (so time the process spends preempted does not
count).  The median sample of a phase against :data:`REFERENCE_S` is the
host's speed during that phase, and ``time * speed`` is the time the
phase would have taken at the reference speed: the program's cost with
the host's drift divided out.

The probe is the benchmark's own code, so a change to the program moves
the measured times and leaves the speed alone.  It costs about 1% of the
time it samples.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
#: the probe's CPU time on the baseline host (2-vCPU x86_64 virtual
#: machine, Python 3.11) when nothing else slowed it
REFERENCE_S = 250e-6

_WORDS = np.arange(4096, dtype=np.uint64)
_ONE, _THREE = np.uint64(1), np.uint64(3)


def probe_once() -> float:
    """CPU seconds of one fixed mix of dict/int bytecode and uint64 array ops."""
    t = time.thread_time()
    seen: dict[int, int] = {}
    acc = 0
    for i in range(300):
        k = (i * 2654435761) & 0xFFF
        seen[k] = seen.get(k, 0) + 1
        acc ^= k
    words = _WORDS
    for _ in range(20):
        words = (words << _ONE) ^ (words >> _THREE)
    return time.thread_time() - t


def speed(samples: list[float]) -> float:
    """Host speed against the reference: 1.0 as fast, 0.5 half as fast."""
    return REFERENCE_S / statistics.median(samples)


class Probe:
    """Samples :func:`probe_once` every ``period`` seconds until closed.

    Must be made and closed in the main thread; it owns ``SIGALRM`` and
    the real-time interval timer meanwhile.  Forked children inherit
    neither the timer nor, under ``exec``, the handler.
    """

    def __init__(self, period: float = PERIOD_S):
        self._samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def _tick(self, signum, frame) -> None:
        self._samples.append(probe_once())

    def take(self) -> list[float]:
        """The samples since the previous call; one taken now if there are none."""
        out, self._samples = self._samples, []
        return out or [probe_once()]

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

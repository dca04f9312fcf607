"""Host-speed sampling inside a sample's own process.

The shared host this benchmark was built on runs the same Python code up
to 1.5 times faster or slower for minutes at a time, and the state also
changes within a run.  A reference timed before or after a sample does
not see what the sample saw.  This sampler does: a wall-clock interval
timer interrupts the process every ``INTERVAL_S`` and the signal handler
times a fixed reference chunk on the same CPU, interleaved with the
workload.  The runner then scales each sample's times by
``NOMINAL_CHUNK_S / mean chunk time`` (README.md, "Calibration").

The handler touches only its own state (the chunk updates a private
dictionary in place and the timings go into float arrays, so it creates
no object the garbage collector tracks), and Python retries a system
call the signal interrupts, so the program's behaviour and outputs do
not change.  Chunk time is subtracted from the windows it falls in.
Do not edit ``_chunk`` or ``NOMINAL_CHUNK_S``: they define the unit of
every calibrated time.
"""

from __future__ import annotations

import signal
import time
from array import array

INTERVAL_S = 0.1
#: Mean time of one ``_chunk`` on the machine that defines the unit: the
#: 2-vCPU Xeon host this benchmark was built on, in that host's slower
#: state.
NOMINAL_CHUNK_S = 0.003

_TABLE = dict.fromkeys(range(1024), 0)


def _chunk() -> None:
    table = _TABLE
    for i in range(20_000):
        key = i & 1023
        table[key] = table[key] + i


class HostSpeedSampler:
    """Times ``_chunk`` every ``INTERVAL_S`` while started."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")

    def _sample(self, _signum, _frame) -> None:
        t0 = time.monotonic()
        _chunk()
        self.starts.append(t0)
        self.durations.append(time.monotonic() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time_in(self, begin: float, end: float) -> float:
        """Chunk time that started inside ``[begin, end)`` (monotonic s)."""
        return sum(d for t, d in zip(self.starts, self.durations)
                   if begin <= t < end)

    def mean_chunk_s(self) -> float:
        if not self.durations:
            raise RuntimeError("the host-speed sampler took no sample")
        return sum(self.durations) / len(self.durations)

"""A clock that reads in reference seconds on a host whose speed drifts.

The benchmark shares a few cores of a busy host, and the speed its
process gets swings by up to 1.5x for minutes at a time, so raw wall
times of the same work differ by more than any useful regression bound
from one run to the next.  While :func:`running` is active, a timer
signal runs a small fixed kernel every :data:`INTERVAL_S` and times it.
:func:`now` then advances by wall time scaled by
``REF_KERNEL_S / (recent kernel time)``: one reference second is the time
the same work takes where the kernel takes :data:`REF_KERNEL_S`.  The
kernel's own time is left out, so the probe costs the timed work nothing
but the switch into the handler (about 0.3% of wall time).

Outside :func:`running` (and so in the traced run) :func:`now` advances
with wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator

import numpy as np

#: Kernel time that defines one reference second (about the kernel's
#: time on a 2-vCPU Intel Xeon cloud VM in its fast phase).
REF_KERNEL_S = 1.0e-4
INTERVAL_S = 0.05
#: Kernel samples the speed estimate is the median of.
WINDOW = 5

_perf = time.perf_counter
_ARRAY = np.arange(256, dtype=np.float64)

#: (reference seconds at the last update, wall time of it, reference
#: seconds per wall second since).  Replaced whole, so a reader never
#: sees a half-made update.
_state: tuple[float, float, float] = (0.0, _perf(), 1.0)
_recent: deque[float] = deque(maxlen=WINDOW)
samples: list[float] = []


def kernel() -> float:
    """Fixed work in the program's mix: dict and string churn, a sort,
    and small numpy calls."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(400):
        counts[i % 37] = counts.get(i % 37, 0) + i
        acc += len(str(i))
    top = sorted(counts.values(), reverse=True)[0]
    a = _ARRAY
    for _ in range(8):
        a = np.sqrt(a + 1.0)
    return acc + top + float(a[3])


def now() -> float:
    ref, wall, rate = _state
    return ref + (_perf() - wall) * rate


def _sample(*_args) -> None:
    global _state
    ref, wall, rate = _state
    t0 = _perf()
    kernel()
    t1 = _perf()
    samples.append(t1 - t0)
    _recent.append(t1 - t0)
    _state = (ref + (t0 - wall) * rate, t1, REF_KERNEL_S / statistics.median(_recent))


@contextmanager
def running() -> Iterator[None]:
    """Sample the kernel every :data:`INTERVAL_S` inside the block."""
    global _state
    for _ in range(WINDOW):
        _sample()
    previous = signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        _state = (now(), _perf(), 1.0)

"""The clock behind every timed end-to-end metric: CPU time of this
process, scaled to a fixed machine speed.

On a few vCPUs of a shared host, other guests disturb a timing in two
ways.  The hypervisor takes the vCPU away from the guest (steal: 20-35%
of the time in /proc/stat on a 2-vCPU Intel Xeon guest, Sapphire Rapids),
which adds to wall time but not to the CPU time the kernel charges the
process.  So calls are timed with `time.process_time`.  And when other
guests run on the same physical cores the vCPU runs slower: on that guest
the same pure-Python loop took 20 ms or 32 ms of CPU time from one
stretch to the next.

So the run also times a fixed reference loop (`reference`: the kinds of
work the package does, exact `Fraction` arithmetic on dicts and big
integers) in short chunks, every INTERVAL_S of CPU time while calls run
(from a SIGPROF handler, so that chunks land inside long calls too) and
around each set-up.  Each call's time, less the chunks taken inside it,
is scaled by REF_CHUNK_S over the median of the chunks inside and next to
it: the time the call would take on a machine where the reference loop
takes REF_CHUNK_S.  A change to the package moves the scaled times as it
moves the raw ones; a change in the host's speed moves a call and its
chunks together and cancels.  The reference imports nothing of the
package, and garbage collection is off while it runs, so the package's
heap cannot slow it.
"""
from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from fractions import Fraction
from typing import List

# median CPU time of one reference chunk on an Intel Xeon (Sapphire
# Rapids, 2 vCPU, Python 3.11.7) in its usual loaded state: scaled times
# are about the raw CPU times there
REF_CHUNK_S = 3.75e-3
# CPU time between the end of one chunk and the start of the next, while
# calls run: chunks take about 5% of the run
INTERVAL_S = 0.07
# chunks on each side of a call that help set its scale
NEIGHBOURS = 8

now = time.process_time

_BIG_X = 3 ** 400 + 7
_BIG_Y = 5 ** 300 + 11


def reference() -> int:
    """A fixed amount of the two kinds of work the package does: exact
    rational arithmetic on a dict-held sparse polynomial product, which is
    interpreter-bound, and products, remainders and gcds of integers of
    several hundred digits, which run in C.  The two slow down by
    different amounts when the host is busy."""
    p = {(i, j, 6 - i - j): Fraction(3 * i + 1, 5 * j + 2)
         for i in range(7) for j in range(7 - i)}
    q = {(i, j, 4 - i - j): Fraction(2 * j - 3, 7 * i + 1)
         for i in range(5) for j in range(5 - i)}
    r: dict = {}
    for ka, a in p.items():
        for kb, b in q.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            r[k] = r.get(k, 0) + a * b
    acc = len(r)
    for k in range(150):
        z = (_BIG_X * (_BIG_Y + k)) % (_BIG_Y * _BIG_Y + k)
        acc += math.gcd(z, _BIG_X + k).bit_length()
    return acc


class SpeedReference:
    """Reference chunks taken during timed work, and the scale they give.

    Use as a context manager around a closed loop of calls timed with
    `now`: it takes NEIGHBOURS chunks on entry and on exit and one every
    INTERVAL_S in between.  `sample` takes chunks by hand, for work in
    another process.  Times and positions are CPU seconds (`now`)."""

    def __init__(self) -> None:
        self.starts: List[float] = []    # start of each chunk, in order
        self.chunks: List[float] = []    # seconds per chunk
        self._previous = None

    def sample(self, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = now()
                reference()
                self.chunks.append(now() - t0)
                self.starts.append(t0)
        finally:
            if enabled:
                gc.enable()

    def _on_timer(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def __enter__(self) -> "SpeedReference":
        self.sample(NEIGHBOURS)
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.sample(NEIGHBOURS)

    def _span(self, t0: float, t1: float):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def work(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent in chunks.  A chunk runs between
        two bytecodes, so it lies wholly inside or outside the interval."""
        lo, hi = self._span(t0, t1)
        return t1 - t0 - sum(self.chunks[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """REF_CHUNK_S over the median of the chunks inside [t0, t1] and
        the NEIGHBOURS chunks on each side of it."""
        lo, hi = self._span(t0, t1)
        return REF_CHUNK_S / statistics.median(self.chunks[max(0, lo - NEIGHBOURS):hi + NEIGHBOURS])

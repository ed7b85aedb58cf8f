"""Host speed, sampled during the run, and timings stated at a fixed speed.

The hosts this benchmark runs on are shared, and their CPU speed swings by
up to 2x within seconds: a fixed ``predict_one`` loop measured 0.064 to
0.121 ms per call across six processes on a 2-core x86-64 host, with CPU
time tracking wall time, so the cause is the speed of the core and not
lost time slices. A wall-clock figure then measures the host as much as the
library. Timed next to a library-independent calibration kernel in the same
seconds, the same loop read within 4% of itself across those processes.

`SpeedProbe` runs `kernel` on a timer signal every `PERIOD` seconds of the
run and keeps how long each run of it took. A timed call (`SpeedProbe.time`)
keeps its wall-clock interval and its duration less the kernel time spent
inside it; a short call can hold the kernel off until it returns.
`SpeedProbe.scale` then states a duration as it would read at the
reference speed, at which one kernel run takes `REF_KERNEL_S`:

    scaled = raw * REF_KERNEL_S / median(kernel runs within WINDOW_S of the call)

The kernel mirrors the library's own mix of work, a Python loop over tree
nodes with small numpy steps and a split score over a sorted column, but
calls nothing in streamforest, so a change to the library moves the scaled
figures and leaves the kernel alone. Python-bound code slows more than
numpy-bound code when the host slows (a predict_one loop about 1.5x as much
as a split-score loop); a kernel with one half of each keeps the gap between
any timing here and its kernel small.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.02          # seconds between kernel runs
WINDOW_S = 0.25        # kernel runs this close to a call set its speed
REF_KERNEL_S = 6e-4    # one kernel run at the reference speed


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "counts")


def _tree(rng, depth: int) -> _Node:
    node = _Node()
    node.counts = np.zeros(10, dtype=np.int64)
    node.left = node.right = None
    if depth:
        node.feature = int(rng.integers(2))
        node.threshold = float(rng.normal())
        node.left, node.right = _tree(rng, depth - 1), _tree(rng, depth - 1)
    return node


_rng = np.random.default_rng(0)
_ROOT = _tree(_rng, 7)
_X = _rng.normal(size=(200, 2))
_Y = _rng.integers(0, 10, 200)
_COL = _rng.random(2500)
_LABELS = _rng.integers(0, 10, 2500)


def kernel() -> None:
    """Two halves of about 0.3 ms each. One routes 200 rows through a fixed
    depth-7 tree, counting classes at every node: a Python loop with small
    numpy steps, like routing and prediction. The other scores every split
    point of a 2,500-row column with a sort and a cumulative class-count
    table: larger numpy steps, like split search."""
    stack = [(_ROOT, np.arange(len(_Y)))]
    while stack:
        node, rows = stack.pop()
        node.counts += np.bincount(_Y[rows], minlength=10)
        if node.left is None:
            continue
        goes_left = _X[rows, node.feature] <= node.threshold
        if goes_left.any():
            stack.append((node.left, rows[goes_left]))
        if not goes_left.all():
            stack.append((node.right, rows[~goes_left]))
    order = np.argsort(_COL, kind="stable")
    cum = np.zeros((len(_COL) + 1, 10))
    cum[np.arange(1, len(_COL) + 1), _LABELS[order]] = 1.0
    np.cumsum(cum, axis=0, out=cum)
    (cum * cum).sum(axis=1)


class SpeedProbe:
    """Kernel runs on a timer signal, and timed calls to scale by them."""

    def __init__(self):
        self.at: list[float] = []       # start of each kernel run
        self.took: list[float] = []     # its duration
        self.spent = 0.0                # total kernel time so far
        self._busy = False
        self._old = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def time(self, fn, *args, hold: bool = False):
        """Call fn(*args). Returns (result, start, end, seconds of its own),
        where its own seconds leave out kernel runs that fell inside it.
        With `hold`, a kernel run due during the call waits until it returns."""
        if hold:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        spent = self.spent
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            end = time.perf_counter()
            own = (end - start) - (self.spent - spent)
            if hold:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return out, start, end, own

    def speed_at(self, start: float, end: float) -> float:
        """Median kernel run within WINDOW_S of [start, end], in seconds."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < 5:
            raise RuntimeError("fewer than five kernel runs near a timed call")
        return statistics.median(self.took[lo:hi])

    def scale(self, start: float, end: float, seconds: float) -> float:
        """`seconds`, taken over [start, end], at the reference speed."""
        return seconds * REF_KERNEL_S / self.speed_at(start, end)


class WallClock:
    """`SpeedProbe`'s interface without the probe: durations as measured.
    The traced run uses it, so that spans hold no kernel runs."""

    def time(self, fn, *args, hold: bool = False):
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        return out, start, end, end - start

    def scale(self, start: float, end: float, seconds: float) -> float:
        return seconds

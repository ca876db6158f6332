"""Machine speed: a fixed pure-Python loop that measures how fast the
machine runs Python right now, sampled in one of two ways.

The speed one Python process gets on a shared machine drifts by 10-30% over
seconds to minutes, because other tenants share the host.  ``run.py`` scales
each measured call to the speed at which one kernel run takes
``REFERENCE_S``, so that runs made at different moments compare.  The loop
does what the package does most: small-object arithmetic through special
methods and float formatting.  One kernel run is noisy (+-30% from one run
to the next), so a run's figures rest on many samples.

- ``sample()`` runs the kernel in the benchmark process, between rounds of
  single-threaded calls: it sees the CPU the calls ran on.  Garbage
  collection is paused while it runs, so objects the package keeps alive
  cannot slow the kernel and hide their own cost.
- ``Monitor`` runs the kernel every ``PERIOD_S`` in a helper process while
  calls run, for long calls that use both CPUs (the ``scan`` thread pool).
  Samples taken between such calls see the machine just after a call, while
  a 14 MB CSV is written back, rather than during it.
"""

from __future__ import annotations

import bisect
import gc
import select
import statistics
import subprocess
import sys
import time

LOOPS = 500
PERIOD_S = 0.02
REFERENCE_S = 0.001      # one kernel run on the 2-core reference machine, at rest
MIN_SAMPLES = 5          # monitor runs used to scale even the shortest call
REPEATS = 5              # kernel runs per in-process sample


class _Dual:
    """A value with first and second derivative, like a tiny jet."""

    __slots__ = ("v", "d", "dd")

    def __init__(self, v, d=0.0, dd=0.0):
        self.v, self.d, self.dd = v, d, dd

    def __add__(self, o):
        return _Dual(self.v + o.v, self.d + o.d, self.dd + o.dd)

    def __mul__(self, o):
        return _Dual(self.v * o.v, self.v * o.d + self.d * o.v,
                     self.v * o.dd + 2.0 * self.d * o.d + self.dd * o.v)


def kernel() -> int:
    x, half, acc = _Dual(1.1, 1.0), _Dual(0.5), _Dual(0.0)
    out = []
    for k in range(LOOPS):
        acc = acc * half + x * x + x
        if k % 25 == 0:
            out.append(f"{acc.v:.17g},{acc.d:.17g}")
    return len(out)


def sample() -> float:
    """Median duration of ``REPEATS`` kernel runs in this process, in seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


class Monitor:
    """The helper process; use as a context manager so that it always ends.

    After the ``with`` block, ``scale(start, seconds)`` gives the factor that
    takes a call's duration to reference speed.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(timeout=30)   # closes its stdin first
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        for line in out.splitlines():
            start, duration = line.split()
            self.starts.append(float(start))
            self.durations.append(float(duration))

    def scale(self, start: float, seconds: float) -> float:
        """REFERENCE_S over the median kernel run that started during the
        call, widened to the ``MIN_SAMPLES`` runs nearest a short call."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, start + seconds)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return REFERENCE_S / statistics.median(self.durations[lo:hi])


def main() -> int:
    """Run the kernel every PERIOD_S until standard input closes, then print
    ``start duration`` per run, in perf_counter seconds."""
    runs = []
    while True:
        t0 = time.perf_counter()
        kernel()
        runs.append((t0, time.perf_counter() - t0))
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.readline():
            break
    print("\n".join(f"{t0!r} {d!r}" for t0, d in runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

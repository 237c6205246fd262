"""Host-speed reference for the timed metrics.

The benchmark runs on virtual machines whose cores are shared with other
machines, and the same computation there takes up to about twice its
unloaded time, in stretches of seconds to minutes.  To keep the program's
own speed apart from the host's, every timed operation runs `kernel()`, a
fixed pure-Python computation that shares no code with reesgor, just
before and just after itself and, in a timed run, once a second while it
runs (`Sampler`).  Each kernel time ref_s gives a host factor
REF_S / ref_s, and the operation's time is scaled by the mean factor over
its samples: a figure reads as it would on a host where the kernel takes
REF_S seconds.  A change to reesgor moves the scaled figures in full; a
slower or faster host moves them only as far as it slows the program and
the kernel differently.  Time spent in the kernel is left out of every
figure: operations read `clock()`, which stops while a sample is taken.
"""

import signal
import time

PRIME = 32003
REPS = 30
# kernel seconds on the reference machine (a 2-vCPU virtual machine,
# CPython 3.11.7) when unloaded: the tenth percentile of 340 timings over four
# minutes
REF_S = 0.035

_A = {(i, j): (7 * i + 3 * j + 1) % PRIME
      for i in range(12) for j in range(12 - i)}
_B = {(i, j): (5 * i + 11 * j + 2) % PRIME
      for i in range(10) for j in range(10 - i)}


def kernel():
    """Sparse bivariate products mod PRIME and a sort of each product:
    dict, tuple and small-integer work of the kind reesgor's polynomial
    arithmetic does."""
    acc = 0
    for _ in range(REPS):
        c = {}
        for (i1, j1), x in _A.items():
            for (i2, j2), y in _B.items():
                k = (i1 + i2, j1 + j2)
                c[k] = (c.get(k, 0) + x * y) % PRIME
        acc = (acc + sum(v for _, v in sorted(c.items())[-50:])) % PRIME
    return acc


def reference_s():
    """Wall seconds of one kernel() call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(ref_s):
    return REF_S / ref_s


# seconds this process spent in kernel samples; process-wide like
# perf_counter itself, since each process runs one operation at a time
_spent = 0.0


def clock():
    """perf_counter() less the time taken by kernel samples so far."""
    return time.perf_counter() - _spent


def _sample():
    global _spent
    t0 = time.perf_counter()
    ref_s = reference_s()
    _spent += time.perf_counter() - t0
    return ref_s


class Sampler:
    """Kernel samples around a block and, given an interval, every
    `interval` seconds inside it, taken from a SIGALRM handler between two
    bytecodes of whatever runs; `host_factor` is their mean factor."""

    def __init__(self, interval=None):
        self.interval = interval
        self.refs = []
        self._in_tick = False
        self._old = None

    def _tick(self, signum, frame):
        if not self._in_tick:
            self._in_tick = True
            try:
                self.refs.append(_sample())
            finally:
                self._in_tick = False

    def __enter__(self):
        self.refs.append(_sample())
        if self.interval:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval,
                             self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.refs.append(_sample())
        return False

    @property
    def host_factor(self):
        return sum(factor(r) for r in self.refs) / len(self.refs)

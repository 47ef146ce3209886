"""Machine-speed probe: timings normalised to a fixed reference speed.

On a machine shared with other workloads the same invocation can take
30% longer from one second to the next. The probe measures that drift
where it happens: a real-time timer interrupts the process every
``INTERVAL_S`` and runs a small fixed pure-Python kernel, recording how
long it took. An invocation's normalised time is its wall time minus the
probe's own time, scaled by ``REFERENCE_S / probe time``. The probe time
is the mean of the samples taken while the invocation ran (at least
``MIN_SAMPLES``, widening to the nearest ones for short invocations)
without the slowest and fastest ``TRIM`` share of them. A machine that
is uniformly k times slower makes both the invocation and the probe k
times slower, so the normalised time stays.

The probe runs in the main thread between bytecodes, so it adds no
thread; its ~2% of the time is subtracted, not hidden. It must not feel
the program's own behaviour, or a change to the program would also move
the factor it is divided by. So the kernel allocates no container
objects (it never advances or triggers the garbage collector, and the
program's heap size does not reach it) and keeps its data small enough
that the program's use of the caches barely reaches it either. NOTES.md
records the check that normalised time tracks added work one for one.

Set-up time (a fresh interpreter importing the program) is mostly
loading files and extension modules, which the kernel does not track;
it is normalised by ``IMPORT_PROBE``, a fresh interpreter importing a
fixed set of standard-library modules the program does not use.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_S = 0.0004  # probe kernel time that defines the reference speed
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import decimal, xml.etree.ElementTree, email.message, "
    "http.client, tarfile, zipfile, pickle, sqlite3, ssl, asyncio; print(time.perf_counter() - t)"
)
REFERENCE_IMPORT_S = 0.07  # IMPORT_PROBE time that defines the reference speed
MIN_SAMPLES = 10
TRIM = 0.2
KERNEL_STEPS = 7000
_TABLE = tuple((k * 167 + 13) % 256 for k in range(256))  # a permutation of 0..255


def kernel() -> int:
    """The fixed probe work: a chain of lookups in a 256-entry table of
    small (cached) integers, so it allocates nothing and its ~2 KiB of data
    stays in the fastest cache whatever the program did before."""
    x = 0
    for i in range(KERNEL_STEPS):
        x = _TABLE[x ^ (i & 255)]
    return x


class SpeedProbe:
    """Periodic kernel timings; ``on_sample(start, end)`` is called after each."""

    def __init__(self, on_sample=None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._on_sample = on_sample

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        if self._on_sample is not None:
            self._on_sample(start, end)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, t0: float, t1: float) -> tuple[float, float]:
        """(probe-free wall time of [t0, t1], factor REFERENCE_S / probe mean)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        if hi == lo:
            raise RuntimeError("no speed samples; the probe timer never fired")
        return (t1 - t0) - inside, REFERENCE_S / trimmed_mean([self.ends[k] - self.starts[k] for k in range(lo, hi)])


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])

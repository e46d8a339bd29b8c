"""Machine-speed calibration of the benchmark's clock.

On a shared machine the same code runs at two speeds about 1.8x apart: the
cores flip between a fast and a slow state every few tens of milliseconds
as other tenants load them, and the share of time spent slow drifts from
about a tenth to two thirds over minutes. A run cannot wait the slow state
out, and no statistic over its passes removes the drift.

The benchmark therefore times a fixed reference kernel between jobs, every
``INTERVAL`` seconds of wall time, and reports every time in *reference
seconds*: measured seconds times ``REF_SECONDS`` over the kernel's mean
time in the same run. Both means see the same mix of fast and slow time,
so their ratio stays put while the mix drifts. (Best times do not: a 2 ms
kernel finds the fast state every run, a 200 ms job seldom does.)

The kernel lives here and imports nothing from diffalg, so no change to
diffalg can move it; a diffalg change moves the job times alone, and the
reported figures with them. It does the kind of work diffalg's scalar and
polynomial layers do: a sparse product of two polynomials held as dicts
from exponent tuples to ``Fraction`` coefficients.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's time on the machine this benchmark was written on (a
# two-core Intel Xeon guest) in its fast state. Reported times are seconds
# of that machine in that state.
REF_SECONDS = 2.0e-3

# Wall time between two kernel samples while jobs run: about a tenth of
# the run goes to the kernel.
INTERVAL = 0.02

_P = {(i, j, (i * j) % 3): Fraction(i - 3, j + 1) for i in range(6) for j in range(5)}
_Q = {(j, i, 1): Fraction(2 * i + 1, j + 2) for i in range(5) for j in range(4)}


def kernel():
    out = {}
    for m1, c1 in _P.items():
        for m2, c2 in _Q.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return len(out)


def kernel_seconds():
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Calibration:
    """Kernel samples taken through a run; ``scale`` turns wall seconds
    into reference seconds."""

    def __init__(self, warm=20):
        for _ in range(warm):  # untimed: lets the interpreter specialise the kernel
            kernel()
        self.samples = [kernel_seconds()]  # so that a run of one long job has one
        self.last = perf_counter()

    def tick(self):
        """Time the kernel once if ``INTERVAL`` has passed since the last time."""
        if perf_counter() - self.last >= INTERVAL:
            self.samples.append(kernel_seconds())
            self.last = perf_counter()

    @property
    def mean(self):
        return statistics.fmean(self.samples)

    @property
    def scale(self):
        return REF_SECONDS / self.mean

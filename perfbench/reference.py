"""A speedometer: a small fixed burst of work, timed over and over inside
each measured process, that says how fast the core runs at the moment.

On a shared virtual machine the speed of a core changes by up to a factor
of two, in spells from a fraction of a second to minutes, as other tenants
come and go.  CPU time moves with it (no time is accounted as stolen), so
neither wall nor CPU time of the program is steady on its own.  A burst of
work that is part of the benchmark and never changes slows down in the same
spells, but only when it runs on the same core at nearly the same moment:
bursts timed on the other core, or seconds apart, did not track the
program's slowdowns.

So every process the runner times starts a :class:`Speedometer` before it
imports ``ncdirac``.  A timer signal interrupts the program every
``INTERVAL_S`` and the handler times one burst: the product of two fixed
sparse polynomials with ``Fraction`` coefficients, kept as dicts from
exponent tuples, which is what ncdirac's ``ParamPoly`` spends its time on.
Of the bursts tried (this one; allocating and sorting small tuples; big
integer products), it tracked the program's op times best: over 15-second
windows the quartile spread of op time over burst time was 0.011 of its
median, against 0.22 for the op times alone.  The
handler's time is left out of every interval the process reports, and
:class:`ReferenceClock` converts each interval to reference seconds: every
stretch of it runs at the speed the bursts around that stretch measured, so
a time reads as it would on a machine on which one burst always takes
``REFERENCE_MS``.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time
from fractions import Fraction

REFERENCE_MS = 2.0   # about one burst on the 2-vCPU machine the bounds were set on, when quiet
INTERVAL_S = 0.025
REPS = 2


def _poly(rng: random.Random) -> dict:
    return {tuple(rng.randint(0, 3) for _ in range(4)):
            Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
            for _ in range(12)}


_RNG = random.Random(7)
_A, _B = _poly(_RNG), _poly(_RNG)


def burst() -> int:
    product = {}
    for _ in range(REPS):
        for ea, ca in _A.items():
            for eb, cb in _B.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                product[e] = product.get(e, 0) + ca * cb
    return len(product)


class Speedometer:
    """Times a burst every INTERVAL_S from SIGALRM while running."""

    def __init__(self):
        self.bursts: list[tuple[float, float]] = []   # (clock reading, ms)
        self.spent_s = 0.0   # time the handler took, to subtract from intervals

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        at = t0 - self.spent_s
        collecting = gc.isenabled()
        gc.disable()   # the burst frees all it allocates and makes no cycles
        burst()
        if collecting:
            gc.enable()
        dt = time.perf_counter() - t0
        self.bursts.append((at, dt * 1e3))
        self.spent_s += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class ReferenceClock:
    """Converts a process's clock readings (perf_counter less the bursts) to
    reference seconds.  The stretch between two bursts runs at the mean
    rate ``REFERENCE_MS / ms`` of those two; before the first burst and
    after the last, at that burst's rate."""

    def __init__(self, bursts):
        if not bursts:
            raise ValueError("no speedometer bursts to scale by")
        self._at = [at for at, _ in bursts]
        rates = [REFERENCE_MS / ms for _, ms in bursts]
        self._rates = [rates[0]] + [(a + b) / 2 for a, b in zip(rates, rates[1:])] + [rates[-1]]
        self._reading = [0.0]   # reference seconds at each burst
        for k in range(1, len(self._at)):
            self._reading.append(self._reading[-1] + (self._at[k] - self._at[k - 1]) * self._rates[k])

    def __call__(self, t: float) -> float:
        k = bisect.bisect_right(self._at, t)   # bursts at or before t
        if k == 0:
            return (t - self._at[0]) * self._rates[0]
        return self._reading[k - 1] + (t - self._at[k - 1]) * self._rates[k]

    def seconds(self, span) -> float:
        a, b = span
        return self(b) - self(a)

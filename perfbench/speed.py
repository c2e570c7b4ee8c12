"""The machine's speed during a run, measured with a fixed reference kernel.

On a shared host the same op runs up to a quarter faster or slower for
seconds to minutes at a time as other tenants' load changes, so whole runs
of one workload drift together and ten runs disagree by more than any
useful bound.  The benchmark therefore samples a small fixed kernel between
and inside ops (about every ``EVERY_S`` seconds, its time taken out of the
op's) and scales each op's time by

    factor = (NOMINAL_S / median kernel time around the op) ** EXPONENT

so that the reported times read as times on the machine at its nominal
speed.  Each set-up is scaled the same way, by kernel samples taken just
before it.  The kernel is pure Python and does not touch weylkit, so a change
to weylkit does not move it.

The kernel is a sparse product of two bivariate polynomials mod 7, held as
dicts of exponent tuples: the same kind of work as weylkit's ``CommPoly``
and ``NCPoly`` arithmetic.  weylkit's ops are less sensitive to the host's
load than the kernel, hence the exponent below 1.  It was chosen from
5-minute traces of each workload's ops run over and over with the kernel
sampled as here (README.md, "Steadiness").
"""

from __future__ import annotations

import random
import signal
import statistics
import time

EVERY_S = 0.05  # seconds between samples: of CPU time inside an op, wall time between
NOMINAL_S = 3.3e-4  # the median sample on a 2-vCPU 2.1 GHz Xeon VM
EXPONENT = 0.75
WINDOW = 10  # samples taken on each side of an op

_clock = time.perf_counter

_rng = random.Random(5)
_A = {(_rng.randrange(9), _rng.randrange(9)): _rng.randrange(1, 7) for _ in range(40)}
_B = {(_rng.randrange(9), _rng.randrange(9)): _rng.randrange(1, 7) for _ in range(40)}


def kernel():
    out = {}
    for (i, j), c in _A.items():
        for (k, l), e in _B.items():
            m = (i + k, j + l)
            v = (out.get(m, 0) + c * e) % 7
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _factor(samples):
    return (NOMINAL_S / statistics.median(samples)) ** EXPONENT


def _timed(n):
    """n samples of the kernel's time.  Each sample times a second run right
    after a first one that brings the kernel back into the caches, so that
    what the op left in them does not move the sample."""
    times = []
    for _ in range(n):
        kernel()
        t0 = _clock()
        kernel()
        times.append(_clock() - t0)
    return times


def factor_now():
    """The speed factor from 2 * WINDOW kernel samples taken now."""
    _timed(10)  # warm
    return _factor(_timed(2 * WINDOW))


class SpeedProbe:
    """Samples the kernel around and inside ops and scales each op by the
    machine's speed while it ran."""

    def __init__(self, inside_ops=True):
        _timed(50)  # warm
        self.samples = []
        self.inside_ops = inside_ops
        self._inside_s = 0.0
        self._sample(WINDOW)
        if inside_ops:
            signal.signal(signal.SIGVTALRM, self._tick)

    def _sample(self, n):
        self.samples += _timed(n)
        self._last = _clock()

    def _tick(self, signum, frame):
        t0 = _clock()
        self.samples += _timed(1)
        self._inside_s += _clock() - t0

    def start_op(self):
        """Call as an op's timing starts: with ``inside_ops``, the kernel
        then runs every EVERY_S seconds of CPU time until ``stop_op``."""
        self._start = len(self.samples)
        self._inside_s = 0.0
        if self.inside_ops:
            signal.setitimer(signal.ITIMER_VIRTUAL, EVERY_S, EVERY_S)

    def stop_op(self):
        """Call before the op's timing ends."""
        if self.inside_ops:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def after_op(self, latency):
        """Returns the op's latency less the kernel's time inside it, and the
        op's marks for ``factor_at``.  Samples once more if EVERY_S has
        passed since the last sample, and WINDOW times after an op longer
        than that, so that the speed around a long op is known on both sides
        of it."""
        marks = (self._start, len(self.samples))
        if _clock() - self._last >= EVERY_S:
            self._sample(WINDOW if latency >= EVERY_S else 1)
        return latency - self._inside_s, marks

    def factor_at(self, marks):
        """Multiply the op's latency by this to read it at nominal speed:
        from the median of the samples inside the op and the WINDOW samples
        on each side of it."""
        start, end = marks
        return _factor(self.samples[max(start - WINDOW, 0):end + WINDOW])

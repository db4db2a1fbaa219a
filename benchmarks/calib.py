"""Reference slices that track the machine's speed while the benchmark runs.

On a shared host the same Python code runs up to 1.7 times faster or slower from
one second to the next, and such spells can last minutes, longer than a run.  A
median over passes absorbs short bursts but not a spell that covers a whole
run.  So every timed step is bracketed by two reference slices: a fixed loop
of exact `Fraction` arithmetic on growing integers, the kind of work that
dominates the program.  The step's time is scaled by REF_NOMINAL_S over the
mean of its two slices, which gives seconds at the speed the machine had when
REF_NOMINAL_S was fixed.  The scaling cancels a slowdown the slices share with
the step; it cannot hide a change in the program, whose code the slices never
run.  Raw times are kept in the result details.

Importing the program does not follow the slices, neither from one second to
the next nor over a whole run, so import times stay raw.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the median reference slice on the machine the benchmark was built on (2-vCPU
# Intel Xeon VM, Python 3.11).  Changing it rescales every timing.
REF_NOMINAL_S = 0.001

_X = Fraction(123456789, 987654321)


def ref_slice() -> float:
    """Seconds taken by one fixed reference loop (about a millisecond)."""
    started = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 140):
        acc = acc * _X + Fraction(i, i + 3)
        if acc.denominator > 10**60:
            acc = Fraction(acc.numerator % 1_000_000_007, 7)
    return time.perf_counter() - started


def ref_slices(count: int) -> float:
    """Mean of `count` reference slices."""
    return sum(ref_slice() for _ in range(count)) / count


class Clock:
    """Times steps one after another, each scaled by the slices around it.

    The slice taken after a step is also the one before the next step, so a
    sequence of k steps costs k + 1 slices.
    """

    def __init__(self, slices: int = 1):
        self.slices = slices
        self.before = ref_slices(slices)
        self.started = 0.0

    def start(self) -> None:
        self.started = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(raw seconds, seconds at reference speed) since start()."""
        raw = time.perf_counter() - self.started
        after = ref_slices(self.slices)
        scaled = raw * REF_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return raw, scaled

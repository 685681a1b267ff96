"""Host speed: fixed reference work timed next to the work it calibrates.

On a shared host the same operation can take half again as long for tens
of seconds at a time, because neighbours slow the core, not because this
process waits: CPU time tracks wall time through such a phase.  Fixed
pure Python work slows with it.  Timing that work just before every
operation and scaling each operation's time by REFERENCE_S over the
reference work's time then turns wall seconds into seconds on a host
that does the reference work in REFERENCE_S.  The reference work is part
of the benchmark, not of superdiff, so a change to the package cannot
move it.

Raw wall times are kept next to the scaled ones in every record.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Two dense polynomials in two variables with rational coefficients.  The
# reference work multiplies them the way superdiff's kernels do, through
# dicts keyed by exponent tuples and Fraction arithmetic, so it is slowed
# by what slows the package.
_SIDE = 8
_LEFT = {(i, j): Fraction(i + 1, j + 2) for i in range(_SIDE) for j in range(_SIDE)}
_RIGHT = {(i, j): Fraction(j + 3, 2 * i + 1) for i in range(_SIDE) for j in range(_SIDE)}
# The reference work's time on a 2-core Xeon VM in a quiet phase.  Any
# constant would do: it sets the scale of the reported times, not their
# ratios.
REFERENCE_S = 0.014
# Each operation is scaled by the median reference time over itself and
# this many neighbours on each side, so one disturbed sample cannot skew it.
NEIGHBOURS = 2


def _reference_work() -> dict:
    product: dict = {}
    for (i1, j1), c1 in _LEFT.items():
        for (i2, j2), c2 in _RIGHT.items():
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0) + c1 * c2
    return product


def calibrate() -> float:
    """Seconds the reference work takes now."""
    began = time.perf_counter()
    _reference_work()
    return time.perf_counter() - began


def slowdown(ref_s: list[float]) -> float:
    """How many times slower than the reference host these samples ran."""
    return statistics.median(ref_s) / REFERENCE_S


def scale_each(times: list[float], ref_s: list[float]) -> list[float]:
    """Each operation's time at reference speed; ref_s[i] was timed before it."""
    return [
        t / slowdown(ref_s[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1])
        for i, t in enumerate(times)
    ]


def scale_total(times: list[float], ref_s: list[float]) -> float:
    """The summed operation time at reference speed.

    A ratio of sums: a disturbance that lengthens the reference work and
    the operations alike cancels, and no single sample can dominate.
    """
    return sum(times) * REFERENCE_S * len(ref_s) / sum(ref_s)

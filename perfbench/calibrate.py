"""A fixed piece of pure-Python work that gauges the machine's current speed.

On a shared host the same pass can run 20 % slower in one interpreter than
in the next, and set-up slows with it.  `calibrate()` times a small
deterministic computation of the same kind bethelab does (exact rationals,
sparse vectors keyed by tuples, integer polynomial products) using only the
standard library, so no change to bethelab moves it.  `reference_s()`
divides that speed out: it turns a time measured in the same interpreter
into reference seconds, seconds on a machine where one round of the
calibration takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# about what one round takes on the 2-core machine the README describes
REFERENCE_S = 0.020
# rounds timed right after set-up
ROUNDS = 3


def _work():
    rng = random.Random(7)
    xs = [Fraction(rng.randint(1, 97), rng.randint(1, 97)) for _ in range(40)]
    acc = {}
    for i in range(30):
        for j, x in enumerate(xs):
            key = (i % 7, j % 5, (i * j) % 3)
            acc[key] = acc.get(key, 0) + x * xs[(i + j) % 40] - xs[j - 1]
    poly = [1]
    for i in range(85):
        factor = (i + 1, -3, 2 * i + 1)
        out = [0] * (len(poly) + 2)
        for a, pa in enumerate(poly):
            for b, fb in enumerate(factor):
                out[a + b] += pa * fb
        poly = out
    return len(acc), poly[-1]


def calibration_s() -> float:
    """Wall time of one round of the calibration work.  The cyclic
    collector is off meanwhile, or the time would grow with the heap the
    program has built."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate(rounds=ROUNDS) -> list:
    return [calibration_s() for _ in range(rounds)]


def reference_s(seconds, calibrations) -> float:
    """`seconds` in reference seconds, at the speed the calibration rounds
    measured in the same interpreter."""
    return seconds * REFERENCE_S * len(calibrations) / sum(calibrations)

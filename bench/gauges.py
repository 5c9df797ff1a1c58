"""Gauges of the machine's current speed, for normalized seconds.

A shared host changes speed by tens of percent within seconds, and
pure-Python and numpy work drift differently.  A gauge is a fixed piece of
work with no padicsums code in it; its time now over its nominal time is the
current slowdown, and a time divided by the slowdown around it is in
normalized seconds.  This module imports nothing heavy at load, so the
set-up probe can time the import of padicsums after loading it.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from time import perf_counter
from typing import Tuple


def _python_gauge() -> None:
    """Exact rational arithmetic from the standard library."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i, i + 1)


@functools.lru_cache(maxsize=None)
def _gauge_array():
    import numpy as np

    return np.random.default_rng(0).integers(0, 1 << 30, 1 << 19)


def _numpy_gauge() -> None:
    """Memory-bound numpy: a histogram and a sort of 2^19 int64."""
    import numpy as np

    arr = _gauge_array()
    np.bincount(arr & 0xFFFF, minlength=1 << 16)
    np.sort(arr)


#: Each gauge with its median time on the 2-core Intel Xeon virtual machine the
#: benchmark was sized on.  That time defines a normalized second.
GAUGES = {"python": (_python_gauge, 0.0065), "numpy": (_numpy_gauge, 0.0073)}


def slowdown(gauges: Tuple[str, ...]) -> float:
    """Mean over ``gauges`` of their time now over their nominal time."""
    total = 0.0
    for name in gauges:
        fn, nominal = GAUGES[name]
        start = perf_counter()
        fn()
        total += (perf_counter() - start) / nominal
    return total / len(gauges)

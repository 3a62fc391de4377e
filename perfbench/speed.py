"""Machine-speed calibration: timings reported at a fixed reference speed.

The CPU speed of a small shared VM drifts by up to 2x in phases of tens of
seconds, so the median of one run's raw timings mostly records which phase
the run fell in.  A fixed pure-Python kernel, independent of quiverhh, is
therefore timed between work items.  Its instruction mix is that of exact
elimination: dict rows reduced modulo a prime, then a ``Fraction`` sum.  An
item that took ``t`` seconds while the kernel took ``k`` seconds (the mean of
the samples just before and just after it) is reported as
``t * REF_KERNEL_S / k`` reference seconds: the time it would take on a CPU
that runs the kernel in ``REF_KERNEL_S``.  A change to the program moves
``t`` and leaves ``k`` alone, so reference seconds move with it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_KERNEL_S = 0.0035  # about the kernel's median time on the baseline VM
SAMPLE_KERNELS = 12  # kernel calls per speed sample, about 40 ms
SAMPLE_EVERY_S = 0.25  # timed work between two speed samples within a pass

_P = 5
_ROWS = tuple(
    tuple(((i * 7 + j * 3) % 61, (i + j) % (_P - 1) + 1) for j in range(12))
    for i in range(60)
)


def kernel() -> tuple:
    """Row-reduce 60 sparse rows over F_5, then sum 400 fractions."""
    pivots: dict = {}
    for entries in _ROWS:
        row = dict(entries)
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], _P - 2, _P)
                pivots[col] = {k: v * inv % _P for k, v in row.items()}
                break
            f = row[col]
            for k, v in pivots[col].items():
                nv = (row.get(k, 0) - f * v) % _P
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7, i % 11 + 1)
    return len(pivots), total


class Speedometer:
    """Speed samples (seconds per kernel call) taken between timed items."""

    def __init__(self):
        self.samples = []

    def sample(self) -> float:
        clock = time.perf_counter
        t0 = clock()
        for _ in range(SAMPLE_KERNELS):
            kernel()
        per_kernel = (clock() - t0) / SAMPLE_KERNELS
        self.samples.append(per_kernel)
        return per_kernel

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Reference seconds per measured second between two samples."""
        return REF_KERNEL_S / ((before + after) / 2)

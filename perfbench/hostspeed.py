"""Host-speed calibration.

The machines this benchmark runs on are shared: the speed of the same
pure-Python code drifts by 20-30 % within minutes, which would swamp any
change to the program.  The drift is shared by everything that runs at the
same moment, so each op runs between two runs of a fixed calibration kernel,
and the op's time is reported in *reference seconds*: its wall time times
REFERENCE_S / (the kernel's mean wall time around it).  On a host that runs
the kernel in exactly REFERENCE_S the two are equal.

The kernel is Floyd-Warshall in pure Python on a fixed int matrix and a
fixed Fraction matrix, the two kinds of arithmetic the program does.  It
never calls the program, so a change to the program moves the op times and
not the kernel's.  Raw wall times are kept in the result record as well.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.001

_INT = [[(i * 7 + j * 3) % 11 + 1 for j in range(16)] for i in range(16)]
_FRAC = [[Fraction((i * 7 + j * 3) % 11 + 1, 10) for j in range(7)] for i in range(7)]


def _floyd_warshall(matrix):
    d = [row[:] for row in matrix]
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def kernel_seconds(clock=time.perf_counter) -> float:
    """Wall time of one run of the calibration kernel (about 1 ms)."""
    t0 = clock()
    _floyd_warshall(_INT)
    _floyd_warshall(_FRAC)
    return clock() - t0


def reference_seconds(wall_s: float, kernel_s: float) -> float:
    return wall_s * REFERENCE_S / kernel_s

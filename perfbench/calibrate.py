"""Reference kernel for cancelling machine-speed drift out of chunk times.

On a shared host the speed of this process drifts by up to 1.6x in phases
of 5 to 20 seconds.  Neighbours contend for the same cores and caches, and
CPU time tracks wall time through it.  Across five 25 s runs the raw chunk
medians of `coalescent` ranged from 112 to 174 ms.

The benchmark therefore times this kernel right before every chunk and
after the last one.  It reports chunk times rescaled to a machine on which
the kernel takes REFERENCE_S:

    normalized_i = raw_i * REFERENCE_S / median(refs[i-1], refs[i], refs[i+1])

where refs[i] is timed just before chunk i.

Set-up is mostly imports, which this kernel does not track.  Set-up times
are rescaled instead by the same process's import of numpy and
scipy.special, the first thing set-up does, to a machine on which that
import takes IMPORTS_S:

    setup_normalized = setup_raw * IMPORTS_S / imports_raw

The kernel does not touch seqcoal, so a change to seqcoal moves the
normalized times exactly as it moves the raw ones.  It is interpreter-bound
work of the same kind as most chunks: a pairwise-merge loop over Python
lists and objects with scalar generator draws, plus a few small numpy
calls.  The raw figures are kept in the environment block.
"""

import math
from time import perf_counter

import numpy as np

# Nominal kernel time: about its median in a quiet phase on the 2-CPU Xeon
# VM on which the benchmark was written (1.3 ms quiet, 2.1 ms contended).
REFERENCE_S = 0.0013
# Nominal import time of numpy and scipy.special on that VM, read the same way.
IMPORTS_S = 0.25


class _Event:
    __slots__ = ("time", "a", "b")

    def __init__(self, time, a, b):
        self.time, self.a, self.b = time, a, b


def _kernel():
    rng = np.random.default_rng(20231023)
    histories = []
    for _ in range(24):
        roots = list(range(1, 11))
        t = 0.0
        events = []
        for b in range(10, 1, -1):
            t += -math.log(1.0 - rng.random()) / (b * (b - 1) / 2.0)
            i = int(rng.integers(b))
            j = int(rng.integers(b - 1))
            if j >= i:
                j += 1
            lo, hi = min(i, j), max(i, j)
            events.append(_Event(t, roots[lo], roots[hi]))
            roots.pop(hi)
        histories.append(events)
    x = rng.random(2048)
    for _ in range(16):
        x = np.log1p(x) + 0.5
    return histories, x


def reference_seconds() -> float:
    """Median wall time of three runs of the reference kernel."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def normalize(raw: list, refs: list) -> list:
    """Rescale chunk times; refs[i] was timed just before chunk i and
    refs[-1] just after the last chunk, so len(refs) == len(raw) + 1."""
    out = []
    for i, t in enumerate(raw):
        local = sorted(refs[max(0, i - 1):i + 2])
        out.append(t * REFERENCE_S / local[len(local) // 2])
    return out

"""Host speed, sampled with a fixed kernel between jobs.

On the shared 2-core host this benchmark was tuned on, the same job runs
up to 25% faster or slower for minutes at a time, and every workload moves
together; raw wall times then spread across runs by more than any usable
regression bound.  So a run samples the time of a fixed stdlib-only kernel
(exact ``Fraction`` elimination, integer sparse-row updates in dicts and
scattered reads of small objects: the kind of work mclab does) before and
after every job, and divides its end-to-end times by the median kernel
time over ``KERNEL_REF_S``.  One factor per run follows the slow drift
without adding the kernel's own jitter.  The kernel never calls mclab, so a
slower program still reads slower.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

KERNEL_REF_S = 0.045        # kernel median on a 2.1 GHz Xeon vCPU
REPEATS = 2


def _kernel() -> None:
    n = 14
    m = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + 2 * j) % 5)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    rows = [{(i * k) % 101: i - k for k in range(1, 40)} for i in range(1, 80)]
    for piv in rows[:8]:
        lead = next(iter(piv))
        for t in range(8, len(rows)):
            r = rows[t]
            a = r.get(lead, 1)
            rows[t] = {c: r.get(c, 0) * 3 - piv.get(c, 0) * a
                       for c in set(r) | set(piv)}
    size = 5000
    objs = [{"q": Fraction(i, 7), "key": (i, i + 1)} for i in range(size)]
    acc = Fraction(0)
    idx = 0
    for _ in range(size):
        idx = (idx * 1103515245 + 12345) % size
        acc += objs[idx]["q"]


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []

    def sample(self) -> None:
        gc.collect()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            self.times.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """Median kernel time over its reference: above 1 on a slow host."""
        return statistics.median(self.times) / KERNEL_REF_S

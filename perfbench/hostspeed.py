"""Host-speed reference: a fixed kernel timed next to every measurement.

The shared host this benchmark was sized on (Intel Xeon, 2 vCPUs) changes
speed by up to 1.9x from one tenth of a second to the next, as other tenants
load the same cores and caches, and a whole run can fall in a slow stretch.
The untraced run therefore times this kernel (a probe) around everything it
times and scales each time by ``REF_NS`` / the probes' median, so that its
figures read "at reference speed": a loop window by the probe just before
and the one just after it, a single long call (set-up, all-beliefs pass, full
sweep) by three probes on each side.

The kernel mixes what the package spends its time on (interpreter dispatch
over linked objects, small numpy mat-vecs at k=4 and k=27, small-array
allocation) and calls no code of the package, so a change to the package
moves the scaled figures as much as the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

REF_NS = 900_000  # the kernel's time on the sizing host when it was quiet


class _Node:
    __slots__ = ("key", "value", "next")


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a4, self.v4 = rng.random((4, 4)), rng.random(4)
        self.a27, self.v27 = rng.random((27, 27)), rng.random(27)
        self.head = None
        for i in reversed(range(512)):
            n = _Node()
            n.key, n.value, n.next = i, float(i), self.head
            self.head = n
        self.probes: list[int] = []

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(4):
            x = self.v4
            for _ in range(64):
                x = self.a4 @ x
                x = x / x.sum()
            y = self.v27
            for _ in range(16):
                y = self.a27 @ y
                y = y / y.sum()
            seen = {}
            n = self.head
            while n is not None:
                seen[n.key] = n.value
                total += n.value
                n = n.next
        return total + float(x[0] + y[0])

    def probe(self) -> int:
        """Time one pass of the kernel, in ns."""
        t0 = time.perf_counter_ns()
        self._kernel()
        t = time.perf_counter_ns() - t0
        self.probes.append(t)
        return t

    @staticmethod
    def scale(*probes: int) -> float:
        """Factor that takes a time measured among ``probes`` to reference
        speed."""
        return REF_NS / float(np.median(probes))

    def slowdown(self) -> float:
        """Median probe time over REF_NS: how slow the host ran."""
        return float(np.median(self.probes)) / REF_NS

"""Exact percentiles from raw samples, host speed, and process memory."""

from __future__ import annotations

import collections
import math
import resource
import statistics
import time

import numpy as np

#: Independent samples that should lie beyond a tail percentile for it
#: to mean something.
MIN_BEYOND = 10

#: Equal time slices a window is cut into for :func:`sliced_quantile`.
SLICES = 5


def quantile(values, q: float) -> float:
    """Nearest-rank ``q`` quantile of the raw samples (no bucketing)."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def beyond(n: int, q: float) -> int:
    """Samples beyond the nearest-rank ``q`` quantile of ``n``."""
    return n - max(1, math.ceil(q * n))


def sliced_quantile(values, times, q: float, slices: int = SLICES) -> float:
    """Median over equal time slices of each slice's ``q`` quantile.

    ``times[i]`` is when sample ``i`` was taken.  A short burst of load
    from other tenants of the machine lands in one or two slices, so the
    median over slices keeps it out of a tail figure that the system,
    not the neighbours, should set.
    """
    lo, hi = min(times), max(times)
    width = (hi - lo) / slices
    buckets = [[] for _ in range(slices)]
    for value, at in zip(values, times):
        index = min(int((at - lo) / width), slices - 1) if width else 0
        buckets[index].append(value)
    return statistics.median(quantile(bucket, q) for bucket in buckets
                             if bucket)


def summarize(values, times, q: float, events: int | None = None) -> dict:
    """``{"n", "p50", "tail", "beyond"}`` of latency samples.

    The median is over all samples; the tail is the ``q`` quantile taken
    per time slice, median over slices.  ``beyond`` counts the
    independent samples (``events``, default every sample) past ``q``.
    """
    n = len(values)
    return {"n": n, "p50": quantile(values, 0.5),
            "tail": sliced_quantile(values, times, q),
            "beyond": beyond(events or n, q)}


class HostSpeed:
    """How much slower than usual the machine runs right now.

    Other tenants of a shared machine slow every process on it, for
    seconds to minutes at a time, by a third or more.  A fixed kernel
    of small NumPy products and a Python loop, which never touches the
    program, is timed between batches of work.  Its median time over the
    last few samples, divided by :attr:`REFERENCE_S`, is the slowdown;
    the benchmark divides times and multiplies rates by it, so its
    figures read as on an unloaded machine of the reference speed.
    :attr:`REFERENCE_S` is the kernel's time on the 2-core x86-64
    container the benchmark was written on, unloaded.
    """

    REFERENCE_S = 0.002
    WINDOW = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(32, 48))
        self._b = rng.normal(size=(48, 72))
        self._recent = collections.deque(maxlen=self.WINDOW)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns the current slowdown."""
        start = time.perf_counter()
        for _ in range(80):
            product = self._a @ self._b
            product = np.tanh(product) * 0.5 + product.sum(axis=0)
            total = 0
            for i in range(150):
                total += i
        took = time.perf_counter() - start
        self._recent.append(took)
        self.samples.append(took)
        return self.slowdown()

    def slowdown(self) -> float:
        if not self._recent:
            return 1.0
        return statistics.median(self._recent) / self.REFERENCE_S


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size.

    Writing ``5`` to ``/proc/self/clear_refs`` resets the kernel's
    high-water mark, which ``ru_maxrss`` reads (Linux 4.0 and later).
    Where that is not possible the peak keeps counting from the start.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of the largest process of the run, in MiB.

    That is this process since :func:`reset_peak_rss`, or the largest
    child over its life, whichever is more.  Children count once they
    have been waited for.  A forked child's resident set includes the
    pages it shares with this process, so the two are not added.  Linux
    reports ``ru_maxrss`` in KiB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0

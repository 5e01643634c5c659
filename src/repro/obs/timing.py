"""Shared timing measurement: median + IQR over repeated calls.

This is the one convention for repeated wall-time numbers in the
package: the paper-timing table (:mod:`repro.experiments.timing`) routes
through :func:`measure`.  ``min(timings)`` is deliberately not offered:
the minimum under-reports steady-state cost and is what
``experiments/timing.py`` used to ship.

:class:`TimingStat` subclasses ``float`` (the median), so existing code
and tests that treat measurements as plain floats keep working; the
spread rides along as ``.iqr`` and ``.reps`` attributes.
"""

from __future__ import annotations

import time


class TimingStat(float):
    """A median timing that also carries its inter-quartile range."""

    __slots__ = ("iqr", "reps")

    def __new__(cls, median: float, iqr: float = 0.0, reps: int = 1):
        stat = super().__new__(cls, median)
        stat.iqr = float(iqr)
        stat.reps = int(reps)
        return stat

    def __repr__(self) -> str:
        return f"TimingStat({float(self):.6g}, iqr={self.iqr:.3g}, reps={self.reps})"


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    lower = _median(ordered[: n // 2])
    upper = _median(ordered[(n + 1) // 2:])
    return upper - lower


def measure(fn, reps: int = 3, *, clock=time.perf_counter,
            warmup: bool = False, label: str | None = None) -> TimingStat:
    """Time ``fn`` over ``reps`` calls, returning median + IQR seconds.

    ``warmup`` runs one untimed call first (skip it for functions that
    mutate state, e.g. a training step whose cost changes after the
    first call).  When ``label`` is given and a telemetry session is
    active, each timed call is wrapped in a span of that name.
    """
    from repro import obs

    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if warmup:
        fn()
    traced = label is not None and obs.enabled()
    timings: list[float] = []
    for i in range(reps):
        if traced:
            with obs.span(label, rep=i):
                start = clock()
                fn()
                timings.append(clock() - start)
        else:
            start = clock()
            fn()
            timings.append(clock() - start)
    return TimingStat(_median(timings), _quartile_spread(timings), reps)

"""Request priority classes: ``interactive`` > ``standard`` > ``batch``.

Every request carries one class.  The class labels the gateway's
per-priority queue-wait histograms (``gateway.queue_wait_ms.<class>``)
and the load generator's per-class SLO breakdown (``repro loadgen
--priority-mix``); dispatch order and shedding do not depend on it.
"""

from __future__ import annotations

import math
from typing import Dict, List

INTERACTIVE = "interactive"
STANDARD = "standard"
BATCH = "batch"

#: Highest to lowest priority.
PRIORITIES = (INTERACTIVE, STANDARD, BATCH)

#: Rank 0 is the most important class.
PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITIES)}


def validate_priority(priority: str) -> str:
    if priority not in PRIORITY_RANK:
        raise ValueError(
            f"unknown priority {priority!r}; expected one of {PRIORITIES}")
    return priority


def parse_priority_mix(spec: str) -> Dict[str, float]:
    """Parse ``"interactive=0.2,standard=0.5,batch=0.3"`` into weights.

    Weights need not sum to one; they are normalised at assignment time.
    Omitted classes get weight zero.
    """
    mix = {name: 0.0 for name in PRIORITIES}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad priority-mix entry {part!r}; want name=weight")
        name, raw = part.split("=", 1)
        name = validate_priority(name.strip())
        weight = float(raw)
        if weight < 0:
            raise ValueError(f"priority weight must be >= 0, got {weight}")
        mix[name] = weight
    if not any(mix.values()):
        raise ValueError(f"priority mix {spec!r} has no positive weight")
    return mix


def assign_priorities(n: int, mix: Dict[str, float], seed: int = 0) -> List[str]:
    """Deterministically assign ``n`` priorities according to ``mix``.

    Uses largest-remainder apportionment followed by a seeded shuffle so
    the class counts are exact for the mix and the interleaving is
    reproducible.
    """
    import numpy as np

    total = sum(mix.get(name, 0.0) for name in PRIORITIES)
    if n <= 0 or total <= 0:
        return []
    ideal = {name: n * mix.get(name, 0.0) / total for name in PRIORITIES}
    counts = {name: int(math.floor(ideal[name])) for name in PRIORITIES}
    remainder = n - sum(counts.values())
    by_frac = sorted(PRIORITIES, key=lambda p: ideal[p] - counts[p], reverse=True)
    for name in by_frac[:remainder]:
        counts[name] += 1
    assigned: List[str] = []
    for name in PRIORITIES:
        assigned.extend([name] * counts[name])
    generator = np.random.default_rng((seed, 6173))
    generator.shuffle(assigned)
    return assigned

"""Rank per-layer self-time changes between two traced runs.

    python3 repobench/compare.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are result documents written by
``run.py --trace 1`` (``.repobench/results/*-trace1.json``), or
directories of them.  Documents are grouped by workload; with several
seeds per workload the per-operation self times are averaged.  For each
workload present on both sides the :data:`TOP` layers that changed most
in self time per operation are listed, largest change first, so a
regression can be explained layer by layer without profiling again.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Layers listed per workload.
TOP = 12


def load_side(path: str) -> dict[str, dict[str, float]]:
    """``{workload: {layer: mean self ms per operation}}`` for one side."""
    root = Path(path)
    files = sorted(root.glob("*-trace1.json")) if root.is_dir() else [root]
    sums: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for file in files:
        document = json.loads(file.read_text())
        if not document.get("trace") or "layers" not in document:
            continue
        workload = document["workload"]
        counts[workload] = counts.get(workload, 0) + 1
        table = sums.setdefault(workload, {})
        for layer, row in document["layers"].items():
            table[layer] = table.get(layer, 0.0) + row["self_ms_per_op"]
    return {workload: {layer: total / counts[workload]
                       for layer, total in table.items()}
            for workload, table in sums.items()}


def rank(before: dict[str, float], after: dict[str, float]) -> list[tuple]:
    """``(layer, before, after, delta)`` rows, largest change first."""
    rows = []
    for layer in sorted(set(before) | set(after)):
        b, a = before.get(layer, 0.0), after.get(layer, 0.0)
        rows.append((layer, b, a, a - b))
    rows.sort(key=lambda row: (-abs(row[3]), row[0]))
    return rows


def render(before: dict, after: dict) -> str:
    lines = []
    for workload in sorted(set(before) & set(after)):
        total_b = sum(before[workload].values())
        total_a = sum(after[workload].values())
        change = (total_a - total_b) / total_b if total_b else 0.0
        lines.append(f"{workload}: {total_b:.4f} -> {total_a:.4f} ms of "
                     f"self time per operation ({change:+.1%})")
        lines.append(f"  {'layer':<34} {'before':>10} {'after':>10} "
                     f"{'delta':>10} {'share':>7}")
        for layer, b, a, delta in rank(before[workload],
                                       after[workload])[:TOP]:
            share = delta / total_b if total_b else 0.0
            lines.append(f"  {layer:<34} {b:>10.4f} {a:>10.4f} "
                         f"{delta:>+10.4f} {share:>+7.1%}")
    only = sorted(set(before) ^ set(after))
    if only:
        lines.append(f"workloads on one side only: {', '.join(only)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = load_side(args.before), load_side(args.after)
    if not set(before) & set(after):
        print("error: no workload has traced results on both sides",
              file=sys.stderr)
        return 2
    print(render(before, after))
    return 0


if __name__ == "__main__":
    sys.exit(main())

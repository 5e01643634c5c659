"""Run one benchmark workload and print its metrics.

    python3 repobench/run.py --workload serve_batch --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off, scaled to a reference host speed (see
``stats.HostSpeed``).  ``--trace 1`` measures half the time untraced
and half traced, and prints the per-layer metrics plus the tracing
overhead.  Every metric is printed with its unit and sample count.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full result document goes to ``.repobench/results/`` and the traced
telemetry stream to ``.repobench/trace/``; ``repro obs report`` renders
the stream, and ``repobench/compare.py`` ranks the per-layer deltas
between two traced result documents.

Exit status: 0 on a correct run; 1 when an output differed from its
reference, the open-loop generator ran late, a callable the trace wraps
is missing, or the per-layer self times miss the traced wall time; 2 on
a usage error or when the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Open-loop generator lateness (p99) past which a run is invalid.
MAX_LATENESS_MS = 250.0

#: Allowed gap, per workload, between the traced wall time, timed on its
#: own, and the sum of the self times of every span inside it in the
#: main stream (a share of the wall time).  No span covers the
#: generator's own loop or the writing of span records; a program call
#: the trace does not wrap widens the gap.  The gaps seen on a 2-core
#: x86-64 host were under 2 % on the closed loops and 14–18 % on
#: ``serve_open``, whose polling loop writes three records per turn.
SELF_SUM_TOLERANCE = {
    "serve_batch": 0.05,
    "serve_open": 0.25,
    "adapt_eval": 0.05,
    "meta_train": 0.05,
}

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "slo_attainment": "ratio",
    "peak_rss_mb": "MiB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=("serve_batch", "serve_open", "adapt_eval",
                                 "meta_train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".repobench"),
                        help="directory for result documents and traces")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def provenance(seed: int) -> dict:
    import numpy

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "revision": revision or "unknown",
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def end_to_end(m, setups, peak_mb: float,
               tail_q: float) -> tuple[dict, dict]:
    """Metrics scaled to the reference host speed, and the raw figures.

    ``setups`` holds ``(seconds, slowdown)`` per set-up.  Every time is
    divided, and every rate multiplied, by the host slowdown measured
    next to it (see ``stats.HostSpeed``).  ``latency_tail_ms`` is the
    ``tail_q`` quantile.
    """
    from stats import quantile, summarize

    scaled = m.scaled_latencies_ms()
    lat = summarize(scaled, m.finished_at, tail_q, m.events)
    raw = summarize(m.latencies_ms, m.finished_at, tail_q, m.events)
    if m.chunks:
        # Closed loops: median rate over batches of work.
        rate = statistics.median(ok / s * slow for ok, s, slow in m.chunks)
        raw_rate = statistics.median(ok / s for ok, s, _ in m.chunks)
    else:
        # The open loop's rate is set by its schedule: count the window.
        rate = raw_rate = m.ok / m.busy_s
    metrics = {
        "setup_s": (statistics.median(s / slow for s, slow in setups),
                    len(setups)),
        "ops_per_s": (rate, m.ok),
        "latency_p50_ms": (lat["p50"], lat["n"]),
        "latency_tail_ms": (lat["tail"], lat["n"]),
        "slo_attainment": (m.within_limit / m.attempted, m.attempted),
        "peak_rss_mb": (peak_mb, 1),
    }
    notes = {
        "latency_tail_percentile": tail_q,
        "latency_tail_beyond": lat["beyond"],
        "latency_percentiles_ms": {f"p{round(q * 100)}": quantile(scaled, q)
                                   for q in (0.75, 0.9, 0.95, 0.99)},
        "host_slowdown_median": statistics.median(m.slowdowns),
        "unscaled": {
            "setup_s": statistics.median(s for s, _ in setups),
            "ops_per_s": raw_rate,
            "latency_p50_ms": raw["p50"],
            "latency_tail_ms": raw["tail"],
        },
    }
    return metrics, notes


def run_untraced(workload, args) -> dict:
    """Set up, measure, then time the remaining set-ups.

    The peak resident set is read once the measured state is closed and
    before the other set-ups, so it covers the measured window (and the
    workers it used) and never two set-ups at once.
    """
    from stats import HostSpeed, peak_rss_mb, reset_peak_rss
    from workloads import TAIL_PERCENTILE

    speed = HostSpeed()
    setups = []

    def build():
        for _ in range(HostSpeed.WINDOW):
            speed.sample()
        t0 = time.perf_counter()
        state = workload.build(args.seed, False, None)
        setups.append((time.perf_counter() - t0, speed.slowdown()))
        return state

    state = build()
    try:
        reference = workload.reference(state)
        reset_peak_rss()
        m = workload.measure(state, reference, args.seconds, args.seed)
    finally:
        state.close()
    del state
    peak_mb = peak_rss_mb()
    for _ in range(SETUPS - 1):
        build().close()
    metrics, notes = end_to_end(m, setups, peak_mb,
                                TAIL_PERCENTILE[workload.name])
    return {"measurements": [m], "metrics": metrics, "notes": notes}


def run_traced(workload, args) -> dict:
    import layers
    from per_layer import per_layer_metrics
    from repro import obs

    state = workload.build(args.seed, False, None)
    try:
        reference = workload.reference(state)
        base = workload.measure(state, reference, args.seconds / 2, args.seed)
    finally:
        state.close()

    trace_dir = Path(args.out) / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = str(trace_dir / f"{workload.name}-seed{args.seed}.jsonl")
    layers.clear_stream(trace_path)
    state = workload.build(args.seed, True, trace_path)
    try:
        with obs.telemetry_session(trace_path):
            t0 = time.perf_counter()
            with obs.span(layers.ROOT_SPAN, workload=workload.name):
                traced = workload.measure(state, reference,
                                          args.seconds / 2, args.seed)
            wall_s = time.perf_counter() - t0
            with obs.profile_tape() as tape:
                tape_sents = workload.tape_probe(state)
    finally:
        state.close()
    skip = {}
    if workload.name == "serve_open":
        from workloads import WARMUP_REQUESTS

        # The replica records its warm-up requests too.
        replica = os.path.basename(trace_path) + ".replica-"
        skip[replica] = ("serving.service.tag", WARMUP_REQUESTS)
    analysis = layers.analyse(trace_path, skip=skip)
    metrics, layer_table = per_layer_metrics(
        analysis, wall_s, base, traced, tape.nodes_created, tape_sents,
    )
    return {"measurements": [base, traced], "metrics": metrics,
            "layers": layer_table, "trace_path": trace_path,
            "streams": analysis["streams"]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'}); "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from per_layer import UNITS
    from stats import quantile
    from workloads import WORKLOADS

    from layers import LayerMissing

    workload = WORKLOADS[args.workload]
    info = provenance(args.seed)
    try:
        outcome = run_traced(workload, args) if args.trace else \
            run_untraced(workload, args)
    except LayerMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    measurements = outcome["measurements"]
    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    mismatched = sum(m.mismatched for m in measurements)
    problems = []
    if mismatched:
        problems.append(f"{mismatched} output(s) differ from the reference")
    for m in measurements:
        lateness = m.extra.get("lateness_ms")
        if lateness:
            late = quantile(lateness, 0.99)
            if late > MAX_LATENESS_MS:
                problems.append(f"generator ran late: p99 {late:.1f} ms")
    if args.trace:
        gap = outcome["metrics"]["trace.self_sum_ratio"][0] - 1.0
        tolerance = SELF_SUM_TOLERANCE[args.workload]
        if abs(gap) > tolerance:
            problems.append(f"per-layer self times miss the traced wall "
                            f"time by {gap:+.2%} (tolerance {tolerance:.0%})")

    metrics = outcome["metrics"]
    units = UNITS if args.trace else END_TO_END_UNITS
    document = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": info,
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "error_rate": failed / attempted if attempted else 0.0,
        "problems": problems,
        "metrics": {name: {"value": value, "unit": units[name], "n": n}
                    for name, (value, n) in metrics.items()},
    }
    for key in ("notes", "layers", "trace_path", "streams"):
        if key in outcome:
            document[key] = outcome[key]
    results = Path(args.out) / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_file = results / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_file.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"revision {info['revision']}  source {info['source_sha256']}  "
          f"nproc {info['nproc']}  python {info['python']}  "
          f"numpy {info['numpy']}")
    for name, entry in document["metrics"].items():
        print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']:<6} "
              f"(n={entry['n']})")
    print(f"  attempted {attempted}, failed {failed} "
          f"(error_rate {document['error_rate']:.4g}), "
          f"mismatched {mismatched}")
    for problem in problems:
        print(f"  INVALID: {problem}")
    print(f"  result document: {out_file}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in document["metrics"].items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

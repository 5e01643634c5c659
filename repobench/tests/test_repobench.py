"""Tests of the benchmark itself.

    python3 -m pytest repobench/tests -q

Tiny runs of every workload go through ``run.py`` as a subprocess,
exactly as the benchmark is driven; the helpers are tested in-process.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from per_layer import UNITS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(tmp_path, workload, trace=0, cwd=ROOT, script=None):
    script = script or BENCH / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace),
         "--out", str(tmp_path / "out")],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# The contract of BENCHMARK.json and of the printed result
# ----------------------------------------------------------------------
def test_metric_names_and_units_follow_the_pattern():
    entries = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    for entry in SPEC["workloads"]:
        assert NAME.match(entry["name"]) and len(entry["why"]) <= 200


def test_per_layer_metrics_match_the_spec():
    spec = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    assert spec == UNITS


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_of_each_workload(tmp_path, workload):
    done = run_bench(tmp_path, workload)
    assert done.returncode == 0, done.stderr[-2000:]
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for entry in result["metrics"].values():
        assert entry["value"] > 0
    # Every metric is printed with its unit and sample count.
    for name in spec:
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+\S+\s+\(n=\d+\)",
                         done.stdout, re.M), name


def test_traced_run_is_rendered_by_obs_report(tmp_path):
    done = run_bench(tmp_path, "serve_batch", trace=1)
    assert done.returncode == 0, done.stderr[-2000:]
    result = last_json(done.stdout)
    assert set(result["metrics"]) == set(UNITS)
    assert result["metrics"]["char_cnn.ms_per_sent"]["value"] > 0
    ratio = result["metrics"]["trace.self_sum_ratio"]["value"]
    assert abs(ratio - 1.0) <= run.SELF_SUM_TOLERANCE["serve_batch"]
    trace = tmp_path / "out" / "trace" / "serve_batch-seed3.jsonl"
    report = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "report", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert report.returncode == 0, report.stderr
    assert "run report" in report.stdout
    assert "nn.conv.char_cnn" in report.stdout
    document = json.loads(
        (tmp_path / "out" / "results" / "serve_batch-seed3-trace1.json")
        .read_text())
    for key in ("revision", "seed", "nproc", "python", "numpy"):
        assert key in document["provenance"]
    assert "trace.overhead_pct" in document["metrics"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "serve_batch", cwd=tmp_path,
                     script=tmp_path / BENCH.name / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def test_shed_request_counts_as_a_failure():
    from repro.serving import ServiceConfig, TaggingService
    from repro.serving.service import Overloaded

    dataset, word_vocab, char_vocab = workloads.build_corpus()
    model = workloads.build_adapter(word_vocab, char_vocab).model
    scheme = workloads.serving_scheme()
    requests = workloads.make_requests(dataset, word_vocab, 0, n=2)
    reference = workloads.reference_spans(model, scheme, requests)
    service = TaggingService(model, scheme, ServiceConfig(max_pending=1))
    tickets = [service.submit(tokens) for tokens in requests]
    done = service.drain()
    assert isinstance(done[tickets[1]], Overloaded)
    m = workloads.Measurement()
    for ticket, expected in zip(tickets, reference):
        m.record(workloads.check_answer(done[ticket], expected), 1.0, 10.0,
                 finished_at=0.0)
    assert (m.attempted, m.ok, m.failed, m.mismatched) == (2, 1, 1, 0)


def test_requests_are_seeded_and_partly_unknown():
    dataset, word_vocab, _ = workloads.build_corpus()
    first = workloads.make_requests(dataset, word_vocab, 5, n=200)
    assert first == workloads.make_requests(dataset, word_vocab, 5, n=200)
    assert first != workloads.make_requests(dataset, word_vocab, 6, n=200)
    tokens = [t for request in first for t in request]
    unknown = sum(t not in word_vocab for t in tokens) / len(tokens)
    assert 0.15 < unknown < 0.25
    assert all(2 <= len(r) <= 40 for r in first)


def test_quantiles_come_from_raw_samples():
    values = list(range(1, 101))
    assert stats.quantile(values, 0.5) == 50
    assert stats.quantile(values, 0.99) == 99
    assert stats.beyond(100, 0.9) == 10
    # 1000 samples that are only 100 independent events (drains).
    values = [float(v) for v in range(1000)]
    assert stats.summarize(values, values, 0.9)["beyond"] == 100
    assert stats.summarize(values, values, 0.9, events=100)["beyond"] == 10


def test_tail_percentile_is_fixed_with_enough_samples_beyond_it():
    # The operations a 15 s window holds on a 2-core x86-64 host.
    operations = {"serve_batch": 170, "adapt_eval": 500, "meta_train": 75,
                  "serve_open": int(workloads.OPEN_RATE_PER_S * 15)}
    for workload, q in workloads.TAIL_PERCENTILE.items():
        assert stats.beyond(operations[workload], q) >= stats.MIN_BEYOND


def test_figures_are_scaled_by_the_host_slowdown():
    m = workloads.Measurement()
    for i in range(40):
        m.record("ok", 10.0, 100.0, finished_at=float(i))
    m.slowdowns = [2.0] * 40          # the host ran at half speed
    m.chunks = [(10, 1.0, 2.0), (10, 1.0, 2.0), (10, 1.0, 2.0)]
    metrics, notes = run.end_to_end(m, [(3.0, 1.5)], 100.0, 0.9)
    assert metrics["ops_per_s"][0] == 20.0
    assert metrics["latency_p50_ms"][0] == 5.0
    assert metrics["setup_s"][0] == 2.0
    assert notes["unscaled"]["ops_per_s"] == 10.0
    assert metrics["slo_attainment"][0] == 1.0
    assert metrics["peak_rss_mb"][0] == 100.0
    assert stats.HostSpeed().slowdown() == 1.0


def test_latency_limit_applies_at_the_reference_speed():
    m = workloads.Measurement()
    m.speed._recent.append(2 * stats.HostSpeed.REFERENCE_S)  # half speed
    m.record("ok", 150.0, 100.0, finished_at=0.0)   # 75 ms at full speed
    m.record("ok", 250.0, 100.0, finished_at=0.0)   # 125 ms
    assert (m.ok, m.within_limit) == (2, 1)


def test_missing_layer_fails_the_traced_run():
    class Service:
        def drain(self):
            return {}

    with pytest.raises(layers.LayerMissing, match="serving.sanitize"):
        layers.wrap(Service(), "sanitize", "serving.sanitize")
    service = Service()
    assert layers.wrap(service, "drain", "serving.service.drain")
    assert not layers.wrap(service, "drain", "serving.service.drain")
    assert service.drain() == {}


def test_every_training_call_is_checked_against_the_reference():
    workload = workloads.WORKLOADS["meta_train"]
    state = workload.build(3, False, None)
    reference = workload.reference(state)
    m = workload.measure(state, reference, 1.5)
    assert len(m.chunks) >= 2 and m.attempted == m.ok
    # A later iteration off by one ulp fails every call, not just the first.
    wrong = reference[:-1] + [np.nextafter(reference[-1], np.inf)]
    m = workload.measure(state, wrong, 1.5)
    assert len(m.chunks) >= 2 and m.attempted == m.mismatched


def test_self_times_subtract_children():
    records = [  # post-order, as the tracer writes them
        {"kind": "span", "name": "c", "depth": 2, "t_start": 0.1, "dur_s": 1.0},
        {"kind": "span", "name": "b", "depth": 1, "t_start": 0.0, "dur_s": 3.0},
        {"kind": "span", "name": "d", "depth": 1, "t_start": 3.0, "dur_s": 2.0},
        {"kind": "span", "name": "a", "depth": 0, "t_start": 0.0, "dur_s": 6.0},
    ]
    got = {r["name"]: r["self_s"] for r in layers.self_times(records)}
    assert got == {"c": 1.0, "b": 2.0, "d": 2.0, "a": 1.0}
    assert sum(got.values()) == 6.0


def test_compare_ranks_the_largest_change_first(tmp_path):
    def write(name, rows):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "serve_batch", "trace": 1,
            "layers": {k: {"self_ms_per_op": v} for k, v in rows.items()},
        }))
        return str(path)

    before = compare.load_side(write("a-trace1.json",
                                     {"x": 1.0, "y": 2.0, "z": 0.5}))
    after = compare.load_side(write("b-trace1.json",
                                    {"x": 1.1, "y": 1.0, "z": 0.5}))
    ranked = compare.rank(before["serve_batch"], after["serve_batch"])
    assert [row[0] for row in ranked] == ["y", "x", "z"]
    assert "serve_batch" in compare.render(before, after)

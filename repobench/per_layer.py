"""Per-layer metrics of a traced run.

Every workload reports every metric; a layer the workload never calls
reads 0 with a sample count of 0.  Times are self times (a span's
duration minus its child spans) unless the name says otherwise, summed
over every process of the run and divided by the unit of work in the
name:

* ``_per_sent`` — sentences that went through ``models.batch.encode``;
* ``_per_iter`` — FEWNER outer iterations (``outer_step`` spans);
* ``_per_req`` — calls of the layer (one per request);
* ``fewner.*_ms`` — the program's own phase spans, mean inclusive time.

``autodiff.backward_ms`` is the backward self time per operation of the
workload (request, episode or outer iteration).
"""

from __future__ import annotations

import statistics

from stats import quantile

UNITS = {
    # serve_batch -> throughput and peak memory
    "encode.ms_per_sent": "ms",
    "encode.pad_fraction": "ratio",
    "embedding.ms_per_sent": "ms",
    "char_cnn.ms_per_sent": "ms",
    "char_cnn.words_per_call": "count",
    "bigru.fwd_ms_per_sent": "ms",
    "head.ms_per_sent": "ms",
    "crf.viterbi_ms_per_sent": "ms",
    "spans.us_per_sent": "us",
    "service.batch_size": "count",
    "tape.nodes_per_sent": "count",
    # serve_open -> latency and SLO attainment
    "sanitize.us_per_req": "us",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "gateway.queue_wait_ms_p99": "ms",
    "gateway.pump_ms_per_req": "ms",
    "ipc.rtt_ms": "ms",
    "replica.tag_ms": "ms",
    "crf.greedy_calls": "count",
    "service.degraded": "count",
    "gen.lateness_ms_p99": "ms",
    # adapt_eval -> episodes per second
    "fewner.encode_ms": "ms",
    "fewner.inner_loop_ms": "ms",
    "fewner.decode_ms": "ms",
    "autodiff.backward_ms": "ms",
    "adaptation_cache.hit_ratio": "ratio",
    "executor.overhead_ms": "ms",
    "executor.retries": "count",
    "executor.pool_restarts": "count",
    # meta_train -> meta-iterations per second
    "fewner.outer_step_ms": "ms",
    "bigru.bwd_ms_per_iter": "ms",
    "crf.nll_ms_per_iter": "ms",
    "optim.step_ms": "ms",
    "sampler.ms_per_iter": "ms",
    # the trace itself
    "trace.overhead_pct": "%",
    "trace.self_sum_ratio": "ratio",
    "trace.unattributed_pct": "%",
}


def per_layer_metrics(analysis: dict, wall_s: float, base, traced,
                      tape_nodes: int, tape_sents: int):
    """``({metric: (value, samples)}, layer table)`` for one traced run.

    ``wall_s`` is the traced window's wall time, timed apart from the
    spans.  ``base`` and ``traced`` are the untraced and traced
    :class:`~workloads.Measurement` of the same length; the layer table
    holds every span name's self time per operation, the input of
    ``compare.py``.
    """
    layers = analysis["layers"]
    attrs = analysis["attrs"]
    durations = analysis["durations"]

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def attr_sum(name, key):
        return sum(a.get(key, 0) for a in attrs.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    sents = attr_sum("models.batch.encode", "sents")
    tokens = attr_sum("models.batch.encode", "tokens")
    cells = attr_sum("models.batch.encode", "cells")
    iters = calls("outer_step")
    ops = traced.attempted

    def per_sent_ms(name):
        return (ratio(self_s(name) * 1000.0, sents), sents)

    def per_iter_ms(name):
        return (ratio(self_s(name) * 1000.0, iters), iters)

    def phase_ms(name):
        total = layers.get(name, {}).get("total_s", 0.0)
        return (ratio(total * 1000.0, calls(name)), calls(name))

    def pct(values, q):
        return (quantile(values, q) if values else 0.0, len(values))

    extra = traced.extra
    waits = extra.get("queue_wait_ms", [])
    gateway_wait = extra.get("gateway_queue_wait", {}).get("standard", {})
    tag_ms = durations.get("serving.service.tag", [])
    rtt = _ipc_rtt(extra, tag_ms)
    counters = analysis.get("counters", {})
    hits = counters.get("adaptation_cache.hit", 0)
    misses = counters.get("adaptation_cache.miss", 0)
    overheads = extra.get("executor_overhead_ms", [])

    if extra.get("lateness_ms"):
        # Open loop: the schedule fixes the time per request, so the
        # cost of tracing shows in the median latency instead.
        base_per_op = quantile(base.latencies_ms, 0.5)
        traced_per_op = quantile(traced.latencies_ms, 0.5)
    else:
        base_per_op = ratio(base.busy_s, base.attempted)
        traced_per_op = ratio(traced.busy_s, traced.attempted)
    # The halves run at different times: compare them at one host speed.
    base_per_op /= statistics.median(base.slowdowns)
    traced_per_op /= statistics.median(traced.slowdowns)
    attributed = analysis["main_self_sum_s"]
    unattributed = wall_s - attributed

    metrics = {
        "encode.ms_per_sent": per_sent_ms("models.batch.encode"),
        "encode.pad_fraction": (ratio(cells - tokens, tokens), sents),
        "embedding.ms_per_sent": per_sent_ms("nn.embedding"),
        "char_cnn.ms_per_sent": per_sent_ms("nn.conv.char_cnn"),
        "char_cnn.words_per_call": (
            ratio(attr_sum("nn.conv.char_cnn", "rows"),
                  calls("nn.conv.char_cnn")), calls("nn.conv.char_cnn")),
        "bigru.fwd_ms_per_sent": per_sent_ms("nn.rnn.bigru"),
        "head.ms_per_sent": per_sent_ms("models.backbone.head"),
        "crf.viterbi_ms_per_sent": per_sent_ms("crf.viterbi"),
        "spans.us_per_sent": (
            ratio(self_s("data.tags.decode") * 1e6, sents), sents),
        "service.batch_size": (
            ratio(attr_sum("models.decode_within", "sents"),
                  calls("models.decode_within")),
            calls("models.decode_within")),
        "tape.nodes_per_sent": (ratio(tape_nodes, tape_sents), tape_sents),
        "sanitize.us_per_req": (
            ratio(self_s("serving.sanitize") * 1e6,
                  calls("serving.sanitize")), calls("serving.sanitize")),
        "service.queue_wait_ms_p50": pct(waits, 0.5),
        "service.queue_wait_ms_p99": pct(waits, 0.99),
        "gateway.queue_wait_ms_p99": (gateway_wait.get("p99_ms", 0.0),
                                      gateway_wait.get("count", 0)),
        "gateway.pump_ms_per_req": (
            ratio(self_s("serving.gateway.pump") * 1000.0,
                  calls("serving.gateway.submit")),
            calls("serving.gateway.submit")),
        "ipc.rtt_ms": (statistics.median(rtt) if rtt else 0.0, len(rtt)),
        "replica.tag_ms": (
            statistics.median(tag_ms) * 1000.0 if tag_ms else 0.0,
            len(tag_ms)),
        "crf.greedy_calls": (calls("crf.greedy"), calls("crf.greedy")),
        "service.degraded": (extra.get("degraded", 0), len(waits)),
        "gen.lateness_ms_p99": pct(extra.get("lateness_ms", []), 0.99),
        "fewner.encode_ms": phase_ms("encode"),
        "fewner.inner_loop_ms": phase_ms("inner_loop"),
        "fewner.decode_ms": phase_ms("decode"),
        "autodiff.backward_ms": (
            ratio(self_s("autodiff.backward") * 1000.0, ops), ops),
        "adaptation_cache.hit_ratio": (ratio(hits, hits + misses),
                                       hits + misses),
        "executor.overhead_ms": (
            statistics.median(overheads) if overheads else 0.0,
            len(overheads)),
        "executor.retries": (extra.get("retries", 0), len(overheads)),
        "executor.pool_restarts": (extra.get("pool_restarts", 0),
                                   len(overheads)),
        "fewner.outer_step_ms": phase_ms("outer_step"),
        "bigru.bwd_ms_per_iter": per_iter_ms("nn.rnn.bptt"),
        "crf.nll_ms_per_iter": per_iter_ms("crf.nll"),
        "optim.step_ms": per_iter_ms("nn.optim.step"),
        "sampler.ms_per_iter": per_iter_ms("data.episodes.sample"),
        "trace.overhead_pct": (
            ratio(traced_per_op - base_per_op, base_per_op) * 100.0,
            traced.attempted),
        "trace.self_sum_ratio": (ratio(attributed, wall_s), 1),
        "trace.unattributed_pct": (ratio(unattributed, wall_s) * 100.0, 1),
    }
    table = {
        name: {
            "self_ms_per_op": ratio(agg["self_s"] * 1000.0, ops),
            "calls_per_op": ratio(agg["calls"], ops),
            "self_s": agg["self_s"],
            "calls": agg["calls"],
        }
        for name, agg in sorted(layers.items())
    }
    table["(unattributed)"] = {
        "self_ms_per_op": ratio(unattributed * 1000.0, ops),
        "calls_per_op": 0.0, "self_s": unattributed, "calls": 0,
    }
    return metrics, table


def _ipc_rtt(extra: dict, tag_s: list) -> list:
    """Gateway latency minus replica tag time, request by request.

    With one replica and a FIFO queue the replica serves tickets in
    admission order, so the k-th measured ticket is the k-th recorded
    ``serving.service.tag`` span after the warm-up ones.
    """
    routed = extra.get("routed_latency_ms", {})
    if not routed or not tag_s:
        return []
    first = extra.get("first_ticket") or 0
    out = []
    for ticket, latency_ms in routed.items():
        k = ticket - first
        if 0 <= k < len(tag_s):
            out.append(latency_ms - tag_s[k] * 1000.0)
    return out

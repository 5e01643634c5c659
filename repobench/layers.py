"""Per-layer tracing for the traced benchmark run.

The benchmark never edits the program to trace it.  Instead it wraps,
on the objects it builds, the public callables at each layer boundary
(``model.encode``, ``model.char_cnn.forward``, ``crf.viterbi_decode_batch``,
``service.sanitizer.sanitize``, ``Tensor.backward`` ...).  Every wrapper
opens an ``obs.span``, so inside an ``obs.telemetry_session`` the spans
land in the same JSONL stream as the program's own ``encode`` /
``inner_loop`` / ``decode`` / ``outer_step`` spans and serving
histograms, and ``repro obs report`` renders the file.

:func:`self_times` turns the span records back into per-layer *self*
time: a span's duration minus the part of it its child spans cover.
:func:`analyse` adds up the self times of every span inside the root
span, leaving out the root's own; the run compares that sum with the
wall time of the window, timed on its own.  Whatever no span covers
(the generator's loop, or a program call left unwrapped) is the gap.
"""

from __future__ import annotations

import functools
import glob
import os
import types

from repro import obs

#: Name of the span around the measured window of a traced run.
ROOT_SPAN = "bench.run"


class LayerMissing(RuntimeError):
    """A callable the trace wraps no longer exists under its name."""


def _span_call(name, fn, attrs=None):
    """``fn`` wrapped in an ``obs.span(name)``; ``attrs(args)`` adds fields."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if attrs is None:
            with obs.span(name):
                return fn(*args, **kwargs)
        with obs.span(name, **attrs(*args, **kwargs)):
            return fn(*args, **kwargs)

    traced.__wrapped_layer__ = name
    return traced


def wrap(owner, attribute: str, name: str, attrs=None) -> bool:
    """Replace ``owner.attribute`` with a span-recording wrapper.

    Works on instances (the wrapper shadows the class method for this
    object only) and on classes or modules.  Raises :class:`LayerMissing`
    when the attribute is gone, so a layer renamed by a later change
    fails the traced run instead of silently losing its span.  Returns
    whether a wrapper was installed (``False`` if one already was).
    """
    fn = getattr(owner, attribute, None)
    if fn is None:
        raise LayerMissing(f"cannot trace {name}: "
                           f"{type(owner).__name__}.{attribute} is missing")
    if getattr(fn, "__wrapped_layer__", None) is not None:
        return False
    traced = _span_call(name, fn, attrs)
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attribute, traced)
    else:
        # object.__setattr__ also reaches frozen dataclasses (TagScheme)
        # and skips Module's parameter registration.
        object.__setattr__(owner, attribute, traced)
    return True


def _encode_attrs(sentences, *args, **kwargs):
    lengths = [len(s) for s in sentences]
    return {"sents": len(lengths), "tokens": sum(lengths),
            "cells": len(lengths) * max(lengths, default=0)}


def _rows_attrs(char_ids, *args, **kwargs):
    return {"rows": int(len(char_ids))}


def _count_attrs(sentences, *args, **kwargs):
    return {"sents": len(sentences)}


def instrument_model(model) -> None:
    """Wrap the backbone's layers: batch encode, embeddings, char-CNN,
    BiGRU, projection/φ-head, CRF decode and NLL."""
    wrap(model, "encode", "models.batch.encode", _encode_attrs)
    wrap(model, "encoder_features", "models.backbone.encoder_features")
    wrap(model, "emission_scores", "models.backbone.head")
    wrap(model, "decode_within", "models.decode_within", _count_attrs)
    wrap(model.word_embedding, "forward", "nn.embedding")
    wrap(model.char_cnn, "forward", "nn.conv.char_cnn", _rows_attrs)
    wrap(model.encoder, "forward", "nn.rnn.bigru")
    crf = model.crf
    wrap(crf, "viterbi_decode_batch", "crf.viterbi")
    wrap(crf, "viterbi_decode", "crf.viterbi")
    wrap(crf, "argmax_decode", "crf.greedy")
    wrap(crf, "argmax_decode_batch", "crf.greedy")
    wrap(crf, "batch_nll_padded", "crf.nll")


def instrument_service(service) -> None:
    """Wrap a ``TaggingService``: sanitize, admission, micro-batching."""
    wrap(service.sanitizer, "sanitize", "serving.sanitize")
    wrap(service, "submit", "serving.service.submit")
    wrap(service, "drain", "serving.service.drain")
    wrap(service, "tag", "serving.service.tag",
         lambda tokens, *a, **k: {"tokens": len(tokens)})


def instrument_gateway(gateway) -> None:
    wrap(gateway, "submit", "serving.gateway.submit")
    wrap(gateway, "pump", "serving.gateway.pump")
    wrap(gateway, "collect", "serving.gateway.collect")


def instrument_training(adapter, sampler) -> None:
    """Wrap the meta-training loop's optimizer step and task sampler."""
    wrap(adapter.optimizer, "step", "nn.optim.step")
    wrap(sampler, "sample_many", "data.episodes.sample")


def instrument_process() -> None:
    """Process-wide wrappers: span assembly, backward passes, BPTT and
    the episode executor.

    ``TagScheme.decode`` is wrapped on the class because FEWNER builds
    a scheme per episode.  ``Tensor.backward`` (outer loss) and FEWNER's ``grad`` (inner φ
    step) are both reverse sweeps and share one span name.  The fused
    recurrent kernels register their hand-derived BPTT through
    ``_guarded_vjps``; wrapping the ``bptt`` callable it receives times
    the BiGRU backward on its own.
    """
    from repro.autodiff.tensor import Tensor
    from repro.data.tags import TagScheme
    from repro.meta import fewner
    from repro.perf import executor, rnn_kernels

    wrap(TagScheme, "decode", "data.tags.decode")
    wrap(Tensor, "backward", "autodiff.backward")
    wrap(fewner, "grad", "autodiff.backward")
    wrap(executor.EpisodeExecutor, "run", "perf.executor.run")
    guarded = getattr(rnn_kernels, "_guarded_vjps", None)
    if guarded is None:
        raise LayerMissing("cannot trace nn.rnn.bptt: "
                           "repro.perf.rnn_kernels._guarded_vjps is missing")
    if not hasattr(guarded, "__wrapped_layer__"):
        def traced_vjps(bptt, n):
            return guarded(_span_call("nn.rnn.bptt", bptt), n)

        traced_vjps.__wrapped_layer__ = "nn.rnn.bptt"
        rnn_kernels._guarded_vjps = traced_vjps


def instrument_episode_worker(adapter) -> None:
    """Record episodes run in forked executor workers.

    Worker processes inherit the supervisor's session, on which every
    ``obs`` helper is a no-op (its pid guard).  The wrapper opens a
    fresh session per episode on a sibling file
    ``<path>.fork-<pid>-<n>``, which ``repro obs report`` and
    :func:`load_streams` merge with the main stream.
    """
    predict = adapter.predict_episode
    counter = {"n": 0}

    @functools.wraps(predict)
    def traced(episode):
        session = obs.active()
        path = getattr(getattr(session, "sink", None), "path", None)
        if session is None or session.pid == os.getpid() or path is None:
            with obs.span("meta.fewner.predict_episode"):
                return predict(episode)
        counter["n"] += 1
        child = f"{path}.fork-{os.getpid()}-{counter['n']}"
        with obs.telemetry_session(child):
            with obs.span("meta.fewner.predict_episode"):
                return predict(episode)

    traced.__wrapped_layer__ = "meta.fewner.predict_episode"
    adapter.predict_episode = traced


# ----------------------------------------------------------------------
# Reading a traced run back
# ----------------------------------------------------------------------
def clear_stream(path: str) -> None:
    """Delete a trace file and every sibling stream a prior run left."""
    for stale in glob.glob(glob.escape(path) + "*"):
        if os.path.isfile(stale):
            os.remove(stale)


def load_streams(path: str) -> dict[str, list[dict]]:
    """Span and metrics records per stream file, main stream first."""
    from repro.obs.events import sibling_paths
    from repro.obs.report import load_events

    streams: dict[str, list[dict]] = {}
    for p in sibling_paths(path):
        streams[os.path.basename(p)] = load_events(p, include_siblings=False)
    return streams


def self_times(records: list[dict]) -> list[dict]:
    """Each span record with its ``self_s`` (duration minus children).

    Records arrive in post-order (children close before their parent),
    so a span's children are exactly the spans one level deeper that
    closed since the last span at its own depth or above.
    """
    out = []
    child_total: dict[int, float] = {}
    for record in records:
        if record.get("kind") != "span":
            continue
        depth = int(record.get("depth", 0))
        dur = float(record.get("dur_s", 0.0))
        children = child_total.pop(depth + 1, 0.0)
        child_total[depth] = child_total.get(depth, 0.0) + dur
        out.append({**record, "self_s": dur - children})
    return out


def analyse(path: str, skip: dict[str, tuple[str, int]] | None = None) -> dict:
    """Aggregate a traced run into per-layer totals.

    ``skip`` maps a stream name prefix to ``(span name, count)``: the
    records of that stream up to and including the ``count``-th closing
    of ``span name`` are warm-up and are dropped (forked replicas start
    recording before the measured window opens).

    Returns ``{"layers": {name: {"self_s", "total_s", "calls"}},
    "attrs": {name: [attrs, ...]}, "durations": {name: [dur_s, ...]},
    "counters", "main_self_sum_s", "streams"}``.  ``main_self_sum_s``
    is the self time of every span inside the root span of the main
    stream, without the root's own; ``counters`` are summed over every
    stream.
    """
    from repro.obs.report import build_report, load_events

    skip = skip or {}
    layers: dict[str, dict] = {}
    attrs: dict[str, list[dict]] = {}
    durations: dict[str, list[float]] = {}
    main_sum = 0.0
    streams = load_streams(path)
    for index, (stream, records) in enumerate(streams.items()):
        spans = self_times(records)
        for prefix, (name, count) in skip.items():
            if not stream.startswith(prefix):
                continue
            seen = 0
            for cut, span in enumerate(spans):
                if span["name"] == name:
                    seen += 1
                    if seen == count:
                        spans = spans[cut + 1:]
                        break
        if index == 0:
            root = next((s for s in spans if s["name"] == ROOT_SPAN), None)
            if root is None:
                raise RuntimeError(f"{path}: no {ROOT_SPAN!r} span recorded")
            start = root["t_start"]
            end = start + root["dur_s"]
            spans = [s for s in spans
                     if s["t_start"] >= start - 1e-9
                     and s["t_start"] + s["dur_s"] <= end + 1e-9
                     and s is not root]
            main_sum = sum(s["self_s"] for s in spans)
        for span in spans:
            agg = layers.setdefault(
                span["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            agg["self_s"] += span["self_s"]
            agg["total_s"] += span["dur_s"]
            agg["calls"] += 1
            durations.setdefault(span["name"], []).append(span["dur_s"])
            if "attrs" in span:
                attrs.setdefault(span["name"], []).append(span["attrs"])
    counters = build_report(load_events(path))["metrics"]["counters"]
    return {"layers": layers, "attrs": attrs, "durations": durations,
            "counters": counters, "main_self_sum_s": main_sum,
            "streams": list(streams)}

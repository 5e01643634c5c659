"""The benchmark's four workloads, each on the shipped defaults.

Every workload builds its own inputs from the seed, sets the system up,
measures for a fixed wall time, and checks every output against a
reference computed at set-up:

* ``serve_batch`` — a warm ``TaggingService`` (default ``ServiceConfig``)
  fed chunks of ``max_pending`` requests and drained; batching makes the
  char-CNN, BiGRU and batched Viterbi do the work.
* ``serve_open`` — open-loop Poisson arrivals at a fixed rate through a
  ``ShardedGateway`` with one forked replica and a per-request deadline;
  per-request fixed costs (pump, pipe IPC, sanitize, B=1 encode, the
  per-sentence decode path) dominate.
* ``adapt_eval`` — ``evaluate_method`` on FEWNER over fixed 5-way 1-shot
  episodes, 16 per call, with ``workers=2`` and ``fast=True``.
* ``meta_train`` — first-order ``FewNER.fit`` in calls of a fixed
  number of outer iterations, each on a fresh copy of one adapter.

An operation is one request, episode or outer iteration.  A failed
operation is a shed, expired, rejected or degraded request, an answer
whose spans differ from the reference, a failed episode, or an
iteration of a training call whose losses differ from the reference run.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

import layers
from repro import obs
from stats import HostSpeed

#: Corpus the model, vocabularies and episodes come from.  Corpus and
#: model are fixed; the benchmark seed varies the traffic (requests,
#: arrival times, episodes, training tasks).
CORPUS_SEED = 0
DATASET = "GENIA"
SCALE = 0.05
N_WAY = 5
K_SHOT = 1
QUERY_SIZE = 8

#: Serving request pool: distinct requests cycled through in a run.
POOL_SIZE = 1024
MIN_TOKENS, MAX_TOKENS = 2, 40
OOV_SHARE = 0.2

#: ``serve_open``: Poisson arrival rate, per-request deadline, and the
#: warm-up requests sent through the gateway at set-up.  The rate is
#: about 20 % of the single-replica capacity (~270 req/s with deadlines,
#: measured on a 2-core x86-64 container).  At 40 % the replica nears
#: saturation whenever other tenants slow the host by half, and the
#: queueing that follows made the tail swing by a quarter between runs.
OPEN_RATE_PER_S = 50.0
OPEN_DEADLINE_MS = 1000.0
WARMUP_REQUESTS = 64
#: The open loop times its calibration kernel only when idle for at
#: least this long before the next arrival.
CALIBRATE_IDLE_S = 0.005

#: ``adapt_eval``: fixed episodes, evaluated ``EVAL_BATCH`` per
#: ``evaluate_method`` call in turn, with ``EVAL_WORKERS`` workers.
EVAL_EPISODES = 64
EVAL_BATCH = 16
EVAL_WORKERS = 2

#: ``meta_train``: outer iterations per ``fit`` call and tasks per step.
FIT_ITERATIONS = 4
META_BATCH = 4

#: Latency limit per operation for ``slo_attainment``, per workload, at
#: the reference host speed (as measured on ``adapt_eval``, which never
#: times the host-speed kernel): about twice the p99 measured on a
#: 2-core x86-64 host (86, 12, 50 and 205 ms), so a real tail
#: regression moves the metric and host noise does not.
LATENCY_LIMIT_MS = {
    "serve_batch": 175.0,
    "serve_open": 25.0,
    "adapt_eval": 100.0,
    "meta_train": 400.0,
}

#: Percentile ``latency_tail_ms`` reports, per workload.  It is fixed,
#: so every run reports the same percentile.  Each is the highest with
#: at least ``stats.MIN_BEYOND`` independent samples beyond it in a
#: 15 s window on a 2-core x86-64 host: ~170 drains on ``serve_batch``,
#: ~750 requests on ``serve_open``, ~500 episodes on ``adapt_eval``
#: and ~75 outer iterations on ``meta_train``.  On ``serve_open`` p95
#: and above are set by stalls of the shared host, not by the program;
#: p90 is the highest that held steady from run to run there.
TAIL_PERCENTILE = {
    "serve_batch": 0.9,
    "serve_open": 0.9,
    "adapt_eval": 0.95,
    "meta_train": 0.75,
}


@dataclass
class Measurement:
    """What one measured window did."""

    attempted: int = 0
    failed: int = 0
    #: Failed because an output differed from its reference.
    mismatched: int = 0
    #: Operations that succeeded.
    ok: int = 0
    #: Operations that succeeded within the workload's latency limit.
    within_limit: int = 0
    #: Seconds the measured window took.
    busy_s: float = 0.0
    #: Per-operation latency samples, milliseconds, the ``perf_counter``
    #: time each operation finished, and the host slowdown at the time.
    latencies_ms: list = field(default_factory=list)
    finished_at: list = field(default_factory=list)
    slowdowns: list = field(default_factory=list)
    #: Latency samples independent of each other, when fewer than the
    #: samples: the requests one drain answers share one latency.
    events: int | None = None
    #: Closed loops: ``(operations answered correctly, seconds,
    #: slowdown)`` per batch of work (a drain, an ``evaluate_method`` or
    #: ``fit`` call).
    chunks: list = field(default_factory=list)
    #: Calibration kernel, sampled before every batch of work.
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: Workload-specific raw samples and counts for the per-layer view.
    extra: dict = field(default_factory=dict)

    def calibrate(self) -> None:
        """Time the host-speed kernel, in a span of its own when traced."""
        with obs.span("bench.calibrate"):
            self.speed.sample()

    def chunk(self, ok: int, seconds: float) -> None:
        self.chunks.append((ok, seconds, self.speed.slowdown()))

    def scaled_latencies_ms(self) -> list:
        """Latencies at the reference host speed (see ``HostSpeed``)."""
        return [ms / slow for ms, slow in zip(self.latencies_ms,
                                               self.slowdowns)]

    def record(self, verdict: str, latency_ms: float, limit_ms: float,
               finished_at: float) -> bool:
        """Count one operation; returns whether it succeeded.

        The latency limit applies to the latency at the reference host
        speed, like every latency the benchmark reports; a workload that
        never calls :meth:`calibrate` keeps a slowdown of 1.
        """
        slowdown = self.speed.slowdown()
        self.attempted += 1
        self.latencies_ms.append(latency_ms)
        self.finished_at.append(finished_at)
        self.slowdowns.append(slowdown)
        if verdict == "ok":
            self.ok += 1
            if latency_ms / slowdown <= limit_ms:
                self.within_limit += 1
            return True
        self.failed += 1
        if verdict == "mismatch":
            self.mismatched += 1
        return False


# ----------------------------------------------------------------------
# Shared set-up
# ----------------------------------------------------------------------
def build_corpus():
    from repro.data.synthetic import generate_dataset
    from repro.data.vocab import CharVocabulary, Vocabulary

    dataset = generate_dataset(DATASET, scale=SCALE, seed=CORPUS_SEED)
    return (dataset, Vocabulary.from_datasets([dataset]),
            CharVocabulary.from_datasets([dataset]))


def build_adapter(word_vocab, char_vocab):
    from repro.meta.base import MethodConfig
    from repro.meta.evaluate import build_method

    config = MethodConfig(seed=CORPUS_SEED, pretrain_iterations=0,
                          meta_batch=META_BATCH)
    return build_method("FewNER", word_vocab, char_vocab, N_WAY, config)


def make_requests(dataset, word_vocab, seed: int, n: int = POOL_SIZE):
    """Seeded requests of 2–40 tokens, about a fifth unknown to the vocab."""
    rng = np.random.default_rng([seed, 11])
    words = sorted({t for s in dataset.sentences for t in s.tokens})
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    requests = []
    for _ in range(n):
        tokens = []
        for _ in range(int(rng.integers(MIN_TOKENS, MAX_TOKENS + 1))):
            if rng.random() < OOV_SHARE:
                while True:
                    size = int(rng.integers(4, 10))
                    token = "".join(rng.choice(letters, size=size))
                    if token not in word_vocab:
                        break
            else:
                token = words[int(rng.integers(len(words)))]
            tokens.append(token)
        requests.append(tuple(tokens))
    return requests


def reference_spans(model, scheme, requests, chunk: int = 64):
    """Offline answers: ``model.predict_spans`` per request."""
    from repro.data.sentence import Sentence

    out = []
    for i in range(0, len(requests), chunk):
        sentences = [Sentence(list(t)) for t in requests[i:i + chunk]]
        out.extend(tuple(tuple(s) for s in spans)
                   for spans in model.predict_spans(sentences, scheme))
    return out


def check_answer(result, expected) -> str:
    """``"ok"``, ``"failed"`` (not a full-quality answer) or ``"mismatch"``."""
    if result is None or not getattr(result, "ok", False):
        return "failed"
    if result.degraded:
        return "failed"
    if tuple(tuple(s) for s in result.spans) != expected:
        return "mismatch"
    return "ok"


def serving_scheme():
    from repro.data.tags import TagScheme

    return TagScheme(tuple(str(way) for way in range(N_WAY)))


# ----------------------------------------------------------------------
# serve_batch
# ----------------------------------------------------------------------
class ServeBatch:
    name = "serve_batch"

    def build(self, seed: int, traced: bool, trace_path: str | None):
        from repro.serving import TaggingService

        dataset, word_vocab, char_vocab = build_corpus()
        model = build_adapter(word_vocab, char_vocab).model
        scheme = serving_scheme()
        requests = make_requests(dataset, word_vocab, seed)
        if traced:
            layers.instrument_process()
            layers.instrument_model(model)
        service = TaggingService(model, scheme)
        if traced:
            layers.instrument_service(service)
        service.tag_many(requests[:service.config.max_pending])  # warm-up
        return _State(model=model, scheme=scheme, service=service,
                      requests=requests)

    def reference(self, state):
        return reference_spans(state.model, state.scheme, state.requests)

    def measure(self, state, reference, seconds: float,
                seed: int = 0) -> Measurement:
        service, pool = state.service, state.requests
        limit = LATENCY_LIMIT_MS[self.name]
        chunk = service.config.max_pending
        m = Measurement()
        waits = m.extra.setdefault("queue_wait_ms", [])
        cursor = 0
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end:
            m.calibrate()
            began = time.perf_counter()
            submitted = []
            for k in range(chunk):
                j = (cursor + k) % len(pool)
                submitted.append((service.submit(pool[j]), j,
                                  time.perf_counter()))
            cursor += chunk
            done = service.drain()
            finished = time.perf_counter()
            ok = 0
            with obs.span("bench.check"):
                for ticket, j, sent in submitted:
                    result = done.get(ticket)
                    ok += m.record(check_answer(result, reference[j]),
                                   (finished - sent) * 1000.0, limit,
                                   finished)
                    if getattr(result, "ok", False):
                        waits.append(result.queue_wait_ms)
                        m.extra["degraded"] = (m.extra.get("degraded", 0)
                                               + int(result.degraded))
            m.chunk(ok, finished - began)
        m.busy_s = time.perf_counter() - start
        m.events = len(m.chunks)
        return m

    def tape_probe(self, state):
        state.service.tag_many(state.requests[:64])
        return 64


# ----------------------------------------------------------------------
# serve_open
# ----------------------------------------------------------------------
class ServeOpen:
    name = "serve_open"

    def build(self, seed: int, traced: bool, trace_path: str | None):
        from repro.serving import TaggingService
        from repro.serving.gateway import GatewayConfig, ShardedGateway

        dataset, word_vocab, char_vocab = build_corpus()
        model = build_adapter(word_vocab, char_vocab).model
        scheme = serving_scheme()
        requests = make_requests(dataset, word_vocab, seed)
        if traced:
            layers.instrument_process()
            layers.instrument_model(model)

        def factory(_replica_id):
            service = TaggingService(model, scheme)
            if traced:
                layers.instrument_service(service)
            return service

        gateway = ShardedGateway(
            factory, GatewayConfig(replicas=1), backend="process",
            telemetry_path=trace_path if traced else None,
        )
        try:
            if traced:
                layers.instrument_gateway(gateway)
            gateway.tag_many(requests[:WARMUP_REQUESTS],
                             deadline_ms=OPEN_DEADLINE_MS, timeout_s=120.0)
        except BaseException:
            gateway.shutdown()
            raise
        return _State(model=model, scheme=scheme, gateway=gateway,
                      requests=requests, closer=gateway.shutdown)

    def reference(self, state):
        return reference_spans(state.model, state.scheme, state.requests)

    def measure(self, state, reference, seconds: float,
                seed: int = 0) -> Measurement:
        gateway, pool = state.gateway, state.requests
        limit = LATENCY_LIMIT_MS[self.name]
        rng = np.random.default_rng([seed, 23])
        # Poisson arrivals with their number fixed, so every run offers
        # the same load: given how many arrivals fall in a window, their
        # times are the sorted draws of as many uniform variates.
        count = max(1, round(OPEN_RATE_PER_S * seconds))
        start = time.perf_counter() + 0.005
        arrivals = (start + np.sort(rng.uniform(0.0, seconds, size=count))
                    ).tolist()
        m = Measurement()
        lateness = m.extra.setdefault("lateness_ms", [])
        waits = m.extra.setdefault("queue_wait_ms", [])
        routed = m.extra.setdefault("routed_latency_ms", {})
        m.extra["first_ticket"] = None
        pending: dict[int, tuple[int, float]] = {}
        sent = 0
        m.calibrate()
        calibrated = time.perf_counter()
        give_up = arrivals[-1] + 60.0 if arrivals else start
        while True:
            now = time.perf_counter()
            while sent < len(arrivals) and arrivals[sent] <= now:
                j = sent % len(pool)
                ticket = gateway.submit(pool[j],
                                        deadline_ms=OPEN_DEADLINE_MS)
                if m.extra["first_ticket"] is None:
                    m.extra["first_ticket"] = ticket
                pending[ticket] = (j, arrivals[sent])
                lateness.append((now - arrivals[sent]) * 1000.0)
                sent += 1
            gateway.pump()
            done = gateway.collect()
            if done:
                delivered = time.perf_counter()
                with obs.span("bench.check"):
                    for ticket, answer in done.items():
                        j, due = pending.pop(ticket)
                        result = answer.result
                        m.record(check_answer(result, reference[j]),
                                 (delivered - due) * 1000.0, limit,
                                 delivered)
                        routed[ticket] = answer.latency_ms
                        if getattr(result, "ok", False):
                            waits.append(result.queue_wait_ms)
                            m.extra["degraded"] = (
                                m.extra.get("degraded", 0)
                                + int(result.degraded))
            if sent >= len(arrivals) and not pending:
                break
            if now > give_up:
                for _ticket in pending:  # never answered
                    m.record("failed", (now - start) * 1000.0, limit, now)
                break
            due_next = arrivals[sent] if sent < len(arrivals) else now
            idle = due_next - time.perf_counter()
            if (not pending and idle > CALIBRATE_IDLE_S
                    and now - calibrated > 0.1):
                # Only with nothing in flight and no arrival due, so no
                # request waits for the kernel.
                m.calibrate()
                calibrated = now
                continue
            with obs.span("bench.idle"):
                time.sleep(max(min(idle, 0.0005), 0.0001))
        m.busy_s = time.perf_counter() - start
        health = gateway.health()
        m.extra["gateway_queue_wait"] = health.get("queue_wait", {})
        return m

    def tape_probe(self, state):
        from repro.serving import TaggingService

        service = TaggingService(state.model, state.scheme)
        for tokens in state.requests[:32]:
            service.tag(tokens, deadline_ms=OPEN_DEADLINE_MS)
        return 32


# ----------------------------------------------------------------------
# adapt_eval
# ----------------------------------------------------------------------
class AdaptEval:
    name = "adapt_eval"

    def build(self, seed: int, traced: bool, trace_path: str | None):
        from repro.meta.evaluate import evaluate_method, fixed_episodes

        dataset, word_vocab, char_vocab = build_corpus()
        adapter = build_adapter(word_vocab, char_vocab)
        episodes = fixed_episodes(dataset, N_WAY, K_SHOT, EVAL_EPISODES,
                                  seed=seed + 7, query_size=QUERY_SIZE)
        if traced:
            layers.instrument_model(adapter.model)
            layers.instrument_episode_worker(adapter)
            layers.instrument_process()
        evaluate_method(adapter, episodes[:EVAL_WORKERS],
                        workers=EVAL_WORKERS, fast=True)  # warm-up
        return _State(adapter=adapter, episodes=episodes)

    @staticmethod
    def _batches(state):
        episodes = state.episodes
        return [episodes[i:i + EVAL_BATCH]
                for i in range(0, len(episodes), EVAL_BATCH)]

    def reference(self, state):
        from repro.meta.evaluate import evaluate_method

        # Scores are the same for any worker count >= 1; an episode's
        # seed is its index within the call, so each batch has its own.
        return [evaluate_method(state.adapter, batch, workers=1,
                                fast=True).episode_scores
                for batch in self._batches(state)]

    def measure(self, state, reference, seconds: float,
                seed: int = 0) -> Measurement:
        """Evaluate the batches in turn until time is up.

        The host-speed kernel is not timed: the episodes run in the
        executor's workers, not in this process, and over ten seeds the
        kernel's slowdown here spread by 19 % while the measured rate
        spread by 6 %.  Dividing by it widened the rate's spread to 15 %,
        so these figures are reported as measured.
        """
        from repro.meta.evaluate import evaluate_method

        limit = LATENCY_LIMIT_MS[self.name]
        m = Measurement()
        overheads = m.extra.setdefault("executor_overhead_ms", [])
        m.extra["retries"] = m.extra["pool_restarts"] = 0
        batches = self._batches(state)
        calls = 0
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end:
            batch = calls % len(batches)
            calls += 1
            t0 = time.perf_counter()
            result = evaluate_method(state.adapter, batches[batch],
                                     workers=EVAL_WORKERS, fast=True)
            t1 = time.perf_counter()
            wall = t1 - t0
            report = result.execution
            failed = set(result.failed_episodes)
            scores = iter(result.episode_scores)
            ok = 0
            for task in report.tasks:
                if task.index in failed:
                    verdict = "failed"
                elif next(scores) == reference[batch][task.index]:
                    verdict = "ok"
                else:
                    verdict = "mismatch"
                ok += m.record(verdict, task.wall_time_s * 1000.0, limit,
                               t1)
            m.chunk(ok, wall)
            task_s = sum(task.wall_time_s for task in report.tasks)
            overheads.append((wall - task_s / EVAL_WORKERS) * 1000.0)
            m.extra["retries"] += len(report.retried_indices)
            m.extra["pool_restarts"] += report.pool_restarts
        m.busy_s = time.perf_counter() - start
        return m

    def tape_probe(self, state):
        from repro.perf.fastpath import fastpath

        sentences = 0
        for episode in state.episodes[:2]:
            with fastpath():
                state.adapter.predict_episode(episode)
            sentences += len(episode.support) + len(episode.query)
        return sentences


# ----------------------------------------------------------------------
# meta_train
# ----------------------------------------------------------------------
class MetaTrain:
    name = "meta_train"

    def build(self, seed: int, traced: bool, trace_path: str | None):
        dataset, word_vocab, char_vocab = build_corpus()
        pristine = build_adapter(word_vocab, char_vocab)
        state = _State(adapter=pristine, dataset=dataset, seed=seed,
                       traced=traced)
        if traced:
            layers.instrument_process()
        adapter, sampler = self._fresh(state)
        adapter.fit(sampler, 1)  # warm-up
        return state

    def _fresh(self, state, marks: list | None = None,
               sentences: list | None = None):
        """A copy of the pristine adapter and a freshly seeded sampler.

        ``marks`` receives a timestamp at the top of each outer iteration
        (fit samples its tasks once per iteration); ``sentences`` the
        number of sentences each iteration's tasks hold.
        """
        from repro.data.episodes import EpisodeSampler

        adapter = copy.deepcopy(state.adapter)
        sampler = EpisodeSampler(state.dataset, N_WAY, K_SHOT,
                                 query_size=QUERY_SIZE, seed=state.seed + 3)
        if state.traced:
            layers.instrument_model(adapter.model)
            layers.instrument_training(adapter, sampler)
        sample_many = sampler.sample_many

        def marked(n):
            if marks is not None:
                marks.append(time.perf_counter())
            tasks = sample_many(n)
            if sentences is not None:
                sentences.append(sum(len(t.support) + len(t.query)
                                     for t in tasks))
            return tasks

        sampler.sample_many = marked
        return adapter, sampler

    def reference(self, state):
        """Losses of the first ``FIT_ITERATIONS`` from a fresh start."""
        adapter, sampler = self._fresh(state)
        return adapter.fit(sampler, FIT_ITERATIONS)

    def measure(self, state, reference, seconds: float,
                seed: int = 0) -> Measurement:
        """Train fresh copies of the adapter in ``fit`` calls until time
        is up.

        Each call starts from its own copy of the pristine adapter and a
        freshly seeded sampler, made before the call's clock starts, so
        every call must repeat the reference losses exactly.  An
        iteration runs from one task sample to the next; the first from
        the start of the call.
        """
        limit = LATENCY_LIMIT_MS[self.name]
        expected = list(reference)
        m = Measurement()
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            m.calibrate()
            marks: list[float] = []
            with obs.span("bench.fresh"):
                adapter, sampler = self._fresh(state, marks)
            began = time.perf_counter()
            losses = adapter.fit(sampler, FIT_ITERATIONS)
            chunk = [began] + marks[1:] + [time.perf_counter()]
            m.busy_s += chunk[-1] - began
            verdict = "ok" if losses == expected else "mismatch"
            ok = 0
            for a, b in zip(chunk, chunk[1:]):
                ok += m.record(verdict, (b - a) * 1000.0, limit, b)
            m.chunk(ok, chunk[-1] - began)
        return m

    def tape_probe(self, state):
        sentences: list[int] = []
        adapter, sampler = self._fresh(state, sentences=sentences)
        adapter.fit(sampler, 1)
        return sum(sentences)


@dataclass
class _State:
    """What a workload's set-up built; ``close`` releases processes."""

    model: object = None
    scheme: object = None
    service: object = None
    gateway: object = None
    adapter: object = None
    dataset: object = None
    requests: list = field(default_factory=list)
    episodes: list = field(default_factory=list)
    seed: int = 0
    traced: bool = False
    closer: object = None

    def close(self) -> None:
        if self.closer is not None:
            self.closer()
            self.closer = None


WORKLOADS = {w.name: w for w in (ServeBatch(), ServeOpen(), AdaptEval(),
                                 MetaTrain())}

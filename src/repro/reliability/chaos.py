"""Cross-layer chaos scenarios and the ``repro chaos soak`` harness.

Each :class:`ChaosScenario` composes :class:`FaultInjector` hooks with
one production recovery path — the supervised executor, the guarded
training step, the checkpoint store, the serving degradation ladder —
and asserts *invariants* about what self-healing must have preserved:

* results come back ordered, with no index lost or duplicated;
* scores are bit-identical to a fault-free serial run of the same work;
* damaged checkpoints are quarantined, never half-loaded, and no
  partial file is left behind;
* the serving breaker opens under a fault burst and re-closes through
  its half-open probe once the burst ends;
* no scenario leaks a fast-path mode change past its own frame
  (:func:`repro.perf.fastpath.fastpath_state` must equal
  :data:`repro.perf.fastpath.DEFAULT_FASTPATH_STATE` afterwards).

:func:`run_scenario` runs one scenario and returns a
:class:`ScenarioResult`; :func:`run_soak` loops the scenario suite
under a wall-clock / round budget (always completing at least one full
round, so a fixed-seed CI smoke run is deterministic) and returns a
:class:`SoakReport`.  The CLI verb is ``repro chaos soak``.

Scenarios are deterministic given their seed: every fault schedule is
derived from it, and nothing here consults global randomness.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Invariant:
    """One checked property of a scenario run."""

    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        line = f"    [{mark}] {self.name}"
        if self.detail and not self.ok:
            line += f" — {self.detail}"
        return line


@dataclass
class ScenarioResult:
    """Outcome of one :func:`run_scenario` invocation."""

    scenario: str
    seed: int
    invariants: tuple[Invariant, ...] = ()
    #: Scenario-specific observations (counts, modes, reports) — JSONable.
    details: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    #: Set when the scenario body itself raised (always a failure).
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(inv.ok for inv in self.invariants)

    def failures(self) -> list[Invariant]:
        return [inv for inv in self.invariants if not inv.ok]

    def summary(self) -> dict:
        """JSON-serialisable digest for journals and ``--json`` output."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "passed": self.passed,
            "invariants": [
                {"name": inv.name, "ok": inv.ok, "detail": inv.detail}
                for inv in self.invariants
            ],
            "details": self.details,
            "wall_time_s": round(self.wall_time_s, 3),
            "error": self.error,
        }

    def render(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        lines = [
            f"  [{mark}] {self.scenario} seed={self.seed} "
            f"({self.wall_time_s:.2f}s, "
            f"{sum(inv.ok for inv in self.invariants)}"
            f"/{len(self.invariants)} invariants)"
        ]
        if self.error is not None:
            lines.append(f"    [FAIL] scenario raised: {self.error}")
        for inv in self.invariants:
            if not inv.ok:
                lines.append(inv.render())
        return "\n".join(lines)


@dataclass
class SoakReport:
    """Outcome of one :func:`run_soak` invocation."""

    seed: int
    rounds: int
    results: list[ScenarioResult] = field(default_factory=list)
    wall_time_s: float = 0.0
    #: True when the wall-clock budget (not ``max_rounds``) stopped it.
    budget_exhausted: bool = False

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.passed]

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "runs": len(self.results),
            "passed": self.passed,
            "failures": [r.scenario for r in self.failures()],
            "wall_time_s": round(self.wall_time_s, 3),
            "budget_exhausted": self.budget_exhausted,
            "results": [r.summary() for r in self.results],
        }

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"chaos soak: seed={self.seed} rounds={self.rounds} "
            f"runs={len(self.results)} wall={self.wall_time_s:.1f}s "
            f"{verdict}"
        ]
        lines.extend(r.render() for r in self.results)
        return "\n".join(lines)


@dataclass(frozen=True)
class ChaosScenario:
    """A named fault-composition with invariant checks.

    ``run(seed, check)`` executes the scenario; it reports invariants
    through ``check(name, ok, detail="")`` and returns a JSONable
    ``details`` dict (or ``None``).
    """

    name: str
    description: str
    run: Callable


#: Registry of every named scenario, in definition order.
SCENARIOS: dict[str, ChaosScenario] = {}


def _scenario(name: str, description: str):
    def register(fn):
        SCENARIOS[name] = ChaosScenario(name, description, fn)
        return fn
    return register


# ----------------------------------------------------------------------
# Executor-layer scenarios (synthetic work, real supervision)
# ----------------------------------------------------------------------

def _synthetic_work(item, index):
    """Cheap, deterministic, index-independent-of-scheduling work."""
    return ((int(item) * 31 + 7) % 1000) / 1000.0


def _reject_non_finite(value, index):
    if not isinstance(value, float) or not math.isfinite(value):
        return f"index {index}: non-finite result {value!r}"
    return None


def _check_executor_run(check, report, items, *, injector=None,
                        fault_kind=None):
    """The invariants every executor scenario shares.

    Ordered results, no lost/duplicate index, bit-identical parity with
    a fault-free serial run, no ``ERR`` records — and, when the run was
    genuinely parallel, that every index the injector *planned* to
    fault shows up among the retried indices (fault schedules in the
    serial fallback path are intentionally inert, so those checks are
    recorded as skipped there).
    """
    n = len(items)
    expected = [_synthetic_work(item, i) for i, item in enumerate(items)]
    check("no-lost-or-duplicate-index",
          sorted(t.index for t in report.tasks) == list(range(n)),
          f"task indices {sorted(t.index for t in report.tasks)}")
    check("ordered-result-parity", report.results == expected,
          f"results diverge from fault-free serial run")
    check("no-error-records", not report.failed_indices,
          f"failed indices {report.failed_indices}")
    check("every-attempt-accounted", report.total_attempts >= n,
          f"{report.total_attempts} attempts for {n} tasks")
    parallel = report.mode == "parallel"
    if injector is not None and fault_kind is not None:
        planned = [i for i in range(n)
                   if injector.planned_worker_fault(i) == fault_kind]
        if parallel:
            check("faults-actually-injected", bool(planned),
                  f"no {fault_kind} faults planned for this seed")
            check("planned-faults-all-retried",
                  set(planned) <= set(report.retried_indices),
                  f"planned {planned}, retried {report.retried_indices}")
        else:
            check("planned-faults-all-retried", True,
                  "skipped: serial mode (fork unavailable)")
        return planned
    return []


@_scenario(
    "executor-crash",
    "workers killed with os._exit mid-task; supervisor retries, result "
    "parity with a fault-free serial run holds",
)
def _run_executor_crash(seed, check):
    from repro.perf.executor import EpisodeExecutor
    from repro.reliability.faults import FaultInjector

    n = 24
    items = list(range(n))
    injector = FaultInjector(
        worker_crash_at=(1, n // 2), worker_crash_p=0.15, worker_seed=seed,
    )
    executor = EpisodeExecutor(
        workers=3, max_attempts=3, fault_injector=injector,
    )
    report = executor.run(_synthetic_work, items)
    planned = _check_executor_run(check, report, items, injector=injector,
                                  fault_kind="crash")
    return {"execution": report.summary(), "planned_crashes": planned}


@_scenario(
    "executor-hang",
    "workers sleep past the task deadline; supervisor kills and replaces "
    "only the hung worker, innocents keep running, parity holds",
)
def _run_executor_hang(seed, check):
    from repro.perf.executor import EpisodeExecutor
    from repro.reliability.faults import FaultInjector

    n = 10
    items = list(range(n))
    injector = FaultInjector(
        worker_hang_at=(2,), worker_hang_p=0.1, worker_seed=seed,
        worker_hang_s=5.0,
    )
    executor = EpisodeExecutor(
        workers=2, task_timeout_s=0.25, max_attempts=3,
        fault_injector=injector,
    )
    report = executor.run(_synthetic_work, items)
    planned = _check_executor_run(check, report, items, injector=injector,
                                  fault_kind="hang")
    if report.mode == "parallel":
        check("hang-replaced-worker", report.pool_restarts >= 1,
              f"pool_restarts={report.pool_restarts}")
        check("deadline-recorded",
              any("deadline" in err for t in report.tasks
                  for err in t.errors),
              "no task records a deadline overrun")
    return {"execution": report.summary(), "planned_hangs": planned}


@_scenario(
    "executor-corrupt",
    "workers return NaN results; validate_fn rejects them, the retry "
    "restores the true value, parity holds",
)
def _run_executor_corrupt(seed, check):
    from repro.perf.executor import EpisodeExecutor
    from repro.reliability.faults import FaultInjector

    n = 12
    items = list(range(n))
    injector = FaultInjector(
        worker_corrupt_at=(0, 3, 7), worker_seed=seed,
    )
    executor = EpisodeExecutor(
        workers=2, max_attempts=3, fault_injector=injector,
        validate_fn=_reject_non_finite,
    )
    report = executor.run(_synthetic_work, items)
    planned = _check_executor_run(check, report, items, injector=injector,
                                  fault_kind="corrupt")
    if report.mode == "parallel":
        check("rejection-reasons-recorded",
              all(any("invalid result" in err
                      for err in report.tasks[i].errors)
                  for i in planned),
              "a corrupted index has no 'invalid result' failure reason")
    return {"execution": report.summary(), "planned_corruptions": planned}


# ----------------------------------------------------------------------
# Evaluation-layer scenario (real model, real episodes)
# ----------------------------------------------------------------------

@_scenario(
    "episode-eval-crash",
    "evaluate_method under worker crash/raise faults: scores stay "
    "bit-identical to the fault-free serial run, no episode is lost",
)
def _run_episode_eval_crash(seed, check):
    from repro.data.synthetic import generate_dataset
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.experiments.configs import SCALES
    from repro.meta.evaluate import (
        build_method, evaluate_method, fixed_episodes,
    )
    from repro.reliability.faults import FaultInjector

    dataset = generate_dataset("OntoNotes", scale=0.02, seed=seed % 97)
    half = len(dataset) // 2
    train, test = dataset[:half], dataset[half:]
    scale = SCALES["smoke"]
    word_vocab = Vocabulary.from_datasets([train])
    char_vocab = CharVocabulary.from_datasets([train])
    adapter = build_method("ProtoNet", word_vocab, char_vocab,
                           scale.n_way, scale.method_config)
    episodes = fixed_episodes(test, scale.n_way, 1, 4, seed=5,
                              query_size=scale.query_size)
    baseline = evaluate_method(adapter, episodes)
    injector = FaultInjector(worker_crash_at=(0,), worker_raise_at=(1,),
                             worker_seed=seed)
    faulted = evaluate_method(
        adapter, episodes, workers=2, task_timeout_s=120.0,
        fault_injector=injector,
    )
    check("score-parity-with-serial",
          faulted.episode_scores == baseline.episode_scores,
          f"faulted {faulted.episode_scores} != "
          f"serial {baseline.episode_scores}")
    check("no-failed-episodes", not faulted.failed_episodes,
          f"failed episodes {faulted.failed_episodes}")
    execution = faulted.execution
    check("every-episode-accounted",
          sorted(t.index for t in execution.tasks)
          == list(range(len(episodes))),
          f"task indices {sorted(t.index for t in execution.tasks)}")
    if execution.mode == "parallel":
        check("faults-retried", bool(execution.retried_indices),
              "no retries despite scheduled crash/raise faults")
    return {
        "episodes": len(episodes),
        "f1": baseline.f1,
        "execution": execution.summary(),
    }


@_scenario(
    "recurrent-kernel-parity",
    "fused recurrent kernel flipped on/off mid-stream: layer outputs "
    "and gradients stay bit-identical to the legacy tape, episode "
    "scores are unchanged, the second-order guard trips",
)
def _run_recurrent_kernel_parity(seed, check):
    import numpy as np

    from repro.autodiff.tensor import Tensor, grad
    from repro.data.synthetic import generate_dataset
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.experiments.configs import SCALES
    from repro.meta.evaluate import (
        build_method, evaluate_method, fixed_episodes,
    )
    from repro.nn.rnn import BiGRU
    from repro.perf.fastpath import recurrent_kernel

    rng = np.random.default_rng(seed)
    layer = BiGRU(6, 5, np.random.default_rng(seed + 1))
    x_data = rng.normal(size=(4, 9, 6))
    lengths = rng.integers(0, 10, size=4)  # includes zero-length rows
    mask = (np.arange(9)[None, :] < lengths[:, None]).astype(float)

    def outputs_and_grads():
        x = Tensor(x_data, requires_grad=True)
        out = layer(x, mask)
        grads = grad((out * out).sum(), [x] + layer.parameters())
        return out.data, [g.data for g in grads]

    fused_out, fused_grads = outputs_and_grads()
    with recurrent_kernel(False):
        tape_out, tape_grads = outputs_and_grads()
    check("layer-outputs-bit-identical",
          np.array_equal(fused_out, tape_out))
    check("layer-gradients-bit-identical",
          all(np.array_equal(a, b)
              for a, b in zip(fused_grads, tape_grads)))

    guard_tripped = False
    try:
        x = Tensor(x_data, requires_grad=True)
        out = layer(x, mask)
        grad((out * out).sum(), [x], create_graph=True)
    except RuntimeError:
        guard_tripped = True
    check("second-order-guard-trips", guard_tripped,
          "create_graph=True through the fused scan did not raise")

    dataset = generate_dataset("OntoNotes", scale=0.02, seed=seed % 89)
    half = len(dataset) // 2
    train, test = dataset[:half], dataset[half:]
    scale = SCALES["smoke"]
    word_vocab = Vocabulary.from_datasets([train])
    char_vocab = CharVocabulary.from_datasets([train])
    adapter = build_method("ProtoNet", word_vocab, char_vocab,
                           scale.n_way, scale.method_config)
    episodes = fixed_episodes(test, scale.n_way, 1, 2, seed=7,
                              query_size=scale.query_size)
    fused_eval = evaluate_method(adapter, episodes)
    with recurrent_kernel(False):
        tape_eval = evaluate_method(adapter, episodes)
    check("episode-scores-bit-identical",
          fused_eval.episode_scores == tape_eval.episode_scores,
          f"fused {fused_eval.episode_scores} != "
          f"tape {tape_eval.episode_scores}")
    return {
        "episodes": len(episodes),
        "f1": fused_eval.f1,
        "lengths": lengths.tolist(),
    }


@_scenario(
    "fused-nll-parity",
    "fused CRF NLL flipped on/off mid-stream: NLL values and gradients "
    "stay bit-identical to the graph, a short FewNER fit writes the same "
    "checkpoint, the second-order guard trips",
)
def _run_fused_nll_parity(seed, check):
    import numpy as np

    from repro.autodiff.tensor import Tensor, grad
    from repro.crf import LinearChainCRF
    from repro.data.episodes import EpisodeSampler
    from repro.data.synthetic import generate_dataset
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.meta import FewNER, MethodConfig
    from repro.models import BackboneConfig
    from repro.perf.fastpath import fastpath

    rng = np.random.default_rng(seed)
    crf = LinearChainCRF(5, np.random.default_rng(seed + 1))
    params = [crf.transitions, crf.start_scores, crf.end_scores]
    batches = []
    for _ in range(4):
        batch, length = (int(n) for n in rng.integers(1, 7, size=2))
        lengths = rng.integers(1, length + 1, size=batch)
        batches.append((
            np.round(rng.normal(size=(batch, length, 5)) * 2, 1),
            rng.integers(0, 5, size=(batch, length)),
            (np.arange(length)[None, :] < lengths[:, None]).astype(float),
        ))

    def nll_and_grads(emissions, tags, mask):
        x = Tensor(emissions, requires_grad=True)
        loss = crf.batch_nll_padded(x, tags, mask)
        grads = grad(loss, [x] + params, allow_unused=True)
        return [loss.data] + [None if g is None else g.data for g in grads]

    identical = True
    for index, batch in enumerate(batches):
        # Alternate which route runs first, so the toggle lands mid-stream.
        with fastpath(index % 2 == 0):
            first = nll_and_grads(*batch)
        with fastpath(index % 2 == 1):
            second = nll_and_grads(*batch)
        identical &= all(
            (a is None and b is None)
            or (a is not None and b is not None and a.tobytes() == b.tobytes())
            for a, b in zip(first, second)
        )
    check("nll-values-and-gradients-bit-identical", identical)

    guard_tripped = False
    try:
        emissions, tags, mask = batches[0]
        x = Tensor(emissions, requires_grad=True)
        grad(crf.batch_nll_padded(x, tags, mask), [x], create_graph=True)
    except RuntimeError as exc:
        guard_tripped = "fastpath(False)" in str(exc)
    check("second-order-guard-trips", guard_tripped,
          "create_graph=True through the fused NLL did not raise")

    dataset = generate_dataset("OntoNotes", scale=0.02, seed=seed % 89)
    word_vocab = Vocabulary.from_datasets([dataset])
    char_vocab = CharVocabulary.from_datasets([dataset])
    config = MethodConfig(
        seed=seed, meta_batch=2, pretrain_iterations=1, inner_loss="crf",
        backbone=BackboneConfig(word_dim=10, char_dim=6, char_filters=6,
                                hidden=8, context_dim=4),
    )

    def checkpoint():
        adapter = FewNER(word_vocab, char_vocab, 3, config)
        sampler = EpisodeSampler(dataset, 3, 1, query_size=3, seed=seed + 2)
        losses = adapter.fit(sampler, 2)
        return losses, {k: v.tobytes()
                        for k, v in adapter.model.state_dict().items()}

    fused_losses, fused_state = checkpoint()
    with fastpath(False):
        graph_losses, graph_state = checkpoint()
    check("fit-checkpoint-bit-identical",
          fused_losses == graph_losses and fused_state == graph_state,
          f"fused losses {fused_losses} != graph {graph_losses}"
          if fused_losses != graph_losses else "parameters differ")
    return {"batches": len(batches), "losses": fused_losses}


# ----------------------------------------------------------------------
# Training-layer scenario (guarded step)
# ----------------------------------------------------------------------

@_scenario(
    "training-guard",
    "NaN gradients injected into fit: the guarded step skips them, "
    "parameters stay finite, the anomaly report accounts for the skip",
)
def _run_training_guard(seed, check):
    import numpy as np

    from repro.data.episodes import EpisodeSampler
    from repro.data.synthetic import generate_dataset
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.experiments.configs import SCALES
    from repro.meta.evaluate import build_method
    from repro.reliability.faults import FaultInjector

    dataset = generate_dataset("OntoNotes", scale=0.02, seed=seed % 97)
    half = len(dataset) // 2
    train = dataset[:half]
    scale = SCALES["smoke"]
    word_vocab = Vocabulary.from_datasets([train])
    char_vocab = CharVocabulary.from_datasets([train])
    adapter = build_method("FewNER", word_vocab, char_vocab,
                           scale.n_way, scale.method_config)
    adapter.fault_injector = FaultInjector(nan_grad_at={0})
    sampler = EpisodeSampler(train, scale.n_way, 1,
                             query_size=scale.query_size, seed=7)
    adapter.fit(sampler, 2)
    finite = all(
        bool(np.all(np.isfinite(p.data)))
        for _name, p in adapter.model.named_parameters()
    )
    check("parameters-stay-finite", finite,
          "NaN reached a parameter tensor")
    report = adapter.anomaly_report
    check("anomaly-report-present", report is not None)
    if report is not None:
        check("poisoned-step-skipped", report.steps_skipped >= 1,
              f"steps_skipped={report.steps_skipped}")
        check("anomaly-recorded", not report.clean,
              "report claims a clean run despite the injected NaN")
    return {"anomalies": None if report is None else report.steps_skipped}


# ----------------------------------------------------------------------
# Checkpoint-layer scenario
# ----------------------------------------------------------------------

@_scenario(
    "checkpoint-corruption",
    "newest checkpoint bit-flipped on disk: sha256 catches it, the file "
    "is quarantined, the previous good checkpoint loads, no partial "
    "file is left behind",
)
def _run_checkpoint_corruption(seed, check):
    import shutil
    import tempfile

    import numpy as np

    from repro.reliability.checkpoint import (
        CHECKSUM_SUFFIX, QUARANTINE_SUFFIX, CheckpointStore,
        TrainingCheckpoint,
    )

    directory = tempfile.mkdtemp(prefix="chaos-ckpt-")
    try:
        store = CheckpointStore(directory, keep=3)
        rng = np.random.default_rng(seed)
        for iteration in (1, 2):
            store.save(TrainingCheckpoint(
                iteration=iteration,
                module_state={"w": rng.normal(size=8)},
                loss_history=[0.5, 0.25],
            ))
        latest = store.latest_path()
        # Flip one byte in the middle: the archive may still parse, but
        # the sha256 sidecar must not let it load.
        with open(latest, "r+b") as fh:
            fh.seek(os.path.getsize(latest) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        loaded = store.load_latest()
        check("fallback-to-previous-good",
              loaded is not None and loaded.iteration == 1,
              f"loaded iteration "
              f"{None if loaded is None else loaded.iteration}")
        check("damaged-file-quarantined",
              store.quarantined == [latest]
              and os.path.exists(latest + QUARANTINE_SUFFIX)
              and not os.path.exists(latest),
              f"quarantined={store.quarantined}")
        check("sidecar-quarantined-too",
              not os.path.exists(latest + CHECKSUM_SUFFIX),
              "damaged checkpoint's sidecar left in rotation")
        check("no-partial-files",
              not any(name.startswith(".tmp")
                      for name in os.listdir(directory)),
              f"stray files: {sorted(os.listdir(directory))}")
        check("rotation-skips-quarantined",
              [os.path.basename(p) for p in store.paths()]
              == ["state-00000001.npz"],
              f"paths={[os.path.basename(p) for p in store.paths()]}")
        return {"quarantined": [os.path.basename(p)
                                for p in store.quarantined]}
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ----------------------------------------------------------------------
# Serving-layer scenario
# ----------------------------------------------------------------------

@_scenario(
    "serving-burst",
    "slow-decode burst trips the breaker; shed requests degrade (never "
    "hang); after the cool-down the half-open probe re-closes it",
)
def _run_serving_burst(seed, check):
    import numpy as np

    from repro.data.tags import TagScheme
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
    from repro.reliability.faults import FaultInjector
    from repro.serving import (
        CLOSED, HALF_OPEN, OPEN, ManualClock, ServiceConfig, TaggingService,
    )

    tokens = ["the", "visited", "today", "reports", "arrived"]
    rng = np.random.default_rng(seed)
    scheme = TagScheme(("0", "1"))
    model = CNNBiGRUCRF(Vocabulary(tokens), CharVocabulary(tokens),
                        scheme.num_tags, BackboneConfig(), rng,
                        tag_names=scheme.tags)
    clock = ManualClock()
    injector = FaultInjector(slow_decode_s=0.3, slow_decode_for=2,
                             clock=clock)
    service = TaggingService(
        model, scheme,
        ServiceConfig(default_deadline_ms=100, breaker_threshold=2,
                      breaker_cooldown_ms=1000),
        clock=clock, fault_injector=injector,
    )
    first = service.tag(["the"])
    second = service.tag(["visited"])
    check("overruns-answered-not-hung",
          first.ok and "overran" in (first.note or "")
          and second.ok and "overran" in (second.note or ""),
          f"notes {first.note!r}, {second.note!r}")
    check("burst-trips-breaker",
          service.breaker.state == OPEN and service.breaker.trips == 1,
          f"state={service.breaker.state} trips={service.breaker.trips}")
    shed = service.tag(["today"])
    check("open-breaker-sheds-degraded",
          shed.ok and shed.degraded and "breaker" in (shed.note or ""),
          f"note={shed.note!r}")
    clock.advance(1.1)
    check("cooldown-half-opens",
          service.breaker.state == HALF_OPEN,
          f"state={service.breaker.state}")
    probe = service.tag(["arrived"])
    check("probe-recloses-breaker",
          probe.ok and not probe.degraded
          and service.breaker.state == CLOSED,
          f"state={service.breaker.state} note={probe.note!r}")
    return {"trips": service.breaker.trips, "stats": dict(service.stats)}


@_scenario(
    "gateway-replica-kill",
    "SIGKILL gateway replicas under live, traced traffic: every admitted "
    "request is answered bit-identically to a single-process oracle, "
    "none lost or duplicated, every answer stitches into one complete "
    "cross-process trace, and the flight recorder dumps on each kill",
)
def _run_gateway_replica_kill(seed, check):
    import shutil
    import tempfile

    import numpy as np

    from repro import obs
    from repro.data.tags import TagScheme
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
    from repro.obs.report import assemble_traces
    from repro.obs.reqtrace import flight_recorder, request_tracing
    from repro.serving import ServiceConfig, TaggingService
    from repro.serving.gateway import GatewayConfig, ShardedGateway
    from repro.serving.loadgen import synthetic_requests
    from repro.serving.replica import fork_available

    pool = ("the", "visited", "today", "reports", "arrived",
            "Kavox", "Zuqev", "Mirelle")
    scheme = TagScheme(("0", "1"))
    model = CNNBiGRUCRF(Vocabulary(pool), CharVocabulary(pool),
                        scheme.num_tags, BackboneConfig(),
                        np.random.default_rng(seed), tag_names=scheme.tags)

    def factory(replica_id):
        return TaggingService(model, scheme, ServiceConfig(max_pending=512))

    # Replicas are clones of one fork-inherited model, so any replica's
    # answer must match this single-process oracle bit for bit.
    oracle = factory(-1)
    requests = synthetic_requests(48, seed=seed, pool=pool)
    chaos_rng = np.random.default_rng((seed, 8317))
    kill_at = set(int(i) for i in
                  chaos_rng.choice(np.arange(6, 42), size=3, replace=False))
    backend = "process" if fork_available() else "in-process"
    tmpdir = tempfile.mkdtemp(prefix="chaos-trace-")
    telemetry_path = os.path.join(tmpdir, "telemetry.jsonl")
    kills = 0
    tickets: list[int] = []
    results: dict[int, object] = {}
    deliveries: dict[int, int] = {}

    def absorb(batch: dict) -> None:
        for ticket, routed in batch.items():
            results[ticket] = routed
            deliveries[ticket] = deliveries.get(ticket, 0) + 1

    try:
        with obs.telemetry_session(telemetry_path), request_tracing(), \
                flight_recorder(tmpdir):
            gateway = ShardedGateway(
                factory,
                GatewayConfig(replicas=3, max_shard_queue=256,
                              breaker_cooldown_ms=50.0, seed=seed),
                backend=backend,
                telemetry_path=telemetry_path,
            )
            try:
                for i, toks in enumerate(requests):
                    tickets.append(gateway.submit(toks))
                    gateway.pump()
                    absorb(gateway.collect())
                    if i in kill_at:
                        # Only a live, ready replica is a meaningful target.
                        live = [s["replica"]
                                for s in gateway.health()["per_replica"]
                                if s["alive"] and s["state"] == "ready"]
                        if live:
                            victim = live[int(chaos_rng.integers(len(live)))]
                            gateway.kill_replica(victim)
                            kills += 1
                absorb(gateway.drain(timeout_s=60.0))
                report = gateway.report
            finally:
                gateway.shutdown()
        # Session closed: stitch the main stream with every replica
        # sibling file and check the traces (kill forensics included).
        traces = assemble_traces(obs.load_events(telemetry_path))
        by_id = {entry["trace"]: entry for entry in traces}
        flights = sorted(name for name in os.listdir(tmpdir)
                         if name.startswith("flight-"))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    check("kills-actually-injected", kills >= 2, f"only {kills} kill(s)")
    untraced = [t for t, r in results.items()
                if getattr(r, "trace", None) is None]
    check("every-answer-carries-a-trace", results and not untraced,
          f"{len(untraced)} answer(s) without a trace id: {untraced[:5]}")
    broken = [
        t for t, r in results.items()
        if getattr(r, "trace", None) is not None
        and not by_id.get(r.trace, {}).get("complete", False)
    ]
    check("every-trace-stitched-complete", not broken,
          f"{len(broken)} trace(s) with gaps or no terminal hop: "
          f"{broken[:5]}")
    check("no-orphan-traces",
          all(entry["rooted"] for entry in traces),
          f"orphans: {[e['trace'] for e in traces if not e['rooted']][:5]}")
    served_traces = [
        by_id[r.trace] for r in results.values()
        if r.replica is not None and getattr(r, "trace", None) in by_id
    ]
    check("traces-span-processes",
          backend != "process"
          or any(len(entry["sources"]) >= 2 for entry in served_traces),
          "no served trace stitches hops from more than one stream")
    check("flight-recorder-dumped-on-kill",
          kills == 0 or bool(flights),
          f"{kills} kill(s) but no flight-<pid>.jsonl dump")
    check("no-request-lost",
          set(tickets) == set(results),
          f"{len(tickets) - len(results)} ticket(s) unanswered")
    check("no-duplicate-deliveries",
          all(count == 1 for count in deliveries.values()),
          f"duplicated: {[t for t, c in deliveries.items() if c != 1]}")
    check("every-admitted-request-completed",
          report.completed == report.admitted,
          f"admitted={report.admitted} completed={report.completed}")
    served = [(t, r) for t, r in results.items() if r.replica is not None]
    mismatched = [
        t for t, r in served
        if not r.result.ok
        or r.result.spans != oracle.tag(list(requests[t])).spans
    ]
    check("bit-identical-to-oracle",
          served and not mismatched,
          f"{len(mismatched)} of {len(served)} served differ: "
          f"{mismatched[:5]}")
    check("report-accounts-every-kill",
          report.deaths == kills and report.rebuilds == kills,
          f"kills={kills} deaths={report.deaths} "
          f"rebuilds={report.rebuilds}")
    # A kill against a freshly rebuilt replica whose breaker is still
    # open from the previous kill re-records the failure without a new
    # transition, so transitions need not reach ``kills`` — but a kill
    # storm must leave *some* breaker activity behind.
    check("breaker-transitions-recorded",
          kills == 0 or report.breaker_transitions >= 1,
          f"transitions={report.breaker_transitions} after {kills} kills")
    check("sheds-answered-not-dropped",
          all(not r.result.ok for t, r in results.items()
              if r.replica is None),
          "a shed ticket carried a served result")
    return {"backend": backend, "kills": kills, "traces": len(traces),
            "flight_dumps": len(flights), **report.summary()}


@_scenario(
    "trace-determinism",
    "two same-seed traced runs on a manual clock, hedges and a replica "
    "kill included: every request assembles into one complete trace, "
    "byte-identical across the runs, and 'repro obs trace' renders it",
)
def _run_trace_determinism(seed, check):
    import json
    import shutil
    import tempfile

    import numpy as np

    from repro import obs
    from repro.data.tags import TagScheme
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
    from repro.obs.report import assemble_traces, render_trace
    from repro.obs.reqtrace import flight_recorder, request_tracing
    from repro.serving import ManualClock, ServiceConfig, TaggingService
    from repro.serving.gateway import GatewayConfig, ShardedGateway
    from repro.serving.loadgen import synthetic_requests

    pool = ("the", "visited", "today", "reports", "arrived",
            "Kavox", "Zuqev", "Mirelle")
    scheme = TagScheme(("0", "1"))
    model = CNNBiGRUCRF(Vocabulary(pool), CharVocabulary(pool),
                        scheme.num_tags, BackboneConfig(),
                        np.random.default_rng(seed), tag_names=scheme.tags)
    requests = synthetic_requests(24, seed=seed, pool=pool)

    def run_once(tmpdir):
        # One manual clock drives the gateway, every replica service
        # *and* the telemetry session, so hop timestamps, queue waits
        # and latencies are pure functions of the schedule below.
        clock = ManualClock()

        def factory(replica_id):
            return TaggingService(model, scheme, ServiceConfig(),
                                  clock=clock)

        path = os.path.join(tmpdir, "telemetry.jsonl")
        with obs.telemetry_session(path, clock=clock), \
                request_tracing(), flight_recorder(tmpdir):
            gateway = ShardedGateway(
                factory,
                GatewayConfig(replicas=2, hedge_after_ms=40.0,
                              breaker_cooldown_ms=50.0, seed=seed),
                backend="in-process", clock=clock,
                # Every 7th ticket is slow enough to hedge.
                service_time_s=(lambda tokens, ticket:
                                0.2 if ticket % 7 == 3 else 0.02),
            )
            results = {}
            try:
                for i, toks in enumerate(requests):
                    gateway.submit(toks)
                    gateway.pump()
                    clock.advance(0.01)
                    results.update(gateway.collect())
                    if i == 9:
                        gateway.kill_replica(0)
                results.update(gateway.drain(timeout_s=30.0))
                report = gateway.report
            finally:
                gateway.shutdown()
        traces = assemble_traces(obs.load_events(path))
        flights = sorted(name for name in os.listdir(tmpdir)
                         if name.startswith("flight-"))
        return results, traces, report, flights

    dir_a = tempfile.mkdtemp(prefix="chaos-trace-a-")
    dir_b = tempfile.mkdtemp(prefix="chaos-trace-b-")
    try:
        results_a, traces_a, report_a, flights_a = run_once(dir_a)
        results_b, traces_b, _report_b, _flights_b = run_once(dir_b)
    finally:
        shutil.rmtree(dir_a, ignore_errors=True)
        shutil.rmtree(dir_b, ignore_errors=True)

    by_id = {entry["trace"]: entry for entry in traces_a}
    check("every-request-answered",
          len(results_a) == len(requests),
          f"{len(results_a)} answer(s) for {len(requests)} requests")
    broken = [
        t for t, r in results_a.items()
        if getattr(r, "trace", None) is None
        or not by_id.get(r.trace, {}).get("complete", False)
    ]
    check("every-request-traced-complete", not broken,
          f"{len(broken)} answer(s) without a complete trace: "
          f"{broken[:5]}")
    check("hedges-traced", report_a.hedges >= 1
          and any(h.get("hop") == "hedge"
                  for e in traces_a for h in e["hops"]),
          f"hedges={report_a.hedges}, no hedge hop in any trace")
    check("kill-dumped-flight", bool(flights_a),
          "replica kill left no flight-<pid>.jsonl dump")
    check("traces-byte-identical-across-runs",
          json.dumps(traces_a, sort_keys=True)
          == json.dumps(traces_b, sort_keys=True),
          "same-seed runs assembled different traces")
    rendered = [render_trace(by_id[r.trace]) for r in results_a.values()
                if getattr(r, "trace", None) in by_id]
    check("every-trace-renders",
          rendered and all(text.startswith("trace ") for text in rendered),
          f"{len(rendered)} rendered")
    return {
        "requests": len(requests),
        "traces": len(traces_a),
        "hedges": report_a.hedges,
        "flight_dumps": len(flights_a),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def run_scenario(name: str, seed: int = 0) -> ScenarioResult:
    """Run one named scenario; never raises for scenario failures.

    Underscores in ``name`` are treated as dashes, so
    ``gateway_replica_kill`` and ``gateway-replica-kill`` are the same
    scenario.
    """
    name = name.replace("_", "-")
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown chaos scenario {name!r}; "
            f"available: {', '.join(SCENARIOS)}"
        )
    from repro.perf.fastpath import DEFAULT_FASTPATH_STATE, fastpath_state

    scenario = SCENARIOS[name]
    invariants: list[Invariant] = []

    def check(label: str, ok, detail: str = "") -> None:
        invariants.append(Invariant(label, bool(ok), str(detail)))

    t0 = time.perf_counter()
    error = None
    details: dict = {}
    try:
        details = scenario.run(seed, check) or {}
    except Exception as exc:  # scenario bodies must not take the run down
        error = f"{type(exc).__name__}: {exc}"
    state = fastpath_state()
    check("fastpath-defaults-intact", state == DEFAULT_FASTPATH_STATE,
          f"leaked state {state}")
    return ScenarioResult(
        scenario=name, seed=int(seed), invariants=tuple(invariants),
        details=details, wall_time_s=time.perf_counter() - t0, error=error,
    )


def run_soak(scenarios=None, time_budget_s: float | None = 60.0,
             max_rounds: int | None = None, seed: int = 0) -> SoakReport:
    """Loop the scenario suite under a wall-clock / round budget.

    At least one full round always completes, regardless of budget — a
    fixed-seed smoke soak therefore covers every scenario exactly once
    and is deterministic.  After each completed round the budget is
    consulted: the soak stops once ``time_budget_s`` is spent or
    ``max_rounds`` rounds are done, whichever comes first.  Per-run
    seeds are derived from ``seed`` and the round index so successive
    rounds exercise different fault schedules.
    """
    names = ([n.replace("_", "-") for n in scenarios] if scenarios
             else list(SCENARIOS))
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise KeyError(
            f"unknown chaos scenario(s) {unknown}; "
            f"available: {', '.join(SCENARIOS)}"
        )
    if time_budget_s is None and max_rounds is None:
        raise ValueError("need a time budget or a round limit (or both)")
    t0 = time.perf_counter()
    deadline = None if time_budget_s is None else t0 + float(time_budget_s)
    results: list[ScenarioResult] = []
    rounds = 0
    budget_exhausted = False
    while True:
        round_seed = int(seed) + 101 * rounds
        for offset, name in enumerate(names):
            results.append(run_scenario(name, seed=round_seed + offset))
        rounds += 1
        if max_rounds is not None and rounds >= max_rounds:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            budget_exhausted = True
            break
    return SoakReport(
        seed=int(seed), rounds=rounds, results=results,
        wall_time_s=time.perf_counter() - t0,
        budget_exhausted=budget_exhausted,
    )

"""Episode evaluation loop and method registry."""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.episodes import Episode, EpisodeSampler
from repro.eval.aggregate import ConfidenceInterval, aggregate_f1
from repro.eval.metrics import episode_f1
from repro.meta.base import Adapter, MethodConfig
from repro.meta.fewner import FewNER
from repro.meta.finetune import FineTune
from repro.meta.lm_baseline import LMBaseline
from repro.meta.maml import FOMAML, MAML
from repro.meta.protonet import ProtoNet
from repro.meta.reptile import Reptile
from repro.meta.snail import SNAIL

#: All method names appearing in Tables 2-4, plus the FOMAML and Reptile
#: extensions.
METHOD_NAMES = (
    "GPT2", "Flair", "ELMo", "BERT", "XLNet",
    "FineTune", "ProtoNet", "MAML", "SNAIL", "FewNER", "FOMAML", "Reptile",
)

_LM_NAMES = ("GPT2", "Flair", "ELMo", "BERT", "XLNet")


def build_method(name: str, word_vocab, char_vocab, n_way: int,
                 config: MethodConfig) -> Adapter:
    """Instantiate an adaptation method by its table name."""
    if name in _LM_NAMES:
        return LMBaseline(word_vocab, char_vocab, n_way, config, lm_name=name)
    classes = {
        "FineTune": FineTune,
        "ProtoNet": ProtoNet,
        "MAML": MAML,
        "FOMAML": FOMAML,
        "SNAIL": SNAIL,
        "FewNER": FewNER,
        "Reptile": Reptile,
    }
    if name not in classes:
        raise KeyError(f"unknown method {name!r}; available: {METHOD_NAMES}")
    return classes[name](word_vocab, char_vocab, n_way, config)


@dataclass(frozen=True)
class EvaluationResult:
    """Aggregated evaluation of one method on a set of test episodes."""

    method: str
    ci: ConfidenceInterval
    episode_scores: tuple[float, ...]
    #: Supervised-execution accounting: retries, quarantines, pool
    #: restarts, per-episode task records.
    execution: "ExecutionReport"
    #: True when a wall-clock budget stopped evaluation early; the CI
    #: then covers only the episodes completed before the deadline.
    truncated: bool = False
    #: Indices of episodes abandoned after retry + quarantine (their
    #: scores are excluded from the CI) — the ``ERR`` cells of one
    #: evaluation.  Always empty unless episodes are genuinely poison.
    failed_episodes: tuple[int, ...] = ()

    @property
    def f1(self) -> float:
        return self.ci.mean

    def __str__(self) -> str:
        return f"{self.method}: {self.ci}"


def _reseed_for_episode(adapter: Adapter, index: int) -> None:
    """Give the adapter's RNG a deterministic per-episode state.

    The state is derived from ``(method seed, episode index)`` only, so
    an episode's randomness (test-time dropout, fine-tuning order) does
    not depend on which episodes ran before it or in which process.  The
    generator object is mutated *in place* because the model's stochastic
    layers hold references to it.
    """
    import numpy as np

    rng = getattr(adapter, "rng", None)
    if rng is None:
        return
    seed = getattr(getattr(adapter, "config", None), "seed", 0)
    fresh = np.random.default_rng((int(seed), 7919, index))
    rng.bit_generator.state = fresh.bit_generator.state


def _validate_score(value, index: int) -> str | None:
    """Reject non-numeric / non-finite / out-of-range episode scores.

    The executor treats a rejected result as a failed attempt, so a
    worker that returned a corrupted value (bit-flip, injected fault)
    is retried instead of poisoning the aggregate F1.
    """
    import math

    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"episode {index}: non-numeric score {value!r}"
    score = float(value)
    if not math.isfinite(score) or not 0.0 <= score <= 1.0:
        return f"episode {index}: score {score!r} outside [0, 1]"
    return None


def evaluate_method(adapter: Adapter, episodes: list[Episode],
                    budget_seconds: float | None = None,
                    min_episodes: int = 1,
                    workers: int = 1,
                    fast: bool = False,
                    task_timeout_s: float | None = None,
                    max_attempts: int = 3,
                    fault_injector=None) -> EvaluationResult:
    """Adapt-and-score a method on each episode; aggregate with 95 % CI.

    Matching §4.1.1: every episode contributes one micro-F1; the result
    is the mean with a ``1.96 * sem`` half-width.

    Each episode first resets the adapter's RNG to a state derived only
    from the method seed and the episode index, so an episode's score
    does not depend on the episodes scored before it, on a previous
    call, or on the worker count.  All episodes go to one
    :meth:`repro.perf.EpisodeExecutor.run` call: ``workers`` is the
    number of processes that score episodes (``1``, the default, scores
    them serially in this process; ``N > 1`` forks at most N workers
    and stops them before returning).  ``workers=0`` is rejected with a
    :class:`ValueError`, as is an empty ``episodes`` list.

    With ``budget_seconds`` evaluation degrades gracefully: an episode
    at or past ``min_episodes`` whose first attempt would start after
    the deadline is skipped, retries of episodes that already started
    still run, and the CI covers the completed prefix of ``episodes``,
    flagged via :attr:`EvaluationResult.truncated`.

    ``fast`` wraps each adaptation in the fused CRF NLL fast path
    (:func:`repro.perf.fastpath.fastpath`).  That path is on by default
    and bit-identical to the graph NLL, so ``fast`` changes no number;
    it stays for the callers that pass it.

    The run is *self-healing*: forked workers run under per-task
    deadlines (``task_timeout_s``), up to ``max_attempts``
    deterministic retries per episode (re-seeding makes a retry
    bit-identical to the first attempt), score validation, and
    poison-episode quarantine.  An episode that fails for good (its
    guarded serial run, or its only attempt at ``workers=1``) is
    excluded from the CI and listed in
    :attr:`EvaluationResult.failed_episodes`; a :class:`RuntimeError`
    is raised when every episode fails.  Everything self-healing had
    to do is accounted for in :attr:`EvaluationResult.execution`.
    In-episode telemetry is muted at every worker count; the
    supervisor emits one ``episode`` event per task record instead.
    ``fault_injector`` is the test-only chaos hook handed to every
    worker.
    """
    import contextlib
    import time

    from repro import obs
    from repro.perf.executor import ERROR, EpisodeExecutor
    from repro.perf.fastpath import fastpath

    if not episodes:
        raise ValueError(f"no episodes to evaluate ({adapter.name})")
    executor = EpisodeExecutor(
        workers=workers, task_timeout_s=task_timeout_s,
        max_attempts=max_attempts, fault_injector=fault_injector,
        validate_fn=_validate_score,
    )

    def work(episode: Episode, index: int) -> float:
        _reseed_for_episode(adapter, index)
        context = fastpath() if fast else contextlib.nullcontext()
        # Telemetry is muted on the supervisor-side legs (workers=1
        # serial, quarantine, degraded fallback) so the event stream is
        # identical for any worker count: forked children are blocked by
        # the pid guard, and this mirrors that in-process.
        with obs.suspended(), context:
            predictions = adapter.predict_episode(episode)
            gold = [[span.as_tuple() for span in sent.spans]
                    for sent in episode.query]
            return episode_f1(gold, predictions)

    deadline = (
        None if budget_seconds is None
        else time.monotonic() + budget_seconds
    )
    with obs.span("evaluate", method=adapter.name,
                  episodes=len(episodes), workers=workers):
        execution = executor.run(work, episodes, deadline=deadline,
                                 min_episodes=min_episodes)
    tasks = execution.tasks
    failed = execution.failed_indices
    scores = [value for value, record in zip(execution.results, tasks)
              if record.outcome != ERROR]
    if not scores:
        raise RuntimeError(
            f"all {len(tasks)} evaluated episodes failed "
            f"({adapter.name}); first error: "
            f"{tasks[failed[0]].errors[-1] if failed else 'none run'}"
        )
    if obs.enabled():
        # Per-episode telemetry comes from the supervisor-side task
        # records (deterministic modulo wall_s), never from inside an
        # episode.
        for record in tasks:
            obs.emit("episode", index=record.index, outcome=record.outcome,
                     attempts=record.attempts,
                     wall_s=round(record.wall_time_s, 9))
        obs.count("executor.episodes", len(tasks))
        obs.count("executor.retries", len(execution.retried_indices))
        obs.count("executor.quarantined", len(execution.quarantined_indices))
        obs.count("executor.errors", len(failed))
        obs.count("executor.pool_restarts", execution.pool_restarts)
        if not execution.clean:
            obs.emit("execution", method=adapter.name, **execution.summary())
    return EvaluationResult(
        method=adapter.name,
        ci=aggregate_f1(scores),
        episode_scores=tuple(scores),
        execution=execution,
        truncated=len(tasks) < len(episodes),
        failed_episodes=failed,
    )


def fixed_episodes(dataset, n_way: int, k_shot: int, n_episodes: int,
                   seed: int = 1234, query_size: int = 8) -> list[Episode]:
    """The fixed-seed evaluation episodes shared by all methods (§4.2.1)."""
    sampler = EpisodeSampler(
        dataset, n_way, k_shot, query_size=query_size, seed=seed
    )
    return sampler.sample_many(n_episodes)

"""Tests for the episode-parallel executor and parallel evaluation."""

import multiprocessing
import time

import numpy as np
import pytest

from repro.data.synthetic import generate_dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.meta.base import MethodConfig
from repro.meta.evaluate import build_method, evaluate_method, fixed_episodes
from repro.perf import EpisodeExecutor


class TestEpisodeExecutor:
    def test_serial_map_ordered(self):
        ex = EpisodeExecutor(workers=1)
        assert ex.run(lambda item, i: item * 10 + i, [1, 2, 3]).results \
            == [10, 21, 32]

    def test_parallel_map_ordered(self):
        ex = EpisodeExecutor(workers=4)
        items = list(range(20))
        assert ex.run(lambda item, i: item * item, items).results == \
            [i * i for i in items]

    def test_empty_items(self):
        assert EpisodeExecutor(workers=4).run(
            lambda item, i: item, []).results == []

    def test_workers_one_is_serial(self):
        ex = EpisodeExecutor(workers=1)
        assert not ex.parallel_available
        assert ex.run(lambda item, i: i, ["a", "b"]).results == [0, 1]

    def test_unknown_start_method_falls_back(self):
        ex = EpisodeExecutor(workers=4, start_method="not-a-method")
        assert not ex.parallel_available
        assert ex.run(lambda item, i: item + i, [5, 6]).results == [5, 7]

    def test_completion_ends_the_wait(self):
        # A reply wakes the supervisor at once: it blocks on the workers'
        # pipes, not on a poll interval.
        ex = EpisodeExecutor(workers=2)
        began = time.perf_counter()
        report = ex.run(lambda item, i: item + i, [1, 2, 3, 4])
        assert time.perf_counter() - began < 2.0
        assert report.results == [1, 3, 5, 7]

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            EpisodeExecutor(workers=-1)

    def test_unpicklable_payload_survives_fork(self):
        """Closures over models never cross the pipe: only indices do."""
        state = {"offset": 7}  # captured by the closure, not pickled per-call

        def work(item, index):
            return state["offset"] + item

        ex = EpisodeExecutor(workers=2)
        assert ex.run(work, [1, 2, 3]).results == [8, 9, 10]

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        ex = EpisodeExecutor(workers=2)

        def boom(method):
            raise OSError("no processes for you")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        with pytest.warns(UserWarning, match="degraded to serial"):
            assert ex.run(lambda item, i: item * 2, [1, 2]).results \
                == [2, 4]

    @pytest.mark.parametrize("fault", ["clean", "crash", "hang"])
    def test_no_worker_outlives_run(self, fault):
        """After ``run`` returns none of its workers is alive: not after
        a clean run, an injected crash or a hang kill."""
        from repro.reliability import FaultInjector

        plan = {"clean": {}, "crash": {"worker_crash_at": (1, 4)},
                "hang": {"worker_hang_at": (2,), "worker_hang_s": 5.0}}
        ex = EpisodeExecutor(workers=2, task_timeout_s=0.5,
                             fault_injector=FaultInjector(**plan[fault]))
        if not ex.parallel_available:
            pytest.skip("fork start method unavailable on this platform")
        before = set(multiprocessing.active_children())
        report = ex.run(lambda item, i: item * 3, list(range(8)))
        assert report.results == [i * 3 for i in range(8)]
        assert report.mode == "parallel"
        if fault != "clean":
            assert report.retried_indices
        assert set(multiprocessing.active_children()) <= before

    def test_daemon_process_degrades_gracefully(self, monkeypatch):
        class FakeDaemon:
            daemon = True

        monkeypatch.setattr(
            multiprocessing, "current_process", lambda: FakeDaemon()
        )
        ex = EpisodeExecutor(workers=4)
        assert not ex.parallel_available
        assert ex.run(lambda item, i: item, [3]).results == [3]


@pytest.fixture(scope="module")
def fixture():
    dataset = generate_dataset("GENIA", scale=0.02, seed=0)
    word_vocab = Vocabulary.from_datasets([dataset])
    char_vocab = CharVocabulary.from_datasets([dataset])
    episodes = fixed_episodes(dataset, 3, 1, 3, seed=42, query_size=3)
    return word_vocab, char_vocab, episodes


def _adapter(fixture, method="FewNER"):
    word_vocab, char_vocab, _episodes = fixture
    config = MethodConfig(seed=3, pretrain_iterations=0)
    return build_method(method, word_vocab, char_vocab, 3, config)


class _Oracle:
    """Gold spans on even-length query sentences, none on the rest —
    varied per-episode scores at no model cost."""

    name = "Oracle"

    def __init__(self, delay_s=0.0):
        self.delay_s = delay_s

    def predict_episode(self, episode):
        time.sleep(self.delay_s)
        return [[s.as_tuple() for s in q.spans] if len(q.tokens) % 2 == 0
                else [] for q in episode.query]


class TestParallelEvaluationParity:
    def test_fewner_scores_identical_across_worker_counts(self, fixture):
        """The acceptance-criterion parity: parallel evaluation returns
        exactly the serial (workers=1) metrics."""
        episodes = fixture[2]
        adapter = _adapter(fixture)
        serial = evaluate_method(adapter, episodes, workers=1)
        parallel = evaluate_method(adapter, episodes, workers=4)
        assert serial.episode_scores == parallel.episode_scores
        assert serial.ci == parallel.ci

    def test_finetune_scores_identical(self, fixture):
        episodes = fixture[2]
        adapter = _adapter(fixture, method="FineTune")
        serial = evaluate_method(adapter, episodes, workers=1)
        parallel = evaluate_method(adapter, episodes, workers=3)
        assert serial.episode_scores == parallel.episode_scores

    def test_episode_order_independence(self, fixture):
        """Per-episode seeding makes each score a function of the episode
        and its index only — not of which episodes ran before it."""
        episodes = fixture[2]
        adapter = _adapter(fixture)
        full = evaluate_method(adapter, episodes, workers=1)
        last_only = evaluate_method(adapter, episodes[2:], workers=1)
        # Index differs (2 vs 0), so compare against a re-run at the same
        # index instead: identical inputs => identical score.
        again = evaluate_method(adapter, episodes[2:], workers=1)
        assert last_only.episode_scores == again.episode_scores
        assert len(full.episode_scores) == 3

    def test_workers_zero_raises_value_error(self, fixture):
        """The shared-RNG ``workers=0`` episode stream is retired: the
        executor rejects it, and so does ``evaluate_method``."""
        with pytest.raises(ValueError, match="workers=0"):
            EpisodeExecutor(workers=0)
        with pytest.raises(ValueError, match="workers=0"):
            evaluate_method(_adapter(fixture), fixture[2], workers=0)

    def test_budget_with_parallel_workers(self, fixture):
        episodes = fixture[2] * 4  # 12 episodes
        adapter = _adapter(fixture)
        result = evaluate_method(
            adapter, episodes, workers=2,
            budget_seconds=0.0, min_episodes=2,
        )
        assert result.truncated
        assert len(result.episode_scores) >= 2
        assert len(result.episode_scores) < len(episodes)

    def test_budget_truncates_by_the_same_rule_for_any_worker_count(
            self, fixture):
        """A deadline that has already passed keeps exactly
        ``min_episodes``: the first three scores of the full run."""
        episodes = fixture[2] * 4
        full = evaluate_method(_Oracle(), episodes, workers=1)
        assert len(set(full.episode_scores[:3])) > 1
        for workers in (1, 2):
            result = evaluate_method(_Oracle(), episodes, workers=workers,
                                     budget_seconds=0.0, min_episodes=3)
            assert result.truncated
            assert result.episode_scores == full.episode_scores[:3]
            assert [t.index for t in result.execution.tasks] == [0, 1, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_scores_a_prefix(self, fixture, workers):
        episodes = (fixture[2] * 10)[:30]
        full = evaluate_method(_Oracle(), episodes, workers=1)
        result = evaluate_method(_Oracle(delay_s=0.05), episodes,
                                 workers=workers, budget_seconds=0.3,
                                 min_episodes=2)
        k = len(result.episode_scores)
        assert result.truncated
        assert 2 <= k < len(episodes)
        assert result.episode_scores == full.episode_scores[:k]

    def test_one_fork_per_worker_per_evaluation(self, fixture,
                                                 monkeypatch):
        """16 episodes at workers=2 fork exactly 2 workers, not one per
        episode or per pair."""
        if not EpisodeExecutor(workers=2).parallel_available:
            pytest.skip("fork start method unavailable on this platform")
        forks = []
        get_context = multiprocessing.get_context

        class CountingContext:
            def __init__(self, context):
                self.context = context

            def __getattr__(self, name):
                return getattr(self.context, name)

            def Process(self, *args, **kwargs):
                forks.append(kwargs.get("target"))
                return self.context.Process(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None:
                            CountingContext(get_context(method)))
        episodes = (fixture[2] * 6)[:16]
        result = evaluate_method(_Oracle(), episodes, workers=2)
        assert len(result.episode_scores) == 16
        assert result.execution.mode == "parallel"
        assert len(forks) == 2

    def test_fast_flag_smoke(self, fixture):
        episodes = fixture[2][:1]
        adapter = _adapter(fixture)
        plain = evaluate_method(adapter, episodes, workers=1)
        fast = evaluate_method(adapter, episodes, workers=1, fast=True)
        assert len(fast.episode_scores) == 1
        # FEWNER's inner loop is CE-based, so the fused CRF NLL does not
        # change its adaptation; decode is bit-identical too.
        assert fast.episode_scores == plain.episode_scores


class TestAdaptationCache:
    """The frozen-encoder cache must not change a single number."""

    def test_evaluation_bit_identical(self, fixture):
        from tests.reference.fewner import recompute_every_step

        episodes = fixture[2]
        adapter = _adapter(fixture)
        with recompute_every_step(adapter):
            reference = evaluate_method(adapter, episodes, workers=1)
        cached = evaluate_method(adapter, episodes, workers=1)
        assert reference.episode_scores == cached.episode_scores
        assert reference.ci == cached.ci

    def test_adapted_context_bit_identical(self, fixture):
        from tests.reference.fewner import recompute_every_step

        adapter = _adapter(fixture)
        episode = fixture[2][0]
        phi_fast = adapter.adapt_context(episode)
        with recompute_every_step(adapter):
            phi_slow = adapter.adapt_context(episode)
        assert (phi_fast.data == phi_slow.data).all()


class TestHarnessWorkers:
    def test_run_adaptation_accepts_workers(self):
        import inspect

        from repro.experiments.harness import run_adaptation
        from repro.experiments import table2, table3, table4

        for fn in (run_adaptation, table2.run, table3.run, table4.run):
            assert "workers" in inspect.signature(fn).parameters

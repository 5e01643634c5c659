"""Supervised executor: deadlines, retries, quarantine, chaos parity."""

import math
import threading
import time
import warnings

import pytest

from repro.data.synthetic import generate_dataset
from repro.meta.evaluate import evaluate_method, fixed_episodes
from repro.perf import EpisodeExecutor, ExecutionReport
from repro.reliability import FaultInjector, InjectedFault


def _work(item, index):
    return ((int(item) * 31 + 7) % 1000) / 1000.0


def _expected(items):
    return [_work(item, i) for i, item in enumerate(items)]


def _reject_non_finite(value, index):
    if not isinstance(value, float) or not math.isfinite(value):
        return f"non-finite {value!r}"
    return None


def _require_fork(executor):
    if not executor.parallel_available:
        pytest.skip("fork start method unavailable on this platform")


class TestCrashRecovery:
    def test_crashed_worker_costs_one_retry(self):
        injector = FaultInjector(worker_crash_at=(2, 5))
        ex = EpisodeExecutor(workers=2, fault_injector=injector)
        _require_fork(ex)
        items = list(range(8))
        report = ex.run(_work, items)
        assert report.results == _expected(items)
        assert set(report.retried_indices) >= {2, 5}
        assert not report.failed_indices
        for i in (2, 5):
            assert report.tasks[i].outcome == "recovered"
            assert any("crashed" in err for err in report.tasks[i].errors)

    def test_probabilistic_crashes_match_plan(self):
        injector = FaultInjector(worker_crash_p=0.3, worker_seed=11)
        planned = [i for i in range(16)
                   if injector.planned_worker_fault(i) == "crash"]
        assert planned  # the seed must actually schedule something
        ex = EpisodeExecutor(workers=3, fault_injector=injector)
        _require_fork(ex)
        items = list(range(16))
        report = ex.run(_work, items)
        assert report.results == _expected(items)
        assert set(planned) <= set(report.retried_indices)


class TestHangRecovery:
    def test_hung_worker_detected_and_pool_rebuilt(self):
        injector = FaultInjector(worker_hang_at=(1,), worker_hang_s=5.0)
        ex = EpisodeExecutor(workers=2, task_timeout_s=0.25,
                             fault_injector=injector)
        _require_fork(ex)
        items = list(range(6))
        report = ex.run(_work, items)
        assert report.results == _expected(items)
        assert 1 in report.retried_indices
        assert report.pool_restarts >= 1
        assert any("deadline" in err for err in report.tasks[1].errors)

    def test_innocent_inflight_tasks_not_charged(self):
        """Killing a hung worker leaves the others running: an index
        that never faulted must end with attempts == 1."""
        injector = FaultInjector(worker_hang_at=(0,), worker_hang_s=5.0)
        ex = EpisodeExecutor(workers=2, task_timeout_s=0.25, max_attempts=2,
                             fault_injector=injector)
        _require_fork(ex)
        items = list(range(6))
        report = ex.run(_work, items)
        assert report.results == _expected(items)
        innocents = [t for t in report.tasks if t.index != 0]
        assert all(t.attempts == 1 for t in innocents), \
            [(t.index, t.attempts) for t in innocents]


class TestCorruptionAndValidation:
    def test_corrupt_result_rejected_and_retried(self):
        injector = FaultInjector(worker_corrupt_at=(0, 4))
        ex = EpisodeExecutor(workers=2, fault_injector=injector,
                             validate_fn=_reject_non_finite)
        _require_fork(ex)
        items = list(range(6))
        report = ex.run(_work, items)
        assert report.results == _expected(items)
        assert set(report.retried_indices) >= {0, 4}
        assert any("invalid result" in err
                   for err in report.tasks[0].errors)

    def test_raised_attempts_retry_immediately(self):
        injector = FaultInjector(worker_raise_at=(1, 4))
        ex = EpisodeExecutor(workers=2, fault_injector=injector)
        _require_fork(ex)
        items = list(range(6))
        report = ex.run(_work, items)
        assert report.results == _expected(items)
        assert not report.failed_indices
        for i in (1, 4):
            assert report.tasks[i].outcome == "recovered"
            assert report.tasks[i].attempts == 2

    def test_injected_raise_retried(self):
        injector = FaultInjector(worker_raise_at=(3,))
        ex = EpisodeExecutor(workers=2, fault_injector=injector)
        _require_fork(ex)
        report = ex.run(_work, list(range(5)))
        assert report.results == _expected(list(range(5)))
        assert 3 in report.retried_indices
        assert any("InjectedFault" in err for err in report.tasks[3].errors)


class TestQuarantine:
    def test_persistent_parallel_fault_recovers_serially(self):
        """An index that fails every parallel attempt gets one guarded
        serial run in the supervisor — where the injector is not
        consulted — and recovers there."""
        injector = FaultInjector(worker_raise_at=(1,),
                                 worker_fault_attempts=(0, 1, 2))
        ex = EpisodeExecutor(workers=2, max_attempts=3,
                             fault_injector=injector)
        _require_fork(ex)
        items = list(range(4))
        report = ex.run(_work, items)
        assert report.results == _expected(items)
        record = report.tasks[1]
        assert record.quarantined
        assert record.serial_fallback
        assert record.outcome == "recovered"
        assert record.attempts == 4  # 3 parallel + 1 serial
        assert report.quarantined_indices == (1,)

    def test_poison_item_becomes_error_record_not_abort(self):
        def poisoned(item, index):
            if index == 2:
                raise RuntimeError("unconditionally broken episode")
            return _work(item, index)

        ex = EpisodeExecutor(workers=2, max_attempts=2)
        _require_fork(ex)
        items = list(range(5))
        report = ex.run(poisoned, items)  # must not raise
        assert report.failed_indices == (2,)
        assert report.results[2] is None
        good = [v for i, v in enumerate(report.results) if i != 2]
        assert good == [v for i, v in enumerate(_expected(items)) if i != 2]
        record = report.tasks[2]
        assert record.outcome == "error"
        assert record.quarantined
        assert "unconditionally broken" in record.errors[-1]

    def test_serial_error_record_keeps_the_exception(self):
        def poisoned(item, index):
            if index == 1:
                raise ValueError("bad episode 1")
            return item

        ex = EpisodeExecutor(workers=1, max_attempts=1)
        report = ex.run(poisoned, [10, 20, 30])  # must not raise
        assert report.results == [10, None, 30]
        assert report.failed_indices == (1,)
        assert report.tasks[1].errors == ("ValueError: bad episode 1",)


class TestDegradedFallback:
    def test_supervision_failure_warns_and_reruns_only_missing(self,
                                                               monkeypatch):
        """If supervision dies mid-flight, the caller is warned and only
        indices without results are re-run serially."""
        calls = []

        def tracked(item, index):
            calls.append(index)
            return _work(item, index)

        ex = EpisodeExecutor(workers=2)
        _require_fork(ex)

        def half_then_die(work_fn, items, records, results, deadline,
                          min_episodes):
            for i in range(len(items) // 2):
                results[i] = work_fn(items[i], i)
                records[i].attempts = 1
                records[i].outcome = "ok"
            raise OSError("pool exploded")

        monkeypatch.setattr(ex, "_supervise", half_then_die)
        items = list(range(6))
        with pytest.warns(UserWarning, match="degraded to serial"):
            report = ex.run(tracked, items)
        assert report.mode == "parallel-degraded"
        assert "pool exploded" in report.fallback_reason
        assert report.results == _expected(items)
        # The serial fallback ran only the unfinished back half.
        assert sorted(calls) == [0, 1, 2, 3, 4, 5]
        assert sorted(calls[3:]) == [3, 4, 5]
        assert all(report.tasks[i].serial_fallback for i in (3, 4, 5))

    def test_report_summary_json_ready(self):
        import json

        ex = EpisodeExecutor(workers=1)
        report = ex.run(_work, list(range(3)))
        summary = report.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["tasks"] == 3
        assert "execution:" in report.render()


class TestDeadline:
    """``run(deadline=...)`` skips only first attempts past the deadline
    (prefix truncation is covered through ``evaluate_method`` in
    ``test_perf_executor.py``)."""

    def test_retry_of_a_started_episode_runs_past_the_deadline(self):
        """Index 1's first attempt starts before the deadline and its
        corrupt result arrives after it; the retry still runs."""
        def work(item, index):
            if index == 1:
                time.sleep(1.5)
            return _work(item, index)

        injector = FaultInjector(worker_corrupt_at=(1,))
        ex = EpisodeExecutor(workers=2, fault_injector=injector,
                             validate_fn=_reject_non_finite)
        _require_fork(ex)
        items = list(range(4))
        deadline = time.monotonic() + 1.0
        report = ex.run(work, items, deadline=deadline, min_episodes=1)
        assert time.monotonic() > deadline
        record = report.tasks[1]
        assert record.outcome == "recovered"
        assert record.attempts == 2
        assert record.wall_time_s >= 1.5  # the retry ran the work again
        assert report.results == _expected(items)[:len(report.tasks)]


class TestPayloadLock:
    def test_concurrent_executors_do_not_clobber_payloads(self):
        """Two threads mapping through forked workers at once: each
        worker inherits its own executor's payload, so both must still
        get their own results."""
        ex_a = EpisodeExecutor(workers=2)
        ex_b = EpisodeExecutor(workers=2)
        _require_fork(ex_a)
        items_a = list(range(0, 12))
        items_b = list(range(100, 112))
        out = {}

        def run(name, ex, items):
            out[name] = ex.run(lambda item, i: item * 2, items)

        threads = [
            threading.Thread(target=run, args=("a", ex_a, items_a)),
            threading.Thread(target=run, args=("b", ex_b, items_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert out["a"].results == [x * 2 for x in items_a]
        assert out["b"].results == [x * 2 for x in items_b]
        assert not out["a"].failed_indices
        assert not out["b"].failed_indices


# ----------------------------------------------------------------------
# Acceptance: 200 episodes under heavy fault pressure, exact parity
# ----------------------------------------------------------------------

class _HalfOracle:
    """Oracle on even-length query sentences, silent on the rest —
    deterministic, content-derived, *varied* per-episode scores, so
    parity failures cannot hide behind a constant."""

    name = "HalfOracle"

    def predict_episode(self, episode):
        return [
            [s.as_tuple() for s in q.spans] if len(q.tokens) % 2 == 0
            else []
            for q in episode.query
        ]


@pytest.fixture(scope="module")
def many_episodes():
    corpus = generate_dataset("OntoNotes", scale=0.02, seed=0)
    return fixed_episodes(corpus, 3, 1, 200, seed=9, query_size=3)


class TestAcceptanceSoak:
    def test_direct_executor_200_tasks_crash_and_hang(self):
        """crash p=0.2 + hang p=0.1 over 200 tasks, workers=4: every
        planned fault retried, zero errors, bit-identical results."""
        injector = FaultInjector(worker_crash_p=0.2, worker_hang_p=0.1,
                                 worker_seed=17, worker_hang_s=5.0)
        ex = EpisodeExecutor(workers=4, task_timeout_s=0.4, max_attempts=3,
                             fault_injector=injector)
        _require_fork(ex)
        items = list(range(200))
        report = ex.run(_work, items)
        assert report.results == _expected(items)
        assert not report.failed_indices
        planned = {i for i in range(200)
                   if injector.planned_worker_fault(i) is not None}
        assert planned  # the seed schedules dozens of faults
        assert planned <= set(report.retried_indices)
        assert sorted(t.index for t in report.tasks) == list(range(200))
        assert report.total_attempts >= 200 + len(planned)

    def test_evaluate_method_parity_under_faults(self, many_episodes):
        """evaluate_method(200 episodes, workers=4, crash p=0.2,
        hang p=0.1) completes without aborting and returns scores
        bit-identical to the fault-free serial run."""
        baseline = evaluate_method(_HalfOracle(), many_episodes)
        assert len(set(baseline.episode_scores)) > 1  # genuinely varied
        injector = FaultInjector(worker_crash_p=0.2, worker_hang_p=0.1,
                                 worker_seed=0, worker_hang_s=5.0)
        faulted = evaluate_method(
            _HalfOracle(), many_episodes, workers=4, task_timeout_s=0.4,
            fault_injector=injector,
        )
        assert faulted.episode_scores == baseline.episode_scores
        assert faulted.ci == baseline.ci
        assert not faulted.failed_episodes
        execution = faulted.execution
        assert execution is not None
        assert sorted(t.index for t in execution.tasks) == list(range(200))
        if execution.mode == "parallel":
            # One pool runs all 200 episodes, so the injector's plan is
            # keyed by episode index: every planned crash is retried.
            crashes = {i for i in range(200)
                       if injector.planned_worker_fault(i) == "crash"}
            hangs = {i for i in range(200)
                     if injector.planned_worker_fault(i) == "hang"}
            assert (len(crashes), len(hangs)) == (45, 15)
            assert crashes | hangs <= set(execution.retried_indices)
            assert execution.total_attempts >= 200 + len(crashes | hangs)


class TestRealModelFaultParity:
    def test_fewner_scores_survive_worker_crashes(self):
        from repro.data.vocab import CharVocabulary, Vocabulary
        from repro.meta.base import MethodConfig
        from repro.meta.evaluate import build_method

        dataset = generate_dataset("GENIA", scale=0.02, seed=0)
        word_vocab = Vocabulary.from_datasets([dataset])
        char_vocab = CharVocabulary.from_datasets([dataset])
        episodes = fixed_episodes(dataset, 3, 1, 3, seed=42, query_size=3)
        adapter = build_method("FewNER", word_vocab, char_vocab, 3,
                               MethodConfig(seed=3, pretrain_iterations=0))
        clean = evaluate_method(adapter, episodes, workers=1)
        injector = FaultInjector(worker_crash_at=(0,), worker_raise_at=(2,))
        faulted = evaluate_method(
            adapter, episodes, workers=2, task_timeout_s=120.0,
            fault_injector=injector,
        )
        assert faulted.episode_scores == clean.episode_scores
        assert not faulted.failed_episodes

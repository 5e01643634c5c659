"""Resumable, fault-isolated table runs: journal, retries, budgets."""

import json
import time

import pytest

from repro.data.synthetic import generate_dataset
from repro.experiments.configs import SCALES
from repro.experiments.harness import (
    AdaptationSetting,
    run_adaptation,
)
from repro.meta.evaluate import evaluate_method
from repro.reliability import CellPolicy, RunJournal, SimulatedCrash
from repro.reliability.journal import JournalMismatch


def kill_after_cells(n: int):
    """An ``on_cell`` callback that simulates a kill after ``n`` cells."""
    counter = {"cells": 0}

    def hook(_cell) -> None:
        counter["cells"] += 1
        if counter["cells"] >= n:
            raise SimulatedCrash(f"simulated kill after {n} cells")

    return hook


class DeterministicAdapter:
    """Episode-dependent deterministic predictions: F1 varies per cell."""

    instances = []

    def __init__(self, name, config):
        self.name = name
        self.seed = config.seed
        self.fit_calls = 0
        self.predict_calls = 0
        DeterministicAdapter.instances.append(self)

    def fit(self, sampler, iterations):
        self.fit_calls += 1
        return [0.0] * iterations

    def predict_episode(self, episode):
        self.predict_calls += 1
        predictions = []
        for i, sent in enumerate(episode.query):
            if (i + len(self.name)) % 2 == 0:
                predictions.append([span.as_tuple() for span in sent.spans])
            else:
                predictions.append([])
        return predictions


class FailingAdapter(DeterministicAdapter):
    def fit(self, sampler, iterations):
        raise RuntimeError("numerical meltdown")


class FlakyAdapter(DeterministicAdapter):
    """Fails at the base seed, succeeds at any perturbed seed."""

    base_seed = None

    def fit(self, sampler, iterations):
        if self.seed == FlakyAdapter.base_seed:
            raise RuntimeError("diverged at base seed")
        return super().fit(sampler, iterations)


@pytest.fixture
def patched_build(monkeypatch):
    DeterministicAdapter.instances = []

    def build(name, wv, cv, n_way, config):
        classes = {"FAIL": FailingAdapter, "FLAKY": FlakyAdapter}
        return classes.get(name, DeterministicAdapter)(name, config)

    monkeypatch.setattr("repro.experiments.harness.build_method", build)
    return DeterministicAdapter


@pytest.fixture
def setting():
    ds = generate_dataset("OntoNotes", scale=0.02, seed=0)
    half = len(ds) // 2
    return AdaptationSetting(name="toy", train=ds[:half], test=ds[half:])


def cells_by_key(result):
    return {(c.method, c.setting, c.k_shot): c.ci.mean for c in result.cells}


class TestKillAndResume:
    def test_resume_reruns_only_unfinished_cells(self, patched_build,
                                                 setting, tmp_path):
        scale = SCALES["smoke"]
        methods = ("A", "B", "C")
        reference = run_adaptation("t", [setting], methods, scale)

        journal_path = str(tmp_path / "run.jsonl")
        with pytest.raises(SimulatedCrash):
            run_adaptation(
                "t", [setting], methods, scale,
                journal=RunJournal(journal_path),
                on_cell=kill_after_cells(3),
            )
        done_before = len(RunJournal(journal_path).completed_cells())
        assert done_before == 3

        patched_build.instances = []
        resumed = run_adaptation(
            "t", [setting], methods, scale, journal=RunJournal(journal_path),
        )
        # Identical table: every F1 matches the uninterrupted run.
        assert cells_by_key(resumed) == cells_by_key(reference)
        assert len(resumed.cells) == len(methods) * len(scale.shots)
        # Only methods with unfinished cells were re-instantiated: the
        # 3 journaled cells cover method A entirely (2 shots) plus one
        # shot of B, so A never trains again.
        retrained = {a.name for a in patched_build.instances}
        assert "A" not in retrained
        assert retrained == {"B", "C"}

    def test_second_resume_is_a_pure_replay(self, patched_build, setting,
                                            tmp_path):
        scale = SCALES["smoke"]
        journal_path = str(tmp_path / "run.jsonl")
        first = run_adaptation("t", [setting], ("A",), scale,
                               journal=RunJournal(journal_path))
        patched_build.instances = []
        replay = run_adaptation("t", [setting], ("A",), scale,
                                journal=RunJournal(journal_path))
        assert patched_build.instances == []  # nothing trained
        assert cells_by_key(replay) == cells_by_key(first)

    def test_journal_rejects_different_run(self, patched_build, setting,
                                           tmp_path):
        scale = SCALES["smoke"]
        journal_path = str(tmp_path / "run.jsonl")
        run_adaptation("t", [setting], ("A",), scale,
                       journal=RunJournal(journal_path))
        with pytest.raises(JournalMismatch):
            run_adaptation("another table", [setting], ("A",), scale,
                           journal=RunJournal(journal_path))

    def test_torn_journal_tail_is_ignored(self, patched_build, setting,
                                          tmp_path):
        scale = SCALES["smoke"]
        journal_path = str(tmp_path / "run.jsonl")
        run_adaptation("t", [setting], ("A",), scale,
                       journal=RunJournal(journal_path))
        with open(journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "cell", "method": "B", "setti')  # torn write
        journal = RunJournal(journal_path)
        assert len(journal.completed_cells()) == len(scale.shots)
        # And the run proceeds normally from the intact prefix.
        result = run_adaptation("t", [setting], ("A", "B"), scale,
                                journal=journal)
        assert len(result.cells) == 2 * len(scale.shots)


class TestFaultIsolation:
    def test_failing_method_yields_err_cells_others_unaffected(
            self, patched_build, setting):
        scale = SCALES["smoke"]
        reference = run_adaptation("t", [setting], ("A", "C"), scale)
        result = run_adaptation("t", [setting], ("A", "FAIL", "C"), scale)
        # Other methods' cells are bit-identical to a run without FAIL.
        for key, f1 in cells_by_key(reference).items():
            assert cells_by_key(result)[key] == f1
        assert {f.k_shot for f in result.failures} == set(scale.shots)
        assert all(f.method == "FAIL" for f in result.failures)
        assert "numerical meltdown" in result.failures[0].error
        rendered = result.render()
        assert rendered.count("ERR") == len(scale.shots)
        # CSV excludes failed cells but keeps every successful one.
        csv = result.to_csv()
        assert "FAIL" not in csv
        assert len(csv.splitlines()) == 1 + 2 * len(scale.shots)

    def test_failure_recorded_in_journal_and_retried_on_resume(
            self, patched_build, setting, tmp_path, monkeypatch):
        scale = SCALES["smoke"]
        journal_path = str(tmp_path / "run.jsonl")
        result = run_adaptation("t", [setting], ("FAIL",), scale,
                                journal=RunJournal(journal_path))
        assert result.failures
        records = [json.loads(line)
                   for line in open(journal_path, encoding="utf-8")]
        assert any(r["kind"] == "failure" for r in records)
        # Heal the method; the resume re-attempts the failed cells.
        monkeypatch.setattr(FailingAdapter, "fit",
                            DeterministicAdapter.fit)
        healed = run_adaptation("t", [setting], ("FAIL",), scale,
                                journal=RunJournal(journal_path))
        assert not healed.failures
        assert len(healed.cells) == len(scale.shots)


class TestRetryPolicy:
    def test_retry_with_perturbed_seed_recovers(self, patched_build, setting):
        scale = SCALES["smoke"]
        FlakyAdapter.base_seed = scale.method_config.seed
        failed = run_adaptation("t", [setting], ("FLAKY",), scale)
        assert failed.failures and not failed.cells

        recovered = run_adaptation(
            "t", [setting], ("FLAKY",), scale,
            policy=CellPolicy(retries=1, seed_perturbation=1000),
        )
        assert not recovered.failures
        assert len(recovered.cells) == len(scale.shots)


class TestSharedTrainingTiming:
    def test_training_cost_recorded_once(self, patched_build, setting,
                                         monkeypatch):
        scale = SCALES["smoke"]
        assert scale.share_training_across_shots

        def slow_fit(self, sampler, iterations):
            self.fit_calls += 1
            time.sleep(0.01)
            return [0.0] * iterations

        monkeypatch.setattr(DeterministicAdapter, "fit", slow_fit)
        result = run_adaptation("t", [setting], ("A",), scale)
        trained = [c for c in result.cells if not c.reused_training]
        reused = [c for c in result.cells if c.reused_training]
        assert len(trained) == 1
        assert trained[0].k_shot == min(scale.shots)
        assert trained[0].train_seconds > 0
        assert len(reused) == len(scale.shots) - 1
        assert all(c.train_seconds == 0.0 for c in reused)
        # The CSV exposes the flag so aggregates can exclude reused rows.
        header = result.to_csv().splitlines()[0]
        assert header.endswith("reused_training")

    def test_per_shot_training_marks_nothing_reused(self, patched_build,
                                                    setting):
        import dataclasses

        scale = dataclasses.replace(
            SCALES["smoke"], share_training_across_shots=False
        )
        result = run_adaptation("t", [setting], ("A",), scale)
        assert all(not c.reused_training for c in result.cells)


class TestEvaluationBudget:
    def make_episodes(self, setting):
        from repro.meta.evaluate import fixed_episodes

        scale = SCALES["smoke"]
        return fixed_episodes(setting.test, scale.n_way, 1, 6, seed=3,
                              query_size=scale.query_size)

    def test_budget_truncates_with_partial_ci(self, patched_build, setting):
        from repro.meta.base import MethodConfig

        adapter = DeterministicAdapter("A", MethodConfig())
        slow = adapter.predict_episode

        def slow_predict(episode):
            time.sleep(0.05)
            return slow(episode)

        adapter.predict_episode = slow_predict
        episodes = self.make_episodes(setting)
        result = evaluate_method(adapter, episodes, budget_seconds=0.08)
        assert result.truncated
        assert 1 <= result.ci.n < len(episodes)

    def test_no_budget_runs_everything(self, patched_build, setting):
        from repro.meta.base import MethodConfig

        adapter = DeterministicAdapter("A", MethodConfig())
        episodes = self.make_episodes(setting)
        result = evaluate_method(adapter, episodes)
        assert not result.truncated
        assert result.ci.n == len(episodes)

    def test_budget_flows_through_harness(self, patched_build, setting,
                                          monkeypatch):
        scale = SCALES["smoke"]

        def slow_predict(self, episode):
            time.sleep(0.05)
            self.predict_calls += 1
            return [[] for _ in episode.query]

        monkeypatch.setattr(DeterministicAdapter, "predict_episode",
                            slow_predict)
        result = run_adaptation(
            "t", [setting], ("A",), scale,
            policy=CellPolicy(budget_seconds=0.06),
        )
        assert result.cells
        assert all(c.ci.n < scale.eval_episodes for c in result.cells)

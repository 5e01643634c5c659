"""Tests for the evaluation loop utilities."""

import numpy as np
import pytest

from repro.data.synthetic import generate_dataset
from repro.eval.aggregate import ConfidenceInterval
from repro.meta.evaluate import (
    METHOD_NAMES,
    EvaluationResult,
    evaluate_method,
    fixed_episodes,
)
from repro.perf.executor import ExecutionReport


class _ConstantAdapter:
    """Predicts the gold spans of every query sentence (oracle)."""

    name = "Oracle"

    def predict_episode(self, episode):
        return [[s.as_tuple() for s in q.spans] for q in episode.query]


class _EmptyAdapter:
    name = "Empty"

    def predict_episode(self, episode):
        return [[] for _ in episode.query]


@pytest.fixture(scope="module")
def corpus():
    return generate_dataset("OntoNotes", scale=0.02, seed=0)


class TestFixedEpisodes:
    def test_same_seed_same_episodes(self, corpus):
        a = fixed_episodes(corpus, 3, 1, 4, seed=5, query_size=3)
        b = fixed_episodes(corpus, 3, 1, 4, seed=5, query_size=3)
        for ea, eb in zip(a, b):
            assert ea.types == eb.types
            assert [s.tokens for s in ea.query] == [s.tokens for s in eb.query]

    def test_different_seed_differs(self, corpus):
        a = fixed_episodes(corpus, 3, 1, 4, seed=5, query_size=3)
        b = fixed_episodes(corpus, 3, 1, 4, seed=6, query_size=3)
        assert any(ea.types != eb.types for ea, eb in zip(a, b))


class TestEvaluateMethod:
    def test_oracle_scores_one(self, corpus):
        episodes = fixed_episodes(corpus, 3, 1, 3, seed=1, query_size=3)
        result = evaluate_method(_ConstantAdapter(), episodes)
        assert result.f1 == 1.0
        assert result.ci.half_width == 0.0

    def test_empty_scores_zero(self, corpus):
        episodes = fixed_episodes(corpus, 3, 1, 3, seed=1, query_size=3)
        result = evaluate_method(_EmptyAdapter(), episodes)
        assert result.f1 == 0.0

    def test_result_rendering(self):
        result = EvaluationResult(
            "X", ConfidenceInterval(0.2374, 0.0065, 1000), (0.2,),
            ExecutionReport(mode="serial", workers=1),
        )
        assert str(result) == "X: 23.74 ± 0.65%"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_episode_list_raises_value_error(self, workers):
        """No episodes is one caller error at every worker count, raised
        before any executor runs."""
        with pytest.raises(ValueError, match="no episodes"):
            evaluate_method(_ConstantAdapter(), [], workers=workers)


class TestMethodRegistry:
    def test_method_names_complete(self):
        assert "FewNER" in METHOD_NAMES
        assert "Reptile" in METHOD_NAMES
        assert len(METHOD_NAMES) == 12

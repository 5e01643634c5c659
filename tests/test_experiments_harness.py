"""Unit tests for the adaptation harness using a stub adapter.

These verify the bookkeeping of :func:`run_adaptation` — fixed-seed
episode sharing, table cell layout, rendering — without paying for real
training.
"""

import dataclasses

import pytest

from repro.data.synthetic import generate_dataset
from repro.experiments.configs import SCALES
from repro.experiments.harness import (
    AdaptationSetting,
    TableResult,
    run_adaptation,
)
from repro.eval.aggregate import ConfidenceInterval


class _StubAdapter:
    """Predicts nothing; counts calls."""

    calls = []

    def __init__(self, name):
        self.name = name

    def fit(self, sampler, iterations):
        _StubAdapter.calls.append(("fit", self.name, iterations))
        return [0.0] * iterations

    def predict_episode(self, episode):
        _StubAdapter.calls.append(("predict", self.name, episode.n_way))
        return [[] for _ in episode.query]


@pytest.fixture
def patched_build(monkeypatch):
    _StubAdapter.calls = []
    monkeypatch.setattr(
        "repro.experiments.harness.build_method",
        lambda name, wv, cv, n_way, config: _StubAdapter(name),
    )
    return _StubAdapter


@pytest.fixture
def setting():
    ds = generate_dataset("OntoNotes", scale=0.02, seed=0)
    half = len(ds) // 2
    return AdaptationSetting(name="toy", train=ds[:half], test=ds[half:])


class TestRunAdaptation:
    def test_cells_complete(self, patched_build, setting):
        scale = SCALES["smoke"]
        result = run_adaptation("t", [setting], ("A", "B"), scale)
        assert {c.method for c in result.cells} == {"A", "B"}
        assert {c.k_shot for c in result.cells} == set(scale.shots)
        for c in result.cells:
            assert c.setting == "toy"
            assert isinstance(c.ci, ConfidenceInterval)

    def test_shared_training_trains_once_per_method(self, patched_build,
                                                    setting):
        scale = SCALES["smoke"]
        assert scale.share_training_across_shots
        run_adaptation("t", [setting], ("A",), scale)
        fits = [c for c in patched_build.calls if c[0] == "fit"]
        assert len(fits) == 1

    def test_per_shot_training_when_not_shared(self, patched_build, setting):
        scale = dataclasses.replace(
            SCALES["smoke"], share_training_across_shots=False
        )
        run_adaptation("t", [setting], ("A",), scale)
        fits = [c for c in patched_build.calls if c[0] == "fit"]
        assert len(fits) == len(scale.shots)

    def test_cell_lookup_and_render(self, patched_build, setting):
        scale = SCALES["smoke"]
        result = run_adaptation("Table X", [setting], ("FewNER",), scale)
        cell = result.cell("FewNER", "toy", scale.shots[0])
        assert cell.f1 == 0.0  # stub predicts nothing
        text = result.render()
        assert "Table X" in text and "FewNER" in text
        with pytest.raises(KeyError):
            result.cell("FewNER", "toy", 99)

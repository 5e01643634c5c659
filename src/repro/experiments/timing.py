"""Experiment E6 — §4.5.2: time-consumption analysis.

Measures, for FEWNER on the NNE intra-domain setting:

* the cost of one inner-loop gradient step (line 7 of Algorithm 1);
* the cost of one full outer meta-batch (all tasks at line 5);
* adaptation + evaluation time per test task for 1-shot and 5-shot.

The paper reports 0.04 s / inner step and 2.19 s (1-shot) / 3.44 s
(5-shot) per outer batch on a V100.  On CPU with scaled-down models the
absolute numbers differ; the *relationships* the paper highlights — inner
steps are cheap and constant across shot counts, adaptation touches only
φ, cost grows linearly with data size — are asserted by the benchmark.

Timers route through :func:`repro.obs.measure`, so every number is a
median with inter-quartile range rather than a best-case minimum, and
each timed repetition shows up as a span when a telemetry session is
active.  The cross-commit benchmark of the shipped system is
``repobench/`` at the repository root.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autodiff.tensor import Tensor, grad
from repro.data.episodes import EpisodeSampler
from repro.data.splits import split_by_types
from repro.data.synthetic import generate_dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.experiments.table2 import TYPE_SPLITS, _fit_counts
from repro.meta.fewner import FewNER
from repro.obs import measure
from repro.perf.fastpath import fastpath

import numpy as np


def _fmt(value: float) -> str:
    """``median`` or ``median±iqr`` seconds, for plain floats too."""
    iqr = getattr(value, "iqr", 0.0)
    if iqr:
        return f"{float(value):.4f}±{iqr:.4f}"
    return f"{float(value):.4f}"


@dataclass(frozen=True)
class TimingReport:
    """Measured step costs, in seconds (median; IQR when measured).

    Fields are plain floats or :class:`repro.obs.TimingStat` (a float
    subclass carrying ``.iqr``/``.reps``); either renders.
    """

    inner_step_1shot: float
    inner_step_5shot: float
    outer_batch_1shot: float
    outer_batch_5shot: float
    adapt_task_1shot: float
    adapt_task_5shot: float
    evaluate_task_1shot: float
    evaluate_task_5shot: float

    def render(self) -> str:
        return "\n".join(
            [
                "Timing analysis (FEWNER on NNE, median seconds):",
                f"  inner step:        1-shot {_fmt(self.inner_step_1shot)}   "
                f"5-shot {_fmt(self.inner_step_5shot)}   (paper: 0.04 / 0.04 on V100)",
                f"  outer meta-batch:  1-shot {_fmt(self.outer_batch_1shot)}   "
                f"5-shot {_fmt(self.outer_batch_5shot)}   (paper: 2.19 / 3.44)",
                f"  adapt per task:    1-shot {_fmt(self.adapt_task_1shot)}   "
                f"5-shot {_fmt(self.adapt_task_5shot)}",
                f"  evaluate per task: 1-shot {_fmt(self.evaluate_task_1shot)}   "
                f"5-shot {_fmt(self.evaluate_task_5shot)}   (paper: 0.36 / 0.51)",
            ]
        )


def _measure_inner_step(adapter: FewNER, episode, repeats: int = 3) -> float:
    model = adapter.model
    batch = model.encode(list(episode.support), episode.scheme)
    alpha = Tensor(np.array(adapter.config.inner_lr))

    def one_step():
        phi = model.new_context()
        loss = model.loss(batch, phi)
        (g_phi,) = grad(loss, [phi], create_graph=True)
        _phi1 = phi - alpha * g_phi

    # A second-order step: the fused CRF NLL is first-order only.
    with fastpath(False):
        return measure(one_step, reps=repeats, label="timing.inner_step")


def _measure_outer_batch(adapter: FewNER, sampler: EpisodeSampler) -> float:
    # A single un-warmed measurement: ``fit`` advances the model and the
    # sampler, so repeats would time different (and non-first) batches.
    return measure(lambda: adapter.fit(sampler, 1), reps=1,
                   label="timing.outer_batch")


def _measure_adapt(adapter: FewNER, episode, repeats: int = 3) -> float:
    return measure(lambda: adapter.adapt_context(episode), reps=repeats,
                   label="timing.adapt_task")


def _measure_evaluate(adapter: FewNER, episode, repeats: int = 3) -> float:
    return measure(lambda: adapter.predict_episode(episode), reps=repeats,
                   label="timing.evaluate_task")


def run(scale, seed: int = 0) -> TimingReport:
    ds = generate_dataset("NNE", scale=scale.corpus_scale, seed=seed)
    counts = _fit_counts(TYPE_SPLITS["NNE"], len(ds.types))
    train, _val, test = split_by_types(ds, counts, seed=seed + 1)
    word_vocab = Vocabulary.from_datasets([train])
    char_vocab = CharVocabulary.from_datasets([train])
    # Timing does not need a converged model; skip the warm-up phase.
    from dataclasses import replace

    config = replace(scale.method_config, pretrain_iterations=0)
    adapter = FewNER(word_vocab, char_vocab, scale.n_way, config)
    measurements = {}
    for k in (1, 5):
        sampler = EpisodeSampler(
            train, scale.n_way, k, query_size=scale.query_size, seed=seed + 21
        )
        episode = EpisodeSampler(
            test, scale.n_way, k, query_size=scale.query_size, seed=seed + 22
        ).sample()
        measurements[f"inner_step_{k}shot"] = _measure_inner_step(adapter, episode)
        measurements[f"outer_batch_{k}shot"] = _measure_outer_batch(adapter, sampler)
        measurements[f"adapt_task_{k}shot"] = _measure_adapt(adapter, episode)
        measurements[f"evaluate_task_{k}shot"] = _measure_evaluate(adapter, episode)
    return TimingReport(**measurements)

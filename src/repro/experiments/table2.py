"""Experiment E2 — Table 2: intra-domain cross-type adaptation.

Three corpora (NNE, FG-NER, GENIA); each is split into type-disjoint
train/val/test partitions (paper §4.2.1: 52/10/15, 163/15/20, 18/8/10
types respectively), so the test episodes contain only entity types never
seen in training.
"""

from __future__ import annotations

from repro.data.splits import split_by_types
from repro.data.synthetic import generate_dataset
from repro.experiments.harness import (
    TABLE_METHODS,
    AdaptationSetting,
    TableResult,
    run_adaptation,
)

#: Paper's type-count splits per corpus.
TYPE_SPLITS = {
    "NNE": (52, 10, 15),
    "FG-NER": (163, 15, 20),
    "GENIA": (18, 8, 10),
}


def build_settings(scale, seed: int = 0) -> list[AdaptationSetting]:
    settings = []
    for name, counts in TYPE_SPLITS.items():
        corpus_scale = scale.corpus_scale
        # FG-NER has 200 types in under 4000 sentences; keep enough
        # sentences that every type stays observable (and the 20-type
        # test split can still assemble 5-shot episodes) after scaling.
        if name == "FG-NER":
            corpus_scale = max(corpus_scale, 1.0)
        ds = generate_dataset(name, scale=corpus_scale, seed=seed)
        available = len(ds.types)
        counts = _fit_counts(counts, available)
        train, _val, test = split_by_types(ds, counts, seed=seed + 1)
        settings.append(
            AdaptationSetting(name=name, train=train, test=test,
                              eval_seed=1000 + seed, train_seed=seed + 7)
        )
    return settings


def _fit_counts(counts: tuple[int, int, int], available: int) -> tuple[int, int, int]:
    """Shrink the train split if the scaled corpus surfaced fewer types."""
    train, val, test = counts
    overshoot = train + val + test - available
    if overshoot > 0:
        train = max(train - overshoot, val + test)
    if train + val + test > available:
        raise ValueError(
            f"cannot fit type split {counts} into {available} observed types"
        )
    return (train, val, test)


def run(scale, methods: tuple[str, ...] = TABLE_METHODS,
        seed: int = 0, journal=None, policy=None,
        workers: int = 1,
        task_timeout_s: float | None = None) -> TableResult:
    settings = build_settings(scale, seed=seed)
    return run_adaptation(
        "Table 2: intra-domain cross-type adaptation (5-way)",
        settings, methods, scale, journal=journal, policy=policy,
        workers=workers, task_timeout_s=task_timeout_s,
    )

"""Experiment E4 — Table 4: cross-domain cross-type adaptation.

A model trained on corpus A adapts to corpus B whose domain *and* type
inventory both differ: GENIA -> BioNLP13CG, OntoNotes -> BioNLP13CG and
OntoNotes -> FG-NER.  Per §4.4.1, 20 % of the target corpus is held out
for validation and testing happens on the remaining 80 %.
"""

from __future__ import annotations

from repro.data.splits import holdout_split
from repro.data.synthetic import generate_dataset
from repro.experiments.harness import (
    TABLE_METHODS,
    AdaptationSetting,
    TableResult,
    run_adaptation,
)

#: The three source -> target corpus transfers of Table 4.
TRANSFERS = (
    ("GENIA", "BioNLP13CG"),
    ("OntoNotes", "BioNLP13CG"),
    ("OntoNotes", "FG-NER"),
)


def build_settings(scale, seed: int = 0) -> list[AdaptationSetting]:
    cache: dict[str, object] = {}

    def corpus(name: str):
        if name not in cache:
            corpus_scale = scale.corpus_scale
            if name == "FG-NER":
                corpus_scale = max(corpus_scale, 1.0)
            if name == "BioNLP13CG":
                corpus_scale = max(corpus_scale, 0.15)
            cache[name] = generate_dataset(name, scale=corpus_scale, seed=seed)
        return cache[name]

    settings = []
    for source, target in TRANSFERS:
        _val, test = holdout_split(corpus(target), 0.2, seed=seed + 5)
        settings.append(
            AdaptationSetting(
                name=f"{source}->{target}",
                train=corpus(source),
                test=test,
                eval_seed=3000 + seed,
                train_seed=seed + 13,
            )
        )
    return settings


def run(scale, methods: tuple[str, ...] = TABLE_METHODS,
        seed: int = 0, journal=None, policy=None,
        workers: int = 1,
        task_timeout_s: float | None = None) -> TableResult:
    settings = build_settings(scale, seed=seed)
    return run_adaptation(
        "Table 4: cross-domain cross-type adaptation (5-way)",
        settings, methods, scale, journal=journal, policy=policy,
        workers=workers, task_timeout_s=task_timeout_s,
    )

"""Experiment E3 — Table 3: cross-domain intra-type adaptation.

ACE2005 with its six sub-domains; nested mentions are reduced to the
innermost annotation (paper §4.3.1); the fine-grained 54-subtype
inventory is used.  Three transfers: BC -> UN, BN -> CTS, NW -> WL.  The
entity types seen at test time already appeared in training — only the
domain changes.
"""

from __future__ import annotations

from repro.data.splits import split_by_ratio
from repro.data.synthetic import generate_dataset
from repro.experiments.harness import (
    TABLE_METHODS,
    AdaptationSetting,
    TableResult,
    run_adaptation,
)

#: The three source -> target domain transfers of Table 3.
TRANSFERS = (("BC", "UN"), ("BN", "CTS"), ("NW", "WL"))


def build_settings(scale, seed: int = 0) -> list[AdaptationSetting]:
    ace = generate_dataset("ACE2005", scale=scale.corpus_scale * 3, seed=seed)
    ace = ace.innermost()
    settings = []
    for source, target in TRANSFERS:
        source_ds = ace.by_domain(source)
        target_ds = ace.by_domain(target)
        train, _val, _test_src = split_by_ratio(source_ds, (0.8, 0.1, 0.1),
                                                seed=seed + 3)
        _tr, _val_t, test = split_by_ratio(target_ds, (0.0, 0.1, 0.9),
                                           seed=seed + 4)
        settings.append(
            AdaptationSetting(
                name=f"{source}->{target}", train=train, test=test,
                eval_seed=2000 + seed, train_seed=seed + 11,
            )
        )
    return settings


def run(scale, methods: tuple[str, ...] = TABLE_METHODS,
        seed: int = 0, journal=None, policy=None,
        workers: int = 1,
        task_timeout_s: float | None = None) -> TableResult:
    settings = build_settings(scale, seed=seed)
    return run_adaptation(
        "Table 3: cross-domain intra-type adaptation (ACE2005, 5-way)",
        settings, methods, scale, journal=journal, policy=policy,
        workers=workers, task_timeout_s=task_timeout_s,
    )

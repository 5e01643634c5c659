"""Golden per-episode scores for every registry method.

Each method runs a short seeded ``fit`` and is then evaluated on fixed
smoke episodes at ``workers=1`` (serial) and ``workers=2`` (forked
pool).  Every per-episode micro-F1 must equal the value stored as a
float hex string in ``tests/golden/eval_scores.json``.  The ``fit``
matters: untrained, most baselines score 0.0 on every episode, and a
zero survives most bugs.  The per-method overrides below are chosen so
that each method scores non-zero on at least one episode.

A change that means to move a score regenerates the file with::

    PYTHONPATH=src python -m tests.test_golden_eval

and says why in CHANGES.md.
"""

import json
import os

import pytest

from repro.data.episodes import EpisodeSampler
from repro.data.synthetic import generate_dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.meta import MethodConfig, build_method
from repro.meta.evaluate import evaluate_method, fixed_episodes
from repro.models import BackboneConfig

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "eval_scores.json")
N_WAY = 3
EPISODES = 6
WORKERS = (1, 2)
#: ``(fit iterations, MethodConfig overrides)`` per registry method.
RUNS = {
    "FineTune": (10, {}),
    "ProtoNet": (10, {}),
    "MAML": (15, {"baseline_lr": 0.03}),
    "FOMAML": (15, {"baseline_lr": 0.03}),
    "SNAIL": (20, {"baseline_lr": 0.03}),
    "FewNER": (10, {"inner_lr": 3.0}),
    "Reptile": (10, {}),
    "GPT2": (10, {}),
}


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _corpus():
    dataset = generate_dataset("OntoNotes", scale=0.02, seed=0)
    episodes = fixed_episodes(dataset, N_WAY, 1, EPISODES, seed=5,
                              query_size=6)
    return (dataset, Vocabulary.from_datasets([dataset]),
            CharVocabulary.from_datasets([dataset]), episodes)


def episode_scores(corpus, name):
    """``{"workers=N": [hex F1 per episode]}`` after a seeded ``fit``."""
    dataset, word_vocab, char_vocab, episodes = corpus
    iterations, overrides = RUNS[name]
    settings = {"finetune_lr": 1.0, "baseline_lr": 0.05, **overrides}
    config = MethodConfig(
        seed=0, meta_batch=2, pretrain_iterations=2,
        backbone=BackboneConfig(word_dim=10, char_dim=6, char_filters=6,
                                hidden=8, context_dim=4, dropout=0.1),
        **settings,
    )
    adapter = build_method(name, word_vocab, char_vocab, N_WAY, config)
    adapter.fit(EpisodeSampler(dataset, N_WAY, 1, query_size=3, seed=1),
                iterations)
    return {
        f"workers={workers}": [
            float(score).hex() for score in evaluate_method(
                adapter, episodes, workers=workers).episode_scores
        ]
        for workers in WORKERS
    }


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)["scores"]


def test_golden_file_pins_every_method_with_a_nonzero_score():
    golden = _golden()
    assert sorted(golden) == sorted(RUNS)
    for name, runs in golden.items():
        assert sorted(runs) == [f"workers={w}" for w in WORKERS]
        for scores in runs.values():
            assert len(scores) == EPISODES
        assert any(float.fromhex(s) > 0.0 for s in runs["workers=1"]), name


@pytest.mark.parametrize("name", sorted(RUNS))
def test_episode_scores_match_golden(corpus, name):
    assert episode_scores(corpus, name) == _golden()[name]


if __name__ == "__main__":
    shared = _corpus()
    scores = {name: episode_scores(shared, name) for name in sorted(RUNS)}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump({"regenerate": "PYTHONPATH=src python -m "
                                 "tests.test_golden_eval",
                   "scores": scores}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")

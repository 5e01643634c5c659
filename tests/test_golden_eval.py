"""Golden training pins and per-episode scores for every registry method.

Each method runs a short seeded ``fit`` and is then evaluated on fixed
smoke episodes at ``workers=1`` (serial) and ``workers=2`` (forked
pool).  Every per-episode micro-F1 must equal the value stored as a
float hex string in ``tests/golden/eval_scores.json``; so must those
of two back-to-back calls with default arguments.  The ``fit``
matters: untrained, most baselines score 0.0 on every episode, and a
zero survives most bugs.  The per-method overrides below are chosen so
that each method scores non-zero on at least one episode.

The same ``fit`` (run once per method and module) is pinned in
``tests/golden/train_pins.json``: its per-iteration losses as float
hex strings and a sha256 over the trained ``state_dict``.

A change that means to move a score regenerates the scores with::

    PYTHONPATH=src python -m tests.test_golden_eval

a change that means to move a training pin regenerates the pins with::

    PYTHONPATH=src python -m tests.test_golden_eval train-pins

and either says why in CHANGES.md.
"""

import hashlib
import json
import math
import os
import sys

import pytest

from repro.data.episodes import EpisodeSampler
from repro.data.synthetic import generate_dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.meta import MethodConfig, build_method
from repro.meta.evaluate import evaluate_method, fixed_episodes
from repro.models import BackboneConfig

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "eval_scores.json")
TRAIN_PINS = os.path.join(os.path.dirname(__file__), "golden",
                          "train_pins.json")
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


def state_sha256(module) -> str:
    """sha256 over ``state_dict`` names, dtypes, shapes and bytes, sorted."""
    digest = hashlib.sha256()
    for key, value in sorted(module.state_dict().items()):
        digest.update(repr((key, value.dtype.str, value.shape)).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def fitted(corpus, name, cache):
    """``(adapter, pin)`` after a seeded ``fit``, memoised in ``cache``.

    ``pin`` is ``{"losses": [hex per iteration], "state_sha256": ...}``,
    taken before the adapter is evaluated.
    """
    if name not in cache:
        cache[name] = _fit(corpus, name)
    return cache[name]


def _fit(corpus, name):
    dataset, word_vocab, char_vocab, _episodes = corpus
    iterations, overrides = RUNS[name]
    settings = {"finetune_lr": 1.0, "baseline_lr": 0.05, **overrides}
    config = MethodConfig(
        seed=0, meta_batch=2, pretrain_iterations=2,
        backbone=BackboneConfig(word_dim=10, char_dim=6, char_filters=6,
                                hidden=8, context_dim=4, dropout=0.1),
        **settings,
    )
    adapter = build_method(name, word_vocab, char_vocab, N_WAY, config)
    losses = adapter.fit(
        EpisodeSampler(dataset, N_WAY, 1, query_size=3, seed=1), iterations
    )
    module = getattr(adapter, "model", None) or adapter.tagger
    return adapter, {"losses": [float(loss).hex() for loss in losses],
                     "state_sha256": state_sha256(module)}


def episode_scores(corpus, adapter):
    """``{"workers=N": [hex F1 per episode]}`` for a fitted ``adapter``."""
    episodes = corpus[3]
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


def _train_pins():
    with open(TRAIN_PINS) as handle:
        return json.load(handle)["pins"]


@pytest.fixture(scope="module")
def fits():
    return {}


def test_golden_file_pins_every_method_with_a_nonzero_score():
    golden = _golden()
    assert sorted(golden) == sorted(RUNS)
    for name, runs in golden.items():
        assert sorted(runs) == [f"workers={w}" for w in WORKERS]
        for scores in runs.values():
            assert len(scores) == EPISODES
        assert any(float.fromhex(s) > 0.0 for s in runs["workers=1"]), name


def test_train_pins_cover_every_method():
    pins = _train_pins()
    assert sorted(pins) == sorted(RUNS)
    for name, pin in pins.items():
        assert pin["losses"], name
        assert all(math.isfinite(float.fromhex(loss))
                   for loss in pin["losses"]), name


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fit_matches_train_pins(corpus, fits, name):
    assert fitted(corpus, name, fits)[1] == _train_pins()[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_episode_scores_match_golden(corpus, fits, name):
    adapter = fitted(corpus, name, fits)[0]
    assert episode_scores(corpus, adapter) == _golden()[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_default_call_matches_serial_golden_and_repeats(corpus, fits, name):
    """``evaluate_method`` with default arguments scores the
    ``workers=1`` golden entry, and a second call on the same adapter
    returns the same bytes: the episodes do not share one RNG stream."""
    adapter = fitted(corpus, name, fits)[0]
    calls = [[float(score).hex() for score in
              evaluate_method(adapter, corpus[3]).episode_scores]
             for _ in range(2)]
    assert calls == [_golden()[name]["workers=1"]] * 2


def _write(path, command, key, values):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"regenerate": f"PYTHONPATH=src python -m {command}",
                   key: values}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    shared, cache = _corpus(), {}
    if sys.argv[1:] == ["train-pins"]:
        _write(TRAIN_PINS, "tests.test_golden_eval train-pins", "pins",
               {name: fitted(shared, name, cache)[1] for name in sorted(RUNS)})
    else:
        _write(GOLDEN, "tests.test_golden_eval", "scores",
               {name: episode_scores(shared, fitted(shared, name, cache)[0])
                for name in sorted(RUNS)})

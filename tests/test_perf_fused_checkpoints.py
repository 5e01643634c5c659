"""End-to-end bit identity of the fused kernels.

A short ``fit`` must write the same checkpoint with the fused kernel on
(the default) and off, for every registry method and for the
second-order variants that run their outer iterations on the graph NLL.
The same holds for the fused encoder kernels (char-CNN and recurrent
scans) against the tape they replace under ``recurrent_kernel(False)``.
"""

import numpy as np
import pytest

from repro.data.episodes import EpisodeSampler
from repro.data.synthetic import generate_dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.meta import MethodConfig, build_method
from repro.models import BackboneConfig
from repro.perf import fastpath, recurrent_kernel

N_WAY = 3
RUNS = [
    (name, {"pretrain_iterations": 1})
    for name in ("FineTune", "ProtoNet", "MAML", "FOMAML", "SNAIL",
                 "FewNER", "Reptile", "GPT2")
] + [
    ("FewNER", {"pretrain_iterations": 0, "inner_loss": "crf"}),
    ("FewNER", {"pretrain_iterations": 0, "second_order": True,
                "inner_loss": "ce"}),
    ("FewNER", {"pretrain_iterations": 0, "second_order": True,
                "inner_loss": "crf"}),
    ("MAML", {"pretrain_iterations": 0, "second_order": True}),
]


@pytest.fixture(scope="module")
def corpus():
    dataset = generate_dataset("OntoNotes", scale=0.02, seed=0)
    return (dataset, Vocabulary.from_datasets([dataset]),
            CharVocabulary.from_datasets([dataset]))


def checkpoint_after_fit(corpus, name, overrides, **backbone):
    """Losses and the checkpoint payload (``state_dict``) as bytes.

    ``backbone`` replaces fields of the backbone config (e.g. the
    encoder)."""
    dataset, word_vocab, char_vocab = corpus
    config = MethodConfig(
        seed=0, meta_batch=2, inner_steps_train=2, inner_steps_test=2,
        backbone=BackboneConfig(word_dim=10, char_dim=6, char_filters=6,
                                hidden=8, context_dim=4, dropout=0.1),
        **overrides,
    )
    if backbone:
        config = config.with_backbone(**backbone)
    adapter = build_method(name, word_vocab, char_vocab, N_WAY, config)
    sampler = EpisodeSampler(dataset, N_WAY, 1, query_size=3, seed=1)
    losses = adapter.fit(sampler, 2)
    module = getattr(adapter, "model", None) or adapter.tagger
    state = {
        key: (value.dtype.str, value.shape, value.tobytes())
        for key, value in module.state_dict().items()
    }
    return [float(loss).hex() for loss in losses], state


@pytest.mark.parametrize(
    "name,overrides", RUNS,
    ids=[f"{name}-{'-'.join(f'{k}={v}' for k, v in sorted(o.items()))}"
         for name, o in RUNS],
)
def test_fit_checkpoint_identical_with_fastpath_on_and_off(corpus, name,
                                                           overrides):
    fused = checkpoint_after_fit(corpus, name, overrides)
    with fastpath(False):
        graph = checkpoint_after_fit(corpus, name, overrides)
    assert fused[0] == graph[0]
    assert fused[1] == graph[1]
    assert all(np.isfinite(float.fromhex(loss)) for loss in fused[0])


@pytest.mark.parametrize(
    "name,overrides", RUNS,
    ids=[f"{name}-{'-'.join(f'{k}={v}' for k, v in sorted(o.items()))}"
         for name, o in RUNS],
)
def test_fit_checkpoint_identical_with_fused_encoder_on_and_off(
        corpus, name, overrides):
    """The fused char-CNN and recurrent kernels against the tape."""
    fused = checkpoint_after_fit(corpus, name, overrides)
    with recurrent_kernel(False):
        tape = checkpoint_after_fit(corpus, name, overrides)
    assert fused[0] == tape[0]
    assert fused[1] == tape[1]


def test_fit_checkpoint_identical_with_fused_bilstm_on_and_off(corpus):
    """The stacked BiLSTM scan against the tape, end to end."""
    overrides = {"pretrain_iterations": 1}
    fused = checkpoint_after_fit(corpus, "FewNER", overrides,
                                 encoder="bilstm")
    with recurrent_kernel(False):
        tape = checkpoint_after_fit(corpus, "FewNER", overrides,
                                    encoder="bilstm")
    # An LSTM cell: four gates of hidden size 8.
    assert fused[1]["encoder.forward_rnn.cell.w_h"][1] == (8, 32)
    assert fused[0] == tape[0]
    assert fused[1] == tape[1]

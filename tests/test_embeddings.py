"""Tests for static and simulated contextual embeddings."""

import numpy as np
import pytest

from repro.data.vocab import Vocabulary
from repro.embeddings import (
    PRETRAINED_LM_NAMES,
    SimulatedContextualEmbedder,
    StaticEmbeddings,
    make_embedder,
)


class TestStaticEmbeddings:
    def test_deterministic(self):
        a = StaticEmbeddings(dim=16, seed=0).vector("kavox")
        b = StaticEmbeddings(dim=16, seed=0).vector("kavox")
        assert np.allclose(a, b)

    def test_seed_changes_vectors(self):
        a = StaticEmbeddings(dim=16, seed=0).vector("kavox")
        b = StaticEmbeddings(dim=16, seed=1).vector("kavox")
        assert not np.allclose(a, b)

    def test_unit_norm(self):
        emb = StaticEmbeddings(dim=32)
        assert np.isclose(np.linalg.norm(emb.vector("hello")), 1.0)

    def test_case_insensitive(self):
        emb = StaticEmbeddings(dim=16)
        assert np.allclose(emb.vector("Kavox"), emb.vector("kavox"))

    def test_morphological_similarity(self):
        """Words sharing a suffix must be closer than unrelated words —
        the transferable-lexical-similarity property GloVe provides."""
        emb = StaticEmbeddings(dim=64)
        shared = emb.similarity("kavutor", "zemitor")
        unrelated = emb.similarity("kavutor", "plaqwib")
        assert shared > unrelated

    def test_matrix_layout(self):
        vocab = Vocabulary(["alpha", "beta"])
        emb = StaticEmbeddings(dim=8)
        m = emb.matrix(vocab)
        assert m.shape == (len(vocab), 8)
        assert np.allclose(m[vocab.pad_index], 0)
        assert np.linalg.norm(m[vocab.unk_index]) > 0
        assert np.allclose(m[vocab.encode(["alpha"])[0]], emb.vector("alpha"))

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticEmbeddings(dim=0)
        with pytest.raises(ValueError):
            StaticEmbeddings(ngram_range=(3, 2))


class TestContextualEmbedders:
    def test_all_five_lms_buildable(self):
        for name in PRETRAINED_LM_NAMES:
            emb = make_embedder(name)
            out = emb.encode(["the", "kavox", "ran"])
            assert out.shape == (3, emb.output_dim)

    def test_unknown_lm_raises(self):
        with pytest.raises(KeyError):
            make_embedder("RoBERTa")

    def test_deterministic(self):
        a = make_embedder("BERT").encode(["a", "b"])
        b = make_embedder("BERT").encode(["a", "b"])
        assert np.allclose(a, b)

    def test_lms_differ_from_each_other(self):
        tokens = ["the", "kavox"]
        outs = {}
        for name in PRETRAINED_LM_NAMES:
            out = make_embedder(name).encode(tokens)
            outs[name] = out.shape[1], float(np.abs(out).sum())
        assert len({v for v in outs.values()}) == len(outs)

    def test_context_sensitivity(self):
        """The same word in different contexts gets different vectors."""
        emb = make_embedder("ELMo")
        a = emb.encode(["bank", "of", "the", "river"])[0]
        b = emb.encode(["bank", "holds", "my", "money"])[0]
        assert not np.allclose(a, b)

    def test_unidirectional_ignores_future(self):
        """Autoregressive LMs (GPT2-style) must not see later tokens."""
        emb = make_embedder("GPT2")
        a = emb.encode(["one", "two", "three"])
        b = emb.encode(["one", "two", "zebra"])
        assert np.allclose(a[0], b[0])
        assert np.allclose(a[1], b[1])
        assert not np.allclose(a[2], b[2])

    def test_bidirectional_sees_future(self):
        emb = make_embedder("BERT")
        a = emb.encode(["one", "two", "three"])
        b = emb.encode(["one", "two", "zebra"])
        assert not np.allclose(a[0], b[0])

    def test_empty_sentence_raises(self):
        with pytest.raises(ValueError):
            make_embedder("BERT").encode([])

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedContextualEmbedder("x", dim=0)

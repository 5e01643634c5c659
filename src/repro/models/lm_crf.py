"""Frozen-LM + CRF stacked baselines (Tables 2-4, "dynamic" block).

A simulated pretrained contextual embedder provides frozen features; a
trainable linear projection + CRF sit on top.  Mirroring the paper's
setup, downstream training (and test-time fine-tuning) touches only the
projection and CRF — the LM stays frozen.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor, matmul, no_grad
from repro.crf import LinearChainCRF, bio_start_mask, bio_transition_mask
from repro.data.sentence import Sentence
from repro.data.tags import TagScheme
from repro.embeddings.contextual import SimulatedContextualEmbedder
from repro.models.decoding import reject_empty
from repro.nn import Linear
from repro.nn.module import Module


class LMTagger(Module):
    """Frozen contextual embedder + trainable projection + CRF."""

    def __init__(self, embedder: SimulatedContextualEmbedder, num_tags: int,
                 rng: np.random.Generator, tag_names: list[str] | None = None):
        super().__init__()
        self.embedder = embedder
        self.num_tags = num_tags
        self.projection = Linear(embedder.output_dim, num_tags, rng)
        transition_mask = start_mask = None
        if tag_names is not None:
            transition_mask = bio_transition_mask(tag_names)
            start_mask = bio_start_mask(tag_names)
        self.crf = LinearChainCRF(num_tags, rng, transition_mask, start_mask)
        self._feature_cache: dict[tuple[str, ...], np.ndarray] = {}

    def _features(self, sentence: Sentence) -> Tensor:
        key = sentence.tokens
        feats = self._feature_cache.get(key)
        if feats is None:
            feats = self.embedder.encode(sentence.tokens)
            self._feature_cache[key] = feats
        return Tensor(feats)

    def emissions(self, sentences: list[Sentence]) -> list[Tensor]:
        return [
            matmul(self._features(s), self.projection.weight) + self.projection.bias
            for s in sentences
        ]

    def _inference_emissions(self, sentences: list[Sentence]) -> list[np.ndarray]:
        """Per-sentence emission scores off the tape: decoding records
        nothing for backward."""
        with no_grad():
            return [e.data for e in self.emissions(sentences)]

    def loss(self, sentences: list[Sentence], scheme: TagScheme) -> Tensor:
        tags = [
            np.asarray(
                scheme.encode([sp.as_tuple() for sp in s.spans], len(s)),
                dtype=np.intp,
            )
            for s in sentences
        ]
        return self.crf.batch_nll(self.emissions(sentences), tags)

    def decode(self, sentences: list[Sentence]) -> list[list[int]]:
        """Viterbi tag sequences (``[]`` for an empty batch).

        Routes through the batched kernel via
        :func:`repro.models.decoding.decode_emissions_within` when the
        fast decode path is on; paths are bit-identical either way.
        """
        from repro.models.decoding import decode_emissions_within

        if not sentences:
            return []
        reject_empty(sentences)
        paths, _statuses = decode_emissions_within(
            self.crf, self._inference_emissions(sentences)
        )
        return paths

    def decode_within(
        self,
        sentences: list[Sentence],
        phi=None,
        deadline=None,
        on_sentence=None,
        allow_viterbi: bool = True,
    ) -> tuple[list[list[int]], list[str]]:
        """Deadline-aware decode mirroring ``CNNBiGRUCRF.decode_within``.

        ``phi`` is accepted for interface parity and ignored — the LM
        baseline has no task context vector.
        """
        from repro.models.decoding import decode_emissions_within

        if not sentences:
            return [], []
        reject_empty(sentences)
        return decode_emissions_within(
            self.crf, self._inference_emissions(sentences), deadline=deadline,
            on_sentence=on_sentence, allow_viterbi=allow_viterbi,
        )

    def predict_spans(self, sentences: list[Sentence],
                      scheme: TagScheme) -> list[list[tuple[int, int, str]]]:
        return [scheme.decode(ids) for ids in self.decode(sentences)]

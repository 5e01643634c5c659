"""The CNN-BiGRU-CRF sequence labeling backbone (paper §3.2.2).

All parameters of this module constitute θ, the task-independent part.
The task-specific context vector φ is *not* a parameter of the module: it
is created per task (initialised to zeros), injected through one of four
conditioning sites (see :class:`BackboneConfig.conditioning` — the
linear emission head by default, FiLM/concatenation as the paper's
methods B/A), and adapted by inner-loop gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autodiff.tensor import (
    Tensor,
    concatenate,
    matmul,
    no_grad,
    reshape,
    zeros,
)
from repro.crf import LinearChainCRF, bio_start_mask, bio_transition_mask
from repro.data.sentence import Sentence
from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.models.batch import Batch, encode_batch
from repro.models.decoding import reject_empty
from repro.nn import (
    BiGRU,
    BiLSTM,
    CharCNN,
    ConcatConditioner,
    Dropout,
    Embedding,
    FiLM,
    Linear,
    TransformerEncoder,
)
from repro.nn.module import Module


@dataclass(frozen=True)
class BackboneConfig:
    """Hyper-parameters of the backbone.

    Defaults are scaled down from the paper (word 300-d GloVe, 150 char
    filters, GRU hidden 128, φ 256-d) so the full reproduction runs on
    CPU; the paper's sizes remain valid values.
    """

    word_dim: int = 24
    char_dim: int = 12
    char_filters: int = 24
    char_widths: tuple[int, ...] = (2, 3, 4)
    hidden: int = 24
    dropout: float = 0.1
    context_dim: int = 16
    #: Where φ conditions the backbone:
    #: * ``"film"``   — FiLM on the BiGRU output (paper's method B);
    #: * ``"concat"`` — concatenation at the BiGRU output (method A);
    #: * ``"film+bias"`` — method B plus a φ-generated per-tag emission
    #:   bias;
    #: * ``"head"``  — φ is a zero-initialised linear emission head:
    #:   ``emissions += h @ reshape(φ, (2H, T))``.  One inner gradient
    #:   step sets ``Δφ ∝ -Σ_t h(t) δ(t)^T`` over the support tokens —
    #:   prototype-like class templates — so a couple of steps suffice to
    #:   bind the task's N concrete types to the abstract way slots.
    #:   This is the default at CPU scale: the FiLM sites (paper) need
    #:   far more meta-training before the φ-gradient carries binding
    #:   information, while the head site binds from the first episode
    #:   (see DESIGN.md §"conditioning sites").  For "head" the context
    #:   dimension is ``2 * hidden * num_tags`` and ``context_dim`` is
    #:   ignored.
    conditioning: str = "head"
    #: Context encoder: ``"bigru"`` (the paper's choice, §3.2.2),
    #: ``"bilstm"`` (the classic BiLSTM-CRF alternative) or
    #: ``"transformer"`` (from scratch — the configuration §3.2.2 argues
    #: underperforms recurrent encoders on small corpora).
    encoder: str = "bigru"
    use_char_cnn: bool = True
    max_chars: int = 12

    def __post_init__(self):
        if self.conditioning not in ("film", "concat", "film+bias", "head"):
            raise ValueError(
                "conditioning must be 'film', 'concat', 'film+bias' or "
                f"'head', got {self.conditioning!r}"
            )
        if self.max_chars < 1:
            raise ValueError(
                f"max_chars must be at least 1, got {self.max_chars}"
            )
        if self.char_filters % len(self.char_widths) != 0:
            raise ValueError("char_filters must divide evenly across widths")
        if self.encoder not in ("bigru", "bilstm", "transformer"):
            raise ValueError(
                "encoder must be 'bigru', 'bilstm' or 'transformer', "
                f"got {self.encoder!r}"
            )


class CNNBiGRUCRF(Module):
    """Backbone θ: char-CNN + word embeddings -> BiGRU -> (FiLM) -> CRF."""

    def __init__(
        self,
        word_vocab: Vocabulary,
        char_vocab: CharVocabulary,
        num_tags: int,
        config: BackboneConfig,
        rng: np.random.Generator,
        pretrained_word: np.ndarray | None = None,
        tag_names: list[str] | None = None,
    ):
        super().__init__()
        self.config = config
        self.word_vocab = word_vocab
        self.char_vocab = char_vocab
        self.num_tags = num_tags

        self.word_embedding = Embedding(
            len(word_vocab), config.word_dim, rng,
            padding_idx=word_vocab.pad_index, weight=pretrained_word,
        )
        input_dim = config.word_dim
        if config.use_char_cnn:
            self.char_cnn = CharCNN(
                len(char_vocab), config.char_dim, config.char_filters, rng,
                widths=config.char_widths, padding_idx=char_vocab.pad_index,
            )
            input_dim += config.char_filters
        self.input_dropout = Dropout(config.dropout, rng)
        encoder_cls = {
            "bigru": BiGRU,
            "bilstm": BiLSTM,
            "transformer": TransformerEncoder,
        }[config.encoder]
        self.encoder = encoder_cls(input_dim, config.hidden, rng)
        feature_dim = self.encoder.output_dim
        self._feature_dim = feature_dim
        if config.context_dim > 0:
            if config.conditioning == "concat":
                self.conditioner = ConcatConditioner(
                    config.context_dim, feature_dim, rng
                )
            elif config.conditioning in ("film", "film+bias"):
                self.conditioner = FiLM(config.context_dim, feature_dim, rng)
            if config.conditioning == "film+bias":
                self.bias_generator = Linear(config.context_dim, num_tags, rng)
        self.output_dropout = Dropout(config.dropout, rng)
        self.projection = Linear(feature_dim, num_tags, rng)
        transition_mask = start_mask = None
        if tag_names is not None:
            if len(tag_names) != num_tags:
                raise ValueError(
                    f"{len(tag_names)} tag names for {num_tags} tags"
                )
            transition_mask = bio_transition_mask(tag_names)
            start_mask = bio_start_mask(tag_names)
        self.crf = LinearChainCRF(num_tags, rng, transition_mask, start_mask)

    # ------------------------------------------------------------------
    @property
    def context_size(self) -> int:
        """Dimensionality of the task-specific context vector φ."""
        if self.config.conditioning == "head":
            return self._feature_dim * self.num_tags
        return self.config.context_dim

    def new_context(self) -> Tensor:
        """A fresh task-specific context vector φ = 0 (paper §3.2.4)."""
        return zeros((self.context_size,), requires_grad=True)

    # ------------------------------------------------------------------
    def encoder_features(self, batch: Batch) -> Tensor:
        """The φ-independent slice of :meth:`features`.

        Embeddings, char-CNN and the sequence encoder — everything below
        the point where the task context enters.  During adaptation θ is
        frozen, so this pass is constant across inner steps and callers
        may compute it once and replay it via the ``base`` argument of
        :meth:`features` / the loss methods (only valid while dropout is
        inactive; see ``repro.perf.fastpath``).
        """
        b, length = batch.word_ids.shape
        parts = [self.word_embedding(batch.word_ids)]
        if self.config.use_char_cnn:
            flat_chars = batch.char_ids.reshape(b * length, -1)
            char_feats = self.char_cnn(flat_chars)
            parts.append(
                reshape(char_feats, (b, length, self.config.char_filters))
            )
        x = concatenate(parts, axis=-1) if len(parts) > 1 else parts[0]
        x = self.input_dropout(x)
        return self.encoder(x, batch.mask)

    def features(self, batch: Batch, phi: Tensor | None = None,
                 base: Tensor | None = None) -> Tensor:
        """Contextual features ``(B, L, 2H)`` for a padded batch.

        ``base`` replays a precomputed :meth:`encoder_features` result
        instead of re-running the encoder stack.
        """
        h = base if base is not None else self.encoder_features(batch)
        if phi is not None and self.config.conditioning != "head":
            if self.config.context_dim == 0:
                raise ValueError("model was built with context_dim=0")
            h = self.conditioner(h, phi)
        return self.output_dropout(h)

    def emission_scores(self, batch: Batch, phi: Tensor | None = None,
                        base: Tensor | None = None) -> Tensor:
        """Padded emission scores ``(B, L, T)`` under context φ."""
        h = self.features(batch, phi, base=base)
        scores = matmul(h, self.projection.weight) + self.projection.bias
        if phi is not None:
            if self.config.conditioning == "film+bias":
                scores = scores + self.bias_generator(phi)
            elif self.config.conditioning == "head":
                if phi.size != self._feature_dim * self.num_tags:
                    raise ValueError(
                        f"head context must have {self._feature_dim * self.num_tags} "
                        f"entries, got {phi.size}"
                    )
                head = phi.reshape((self._feature_dim, self.num_tags))
                scores = scores + matmul(h, head)
        return scores

    def emissions(self, batch: Batch, phi: Tensor | None = None) -> list[Tensor]:
        """Per-sentence emission scores, unpadded: list of ``(L_i, T)``."""
        scores = self.emission_scores(batch, phi)
        return [scores[i, : batch.lengths[i], :] for i in range(batch.size)]

    def loss(self, batch: Batch, phi: Tensor | None = None,
             base: Tensor | None = None) -> Tensor:
        """Mean CRF negative log-likelihood over the batch.

        Uses the batched padded forward algorithm so the graph size grows
        with sentence length, not with batch size.
        """
        padded_tags, _ = self.gold_targets(batch, balanced=False)
        scores = self.emission_scores(batch, phi, base=base)
        return self.crf.batch_nll_padded(scores, padded_tags, batch.mask)

    def gold_targets(self, batch: Batch,
                     balanced: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Padded gold tags ``(B, L)`` and the token CE weights ``(B, L)``.

        The weights are the mask, or with ``balanced`` the inverse count
        of each real token's gold tag in the batch (see
        :meth:`token_ce_loss`).
        """
        if batch.tag_ids is None:
            raise ValueError("batch was encoded without gold tags")
        real = batch.mask > 0
        padded_tags = np.zeros(batch.mask.shape, dtype=np.intp)
        # Real cells in row-major order are the batch's tokens in order.
        padded_tags[real] = np.concatenate(batch.tag_ids)
        if not balanced:
            return padded_tags, batch.mask.copy()
        flat_tags = padded_tags[real]
        counts = np.bincount(flat_tags, minlength=self.num_tags)
        weights = np.zeros_like(batch.mask)
        weights[real] = 1.0 / counts[flat_tags]
        return padded_tags, weights

    def token_ce_loss(self, batch: Batch, phi: Tensor | None = None,
                      balanced: bool = True,
                      base: Tensor | None = None) -> Tensor:
        """Token-level cross-entropy over emission scores.

        Used as the inner-loop adaptation surrogate: unlike the CRF NLL —
        which a calibrated-but-undecided model satisfies by spreading tag
        mass — per-token CE forces margins, so a few φ gradient steps on
        the support set commit the emissions to the task's type binding.

        With ``balanced`` each token is weighted by the inverse frequency
        of its gold tag in the batch, so the (dominant) O tokens do not
        drown out the handful of entity tokens that carry the binding
        evidence.
        """
        from repro.autodiff.functional import log_softmax

        padded_tags, weights = self.gold_targets(batch, balanced)
        scores = self.emission_scores(batch, phi, base=base)
        b, max_len = padded_tags.shape
        log_probs = log_softmax(scores, axis=-1)
        rows = np.arange(b)[:, None]
        cols = np.arange(max_len)[None, :]
        picked = log_probs[rows, cols, padded_tags]  # (B, L)
        total = float(weights.sum())
        weighted = picked * Tensor(weights)
        return (weighted.sum() * Tensor(np.array(-1.0))) / Tensor(np.array(total))

    # ------------------------------------------------------------------
    def encode(self, sentences: list[Sentence],
               scheme: TagScheme | None = None) -> Batch:
        """Encode sentences with this model's vocabularies."""
        return encode_batch(
            sentences, self.word_vocab, self.char_vocab, scheme,
            max_chars=self.config.max_chars,
        )

    def _inference_scores(self, sentences: list[Sentence],
                          phi: Tensor | None) -> tuple[Batch, np.ndarray]:
        """Encode ``sentences`` and score them in eval mode, off the tape.

        Returns the batch and its padded ``(B, L, T)`` emission scores.
        Nothing is recorded for backward, so serving builds no gradient
        state (the fused RNN scan then stashes no BPTT activations).
        """
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                batch = self.encode(sentences)
                return batch, self.emission_scores(batch, phi).data
        finally:
            self.train(was_training)

    def decode(self, sentences: list[Sentence],
               phi: Tensor | None = None) -> list[list[int]]:
        """Viterbi tag sequences for raw sentences (``[]`` for ``[]``).

        Uses the batch-vectorised Viterbi kernel, bit-identical to the
        per-sentence recursion.  A sentence with no tokens raises
        ``ValueError`` before anything is encoded (see
        :func:`repro.models.decoding.reject_empty`).
        """
        if not sentences:
            return []
        reject_empty(sentences)
        batch, scores = self._inference_scores(sentences, phi)
        return self.crf.viterbi_decode_batch(scores, batch.mask)

    def decode_within(
        self,
        sentences: list[Sentence],
        phi: Tensor | None = None,
        deadline=None,
        on_sentence=None,
        allow_viterbi: bool = True,
    ) -> tuple[list[list[int]], list[str]]:
        """Deadline-aware batched decode: ``(tag_sequences, statuses)``.

        Emissions are computed once for the whole batch (the floor cost of
        any answer); the per-sentence Viterbi pass then consults
        ``deadline`` — any object with an ``expired`` property, normally a
        :class:`repro.serving.Deadline` on a monotonic clock — and drops
        to the greedy :meth:`LinearChainCRF.argmax_decode` once the budget
        is spent, the caller's breaker is open (``allow_viterbi=False``)
        or Viterbi raises.  See :mod:`repro.models.decoding` for the
        status vocabulary and ``on_sentence`` fault-injection hook.
        """
        from repro.models.decoding import decode_emissions_within

        if not sentences:
            return [], []
        reject_empty(sentences)
        batch, scores = self._inference_scores(sentences, phi)
        emissions = [scores[i, :n] for i, n in enumerate(batch.lengths)]
        return decode_emissions_within(
            self.crf, emissions, deadline=deadline,
            on_sentence=on_sentence, allow_viterbi=allow_viterbi,
        )

    def predict_spans(self, sentences: list[Sentence], scheme: TagScheme,
                      phi: Tensor | None = None) -> list[list[tuple[int, int, str]]]:
        """Predicted entity spans for each sentence (``[]`` for ``[]``)."""
        return [
            scheme.decode(tag_ids)
            for tag_ids in self.decode(sentences, phi)
        ]

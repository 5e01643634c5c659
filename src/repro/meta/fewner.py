"""FEWNER: fast context adaptation for few-shot NER (paper §3.2, Alg. 1).

The network is split into task-independent parameters θ (the whole
CNN-BiGRU-CRF backbone plus the FiLM generator weights) and a
task-specific context vector φ that conditions the BiGRU output.

* **Inner loop** (Eq. 5): φ starts at 0 for every task and takes
  ``inner_steps`` gradient steps on the support loss; θ is frozen but the
  graph is kept, so φ_k is a differentiable function of θ.
* **Outer loop** (Eq. 6): θ steps on the mean query loss of the adapted
  models — a gradient through the inner gradients (second order).
* **Adaptation** (test time): θ is fixed; only φ is updated, with more
  inner steps (8 in the paper) and no second-order bookkeeping — which is
  why adaptation is cheap and hard to overfit.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor, grad, no_grad
from repro.data.episodes import Episode, EpisodeSampler
from repro.eval.metrics import SpanTuple
from repro.meta.base import Adapter, MethodConfig, make_backbone
from repro.models.batch import Batch, encode_tags
from repro.models.decoding import reject_empty
from repro.nn import Adam, ExponentialDecay, SGD


class FewNER(Adapter):
    """The paper's proposed method."""

    name = "FewNER"

    def __init__(self, word_vocab, char_vocab, n_way: int, config: MethodConfig):
        super().__init__(word_vocab, char_vocab, n_way, config)
        if (config.backbone.conditioning != "head"
                and config.backbone.context_dim <= 0):
            raise ValueError("FewNER requires backbone.context_dim > 0")
        self.model = make_backbone(word_vocab, char_vocab, n_way, config, self.rng)
        if config.meta_optimizer == "adam":
            self.optimizer = Adam(
                self.model.parameters(), lr=config.meta_lr,
                weight_decay=config.weight_decay,
            )
        else:
            self.optimizer = SGD(
                self.model.parameters(), lr=config.meta_lr,
                weight_decay=config.weight_decay,
            )
        self.schedule = ExponentialDecay(
            self.optimizer, config.lr_decay_rate, config.lr_decay_every
        )

    # ------------------------------------------------------------------
    def _inner_adapt(self, episode: Episode, steps: int,
                     create_graph: bool,
                     support: tuple[Batch, Tensor] | None = None) -> Tensor:
        """Run the inner loop on the support set; returns adapted φ_k.

        ``support`` is the support set's already encoded ``(batch,
        base)``, with ``base`` its frozen encoder features; without it
        the support set is encoded here.
        """
        from repro import obs
        from repro.perf.fastpath import fastpath, fused_nll_enabled

        base = None
        if support is not None:
            batch, base = support
        else:
            with obs.span("encode"):
                batch = self.model.encode(list(episode.support),
                                          episode.scheme)
        phi = self.model.new_context()
        alpha = Tensor(np.array(self.config.inner_lr))
        was_training = self.model.training
        if not self.config.inner_dropout:
            self.model.eval()
        inner_loss = (
            self.model.token_ce_loss if self.config.inner_loss == "ce"
            else self.model.loss
        )
        if base is None and not create_graph and not self.model.training:
            # θ is frozen and its gradients are never materialised here
            # (first-order, grad w.r.t. φ only), and dropout is inactive,
            # so the φ-independent encoder pass is constant across the
            # inner steps: compute it once and replay it as a leaf.
            with no_grad():
                base = Tensor(self.model.encoder_features(batch).data)
        # With the cache: one miss for the encoder pass above, then one
        # hit per replaying inner step.  Without it every step recomputes
        # the encoder features — one miss per step.
        if base is not None:
            obs.count("adaptation_cache.miss")
            obs.count("adaptation_cache.hit", steps)
        else:
            obs.count("adaptation_cache.miss", steps)
        # A second-order φ step differentiates through the NLL gradient,
        # which the first-order fused kernel cannot record.
        nll_mode = fastpath(fused_nll_enabled() and not create_graph)
        fused = (base is not None and self.config.inner_loss == "ce"
                 and self.model.config.conditioning == "head"
                 and fused_nll_enabled())
        try:
            with obs.span("inner_loop", steps=steps), nll_mode:
                if fused:
                    # First-order on the head site: the whole loop runs
                    # off the tape, bit-identical to the steps below.
                    from repro.perf.kernels import inner_loop_fused

                    projection = self.model.projection
                    phi_k = inner_loop_fused(
                        base.data, projection.weight.data,
                        projection.bias.data, *self.model.gold_targets(batch),
                        self.config.inner_lr, steps,
                    )
                    return Tensor(phi_k, requires_grad=True)
                for _k in range(steps):
                    loss = inner_loss(batch, phi, base=base)
                    (g_phi,) = grad(loss, [phi], create_graph=create_graph)
                    if create_graph:
                        phi = phi - alpha * g_phi
                    else:
                        # A first-order step is a value, not a graph: a
                        # fresh leaf keeps the next sweep off this chain.
                        phi = Tensor(phi.data - alpha.data * g_phi.data,
                                     requires_grad=True)
        finally:
            self.model.train(was_training)
        return phi

    # ------------------------------------------------------------------
    def fit(self, sampler: EpisodeSampler, iterations: int) -> list[float]:
        """Algorithm 1, training procedure (with optional supervised warm-up)."""
        from repro.meta.base import supervised_pretrain

        config = self.config
        losses = []
        self._begin_report()
        if config.pretrain_iterations:
            losses.extend(
                supervised_pretrain(
                    self.model, sampler, config.pretrain_iterations,
                    config.pretrain_lr, config.meta_batch, config.grad_clip,
                    use_context=True,
                    prototype_weight=config.pretrain_prototype_weight,
                    guard=lambda opt: self._make_guard(opt, sampler),
                )
            )
        from repro import obs
        from repro.perf.fastpath import fastpath, fused_nll_enabled

        guard = self._make_guard(self.optimizer, sampler)
        self.model.train()
        # The fused CRF NLL is first-order only.  Second-order runs keep
        # the graph NLL for the whole outer iteration, so the tape sums
        # the CRF-parameter gradients in one order throughout.
        fused = fused_nll_enabled() and not config.second_order
        for _it in range(iterations):
            with obs.span("outer_step", iteration=_it), fastpath(fused):
                tasks = sampler.sample_many(config.meta_batch)
                self.model.zero_grad()
                total = 0.0
                for episode, support in zip(tasks, self._encode_supports(tasks)):
                    phi_k = self._inner_adapt(
                        episode, config.inner_steps_train,
                        create_graph=config.second_order, support=support,
                    )
                    if not config.second_order:
                        phi_k = phi_k.detach()
                    q_batch = self.model.encode(list(episode.query), episode.scheme)
                    q_loss = self.model.loss(q_batch, phi_k)
                    scale = Tensor(np.array(1.0 / config.meta_batch))
                    (q_loss * scale).backward()
                    total += q_loss.item()
                    self.schedule.step()
                guard.step(total / config.meta_batch)
                losses.append(total / config.meta_batch)
        return losses

    def _encode_supports(self, tasks: list[Episode]) -> list:
        """The support sets of one meta-batch, encoded in one pass.

        θ changes only at the guarded step, and a first-order inner loop
        without dropout runs the encoder in eval mode off the tape, so
        the support sets that :meth:`_one_pass` allows share one
        :meth:`_encode_together` pass; each gets its ``(batch, base)``
        for :meth:`_inner_adapt`.  The others get ``None`` and are
        encoded there, as are all of them under ``second_order`` or
        ``inner_dropout``.
        """
        supports = [list(episode.support) for episode in tasks]
        encoded: list = [None] * len(tasks)
        if self.config.second_order or self.config.inner_dropout:
            return encoded
        shared = [i for i, support in enumerate(supports)
                  if self._one_pass(support)]
        if shared:
            pairs = self._encode_together(
                [supports[i] for i in shared],
                [encode_tags(supports[i], tasks[i].scheme) for i in shared])
            for i, pair in zip(shared, pairs):
                encoded[i] = pair
        return encoded

    def _encode_together(self, sets: list, tags: list) -> list:
        """One frozen-θ encoder pass (eval mode, off the tape) over
        several sentence sets; per set, its ``(batch, base)`` rows cut
        to its own width, with ``tags`` as its gold tag ids."""
        from repro import obs

        with obs.span("encode"):
            batch = self.model.encode([s for sentences in sets for s in sentences])
        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                base = self.model.encoder_features(batch).data
        finally:
            self.model.train(was_training)
        pairs, stop = [], 0
        for sentences, tag_ids in zip(sets, tags):
            start, stop = stop, stop + len(sentences)
            rows = batch.rows(start, stop, tag_ids)
            pairs.append((rows, Tensor(np.ascontiguousarray(
                base[start:stop, :rows.mask.shape[1]]))))
        return pairs

    # ------------------------------------------------------------------
    def predict_episode(self, episode: Episode) -> list[list[SpanTuple]]:
        """Algorithm 1, adapting procedure: θ fixed, φ learned.

        The frozen-θ encoder never sees φ, so support and query go
        through it in one pass when :meth:`_one_pass` allows; its rows
        are sliced back to each set's own width, byte-equal to separate
        passes.  Query gold spans are not read.
        """
        from repro import obs

        self._check_episode(episode)
        self.model.eval()
        steps = self.config.inner_steps_test
        scheme = episode.scheme
        support, query = list(episode.support), list(episode.query)
        if not self._one_pass(support, query):
            phi = self._inner_adapt(episode, steps, create_graph=False)
            with obs.span("decode"), no_grad():
                return self.model.predict_spans(query, scheme,
                                                phi=phi.detach())
        reject_empty(query)
        (s_batch, s_base), (q_batch, q_base) = self._encode_together(
            [support, query], [encode_tags(support, scheme), None])
        phi = self._inner_adapt(episode, steps, create_graph=False,
                                support=(s_batch, s_base))
        with obs.span("decode"), no_grad():
            scores = self.model.emission_scores(q_batch, phi.detach(),
                                                base=q_base).data
            tags = self.model.crf.viterbi_decode_batch(scores, q_batch.mask)
            return [scheme.decode(tag_ids) for tag_ids in tags]

    def _one_pass(self, *sets) -> bool:
        """Whether sentence sets encoded in one pass with others get the
        bytes of a pass of their own.  A transformer row depends on its
        batch; a recurrent one does not, but BLAS runs a one-sentence or
        one-token-wide product as a matrix-vector call."""
        return (self.model.config.encoder in ("bigru", "bilstm")
                and all(len(s) > 1 and max(map(len, s)) > 1 for s in sets))

    def adapt_context(self, episode: Episode, steps: int | None = None) -> Tensor:
        """Public access to the adapted φ (used by analyses/examples)."""
        self.model.eval()
        if steps is None:
            steps = self.config.inner_steps_test
        return self._inner_adapt(episode, steps, create_graph=False).detach()

"""MAML and first-order MAML baselines (paper §2.2, Eqs. 1-3).

Unlike FEWNER, MAML adapts the *entire* network in the inner loop: fast
weights θ' are produced for every parameter by gradient descent on the
support loss, and the meta-update differentiates the query loss through
those fast weights (second-order).  FOMAML truncates the second-order
term (``create_graph=False`` in the inner loop), a common ablation.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor, grad, no_grad
from repro.data.episodes import Episode, EpisodeSampler
from repro.eval.metrics import SpanTuple
from repro.meta.base import Adapter, MethodConfig, make_backbone
from repro.nn import Adam, ExponentialDecay, SGD
from repro.nn.module import override_params


class MAML(Adapter):
    """Model-agnostic meta-learning over the full backbone."""

    name = "MAML"
    first_order = False

    def __init__(self, word_vocab, char_vocab, n_way: int, config: MethodConfig):
        super().__init__(word_vocab, char_vocab, n_way, config)
        # MAML has no context parameters: the whole network adapts.
        self.model = make_backbone(
            word_vocab, char_vocab, n_way, config, self.rng, context_dim=0
        )
        self._param_names = [n for n, _p in self.model.named_parameters()]
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
                     create_graph: bool) -> dict[str, Tensor]:
        """Fast weights after ``steps`` inner updates on the support set."""
        import contextlib

        from repro import obs
        from repro.perf.fastpath import fastpath, recurrent_kernel

        with obs.span("encode"):
            batch = self.model.encode(list(episode.support), episode.scheme)
        alpha = Tensor(np.array(self.config.inner_lr))
        fast: dict[str, Tensor] = dict(self.model.named_parameters())
        was_training = self.model.training
        if not self.config.inner_dropout:
            self.model.eval()
        # Second-order MAML differentiates *through* the inner gradients,
        # and those cross the recurrent encoder and the CRF NLL with every
        # parameter as a requested input.  Both fused kernels are
        # first-order only, so fall back to the tape for this loop.  The
        # two switches stay separate: inside ``fit`` the NLL one is
        # already off for the whole outer iteration.
        rnn_mode, nll_mode = (
            (recurrent_kernel(False), fastpath(False)) if create_graph
            else (contextlib.nullcontext(), contextlib.nullcontext())
        )
        try:
            with obs.span("inner_loop", steps=steps), rnn_mode, nll_mode:
                for _k in range(steps):
                    with override_params(self.model, fast):
                        loss = self.model.loss(batch)
                    names = list(fast)
                    grads = grad(
                        loss, [fast[n] for n in names],
                        create_graph=create_graph, allow_unused=True,
                    )
                    fast = {
                        n: (fast[n] if g is None else fast[n] - alpha * g)
                        for n, g in zip(names, grads)
                    }
        finally:
            self.model.train(was_training)
        return fast

    # ------------------------------------------------------------------
    def fit(self, sampler: EpisodeSampler, iterations: int) -> list[float]:
        from repro.meta.base import supervised_pretrain

        config = self.config
        losses = []
        self._begin_report()
        if config.pretrain_iterations:
            losses.extend(
                supervised_pretrain(
                    self.model, sampler, config.pretrain_iterations,
                    config.pretrain_lr, config.meta_batch, config.grad_clip,
                    use_context=False,
                    prototype_weight=config.pretrain_prototype_weight,
                    guard=lambda opt: self._make_guard(opt, sampler),
                )
            )
        if self.first_order or not config.second_order:
            losses.extend(self._fit_first_order(sampler, iterations))
            return losses
        from repro import obs
        from repro.perf.fastpath import fastpath

        guard = self._make_guard(self.optimizer, sampler)
        self.model.train()
        for _it in range(iterations):
            # The fused CRF NLL is first-order only: keep the graph NLL
            # for the whole second-order outer iteration.
            with obs.span("outer_step", iteration=_it), fastpath(False):
                tasks = sampler.sample_many(config.meta_batch)
                self.model.zero_grad()
                total = 0.0
                for episode in tasks:
                    fast = self._inner_adapt(
                        episode, config.inner_steps_train, create_graph=True,
                    )
                    q_batch = self.model.encode(list(episode.query), episode.scheme)
                    with override_params(self.model, fast):
                        q_loss = self.model.loss(q_batch)
                    scale = Tensor(np.array(1.0 / config.meta_batch))
                    (q_loss * scale).backward()
                    total += q_loss.item()
                    self.schedule.step()
                guard.step(total / config.meta_batch)
                losses.append(total / config.meta_batch)
        return losses

    def _fit_first_order(self, sampler: EpisodeSampler,
                         iterations: int) -> list[float]:
        """FOMAML update: apply the query gradient taken at the adapted
        fast weights directly to θ."""
        from repro import obs

        config = self.config
        losses = []
        guard = self._make_guard(self.optimizer, sampler)
        self.model.train()
        params = self.model.parameters()
        for _it in range(iterations):
            with obs.span("outer_step", iteration=_it):
                tasks = sampler.sample_many(config.meta_batch)
                self.model.zero_grad()
                total = 0.0
                for episode in tasks:
                    fast = self._inner_adapt(
                        episode, config.inner_steps_train, create_graph=False
                    )
                    fast = {n: t.detach() for n, t in fast.items()}
                    for t in fast.values():
                        t.requires_grad = True
                    q_batch = self.model.encode(list(episode.query), episode.scheme)
                    names = list(fast)
                    with override_params(self.model, fast):
                        q_loss = self.model.loss(q_batch)
                    fast_grads = grad(
                        q_loss, [fast[n] for n in names], allow_unused=True
                    )
                    for p, g in zip(params, fast_grads):
                        if g is None:
                            continue
                        contribution = Tensor(g.data / config.meta_batch)
                        p.grad = contribution if p.grad is None else p.grad + contribution
                    total += q_loss.item()
                    self.schedule.step()
                guard.step(total / config.meta_batch)
                losses.append(total / config.meta_batch)
        return losses

    # ------------------------------------------------------------------
    def predict_episode(self, episode: Episode) -> list[list[SpanTuple]]:
        from repro import obs

        self._check_episode(episode)
        self.model.eval()
        fast = self._inner_adapt(
            episode, self.config.inner_steps_test, create_graph=False
        )
        fast = {n: t.detach() for n, t in fast.items()}
        with obs.span("decode"), override_params(self.model, fast), no_grad():
            return self.model.predict_spans(list(episode.query), episode.scheme)


class FOMAML(MAML):
    """First-order MAML: drops the second-order term of the meta-update.

    The inner-loop gradients are treated as constants, so the query
    gradient w.r.t. θ reduces to the gradient taken at the adapted point
    and applied to θ (the standard FOMAML update, shared with MAML's
    first-order code path).
    """

    name = "FOMAML"
    first_order = True

"""FEWNER's inner loop without the adaptation cache.

The shipped :meth:`FewNER._inner_adapt` computes the φ-independent
encoder pass once per episode when θ is frozen and dropout is off, and
replays it across the inner steps.  This oracle recomputes the whole
forward pass at every step, as Algorithm 1 is written.
"""

import contextlib
import functools

import numpy as np

from repro.autodiff.tensor import Tensor, grad


def recompute_inner_adapt(adapter, episode, steps: int,
                          create_graph: bool, support=None) -> Tensor:
    """Inner-loop φ adaptation that re-runs the encoder every step.

    ``support`` (the caller's pre-encoded support set) is ignored: the
    oracle encodes the support set on its own.
    """
    model, config = adapter.model, adapter.config
    batch = model.encode(list(episode.support), episode.scheme)
    phi = model.new_context()
    alpha = Tensor(np.array(config.inner_lr))
    was_training = model.training
    if not config.inner_dropout:
        model.eval()
    inner_loss = (
        model.token_ce_loss if config.inner_loss == "ce" else model.loss
    )
    try:
        for _ in range(steps):
            loss = inner_loss(batch, phi)
            (g_phi,) = grad(loss, [phi], create_graph=create_graph)
            phi = phi - alpha * g_phi
    finally:
        model.train(was_training)
    return phi


@contextlib.contextmanager
def recompute_every_step(adapter):
    """Run ``adapter`` with :func:`recompute_inner_adapt` as its inner loop."""
    adapter._inner_adapt = functools.partial(recompute_inner_adapt, adapter)
    try:
        yield adapter
    finally:
        del adapter._inner_adapt

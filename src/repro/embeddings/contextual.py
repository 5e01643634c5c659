"""Simulated pretrained contextual language-model embedders.

The paper stacks a CRF on top of five frozen pretrained LMs (GPT2, Flair,
ELMo, BERT, XLNet); only the CRF side is fine-tuned downstream ("the
Flair framework does not allow further fine-tuning").  Offline we cannot
load those checkpoints, so each LM is simulated by a *frozen* randomly
initialised contextual encoder:

* token features come from the same static hash embeddings that carry
  generic lexical similarity ("pretraining" on generic text);
* a frozen recurrent mixer adds context sensitivity — left-to-right for
  the autoregressive models (GPT2, Flair, XLNet), bidirectional for the
  masked/bidirectional ones (BERT, ELMo);
* widths, depths and seeds differ per LM name so the five baselines are
  genuinely different systems.

What the experiments need from these baselines is exactly what frozen
generic encoders exhibit: features that are informative about generic
context but *cannot adapt* to a new task's type system, so an N-way
K-shot CRF on top underperforms meta-learned adaptation.  That failure
mode is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.static import StaticEmbeddings

#: The five pretrained LM baselines of Tables 2-4.
PRETRAINED_LM_NAMES = ("GPT2", "Flair", "ELMo", "BERT", "XLNet")

_LM_CONFIGS = {
    "GPT2": {"dim": 48, "bidirectional": False, "depth": 2, "seed": 101},
    "Flair": {"dim": 40, "bidirectional": False, "depth": 1, "seed": 103},
    "ELMo": {"dim": 56, "bidirectional": True, "depth": 2, "seed": 107},
    "BERT": {"dim": 64, "bidirectional": True, "depth": 2, "seed": 109},
    "XLNet": {"dim": 56, "bidirectional": False, "depth": 2, "seed": 113},
}


class SimulatedContextualEmbedder:
    """A frozen random contextual encoder standing in for a pretrained LM.

    The encoder is pure numpy (it is never trained, so it needs no
    gradients): token hash-embeddings are passed through ``depth`` frozen
    tanh recurrences; bidirectional variants concatenate a reversed pass.
    """

    def __init__(self, name: str, dim: int = 48, bidirectional: bool = True,
                 depth: int = 1, seed: int = 0):
        if dim < 1 or depth < 1:
            raise ValueError(f"invalid dim={dim} or depth={depth}")
        self.name = name
        self.dim = dim
        self.bidirectional = bidirectional
        self.depth = depth
        self.seed = seed
        self._static = StaticEmbeddings(dim=dim, seed=seed)
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        self._w_in = [rng.normal(0, scale, size=(dim, dim)) for _ in range(depth)]
        self._w_rec = [rng.normal(0, scale, size=(dim, dim)) for _ in range(depth)]
        self._bias = [rng.normal(0, 0.01, size=dim) for _ in range(depth)]

    @property
    def output_dim(self) -> int:
        return self.dim * (2 if self.bidirectional else 1)

    def _run_direction(self, features: np.ndarray, reverse: bool) -> np.ndarray:
        x = features[::-1] if reverse else features
        for w_in, w_rec, bias in zip(self._w_in, self._w_rec, self._bias):
            h = np.zeros(self.dim)
            outputs = np.zeros_like(x)
            for t in range(len(x)):
                h = np.tanh(x[t] @ w_in + h @ w_rec + bias)
                outputs[t] = h
            x = outputs
        return x[::-1] if reverse else x

    def encode(self, tokens) -> np.ndarray:
        """Contextual features for a token sequence: ``(L, output_dim)``.

        The encoder is frozen, so the output is a pure function of its
        construction arguments and the tokens.
        """
        tokens = list(tokens)
        if not tokens:
            raise ValueError("cannot encode an empty sentence")
        features = np.stack([self._static.vector(t) for t in tokens])
        fwd = self._run_direction(features, reverse=False)
        if self.bidirectional:
            bwd = self._run_direction(features, reverse=True)
            out = np.concatenate([fwd, bwd], axis=-1)
        else:
            out = fwd
        return out


def make_embedder(name: str) -> SimulatedContextualEmbedder:
    """Build the simulated embedder for one of the five LM baselines."""
    if name not in _LM_CONFIGS:
        raise KeyError(
            f"unknown LM {name!r}; available: {sorted(_LM_CONFIGS)}"
        )
    return SimulatedContextualEmbedder(name, **_LM_CONFIGS[name])

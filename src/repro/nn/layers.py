"""Basic layers: linear, embedding, dropout, layer norm, sequential."""

from __future__ import annotations

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor, getitem, matmul, mean, mul, sqrt, sub
from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter


class Linear(Module):
    """Affine map ``y = x W + b`` over the last axis."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, (in_features, out_features)))
        self.has_bias = bias
        if bias:
            self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        out = matmul(x, self.weight)
        if self.has_bias:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    ``padding_idx`` zeroes that row at construction only: its gradient
    is not masked, so training moves it like any other row.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator, padding_idx: int | None = None,
                 weight: np.ndarray | None = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        if weight is not None:
            weight = np.asarray(weight, dtype=float)
            if weight.shape != (num_embeddings, embedding_dim):
                raise ValueError(
                    f"pretrained weight shape {weight.shape} does not match "
                    f"({num_embeddings}, {embedding_dim})"
                )
            data = weight.copy()
        else:
            data = init.normal(rng, (num_embeddings, embedding_dim), std=0.1)
        if padding_idx is not None:
            data[padding_idx] = 0.0
        self.weight = Parameter(data)

    def check_ids(self, ids: np.ndarray) -> None:
        """Raise ``IndexError`` unless every id is in ``[0, num_embeddings)``."""
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )

    def forward(self, ids) -> Tensor:
        ids = np.asarray(ids, dtype=np.intp)
        self.check_ids(ids)
        return getitem(self.weight, ids)

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        return mul(x, F.dropout_mask(x.shape, self.p, self.rng))

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mu = mean(x, axis=-1, keepdims=True)
        centered = sub(x, mu)
        var = mean(mul(centered, centered), axis=-1, keepdims=True)
        normed = centered / sqrt(var + Tensor(np.array(self.eps)))
        return normed * self.gamma + self.beta


class Sequential(Module):
    """Apply submodules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.items = ModuleList(modules)

    def forward(self, x):
        for mod in self.items:
            x = mod(x)
        return x

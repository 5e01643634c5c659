"""1-D convolution and the character-level CNN encoder.

The character CNN is the component the paper's Table 5 ablation singles
out as most important: removing it costs ~15-19 F1 points because entity
words are prone to out-of-training-vocabulary tokens whose type is still
recognisable from character morphology.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import (
    Tensor,
    concatenate,
    getitem,
    is_grad_enabled,
    matmul,
    max_,
    pad,
    relu,
    reshape,
)
from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter
from repro.perf.conv_kernels import (
    char_cnn_from_ids,
    char_cnn_fused,
    distinct_rows,
)
from repro.perf.fastpath import recurrent_kernel_enabled


class Conv1d(Module):
    """1-D convolution over ``(batch, length, channels)`` inputs.

    Implemented as window-gather + matmul so every step is a
    differentiable primitive of the autodiff engine (no ad hoc backward).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, padding: str = "same"):
        super().__init__()
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.weight = Parameter(
            init.xavier_uniform(rng, (kernel_size * in_channels, out_channels))
        )
        self.bias = Parameter(init.zeros((out_channels,)))

    def forward(self, x: Tensor) -> Tensor:
        batch, length, channels = x.shape
        if channels != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {channels}"
            )
        k = self.kernel_size
        if self.padding == "same":
            left = (k - 1) // 2
            right = k - 1 - left
            x = pad(x, ((0, 0), (left, right), (0, 0)))
            length_out = length
        else:
            length_out = length - k + 1
            if length_out < 1:
                raise ValueError(
                    f"input length {length} shorter than kernel {k} with "
                    "valid padding"
                )
        # Gather sliding windows: (batch, length_out, k, channels).  The
        # explicit batch index keeps them in C order, so the matmul
        # below sees the operand layout of the fused kernels even when
        # the reshape is a view (one channel).
        idx = np.arange(length_out)[:, None] + np.arange(k)[None, :]
        windows = getitem(x, (np.arange(batch)[:, None, None], idx,
                              slice(None)))
        flat = reshape(windows, (batch, length_out, k * self.in_channels))
        return matmul(flat, self.weight) + self.bias

    def __repr__(self) -> str:
        return (
            f"Conv1d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, padding={self.padding})"
        )


class CharCNN(Module):
    """Character-level word encoder: multi-width CNN + max-over-time pool.

    Mirrors the paper's configuration: filter widths ``[2, 3, 4]`` with the
    filter budget split evenly (total 150 in the paper; configurable here).

    By default the whole encoder after the embedding lookup runs as one
    fused tape node (:func:`repro.perf.conv_kernels.char_cnn_fused`,
    bit-identical in output and gradients); under ``no_grad`` it runs
    off the tape from the character ids
    (:func:`repro.perf.conv_kernels.char_cnn_from_ids`, the same bytes),
    on a batch's distinct rows when it has pad cells.  Under
    :func:`repro.perf.fastpath.recurrent_kernel` ``(False)`` — the
    switch second-order work turns off around the fused encoder kernels
    — it runs on the tape through :class:`Conv1d`, ``relu`` and
    ``max_``.
    """

    def __init__(self, num_chars: int, char_dim: int, filters_total: int,
                 rng: np.random.Generator, widths: tuple[int, ...] = (2, 3, 4),
                 padding_idx: int = 0):
        super().__init__()
        from repro.nn.layers import Embedding  # local import avoids a cycle

        if filters_total % len(widths) != 0:
            raise ValueError(
                f"filters_total={filters_total} not divisible by "
                f"{len(widths)} widths"
            )
        per_width = filters_total // len(widths)
        self.widths = tuple(widths)
        self.output_dim = filters_total
        self.char_embedding = Embedding(num_chars, char_dim, rng,
                                        padding_idx=padding_idx)
        self.convs = ModuleList(
            [Conv1d(char_dim, per_width, w, rng, padding="same") for w in widths]
        )

    def forward(self, char_ids) -> Tensor:
        """Encode ``(num_words, max_chars)`` id matrix to ``(num_words, F)``."""
        char_ids = np.asarray(char_ids, dtype=np.intp)
        if char_ids.ndim != 2 or char_ids.shape[1] < 1:
            raise ValueError(
                "char ids must be a (num_words, max_chars) matrix with "
                f"max_chars >= 1, got shape {char_ids.shape}"
            )
        if recurrent_kernel_enabled() and not is_grad_enabled():
            self.char_embedding.check_ids(char_ids)
            table = self.char_embedding.weight.data
            if not (char_ids[:, 0] == self.char_embedding.padding_idx).any():
                return Tensor(char_cnn_from_ids(char_ids, table, self.convs))
            # A word's output depends on its own characters alone, so each
            # distinct row is encoded once and gathered back.  Only a
            # batch with pad cells (all one row) takes this route: a
            # single sentence has none and few repeated words, so finding
            # its distinct rows would cost more than it saves.
            rows, inverse = distinct_rows(char_ids)
            return Tensor(np.take(char_cnn_from_ids(rows, table, self.convs),
                                  inverse, axis=0))
        emb = self.char_embedding(char_ids)  # (W, C, d)
        if recurrent_kernel_enabled():
            return char_cnn_fused(emb, self.convs)
        pooled = []
        for conv in self.convs:
            feat = relu(conv(emb))  # (W, C, per_width)
            pooled.append(max_(feat, axis=1))  # (W, per_width)
        return concatenate(pooled, axis=-1)

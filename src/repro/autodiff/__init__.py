"""Reverse-mode automatic differentiation over numpy arrays.

This package is the substrate that replaces PyTorch autograd in this
reproduction.  The design mirrors a miniature define-by-run framework:

* :class:`~repro.autodiff.tensor.Tensor` wraps a ``numpy.ndarray`` and
  records the operation that produced it.
* Every operation's vector-Jacobian product (VJP) is itself written in
  terms of ``Tensor`` operations, so calling :func:`grad` with
  ``create_graph=True`` produces gradients that are themselves nodes of a
  differentiable graph.  This is what makes the second-order outer update
  of FEWNER/MAML (a gradient *through* a gradient) computable exactly.

The test suite checks every op against central finite differences,
including double-backward.
"""

from repro.autodiff.tensor import (
    Tensor,
    tensor,
    zeros,
    ones,
    full,
    arange,
    no_grad,
    enable_grad,
    is_grad_enabled,
    grad,
    concatenate,
    stack,
    where,
    maximum,
    minimum,
    matmul,
    broadcast_to,
    exp,
    log,
    tanh,
    sigmoid,
    relu,
    sqrt,
    abs_,
    clip,
    scatter_add,
)
from repro.autodiff.functional import (
    softmax,
    log_softmax,
    logsumexp,
    cross_entropy,
    nll_loss,
    mse_loss,
    dropout_mask,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "full",
    "arange",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "grad",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "matmul",
    "broadcast_to",
    "exp",
    "log",
    "tanh",
    "sigmoid",
    "relu",
    "sqrt",
    "abs_",
    "clip",
    "scatter_add",
    "softmax",
    "log_softmax",
    "logsumexp",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "dropout_mask",
]

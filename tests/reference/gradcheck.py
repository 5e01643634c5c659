"""Finite-difference verification of analytic gradients.

Used throughout the test suite to certify every autodiff primitive and
the composed models, including the second-order gradients FEWNER's
outer loop needs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autodiff.tensor import Tensor, grad


def numerical_grad(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. one input."""
    target = inputs[index]
    flat = target.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(fn(*inputs).data)
        flat[i] = orig - eps
        lo = float(fn(*inputs).data)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return out.reshape(target.shape)


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-6,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> bool:
    """Compare analytic and numerical gradients of a scalar-valued ``fn``.

    Raises ``AssertionError`` with a diagnostic on mismatch; returns True
    on success so it can be used directly in assertions.
    """
    out = fn(*inputs)
    if out.size != 1:
        raise ValueError("gradcheck requires a scalar-valued function")
    diff_inputs = [t for t in inputs if t.requires_grad]
    analytic = grad(out, diff_inputs, allow_unused=True)
    for t, a in zip(diff_inputs, analytic):
        idx = list(inputs).index(t)
        n = numerical_grad(fn, inputs, idx, eps=eps)
        a_data = np.zeros_like(t.data) if a is None else a.data
        if not np.allclose(a_data, n, atol=atol, rtol=rtol):
            worst = np.abs(a_data - n).max()
            raise AssertionError(
                f"gradcheck failed for input {idx}: max abs error {worst:.3e}\n"
                f"analytic:\n{a_data}\nnumerical:\n{n}"
            )
    return True

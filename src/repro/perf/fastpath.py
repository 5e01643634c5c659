"""Thread-local switches that select the performance fast paths.

Two independent toggles, scoped with context managers so callers can
never leak a mode change past their own frame.  Each exists because
the fast path is first-order only, so second-order work must be able
to turn it off:

* **Fused CRF NLL** (default *on*): the batched negative log-likelihood
  runs as one fused numpy kernel registered as a *single* tape node
  (``repro.perf.kernels.crf_nll_fused``) instead of ``O(L)`` autodiff
  ops.  It replays the graph's float operations and VJPs in the tape's
  order, so the loss *and* every gradient are bit-identical — but its
  backward runs outside the tape, so second-order differentiation
  through it is rejected at backprop time.  Second-order work runs
  under ``fastpath(False)``: each outer iteration of FEWNER and MAML
  with ``second_order``, and the E6 inner-step timing.  The same switch
  gates FEWNER's fused first-order inner loop
  (``repro.perf.kernels.inner_loop_fused``): with θ frozen, dropout off,
  the token CE loss and φ on the emission head, every φ step runs in
  plain numpy off the tape, bit-identical to the tape loop.
* **Recurrent kernel** (default *on*): the fused encoder kernels.
  GRU/LSTM layers unroll the whole sequence inside one fused numpy scan
  registered as a *single* tape node with a hand-derived BPTT backward
  (``repro.perf.rnn_kernels``), instead of emitting ~24 tape ops per
  timestep; and ``CharCNN`` runs its convolutions, relu and
  max-over-characters for every filter width as one node
  (``repro.perf.conv_kernels``) instead of ~20.  Both perform the same
  float operations in the same order as the tape, so outputs *and*
  parameter gradients are bit-identical — but like the fused NLL their
  backwards are first-order only; second-order differentiation through
  them is rejected at backprop time, so second-order MAML runs under
  ``recurrent_kernel(False)``.

The two stay separate because their second-order users differ.
FEWNER with ``second_order`` (the ``paper`` preset: ``inner_loss="crf"``)
differentiates twice only with respect to φ, downstream of the encoder,
so it turns off the fused NLL but keeps the fused encoder kernels.  One
shared switch would put its encoder back on the tape and make each
second-order ``fit`` two to three times slower (measured in
``docs/performance.md``, "Switches").

Both switches are thread-local; a forked worker process inherits the
state its parent had at fork time.
"""

from __future__ import annotations

import contextlib
import threading

_state = threading.local()

#: The documented default of every switch; chaos invariants compare
#: :func:`fastpath_state` against this to prove no scenario leaked a
#: mode change past its own frame.
DEFAULT_FASTPATH_STATE = {
    "fused_nll": True,
    "recurrent_kernel": True,
}


def _enabled(name: str) -> bool:
    return getattr(_state, name, DEFAULT_FASTPATH_STATE[name])


def fused_nll_enabled() -> bool:
    """Whether the fused first-order CRF NLL and inner-loop kernels are active."""
    return _enabled("fused_nll")


def recurrent_kernel_enabled() -> bool:
    """Whether the fused encoder kernels (GRU/LSTM scans, char-CNN) are active."""
    return _enabled("recurrent_kernel")


def fastpath_state() -> dict:
    """Snapshot of every fast-path switch in this thread."""
    return {name: _enabled(name) for name in DEFAULT_FASTPATH_STATE}


@contextlib.contextmanager
def _scoped(name: str, enabled: bool):
    prev = _enabled(name)
    setattr(_state, name, bool(enabled))
    try:
        yield
    finally:
        setattr(_state, name, prev)


def fastpath(enabled: bool = True):
    """Enable (or disable) the fused CRF NLL kernel inside the block.

    The kernel is on by default and first-order only: calling
    ``grad(..., create_graph=True)`` through a loss it produced raises
    ``RuntimeError``, so second-order work runs under ``fastpath(False)``.
    The switch also selects FEWNER's fused first-order inner loop; with
    it off, every φ step runs on the tape.
    """
    return _scoped("fused_nll", enabled)


def recurrent_kernel(enabled: bool = True):
    """Enable (or disable) the fused encoder kernels inside the block.

    Covers the recurrent scans and the char-CNN.  First-order only:
    differentiating *through* a gradient that crossed a fused node
    (``create_graph=True`` and the RNN or char-CNN on the path to a
    requested input) raises ``RuntimeError``; disable the kernels around
    such work instead.
    """
    return _scoped("recurrent_kernel", enabled)

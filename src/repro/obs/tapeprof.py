"""Tape profiler: per-backward node counts and live ndarray bytes.

PR 3 pinned the recurrent cells to <= 24 tape nodes per step with a
comment and a growth test.  :func:`profile_tape` turns that invariant
into a queryable metric: while active, every graph node created by
``repro.autodiff`` is counted (by op kind, via the caller's function
name), every backward traversal records how many nodes it walked, and
``weakref`` finalizers track the peak number of ndarray bytes held live
by graph-producing tensors.

Zero overhead when inactive: the autodiff hot path pays one module
global load and an ``is None`` check (see ``tensor._make``).
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import weakref

# ``repro.autodiff`` re-exports a ``tensor()`` factory function that
# shadows the submodule attribute, so resolve the module explicitly.
_tensor = importlib.import_module("repro.autodiff.tensor")

#: Op names under which the fused recurrent kernels register their one
#: tape node per layer (``_make`` is called directly from the stacked
#: scan, so the caller-frame op key is that function's name).
_RNN_KERNEL_OPS = ("_stacked_scan",)


class TapeProfile:
    """Mutable accumulator filled in while :func:`profile_tape` is active."""

    def __init__(self):
        self.op_counts: dict[str, int] = {}
        self.nodes_created = 0
        self.backwards = 0
        self.backward_nodes: list[int] = []
        self.live_bytes = 0
        self.peak_live_bytes = 0

    # -- hooks called from repro.autodiff.tensor -----------------------
    def _record(self, out) -> None:
        # Frames: 0=_record, 1=_make, 2=the primitive op (add, exp, ...).
        op = sys._getframe(2).f_code.co_name
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        self.nodes_created += 1
        nbytes = int(out.data.nbytes)
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        weakref.finalize(out, self._release, nbytes)

    def _release(self, nbytes: int) -> None:
        self.live_bytes -= nbytes

    def _record_backward(self, n_nodes: int) -> None:
        self.backwards += 1
        self.backward_nodes.append(n_nodes)

    # -- derived views -------------------------------------------------
    @property
    def max_nodes_per_backward(self) -> int:
        return max(self.backward_nodes) if self.backward_nodes else 0

    @property
    def mean_nodes_per_backward(self) -> float:
        if not self.backward_nodes:
            return 0.0
        return sum(self.backward_nodes) / len(self.backward_nodes)

    @property
    def rnn_nodes(self) -> int:
        """Tape nodes created by the fused recurrent kernels.

        One per GRU/LSTM layer forward (a bidirectional layer runs both
        directions in one stacked scan) — the queryable form of the
        one-node-per-layer invariant, the fused analogue of the legacy
        ≤ 24 nodes/step budget.
        """
        return sum(self.op_counts.get(op, 0) for op in _RNN_KERNEL_OPS)

    def summary(self) -> dict:
        """JSON-ready digest (op counts in sorted order)."""
        return {
            "nodes_created": self.nodes_created,
            "backwards": self.backwards,
            "max_nodes_per_backward": self.max_nodes_per_backward,
            "mean_nodes_per_backward": round(self.mean_nodes_per_backward, 3),
            "peak_live_bytes": self.peak_live_bytes,
            "rnn_nodes": self.rnn_nodes,
            "op_counts": {k: self.op_counts[k] for k in sorted(self.op_counts)},
        }


@contextlib.contextmanager
def profile_tape():
    """Profile autodiff tape activity inside the block.

    Yields a :class:`TapeProfile`.  On exit the profiler is detached
    and, when a telemetry session is active, the headline numbers are
    published as gauges (``tape.max_nodes_per_backward``,
    ``tape.peak_live_bytes``, ``tape.rnn_nodes``) plus a ``tape`` event.
    """
    from repro import obs

    profile = TapeProfile()
    previous = _tensor._tape_profiler
    _tensor.set_tape_profiler(profile)
    try:
        yield profile
    finally:
        _tensor.set_tape_profiler(previous)
        if obs.enabled():
            obs.set_gauge("tape.max_nodes_per_backward",
                          profile.max_nodes_per_backward)
            obs.set_gauge("tape.peak_live_bytes", profile.peak_live_bytes)
            obs.set_gauge("tape.rnn_nodes", profile.rnn_nodes)
            obs.emit("tape", **profile.summary())

"""Performance layer: vectorised kernels and parallel evaluation.

Two coordinated pieces:

* :mod:`repro.perf.kernels` + :mod:`repro.perf.rnn_kernels` +
  :mod:`repro.perf.conv_kernels` + :mod:`repro.perf.fastpath` —
  batched CRF Viterbi/greedy decode (bit-identical to the per-sentence
  recursions), a fused single-tape-node CRF NLL, FEWNER's first-order
  inner loop off the tape, and fused
  single-tape-node GRU/LSTM scans and char-CNN with hand-derived
  backwards (all on by default, first-order only, bit-identical in
  outputs *and* gradients);
* :mod:`repro.perf.executor` — a fork-based, deterministic, *supervised*
  worker pool (per-task deadlines, crash/hang detection, bounded
  retries, poison-episode quarantine, :class:`ExecutionReport`
  accounting) used to fan adaptation episodes across cores in
  :func:`repro.meta.evaluate.evaluate_method` and the table runners.

See ``docs/performance.md`` for the design and guarantees; the
benchmark that times them across commits is ``repobench/`` at the
repository root.
"""

from repro.perf.executor import (
    EpisodeExecutor,
    ExecutionReport,
    TaskRecord,
)
from repro.perf.fastpath import (
    DEFAULT_FASTPATH_STATE,
    fastpath,
    fastpath_state,
    fused_nll_enabled,
    recurrent_kernel,
    recurrent_kernel_enabled,
)

__all__ = [
    "EpisodeExecutor",
    "ExecutionReport",
    "TaskRecord",
    "DEFAULT_FASTPATH_STATE",
    "fastpath",
    "fastpath_state",
    "fused_nll_enabled",
    "recurrent_kernel",
    "recurrent_kernel_enabled",
]

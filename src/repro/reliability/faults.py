"""Deterministic fault injection for testing every recovery path.

Production code never imports this module; tests hand a
:class:`FaultInjector` to the hooks the runtime already exposes:

* :class:`~repro.reliability.guard.GuardedStep` calls
  :meth:`FaultInjector.before_step` before validating each update, so a
  test can corrupt gradients with NaN at exactly iteration *k* or raise
  mid-``fit``;
* :func:`~repro.experiments.harness.run_adaptation` calls its
  ``on_cell`` hook after each completed cell, so a hook that raises
  :class:`SimulatedCrash` simulates a kill between cells;
* :meth:`FaultInjector.truncate_file` damages a checkpoint on disk the
  way a crash mid-write (pre-atomic-rename) or a torn copy would;
* the supervised executor (:mod:`repro.perf.executor`) consults
  :meth:`FaultInjector.worker_fault` and
  :meth:`FaultInjector.corrupt_result` inside each forked worker, so a
  test can crash (``os._exit``), hang, fail or corrupt exactly the
  episodes it chooses — deterministically per index, independent of
  scheduling;
* :class:`~repro.serving.TaggingService` consults
  :meth:`FaultInjector.before_batch` once per micro-batch, simulating a
  whole-batch encode failure.

Two exception types keep fault semantics honest: :class:`InjectedFault`
is an ordinary ``RuntimeError`` that recovery code is *supposed* to
handle (a failing method), while :class:`SimulatedCrash` derives from
``BaseException`` so no ``except Exception`` isolation layer can
swallow it — exactly like a real SIGKILL.
"""

from __future__ import annotations

import os

import numpy as np


class InjectedFault(RuntimeError):
    """An ordinary failure injected into a training run."""


class SimulatedCrash(BaseException):
    """A process death; must never be caught by fault-isolation layers."""


class FaultInjector:
    """Test-only deterministic fault source.

    ``nan_grad_at`` and ``raise_at`` are iterables of guarded-step
    indices *local to each training phase* (the supervised warm-up and
    the meta loop each start counting at 0); ``raise_after_calls``
    counts consultations globally across phases and chunks.
    """

    def __init__(self, nan_grad_at=(), raise_at=(), raise_after_calls=None,
                 decode_raise_at=(), slow_decode_s=None, slow_decode_for=None,
                 clock=None, batch_raise_at=(),
                 worker_crash_at=(), worker_hang_at=(), worker_corrupt_at=(),
                 worker_raise_at=(), worker_crash_p=0.0, worker_hang_p=0.0,
                 worker_seed=0, worker_fault_attempts=(0,),
                 worker_hang_s=30.0):
        self.nan_grad_at = frozenset(int(i) for i in nan_grad_at)
        self.raise_at = frozenset(int(i) for i in raise_at)
        #: Raise once the injector has been consulted this many times in
        #: total, across all guards and phases of a ``fit`` — the knob
        #: for killing a run mid-chunk.
        self.raise_after_calls = raise_after_calls
        self.calls = 0
        self.corrupted_iterations: list[int] = []
        # -- decode-path faults (see before_decode) --------------------
        self.decode_raise_at = frozenset(int(i) for i in decode_raise_at)
        #: Synthetic seconds each Viterbi attempt "takes": advanced on a
        #: :class:`~repro.serving.deadline.ManualClock` (``clock``) so a
        #: slow decoder is simulated without sleeping.
        self.slow_decode_s = slow_decode_s
        #: Only the first this-many decode consultations are slow
        #: (``None`` = all of them) — the knob for a decoder that
        #: recovers, exercising breaker half-open → closed.
        self.slow_decode_for = slow_decode_for
        self.clock = clock
        self.decode_calls = 0
        # -- whole-batch serving faults (see before_batch) -------------
        self.batch_raise_at = frozenset(int(i) for i in batch_raise_at)
        self.batch_calls = 0
        # -- executor worker faults (see worker_fault) -----------------
        self.worker_crash_at = frozenset(int(i) for i in worker_crash_at)
        self.worker_hang_at = frozenset(int(i) for i in worker_hang_at)
        self.worker_corrupt_at = frozenset(int(i) for i in worker_corrupt_at)
        self.worker_raise_at = frozenset(int(i) for i in worker_raise_at)
        #: Probabilities of a crash / hang per index, rolled from a
        #: deterministic per-``(worker_seed, index)`` stream — the same
        #: index always draws the same fault regardless of scheduling.
        self.worker_crash_p = float(worker_crash_p)
        self.worker_hang_p = float(worker_hang_p)
        self.worker_seed = int(worker_seed)
        #: Attempt numbers (0-based) on which worker faults fire; the
        #: default ``(0,)`` makes every fault transient, so a retry of
        #: the same index succeeds.
        self.worker_fault_attempts = frozenset(
            int(a) for a in worker_fault_attempts
        )
        #: How long a hung worker sleeps (real seconds); the supervisor
        #: should detect the hang via its task deadline long before this.
        self.worker_hang_s = float(worker_hang_s)
    # ------------------------------------------------------------------
    # GuardedStep hook
    # ------------------------------------------------------------------
    def before_step(self, iteration: int, params) -> None:
        """Corrupt gradients or raise, per the configured schedules."""
        self.calls += 1
        if (self.raise_after_calls is not None
                and self.calls >= self.raise_after_calls):
            raise InjectedFault(
                f"injected failure after {self.calls} guarded steps"
            )
        if iteration in self.raise_at:
            raise InjectedFault(f"injected failure at iteration {iteration}")
        if iteration in self.nan_grad_at:
            for p in params:
                if p.grad is not None:
                    p.grad.data = np.full_like(p.grad.data, np.nan)
                    break
            self.corrupted_iterations.append(iteration)

    # ------------------------------------------------------------------
    # Serving hooks
    # ------------------------------------------------------------------
    def before_decode(self) -> None:
        """Simulate Viterbi cost/failure; consulted once per attempt.

        Wired into :meth:`TaggingService._on_decode` →
        ``decode_within(on_sentence=...)``: first the configured
        synthetic latency is applied (advancing the injected manual
        clock, so deadline overruns are exact and deterministic), then
        the raise schedule fires — index ``i`` in ``decode_raise_at``
        fails the ``i``-th Viterbi attempt with an :class:`InjectedFault`
        that the degradation ladder must absorb.
        """
        i = self.decode_calls
        self.decode_calls += 1
        slow = self.slow_decode_s is not None and (
            self.slow_decode_for is None or i < self.slow_decode_for
        )
        if slow:
            if self.clock is not None and hasattr(self.clock, "advance"):
                self.clock.advance(self.slow_decode_s)
            else:  # pragma: no cover - real-time fallback
                import time

                time.sleep(self.slow_decode_s)
        if i in self.decode_raise_at:
            raise InjectedFault(f"injected decode failure at attempt {i}")

    def before_batch(self) -> None:
        """Fail a whole micro-batch; consulted once per batch.

        Wired into :meth:`TaggingService._process_batch`: consultation
        ``i`` in ``batch_raise_at`` raises an :class:`InjectedFault`
        before the batch is encoded, exercising the service's
        whole-batch degradation path (every member gets a degraded,
        span-less answer — never a hang or a traceback).
        """
        i = self.batch_calls
        self.batch_calls += 1
        if i in self.batch_raise_at:
            raise InjectedFault(f"injected batch failure at batch {i}")

    # ------------------------------------------------------------------
    # Executor worker hooks
    # ------------------------------------------------------------------
    def _roll(self, index: int, channel: int) -> float:
        """Deterministic uniform draw for ``(seed, index, channel)``."""
        rng = np.random.default_rng(
            (self.worker_seed, 104729, int(index), int(channel))
        )
        return float(rng.random())

    def planned_worker_fault(self, index: int) -> str | None:
        """The fault this injector will deal to ``index`` on a fault
        attempt: ``"crash"`` | ``"hang"`` | ``"raise"`` | ``"corrupt"``
        | ``None``.  Pure — usable from tests and chaos invariants to
        predict exactly which indices must show retries."""
        if index in self.worker_crash_at or (
                self.worker_crash_p > 0.0
                and self._roll(index, 1) < self.worker_crash_p):
            return "crash"
        if index in self.worker_hang_at or (
                self.worker_hang_p > 0.0
                and self._roll(index, 2) < self.worker_hang_p):
            return "hang"
        if index in self.worker_raise_at:
            return "raise"
        if index in self.worker_corrupt_at:
            return "corrupt"
        return None

    def worker_fault(self, index: int, attempt: int) -> None:
        """Kill, hang or fail an executor worker; consulted inside it.

        Wired into the supervised executor's worker entry point
        (:func:`repro.perf.executor._serve`) before the work
        function runs.  A *crash* is ``os._exit`` — the hard worker
        death no ``except`` can absorb; a *hang* sleeps far past any
        sane task deadline; a *raise* is an ordinary
        :class:`InjectedFault` delivered through the result channel.
        """
        if attempt not in self.worker_fault_attempts:
            return
        fault = self.planned_worker_fault(index)
        if fault == "crash":
            os._exit(23)
        if fault == "hang":
            import time

            time.sleep(self.worker_hang_s)
        elif fault == "raise":
            raise InjectedFault(
                f"injected worker failure at index {index} "
                f"(attempt {attempt})"
            )

    def corrupt_result(self, index: int, attempt: int, value):
        """Return a corrupted stand-in for ``value`` on scheduled faults.

        The executor's ``validate_fn`` must reject the NaN and charge
        the attempt, so the retry (fault-free) restores the true value.
        """
        if (attempt in self.worker_fault_attempts
                and self.planned_worker_fault(index) == "corrupt"):
            return float("nan")
        return value

    @staticmethod
    def malformed_token_sequences() -> list[list]:
        """Hostile request payloads for sanitizer/service fuzzing.

        Control characters, zero-width and bidi format characters, lone
        surrogates, astral-plane text, a 10k-character token, wrong
        shapes — the service must answer each with a structured result,
        never a traceback.
        """
        return [
            [],                                   # empty request
            [""],                                 # empty token
            ["\x00"],                             # NUL-only token
            ["a\x00b", "ok"],                     # embedded control char
            ["\u200b\u200d"],                   # zero-width-only token
            ["\u202eevil", "text"],              # bidi override
            ["caf\u00e9", "cafe\u0301"],        # NFC vs NFD forms
            ["\U0001f600\U0001f3d4", "ok"],       # astral-plane emoji
            ["\ud800broken"],                     # lone surrogate
            ["x" * 10_000],                       # 10k-char token
            ["tok\ten", "new\nline"],             # embedded whitespace
            "a bare string, not a token list",    # wrong shape
            [b"bytes", "str"],                    # wrong element type
            [None, "str"],                        # wrong element type
            [["nested"], "str"],                  # wrong element type
        ]

    # ------------------------------------------------------------------
    # Filesystem faults
    # ------------------------------------------------------------------
    @staticmethod
    def truncate_file(path: str, keep_bytes: int = 64) -> None:
        """Truncate ``path`` in place, as a torn write would leave it."""
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(min(keep_bytes, max(size - 1, 0)))

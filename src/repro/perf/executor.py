"""Self-healing process-based episode-parallel execution.

:class:`EpisodeExecutor` fans independent work items (adaptation
episodes, benchmark repetitions, table cells) across a supervised pool
of forked worker processes.  Design constraints, in order:

* **Determinism** — results are returned in submission order, and the
  caller's work function receives the item *index* so it can derive a
  per-item seed; the executor itself introduces no randomness.  A
  retried item re-runs ``work_fn(item, index)`` with the same arguments,
  so as long as the work function derives its randomness from the index
  (the ``(seed, 7919, index)`` discipline of
  :func:`repro.meta.evaluate.evaluate_method`), a retry is bit-identical
  to the first attempt.
* **Fork safety** — the payload (work function + items) is published in
  a lock-guarded module-level slot *before* the pool forks, so workers
  inherit it by copy-on-write and nothing but integer indices and
  results crosses the pipe.  Closures, adapters and models therefore
  never need to be picklable.
* **Supervision** — tasks are submitted with ``apply_async`` and
  supervised with bounded waits instead of a blocking ``pool.map``; a
  completion callback ends the wait at once.  Workers
  announce each task on a control queue, so the supervisor knows which
  index every worker pid is running; a crashed worker (abnormal
  exitcode among the pool's processes) or a hung worker (task past its
  ``task_timeout_s`` deadline) costs only that task a retry, never the
  whole run.  A hang additionally rebuilds the pool (the hung worker
  would otherwise keep its slot forever); in-flight innocents are
  requeued without being charged an attempt.
* **Quarantine** — an index that fails ``max_attempts`` parallel
  attempts is poison-quarantined: after the parallel phase it is run
  once serially under guard in the supervisor process.  If it *still*
  fails it becomes an ``"error"`` task record (the executor analogue of
  a :mod:`repro.reliability.journal` ``ERR`` cell) instead of aborting
  the run.
* **Deadline** — with a monotonic ``deadline``, an index at or past
  ``min_episodes`` whose *first* attempt would start after it is
  skipped (retries of started indices still run), and the report
  covers exactly the completed prefix of the items.
* **Graceful degradation** — when fork is unavailable (platform or
  nesting) or ``workers <= 1``, the same work runs serially in the same
  order.  If supervision itself fails mid-flight, the failure reason is
  recorded on the report, a :class:`UserWarning` is emitted, and *only
  the indices without results* are re-run serially.

Every run produces an :class:`ExecutionReport` — per-index attempts,
failure reasons, wall-times, quarantines and pool restarts — so callers
can account for exactly what self-healing had to do.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: Fork-inherited payload: ``(work_fn, items, injector, ctrl_queue)``.
#: Set only while a pool exists, and only under :data:`_PAYLOAD_LOCK` —
#: two executors mapping concurrently from different threads serialise
#: their parallel phases instead of clobbering each other's payload.
_PAYLOAD = None
_PAYLOAD_LOCK = threading.Lock()

#: Outcomes a :class:`TaskRecord` can end in.
OK = "ok"                #: succeeded on the first attempt
RECOVERED = "recovered"  #: succeeded after at least one retry
ERROR = "error"          #: never succeeded (an ``ERR``-style cell)
PENDING = "pending"      #: not finished yet (only seen mid-run)
SKIPPED = "skipped"      #: not started by the deadline (only seen mid-run)


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _run_index(index: int, attempt: int, skip_after: float | None):
    """Worker entry point: run one item of the fork-inherited payload.

    Returns ``None`` without running when ``skip_after`` (the deadline,
    passed only for a first attempt that may be skipped) has passed.
    Announces ``start``/``done`` on the control queue so the supervisor
    can attribute a crash or hang to the exact index, and measures the
    attempt's wall time worker-side (exact, unaffected by polling).
    """
    if _past(skip_after):
        return None
    work_fn, items, injector, ctrl = _PAYLOAD
    pid = os.getpid()
    if ctrl is not None:
        ctrl.put(("start", pid, index, attempt))
    if injector is not None:
        injector.worker_fault(index, attempt)  # may crash, hang or raise
    t0 = time.perf_counter()
    value = work_fn(items[index], index)
    took = time.perf_counter() - t0
    if injector is not None:
        value = injector.corrupt_result(index, attempt, value)
    if ctrl is not None:
        ctrl.put(("done", pid, index, attempt))
    return index, attempt, value, took


@dataclass
class TaskRecord:
    """The execution history of one index."""

    index: int
    #: Total attempts, parallel and serial (1 = clean first-try success).
    attempts: int = 0
    outcome: str = PENDING
    #: True once the index exhausted its parallel attempts and was
    #: poison-quarantined to a guarded serial run in the supervisor.
    quarantined: bool = False
    #: True when the final (successful or failed) run happened serially
    #: in the supervisor process rather than in a pool worker.
    serial_fallback: bool = False
    #: Wall time of the successful attempt (seconds); 0.0 if none.
    wall_time_s: float = 0.0
    #: One reason per failed attempt, oldest first.
    errors: tuple[str, ...] = ()


@dataclass
class ExecutionReport:
    """What a :meth:`EpisodeExecutor.run` actually did, per index.

    ``tasks`` and ``results`` cover the completed prefix of the input
    items (all of them unless a deadline skipped the rest), ordered like
    the items; indices whose record ended in :data:`ERROR` hold ``None``
    in ``results``.
    """

    mode: str  #: ``"serial"`` | ``"parallel"`` | ``"parallel-degraded"``
    workers: int
    tasks: list[TaskRecord] = field(default_factory=list)
    results: list = field(default_factory=list, repr=False)
    #: Why the run degraded to serial mid-flight (``None`` if it didn't).
    fallback_reason: str | None = None
    #: Times the pool was torn down and rebuilt (hangs, stalls).
    pool_restarts: int = 0
    #: In-flight attempts refunded to innocents during pool rebuilds.
    refunds: int = 0
    wall_time_s: float = 0.0

    # ------------------------------------------------------------------
    @property
    def retried_indices(self) -> tuple[int, ...]:
        return tuple(t.index for t in self.tasks if t.attempts > 1)

    @property
    def quarantined_indices(self) -> tuple[int, ...]:
        return tuple(t.index for t in self.tasks if t.quarantined)

    @property
    def failed_indices(self) -> tuple[int, ...]:
        return tuple(t.index for t in self.tasks if t.outcome == ERROR)

    @property
    def total_attempts(self) -> int:
        return sum(t.attempts for t in self.tasks)

    @property
    def clean(self) -> bool:
        """True when nothing needed healing: no retries, no fallback."""
        return (not self.retried_indices and not self.failed_indices
                and self.fallback_reason is None and self.pool_restarts == 0)

    def summary(self) -> dict:
        """JSON-serialisable digest for journals, CLIs and logs."""
        return {
            "mode": self.mode,
            "workers": self.workers,
            "tasks": len(self.tasks),
            "attempts": self.total_attempts,
            "retried": list(self.retried_indices),
            "quarantined": list(self.quarantined_indices),
            "errors": list(self.failed_indices),
            "pool_restarts": self.pool_restarts,
            "refunds": self.refunds,
            "fallback_reason": self.fallback_reason,
        }

    def render(self) -> str:
        s = self.summary()
        line = (f"execution: mode={s['mode']} workers={s['workers']} "
                f"tasks={s['tasks']} attempts={s['attempts']} "
                f"retried={len(s['retried'])} "
                f"quarantined={len(s['quarantined'])} "
                f"errors={len(s['errors'])} "
                f"pool_restarts={s['pool_restarts']} "
                f"refunds={s['refunds']}")
        if self.fallback_reason:
            line += f" fallback={self.fallback_reason!r}"
        return line


class EpisodeExecutor:
    """Map a work function over items under a supervised worker pool.

    ``task_timeout_s`` is the per-task deadline (``None`` = no hang
    detection); ``max_attempts`` bounds parallel attempts per index
    before quarantine; ``validate_fn(value, index)`` may return an error
    string to reject a corrupt result (a rejected result counts as a
    failed attempt); ``fault_injector`` is the test-only chaos hook
    consulted inside each worker (see
    :meth:`repro.reliability.faults.FaultInjector.worker_fault`).  A
    failed attempt is retried immediately.
    """

    def __init__(self, workers: int = 0, start_method: str = "fork",
                 task_timeout_s: float | None = None,
                 max_attempts: int = 3,
                 poll_interval_s: float = 0.02,
                 stall_timeout_s: float = 30.0,
                 fault_injector=None,
                 validate_fn: Callable[[object, int], str | None] | None = None):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be positive, got {task_timeout_s}"
            )
        self.workers = int(workers)
        self.start_method = start_method
        self.task_timeout_s = task_timeout_s
        self.max_attempts = int(max_attempts)
        self.poll_interval_s = poll_interval_s
        self.stall_timeout_s = stall_timeout_s
        self.fault_injector = fault_injector
        self.validate_fn = validate_fn

    # ------------------------------------------------------------------
    @property
    def parallel_available(self) -> bool:
        """True when a fork pool can actually be used here and now."""
        if self.workers <= 1 or not hasattr(os, "fork"):
            return False
        if self.start_method not in multiprocessing.get_all_start_methods():
            return False
        # Daemonic processes (we might *be* a worker) cannot fork a pool.
        return not multiprocessing.current_process().daemon

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, work_fn: Callable, items: Sequence,
            deadline: float | None = None,
            min_episodes: int = 1) -> ExecutionReport:
        """Run ``work_fn(item, index)`` for every item in one pool.

        ``deadline`` is a :func:`time.monotonic` instant.  An index at or
        past ``min_episodes`` whose first attempt would start after it is
        skipped; retries of indices that already started still run.  The
        report then covers exactly the completed prefix ``[0, k)``, where
        ``k`` is the first skipped index.

        Never raises for work-function failures — they end as
        :data:`ERROR` records with ``results[index] is None``.  Only a
        ``BaseException`` (e.g. a
        :class:`~repro.reliability.faults.SimulatedCrash`) escapes, by
        design.
        """
        items = list(items)
        n = len(items)
        t_run = time.perf_counter()
        records = [TaskRecord(index=i) for i in range(n)]
        results: list = [None] * n
        mode = "serial"
        fallback_reason = None
        pool_restarts = refunds = 0
        if n and self.parallel_available:
            mode = "parallel"
            try:
                pool_restarts, refunds = self._supervise(
                    work_fn, items, records, results, deadline, min_episodes
                )
            except Exception as exc:
                fallback_reason = f"{type(exc).__name__}: {exc}"
                mode = "parallel-degraded"
                warnings.warn(
                    f"parallel execution degraded to serial "
                    f"({fallback_reason}); re-running only the "
                    f"{sum(1 for r in records if r.outcome == PENDING)} "
                    f"unfinished item(s)",
                    stacklevel=2,
                )
        # Serial mode runs everything here; after a parallel phase,
        # quarantined poison items and anything stranded by a supervision
        # failure get exactly one guarded serial attempt each.
        self._run_serial(
            work_fn, items, records, results,
            [i for i in range(self._prefix(records))
             if records[i].outcome == PENDING],
            deadline, min_episodes, serial_fallback=mode != "serial",
        )
        k = self._prefix(records)
        return ExecutionReport(
            mode=mode, workers=self.workers, tasks=records[:k],
            results=results[:k], fallback_reason=fallback_reason,
            pool_restarts=pool_restarts, refunds=refunds,
            wall_time_s=time.perf_counter() - t_run,
        )

    @staticmethod
    def _prefix(records) -> int:
        """Length of the prefix before the first skipped index."""
        return next((r.index for r in records if r.outcome == SKIPPED),
                    len(records))

    # ------------------------------------------------------------------
    # Serial execution (workers <= 1, quarantine, degraded fallback)
    # ------------------------------------------------------------------
    def _run_serial(self, work_fn, items, records, results, indices,
                    deadline, min_episodes,
                    serial_fallback: bool = False) -> None:
        for i in indices:
            record = records[i]
            if record.attempts == 0 and i >= min_episodes \
                    and _past(deadline):
                record.outcome = SKIPPED
                return
            record.attempts += 1
            record.serial_fallback = serial_fallback
            t0 = time.perf_counter()
            try:
                value = work_fn(items[i], i)
            except Exception as exc:
                record.errors += (f"{type(exc).__name__}: {exc}",)
                record.outcome = ERROR
                continue
            took = time.perf_counter() - t0
            problem = (self.validate_fn(value, i)
                       if self.validate_fn is not None else None)
            if problem is not None:
                record.errors += (f"invalid result: {problem}",)
                record.outcome = ERROR
                continue
            results[i] = value
            record.wall_time_s = took
            record.outcome = OK if record.attempts == 1 else RECOVERED

    # ------------------------------------------------------------------
    # Supervised parallel execution
    # ------------------------------------------------------------------
    def _record_failure(self, record: TaskRecord, reason: str,
                        todo) -> None:
        """Charge a failed attempt: retry now, or quarantine the index
        (it stays :data:`PENDING` for its guarded serial run)."""
        record.errors += (reason,)
        if record.attempts >= self.max_attempts:
            record.quarantined = True
        else:
            todo.append(record.index)

    def _supervise(self, work_fn, items, records, results,
                   deadline, min_episodes) -> tuple[int, int]:
        """Run the pool until every index before the first skipped one
        succeeded or was quarantined.

        Returns ``(pool_rebuilds, refunded_attempts)``.  Raises on
        unrecoverable supervision failures (the caller then degrades to
        serial).
        """
        global _PAYLOAD
        context = multiprocessing.get_context(self.start_method)
        n = len(items)
        restarts = 0
        refunds = 0
        stall_rebuilds = 0
        cutoff = n                            # first skipped index
        todo = collections.deque(range(n))
        inflight: dict[int, object] = {}      # index -> AsyncResult
        started: dict[int, float] = {}        # index -> start seen at
        current: dict[int, tuple] = {}        # pid -> (index, attempt)
        seen: dict[int, object] = {}          # pid -> Process
        begun: set[int] = set()               # first attempt has started
        # Completions, as ``[index, AsyncResult]`` cells, pushed by the
        # pool's result thread; ``wake`` cuts the supervisor's wait short.
        finished: collections.deque = collections.deque()
        wake = threading.Event()
        pool = None
        ctrl = None

        def build_pool():
            # A fresh control queue per pool: a worker killed while
            # holding the old queue's write lock must not poison the
            # replacement pool.
            nonlocal pool, ctrl
            global _PAYLOAD
            ctrl = context.SimpleQueue()
            _PAYLOAD = (work_fn, items, self.fault_injector, ctrl)
            pool = context.Pool(processes=min(self.workers, n))
            for proc in getattr(pool, "_pool", []):
                seen[proc.pid] = proc

        def rebuild_pool(refund_inflight: bool):
            # Requeue in-flight innocents; with ``refund_inflight`` they
            # are not charged an attempt (the pool died, not them).
            nonlocal restarts, refunds
            for j in list(inflight):
                inflight.pop(j)
                if refund_inflight:
                    records[j].attempts -= 1
                    refunds += 1
                todo.appendleft(j)
            started.clear()
            current.clear()
            pool.terminate()
            pool.join()
            restarts += 1
            build_pool()

        with _PAYLOAD_LOCK:
            try:
                build_pool()
                last_progress = time.perf_counter()
                while todo or inflight:
                    while todo:
                        i = todo.popleft()
                        if i >= cutoff:
                            continue
                        attempt = records[i].attempts
                        records[i].attempts += 1
                        skip_after = (
                            deadline if i >= min_episodes
                            and i not in begun else None
                        )
                        cell = [i]

                        def on_result(_value, cell=cell):
                            finished.append(cell)
                            wake.set()

                        cell.append(pool.apply_async(
                            _run_index, (i, attempt, skip_after),
                            callback=on_result, error_callback=on_result,
                        ))
                        inflight[i] = cell[1]
                    # Control messages: who is running what, where.
                    try:
                        while not ctrl.empty():
                            kind, pid, i, attempt = ctrl.get()
                            if kind == "start":
                                current[pid] = (i, attempt)
                                started[i] = time.perf_counter()
                                begun.add(i)
                            elif current.get(pid, (None,))[0] == i:
                                current.pop(pid, None)
                    except (OSError, EOFError):  # pragma: no cover
                        pass
                    # Completions (success, skip, exception, corrupt
                    # result).  The callback runs before ``ready()`` turns
                    # true, so take what it reported and let ``get()``
                    # wait out the rest; a cell whose handle is no longer
                    # in flight belongs to an attempt already written off.
                    progressed = False
                    while finished:
                        i, handle = finished.popleft()
                        if inflight.get(i) is not handle:
                            continue
                        inflight.pop(i)
                        started.pop(i, None)
                        for pid, (j, _a) in list(current.items()):
                            if j == i:
                                current.pop(pid)
                        progressed = True
                        try:
                            outcome = handle.get()
                        except Exception as exc:
                            begun.add(i)
                            self._record_failure(
                                records[i],
                                f"{type(exc).__name__}: {exc}", todo,
                            )
                            continue
                        if outcome is None:
                            records[i].outcome = SKIPPED
                            cutoff = min(cutoff, i)
                            continue
                        begun.add(i)
                        _i, _a, value, took = outcome
                        problem = (self.validate_fn(value, i)
                                   if self.validate_fn is not None else None)
                        if problem is not None:
                            self._record_failure(
                                records[i], f"invalid result: {problem}",
                                todo,
                            )
                            continue
                        results[i] = value
                        records[i].wall_time_s = took
                        records[i].outcome = (
                            OK if records[i].attempts == 1 else RECOVERED
                        )
                    # Work past the first skipped index is never reported:
                    # stop watching it (the pool teardown ends it).
                    for j in [j for j in inflight if j >= cutoff]:
                        inflight.pop(j)
                        started.pop(j, None)
                    if progressed:
                        last_progress = time.perf_counter()
                    if not todo and not inflight:
                        break
                    # Crashed workers: a pid we attributed a task to has
                    # exited (sentinel/exitcode) without delivering it.
                    for proc in getattr(pool, "_pool", []):
                        seen.setdefault(proc.pid, proc)
                    live = {p.pid for p in getattr(pool, "_pool", [])}
                    for pid, (i, _attempt) in list(current.items()):
                        proc = seen.get(pid)
                        dead = (
                            (proc is not None and proc.exitcode is not None)
                            or (proc is None and pid not in live)
                        )
                        if dead and i in inflight:
                            inflight.pop(i)
                            started.pop(i, None)
                            current.pop(pid, None)
                            code = getattr(proc, "exitcode", "?")
                            self._record_failure(
                                records[i],
                                f"worker pid {pid} crashed "
                                f"(exit {code}) while running index {i}",
                                todo,
                            )
                            last_progress = time.perf_counter()
                    # Hung workers: past the per-task deadline.  The hung
                    # worker keeps its pool slot, so rebuild the pool.
                    now = time.perf_counter()
                    if self.task_timeout_s is not None:
                        hung = [i for i, t0 in started.items()
                                if i in inflight
                                and now - t0 > self.task_timeout_s]
                        if hung:
                            for i in hung:
                                inflight.pop(i)
                                started.pop(i, None)
                                self._record_failure(
                                    records[i],
                                    f"task exceeded its "
                                    f"{self.task_timeout_s:g}s deadline",
                                    todo,
                                )
                            rebuild_pool(refund_inflight=True)
                            last_progress = time.perf_counter()
                            continue
                    # Stall safety net: no completion for a long time and
                    # no attributable culprit (e.g. a worker died between
                    # task pickup and its start announcement).
                    if now - last_progress > self.stall_timeout_s:
                        stall_rebuilds += 1
                        if stall_rebuilds > 3:
                            raise RuntimeError(
                                f"worker pool made no progress through "
                                f"{stall_rebuilds} restarts"
                            )
                        rebuild_pool(refund_inflight=True)
                        last_progress = time.perf_counter()
                        continue
                    wake.wait(self.poll_interval_s)
                    wake.clear()
                return restarts, refunds
            finally:
                _PAYLOAD = None
                if pool is not None:
                    pool.terminate()
                    pool.join()

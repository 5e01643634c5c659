"""Self-healing process-based episode-parallel execution.

:class:`EpisodeExecutor` fans independent work items (adaptation
episodes, benchmark repetitions, table cells) across supervised forked
worker processes.  Design constraints, in order:

* **Determinism** — results are returned in submission order, and the
  caller's work function receives the item *index* so it can derive a
  per-item seed; the executor itself introduces no randomness.  A
  retried item re-runs ``work_fn(item, index)`` with the same arguments,
  so as long as the work function derives its randomness from the index
  (the ``(seed, 7919, index)`` discipline of
  :func:`repro.meta.evaluate.evaluate_method`), a retry is bit-identical
  to the first attempt.
* **Fork safety** — each worker is a forked
  :class:`multiprocessing.Process` that inherits the work function and
  the items by copy-on-write, so nothing but ``(index, attempt,
  skip_after)`` tasks and their replies crosses its pipe.  Closures,
  adapters and models therefore never need to be picklable.
* **Supervision** — the supervisor sends a task to an idle worker and
  blocks on the busy pipes and the process sentinels until the earliest
  task deadline.  It knows which index each worker runs, so a crash
  costs exactly that index one attempt, and a hung worker (task past
  ``task_timeout_s``) is killed and replaced alone; the others keep
  running.  No worker outlives :meth:`EpisodeExecutor.run`.
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
  nesting) or ``workers == 1``, the same work runs serially in the same
  order.  If supervision itself fails mid-flight, the failure reason is
  recorded on the report, a :class:`UserWarning` is emitted, and *only
  the indices without results* are re-run serially.

Every run produces an :class:`ExecutionReport` — per-index attempts,
failure reasons, wall-times, quarantines and replaced workers — so
callers can account for exactly what self-healing had to do.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Sequence

#: Outcomes a :class:`TaskRecord` can end in.
OK = "ok"                #: succeeded on the first attempt
RECOVERED = "recovered"  #: succeeded after at least one retry
ERROR = "error"          #: never succeeded (an ``ERR``-style cell)
PENDING = "pending"      #: not finished yet (only seen mid-run)
SKIPPED = "skipped"      #: not started by the deadline (only seen mid-run)


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _serve(conn, inherited, work_fn, items, injector) -> None:
    """Worker loop: run the tasks the supervisor sends until told to stop.

    Each task is ``(index, attempt, skip_after)``; ``None`` stops the
    worker.  Replies are ``("skip",)`` when ``skip_after`` (the deadline,
    passed only for a first attempt that may be skipped) has passed,
    ``("fail", reason)`` when the attempt raised, and ``("ok", value,
    took)`` with the attempt's worker-side wall time otherwise.
    """
    # Drop the inherited parent ends, so that if the supervisor dies
    # every worker's pipe reaches end-of-file and the workers exit.
    for parent_end in inherited:
        parent_end.close()
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        index, attempt, skip_after = task
        if _past(skip_after):
            conn.send(("skip",))
            continue
        try:
            if injector is not None:
                injector.worker_fault(index, attempt)  # may crash or hang
            t0 = time.perf_counter()
            value = work_fn(items[index], index)
            took = time.perf_counter() - t0
            if injector is not None:
                value = injector.corrupt_result(index, attempt, value)
            reply = ("ok", value, took)
        except Exception as exc:
            reply = ("fail", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except Exception as exc:  # e.g. an unpicklable result
            conn.send(("fail", f"{type(exc).__name__}: {exc}"))


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
    #: in the supervisor process rather than in a worker.
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
    #: Hung workers killed; a fresh fork takes over any remaining work.
    pool_restarts: int = 0
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
            "fallback_reason": self.fallback_reason,
        }

    def render(self) -> str:
        s = self.summary()
        line = (f"execution: mode={s['mode']} workers={s['workers']} "
                f"tasks={s['tasks']} attempts={s['attempts']} "
                f"retried={len(s['retried'])} "
                f"quarantined={len(s['quarantined'])} "
                f"errors={len(s['errors'])} "
                f"pool_restarts={s['pool_restarts']}")
        if self.fallback_reason:
            line += f" fallback={self.fallback_reason!r}"
        return line


class EpisodeExecutor:
    """Map a work function over items under supervised forked workers.

    ``task_timeout_s`` is the per-task deadline (``None`` = no hang
    detection); ``max_attempts`` bounds parallel attempts per index
    before quarantine; ``validate_fn(value, index)`` may return an error
    string to reject a corrupt result (a rejected result counts as a
    failed attempt); ``fault_injector`` is the test-only chaos hook
    consulted inside each worker (see
    :meth:`repro.reliability.faults.FaultInjector.worker_fault`).  A
    failed attempt is retried immediately.
    """

    def __init__(self, workers: int = 1, start_method: str = "fork",
                 task_timeout_s: float | None = None,
                 max_attempts: int = 3,
                 fault_injector=None,
                 validate_fn: Callable[[object, int], str | None] | None = None):
        if workers < 1:
            raise ValueError(
                f"workers must be >= 1 (1 runs serially in this process; "
                f"the workers=0 shared-RNG episode stream was retired), "
                f"got {workers}"
            )
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
        self.fault_injector = fault_injector
        self.validate_fn = validate_fn

    # ------------------------------------------------------------------
    @property
    def parallel_available(self) -> bool:
        """True when forked workers can actually be used here and now."""
        if self.workers <= 1 or not hasattr(os, "fork"):
            return False
        if self.start_method not in multiprocessing.get_all_start_methods():
            return False
        # Daemonic processes (we might *be* a worker) cannot fork workers.
        return not multiprocessing.current_process().daemon

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, work_fn: Callable, items: Sequence,
            deadline: float | None = None,
            min_episodes: int = 1) -> ExecutionReport:
        """Run ``work_fn(item, index)`` for every item.

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
        pool_restarts = 0
        if n and self.parallel_available:
            mode = "parallel"
            try:
                pool_restarts = self._supervise(
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
            pool_restarts=pool_restarts,
            wall_time_s=time.perf_counter() - t_run,
        )

    @staticmethod
    def _prefix(records) -> int:
        """Length of the prefix before the first skipped index."""
        return next((r.index for r in records if r.outcome == SKIPPED),
                    len(records))

    # ------------------------------------------------------------------
    # Serial execution (workers == 1, quarantine, degraded fallback)
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
                   deadline, min_episodes) -> int:
        """Run the workers until every index before the first skipped
        one succeeded or was quarantined.

        Returns the number of hung workers replaced.  Raises on
        unrecoverable supervision failures (the caller then degrades to
        serial).
        """
        context = multiprocessing.get_context(self.start_method)
        size = min(self.workers, len(items))
        timeout_s = self.task_timeout_s
        restarts = 0
        cutoff = len(items)                   # first skipped index
        todo = collections.deque(range(len(items)))
        begun: set[int] = set()               # first attempt has started
        live: dict = {}                       # parent end -> Process
        idle: list = []                       # parent ends with no task
        busy: dict = {}                       # parent end -> (index, sent at)

        def fork():
            conn, child = context.Pipe()
            proc = context.Process(
                target=_serve, daemon=True,
                args=(child, (*live, conn), work_fn, items,
                      self.fault_injector),
            )
            proc.start()
            child.close()
            live[conn] = proc
            idle.append(conn)

        def retire(conn):
            # Kill a worker whose task is written off; it is joined here,
            # so nothing it started outlives the run.
            proc = live.pop(conn)
            proc.kill()
            proc.join()
            conn.close()

        try:
            while True:
                while todo:
                    i = todo.popleft()
                    if i >= cutoff:
                        continue
                    if not idle:
                        if len(live) >= size:
                            todo.appendleft(i)
                            break
                        fork()
                    conn = idle.pop()
                    attempt = records[i].attempts
                    records[i].attempts += 1
                    skip_after = (deadline if i >= min_episodes
                                  and i not in begun else None)
                    conn.send((i, attempt, skip_after))
                    busy[conn] = (i, time.monotonic())
                if not busy:
                    return restarts
                timeout = None
                if timeout_s is not None:
                    first = min(sent for _i, sent in busy.values())
                    timeout = max(0.0, first + timeout_s - time.monotonic())
                sentinels = {live[conn].sentinel: conn for conn in busy}
                for ready in wait([*busy, *sentinels], timeout):
                    conn = sentinels.get(ready, ready)
                    if conn not in busy:     # pipe and sentinel both fired
                        continue
                    i, _sent = busy.pop(conn)
                    try:
                        # A sentinel can fire while another process still
                        # holds the child end, so poll before reading.
                        reply = conn.recv() if conn.poll() else None
                    except (EOFError, OSError):
                        reply = None
                    if reply is None:
                        proc = live[conn]
                        retire(conn)
                        begun.add(i)
                        self._record_failure(
                            records[i],
                            f"worker pid {proc.pid} crashed "
                            f"(exit {proc.exitcode}) while running index {i}",
                            todo,
                        )
                        continue
                    idle.append(conn)
                    if reply[0] == "skip":
                        records[i].outcome = SKIPPED
                        cutoff = min(cutoff, i)
                        continue
                    begun.add(i)
                    if reply[0] == "fail":
                        self._record_failure(records[i], reply[1], todo)
                        continue
                    _ok, value, took = reply
                    problem = (self.validate_fn(value, i)
                               if self.validate_fn is not None else None)
                    if problem is not None:
                        self._record_failure(
                            records[i], f"invalid result: {problem}", todo,
                        )
                        continue
                    results[i] = value
                    records[i].wall_time_s = took
                    records[i].outcome = (
                        OK if records[i].attempts == 1 else RECOVERED
                    )
                now = time.monotonic()
                for conn, (i, sent) in list(busy.items()):
                    if i >= cutoff:
                        # Work past the first skipped index is never
                        # reported: stop it.
                        busy.pop(conn)
                        retire(conn)
                    elif timeout_s is not None and now - sent >= timeout_s:
                        # A hung worker is killed and replaced; the
                        # others keep running their tasks.
                        busy.pop(conn)
                        retire(conn)
                        restarts += 1
                        begun.add(i)
                        self._record_failure(
                            records[i],
                            f"task exceeded its {timeout_s:g}s deadline",
                            todo,
                        )
        finally:
            # Idle workers get a stop message (a closed pipe is no signal:
            # later forks hold copies of earlier parent ends); any other
            # is killed.
            for conn, proc in live.items():
                if conn not in idle:
                    proc.kill()
                    continue
                try:
                    conn.send(None)
                except OSError:  # the worker is already gone
                    pass
            for conn, proc in live.items():
                proc.join()
                conn.close()

"""Guarded optimization: anomaly detection around every optimizer step.

Second-order meta-gradients through a CRF are numerically fragile — a
single divergent inner loop can write NaN into θ and silently poison
every score computed afterwards.  :class:`GuardedStep` sits between the
backward pass and ``optimizer.step()``: it inspects the loss and the
global gradient norm, applies the configured clip on healthy steps, and
on anomalies *skips* the update and escalates:

1. **skip** — drop the gradients, keep the parameters (always);
2. **rollback** — after ``rollback_after`` consecutive anomalies,
   restore the last known-good parameter snapshot;
3. **LR backoff** — after ``backoff_after``, multiply the optimizer LR
   by ``backoff_factor``;
4. **reseed** — after ``reseed_after``, invoke the caller's reseed hook
   (typically re-seeding the episode sampler away from a pathological
   task sequence);
5. **abort** — after ``abort_after``, raise :class:`TrainingDiverged`
   carrying the full :class:`AnomalyReport`.

Every event is recorded in the report so a run that needed recovery is
distinguishable from one that never misbehaved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.optim import Optimizer, clip_grad_norm


@dataclass(frozen=True)
class AnomalyPolicy:
    """Thresholds and escalation schedule for :class:`GuardedStep`.

    The escalation counters are compared against the number of
    *consecutive* anomalous steps; one healthy step resets the count.
    """

    #: Gradient clip applied on healthy steps (the paper uses 5.0).
    grad_clip: float = 5.0
    #: A pre-clip gradient norm above this is treated as an explosion.
    explode_norm: float = 1e4
    #: An absolute loss above this is anomalous even if finite.
    max_loss: float = 1e6
    rollback_after: int = 2
    backoff_after: int = 3
    backoff_factor: float = 0.5
    reseed_after: int = 4
    abort_after: int = 6
    #: Snapshot parameters for rollback every N healthy steps.
    snapshot_every: int = 1

    def __post_init__(self):
        if self.abort_after < 1:
            raise ValueError("abort_after must be >= 1")
        if not 0 < self.backoff_factor < 1:
            raise ValueError("backoff_factor must be in (0, 1)")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


@dataclass(frozen=True)
class AnomalyEvent:
    """One anomalous optimizer step and the recovery actions taken."""

    iteration: int
    reason: str
    loss: float
    grad_norm: float
    actions: tuple[str, ...]


@dataclass
class AnomalyReport:
    """Accumulated anomaly events for one training run."""

    events: list[AnomalyEvent] = field(default_factory=list)
    steps_taken: int = 0
    steps_skipped: int = 0

    def record(self, event: AnomalyEvent) -> None:
        self.events.append(event)

    @property
    def clean(self) -> bool:
        return not self.events

    def action_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            for action in event.actions:
                counts[action] = counts.get(action, 0) + 1
        return counts

    def summary(self) -> dict:
        """JSON-serialisable digest for logs and journals."""
        return {
            "steps_taken": self.steps_taken,
            "steps_skipped": self.steps_skipped,
            "anomalies": len(self.events),
            "actions": self.action_counts(),
            "reasons": sorted({e.reason for e in self.events}),
        }

    def render(self) -> str:
        if self.clean:
            return (f"anomaly report: clean "
                    f"({self.steps_taken} steps applied)")
        lines = [
            f"anomaly report: {len(self.events)} anomalous steps "
            f"({self.steps_taken} applied, {self.steps_skipped} skipped)"
        ]
        for e in self.events:
            acts = ",".join(e.actions)
            lines.append(
                f"  it={e.iteration} {e.reason} loss={e.loss:.3g} "
                f"|g|={e.grad_norm:.3g} -> {acts}"
            )
        return "\n".join(lines)


class TrainingDiverged(RuntimeError):
    """Training aborted after repeated unrecoverable anomalies."""

    def __init__(self, message: str, report: AnomalyReport):
        super().__init__(f"{message}\n{report.render()}")
        self.report = report


class GuardedStep:
    """Wrap an optimizer so anomalous updates never reach the parameters.

    Call :meth:`step` once per outer iteration *instead of*
    ``clip_grad_norm(...)`` + ``optimizer.step()``.  Returns ``True`` if
    the update was applied, ``False`` if it was skipped.
    """

    def __init__(self, optimizer: Optimizer, policy: AnomalyPolicy | None = None,
                 report: AnomalyReport | None = None, on_reseed=None,
                 injector=None):
        self.optimizer = optimizer
        self.params = optimizer.params
        self.policy = policy or AnomalyPolicy()
        self.report = report if report is not None else AnomalyReport()
        self.on_reseed = on_reseed
        self.injector = injector
        self.iteration = 0
        self._consecutive = 0
        self._snapshot: list[np.ndarray] | None = None
        self._since_snapshot = 0

    # ------------------------------------------------------------------
    def _grad_norm(self) -> float:
        total = 0.0
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad.data
            if not np.all(np.isfinite(g)):
                return float("nan")
            total += float((g * g).sum())
        return float(np.sqrt(total))

    def _diagnose(self, loss: float, norm: float) -> str | None:
        if not np.isfinite(loss):
            return "non-finite loss"
        if abs(loss) > self.policy.max_loss:
            return f"loss above {self.policy.max_loss:g}"
        if not np.isfinite(norm):
            return "non-finite gradient"
        if norm > self.policy.explode_norm:
            return f"gradient norm above {self.policy.explode_norm:g}"
        return None

    def _take_snapshot(self) -> None:
        self._snapshot = [p.data.copy() for p in self.params]
        self._since_snapshot = 0

    def _rollback(self) -> bool:
        if self._snapshot is None:
            return False
        for p, saved in zip(self.params, self._snapshot):
            p.data = saved.copy()
        return True

    # ------------------------------------------------------------------
    def step(self, loss: float) -> bool:
        """Validate gradients for ``loss``'s backward pass, then update."""
        from repro import obs

        iteration = self.iteration
        self.iteration += 1
        if self.injector is not None:
            self.injector.before_step(iteration, self.params)
        loss = float(loss)
        norm = self._grad_norm()
        reason = self._diagnose(loss, norm)
        if reason is None:
            if self._snapshot is None:
                self._take_snapshot()
            clip_grad_norm(self.params, self.policy.grad_clip, norm)
            self.optimizer.step()
            self.report.steps_taken += 1
            obs.count("guard.steps_taken")
            self._consecutive = 0
            self._since_snapshot += 1
            if self._since_snapshot >= self.policy.snapshot_every:
                self._take_snapshot()
            return True

        # Anomalous: drop the gradients so nothing downstream reuses them.
        for p in self.params:
            p.grad = None
        self.report.steps_skipped += 1
        obs.count("guard.anomalies")
        obs.count("guard.steps_skipped")
        self._consecutive += 1
        actions = ["skip"]
        policy = self.policy
        if self._consecutive >= policy.rollback_after and self._rollback():
            actions.append("rollback")
        if self._consecutive >= policy.backoff_after:
            self.optimizer.lr *= policy.backoff_factor
            actions.append("lr_backoff")
        if self._consecutive == policy.reseed_after and self.on_reseed:
            self.on_reseed(self._consecutive)
            actions.append("reseed")
        abort = self._consecutive >= policy.abort_after
        if abort:
            actions.append("abort")
        self.report.record(
            AnomalyEvent(
                iteration=iteration, reason=reason, loss=loss,
                grad_norm=norm, actions=tuple(actions),
            )
        )
        obs.emit("guard.anomaly", iteration=iteration, reason=reason,
                 loss=loss, grad_norm=norm, actions=list(actions))
        if abort:
            raise TrainingDiverged(
                f"training diverged: {self._consecutive} consecutive "
                f"anomalous steps (last: {reason})",
                self.report,
            )
        return False

"""Fault-tolerant training runtime.

Four cooperating pieces make long experiment sweeps survivable:

* :mod:`~repro.reliability.guard` — :class:`GuardedStep` protects every
  optimizer update against NaN/Inf losses and exploding gradients, with
  a skip → rollback → LR backoff → reseed → abort escalation ladder and
  a per-run :class:`AnomalyReport`;
* :mod:`~repro.reliability.checkpoint` — :class:`TrainingCheckpoint` and
  :class:`CheckpointStore` persist full training state (parameters,
  optimizer moments, RNG state, iteration, loss history) atomically with
  bounded retention, so ``Adapter.fit_resumable`` can continue a killed
  run mid-training;
* :mod:`~repro.reliability.journal` — :class:`RunJournal` is an
  append-only JSONL record of completed table cells keyed by
  ``(method, setting, k_shot)``; :func:`~repro.experiments.harness.run_adaptation`
  skips completed cells on resume and isolates per-method failures;
* :mod:`~repro.reliability.integrity` — the SHA-256 digest, atomic
  ``.sha256`` sidecar and ``*.quarantined`` rename primitives that
  :class:`CheckpointStore` builds on;
* :mod:`~repro.reliability.faults` — a deterministic, test-only
  :class:`FaultInjector` that corrupts gradients, raises mid-``fit``,
  crashes/hangs/corrupts executor workers, simulates crashes between
  table cells and truncates checkpoint files, so every recovery path is
  provable end-to-end;
* :mod:`~repro.reliability.chaos` — named cross-layer chaos scenarios
  (:data:`~repro.reliability.chaos.SCENARIOS`) with invariant checks,
  looped by :func:`~repro.reliability.chaos.run_soak` under a
  time/round budget (CLI: ``repro chaos soak``).

See ``docs/reliability.md`` and ``docs/chaos.md`` for policies, file
formats and semantics.
"""

from repro.reliability.guard import (
    AnomalyEvent,
    AnomalyPolicy,
    AnomalyReport,
    GuardedStep,
    TrainingDiverged,
)
from repro.reliability.checkpoint import (
    CheckpointStore,
    TrainingCheckpoint,
)
from repro.reliability.integrity import (
    CHECKSUM_SUFFIX,
    QUARANTINE_SUFFIX,
    IntegrityError,
    file_sha256,
    quarantine_file,
    verify_checksum_sidecar,
    write_checksum_sidecar,
)
from repro.reliability.journal import RunJournal
from repro.reliability.policy import CellPolicy
from repro.reliability.faults import FaultInjector, InjectedFault, SimulatedCrash
from repro.reliability.chaos import (
    SCENARIOS,
    ChaosScenario,
    Invariant,
    ScenarioResult,
    SoakReport,
    run_scenario,
    run_soak,
)

__all__ = [
    "AnomalyEvent",
    "AnomalyPolicy",
    "AnomalyReport",
    "GuardedStep",
    "TrainingDiverged",
    "CheckpointStore",
    "TrainingCheckpoint",
    "RunJournal",
    "CellPolicy",
    "CHECKSUM_SUFFIX",
    "QUARANTINE_SUFFIX",
    "IntegrityError",
    "file_sha256",
    "quarantine_file",
    "verify_checksum_sidecar",
    "write_checksum_sidecar",
    "FaultInjector",
    "InjectedFault",
    "SimulatedCrash",
    "SCENARIOS",
    "ChaosScenario",
    "Invariant",
    "ScenarioResult",
    "SoakReport",
    "run_scenario",
    "run_soak",
]

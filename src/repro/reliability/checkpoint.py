"""Crash-safe full training state: parameters, optimizer, RNG, history.

A :class:`TrainingCheckpoint` captures everything ``Adapter.fit`` needs
to continue a killed run bit-for-bit: the module ``state_dict``, the
optimizer's moment buffers and scalars, the numpy ``Generator`` states
of the adapter and the episode sampler, the completed iteration count
and the loss history.  It is stored as one ``.npz`` archive — arrays
under ``module/<name>`` and ``optim/<slot>/<index>`` keys, everything
scalar in a JSON blob — written atomically via
:func:`repro.nn.serialization.atomic_savez`.

:class:`CheckpointStore` manages a directory of such checkpoints with
bounded retention (keep the last K) and a damage-tolerant
:meth:`~CheckpointStore.load_latest` that silently falls back to the
newest *readable* checkpoint if the most recent write was truncated by
a crash.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.nn.serialization import CheckpointError, atomic_savez
from repro.reliability.integrity import (
    CHECKSUM_SUFFIX,
    QUARANTINE_SUFFIX,
    verify_checksum_sidecar,
    write_checksum_sidecar as _write_checksum,
)

_META_KEY = "__repro_meta__"
_FORMAT = 1


def verify_checksum(path: str) -> None:
    """Check ``path`` against its sha256 sidecar, if one exists.

    Raises :class:`CheckpointError` on mismatch or an unreadable
    sidecar.  A *missing* sidecar is accepted silently — checkpoints
    written before the sidecar existed (or whose sidecar write was cut
    short by a crash) still load; the archive-level damage checks in
    :meth:`TrainingCheckpoint.load` remain the floor.  The heavy lifting
    lives in :mod:`repro.reliability.integrity`.
    """
    verify_checksum_sidecar(path, error=CheckpointError, kind="checkpoint")


@dataclass
class TrainingCheckpoint:
    """Complete mid-training state of one ``fit`` run."""

    iteration: int
    module_state: dict[str, np.ndarray]
    optimizer_state: dict = field(default_factory=dict)
    rng_state: dict = field(default_factory=dict)
    loss_history: list[float] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the checkpoint atomically to ``path``."""
        payload: dict[str, np.ndarray] = {}
        for name, array in self.module_state.items():
            payload[f"module/{name}"] = np.asarray(array)
        optim_meta: dict = {}
        if self.optimizer_state:
            optim_meta = {
                "kind": self.optimizer_state["kind"],
                "scalars": self.optimizer_state["scalars"],
                "slots": {},
            }
            for slot, arrays in self.optimizer_state["arrays"].items():
                optim_meta["slots"][slot] = len(arrays)
                for i, array in enumerate(arrays):
                    payload[f"optim/{slot}/{i}"] = np.asarray(array)
        meta = {
            "format": _FORMAT,
            "iteration": self.iteration,
            "loss_history": [float(x) for x in self.loss_history],
            "rng_state": self.rng_state,
            "optimizer": optim_meta,
            "metadata": self.metadata,
        }
        blob = json.dumps(meta).encode("utf-8")
        payload[_META_KEY] = np.frombuffer(blob, dtype=np.uint8)
        atomic_savez(path, payload)
        _write_checksum(path)
        from repro import obs

        obs.count("checkpoint.saves")
        obs.emit("checkpoint.saved", path=str(path), iteration=self.iteration)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str, verify: bool = True) -> "TrainingCheckpoint":
        """Read a checkpoint; raises :class:`CheckpointError` on damage.

        With ``verify`` (the default) the file is first checked against
        its sha256 sidecar, which catches corruption the archive format
        cannot — e.g. a torn copy that replaced the file with *valid but
        wrong* bytes.
        """
        import zipfile

        if verify:
            verify_checksum(path)
        try:
            with np.load(path) as archive:
                if _META_KEY not in archive.files:
                    raise CheckpointError(
                        f"checkpoint {path!r} has no metadata record; "
                        f"not a training checkpoint"
                    )
                meta = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
                module_state = {
                    k[len("module/"):]: archive[k]
                    for k in archive.files if k.startswith("module/")
                }
                optim_meta = meta.get("optimizer") or {}
                optimizer_state: dict = {}
                if optim_meta:
                    optimizer_state = {
                        "kind": optim_meta["kind"],
                        "scalars": optim_meta["scalars"],
                        "arrays": {
                            slot: [archive[f"optim/{slot}/{i}"]
                                   for i in range(count)]
                            for slot, count in optim_meta["slots"].items()
                        },
                    }
        except FileNotFoundError:
            raise
        except CheckpointError:
            raise
        except (zipfile.BadZipFile, EOFError, OSError, KeyError, ValueError,
                json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"training checkpoint {path!r} is corrupt or truncated "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        from repro import obs

        obs.count("checkpoint.loads")
        obs.emit("checkpoint.loaded", path=str(path),
                 iteration=int(meta["iteration"]))
        return cls(
            iteration=int(meta["iteration"]),
            module_state=module_state,
            optimizer_state=optimizer_state,
            rng_state=meta.get("rng_state", {}),
            loss_history=list(meta.get("loss_history", [])),
            metadata=meta.get("metadata", {}),
        )


class CheckpointStore:
    """A directory of iteration-stamped checkpoints with retention."""

    def __init__(self, directory: str, keep: int = 3, prefix: str = "state"):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = directory
        self.keep = keep
        self.prefix = prefix
        #: Checkpoint paths this store quarantined as damaged.
        self.quarantined: list[str] = []

    # ------------------------------------------------------------------
    def _path(self, iteration: int) -> str:
        return os.path.join(self.directory, f"{self.prefix}-{iteration:08d}.npz")

    def paths(self) -> list[str]:
        """Checkpoint files, oldest first (name order == iteration order)."""
        if not os.path.isdir(self.directory):
            return []
        names = sorted(
            n for n in os.listdir(self.directory)
            if n.startswith(self.prefix + "-") and n.endswith(".npz")
        )
        return [os.path.join(self.directory, n) for n in names]

    # ------------------------------------------------------------------
    def save(self, checkpoint: TrainingCheckpoint) -> str:
        """Persist ``checkpoint`` and prune beyond the retention limit."""
        path = self._path(checkpoint.iteration)
        checkpoint.save(path)
        for stale in self.paths()[:-self.keep]:
            for victim in (stale, stale + CHECKSUM_SUFFIX):
                try:
                    os.unlink(victim)
                except OSError:
                    pass
        return path

    def latest_path(self) -> str | None:
        paths = self.paths()
        return paths[-1] if paths else None

    def _quarantine(self, path: str) -> None:
        """Move a damaged checkpoint (and its sidecar) out of rotation.

        The renamed ``*.quarantined`` file no longer matches
        :meth:`paths`, so future loads and retention passes skip it —
        but the bytes stay on disk for post-mortems.
        """
        from repro.reliability.integrity import quarantine_file

        quarantine_file(path)
        self.quarantined.append(path)
        from repro import obs

        obs.count("checkpoint.quarantined")
        obs.emit("checkpoint.quarantined", path=str(path))

    def load_latest(self) -> TrainingCheckpoint | None:
        """Newest readable checkpoint, or ``None`` if none exist.

        A damaged newest file — truncated by a crash mid-write under a
        non-atomic editor, torn by a partial copy, or failing its sha256
        sidecar — is *quarantined* (renamed ``*.quarantined``) and the
        next most recent checkpoint is loaded instead; this is the
        recovery path the retention of K > 1 files exists for.  The
        paths quarantined by this store instance are listed in
        :attr:`quarantined`.
        """
        last_error: CheckpointError | None = None
        for path in reversed(self.paths()):
            try:
                return TrainingCheckpoint.load(path)
            except CheckpointError as exc:
                last_error = exc
                self._quarantine(path)
        if last_error is not None:
            raise CheckpointError(
                f"no readable checkpoint in {self.directory!r}: {last_error}"
            ) from last_error
        return None

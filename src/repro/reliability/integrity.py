"""File-integrity primitives: SHA-256, sidecars, quarantine.

Training checkpoints (:mod:`repro.reliability.checkpoint`), the
runtime's durable artifacts, protect themselves this way:

* a **content digest** (:func:`file_sha256`)
  proves the bytes read are the bytes written;
* an optional **sidecar** (``<path>.sha256``, ``sha256sum`` format,
  written atomically by :func:`write_checksum_sidecar`) catches
  whole-file corruption the inner format cannot — e.g. a torn copy that
  replaced the file with *valid but wrong* bytes;
* a damaged file is **quarantined** (:func:`quarantine_file`): renamed
  ``*.quarantined`` so rotation and future loads skip it while the
  bytes stay on disk for post-mortems.

These helpers raise only through the caller-supplied error class, so
checkpoints keep raising :class:`~repro.nn.serialization.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

#: Integrity sidecar written next to a protected file (sha256sum format).
CHECKSUM_SUFFIX = ".sha256"
#: Suffix a damaged file is renamed to when quarantined.
QUARANTINE_SUFFIX = ".quarantined"


class IntegrityError(RuntimeError):
    """A file failed its integrity check (default error class)."""


def file_sha256(path: str) -> str:
    """Hex SHA-256 of a file, streamed in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_checksum_sidecar(path: str) -> str:
    """Write ``path``'s sha256 sidecar atomically; returns the sidecar path.

    The sidecar is written to a temp file in the same directory, fsynced
    and renamed into place, so a crash can only ever leave the *old*
    sidecar (or none) — never a torn one.
    """
    line = f"{file_sha256(path)}  {os.path.basename(path)}\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-sha256-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        sidecar = path + CHECKSUM_SUFFIX
        os.replace(tmp, sidecar)
        return sidecar
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def verify_checksum_sidecar(path: str, error: type[Exception] = IntegrityError,
                            kind: str = "file") -> None:
    """Check ``path`` against its sha256 sidecar, if one exists.

    Raises ``error`` on mismatch or an unreadable sidecar.  A *missing*
    sidecar is accepted silently — files written before the sidecar
    existed (or whose sidecar write was cut short by a crash) still
    load; format-level damage checks remain the floor.
    """
    sidecar = path + CHECKSUM_SUFFIX
    if not os.path.exists(sidecar):
        return
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            expected = fh.read().split()[0]
    except (OSError, IndexError) as exc:
        raise error(
            f"checksum sidecar {sidecar!r} is unreadable "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    actual = file_sha256(path)
    if actual != expected:
        raise error(
            f"{kind} {path!r} fails its checksum "
            f"(sha256 {actual[:12]}… != recorded {expected[:12]}…); "
            f"the file was corrupted after it was written"
        )


def quarantine_file(path: str, with_sidecar: bool = True) -> list[str]:
    """Rename a damaged file (and optionally its sidecar) out of rotation.

    Returns the list of paths actually renamed.  Missing files are
    skipped silently — quarantining is best-effort cleanup on an
    already-failing path and must never raise.
    """
    victims = [path]
    if with_sidecar:
        victims.append(path + CHECKSUM_SUFFIX)
    renamed = []
    for victim in victims:
        try:
            os.replace(victim, victim + QUARANTINE_SUFFIX)
            renamed.append(victim)
        except OSError:
            pass
    return renamed

"""Shared integrity primitives: digests, sidecars, quarantine."""

import hashlib
import os

import pytest

from repro.reliability.integrity import (
    CHECKSUM_SUFFIX,
    QUARANTINE_SUFFIX,
    IntegrityError,
    file_sha256,
    quarantine_file,
    verify_checksum_sidecar,
    write_checksum_sidecar,
)


def test_file_sha256_streams_whole_file(tmp_path):
    path = tmp_path / "blob.bin"
    data = bytes(range(256)) * 5000  # > one 1 MiB block
    path.write_bytes(data)
    assert file_sha256(str(path)) == hashlib.sha256(data).hexdigest()


def test_sidecar_roundtrip(tmp_path):
    path = tmp_path / "artifact.npz"
    path.write_bytes(b"payload")
    sidecar = write_checksum_sidecar(str(path))
    assert sidecar == str(path) + CHECKSUM_SUFFIX
    assert os.path.exists(sidecar)
    verify_checksum_sidecar(str(path))  # must not raise


def test_sidecar_is_sha256sum_format(tmp_path):
    path = tmp_path / "artifact.npz"
    path.write_bytes(b"payload")
    sidecar = write_checksum_sidecar(str(path))
    digest, name = open(sidecar, encoding="utf-8").read().split()
    assert digest == hashlib.sha256(b"payload").hexdigest()
    assert name == "artifact.npz"


def test_tampered_file_fails_verification(tmp_path):
    path = tmp_path / "artifact.npz"
    path.write_bytes(b"payload")
    write_checksum_sidecar(str(path))
    path.write_bytes(b"Payload")
    with pytest.raises(IntegrityError, match="fails its checksum"):
        verify_checksum_sidecar(str(path))


def test_verification_raises_caller_error_class(tmp_path):
    class CustomError(RuntimeError):
        pass

    path = tmp_path / "artifact.npz"
    path.write_bytes(b"payload")
    write_checksum_sidecar(str(path))
    path.write_bytes(b"tampered")
    with pytest.raises(CustomError, match="checkpoint"):
        verify_checksum_sidecar(str(path), error=CustomError,
                                kind="checkpoint")


def test_missing_sidecar_is_accepted(tmp_path):
    path = tmp_path / "legacy.npz"
    path.write_bytes(b"old artifact, no sidecar")
    verify_checksum_sidecar(str(path))  # must not raise


def test_unreadable_sidecar_raises(tmp_path):
    path = tmp_path / "artifact.npz"
    path.write_bytes(b"payload")
    (tmp_path / ("artifact.npz" + CHECKSUM_SUFFIX)).write_text("")
    with pytest.raises(IntegrityError, match="unreadable"):
        verify_checksum_sidecar(str(path))


def test_quarantine_renames_file_and_sidecar(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"damaged")
    write_checksum_sidecar(str(path))
    renamed = quarantine_file(str(path))
    assert renamed == [str(path), str(path) + CHECKSUM_SUFFIX]
    assert not path.exists()
    assert (tmp_path / ("bad.npz" + QUARANTINE_SUFFIX)).exists()
    assert (tmp_path / ("bad.npz" + CHECKSUM_SUFFIX
                        + QUARANTINE_SUFFIX)).exists()


def test_quarantine_missing_file_never_raises(tmp_path):
    assert quarantine_file(str(tmp_path / "ghost.npz")) == []


def test_reliability_package_reexports():
    from repro import reliability

    assert reliability.file_sha256 is file_sha256
    assert reliability.IntegrityError is IntegrityError

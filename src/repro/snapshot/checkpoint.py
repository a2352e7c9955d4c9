"""Versioned on-disk checkpoint files.

A checkpoint is the durable form of a machine state: a small, gzip-
compressed JSON document pinning *how to rebuild the machine* (the run
spec), *where execution stood* (tick, events processed, milestones done),
and *what the state must hash to* (the full canonical summary and its
SHA-256 digest, plus the digest journal accumulated so far).  Restoring is
verified deterministic re-execution — see :mod:`repro.snapshot.driver` —
so a checkpoint stays valid across interpreter restarts and machines, and
a corrupt or version-skewed file fails loudly before any work happens.

File layout (format 2)::

    ESCKPT <format-version>\\n      (uncompressed ASCII header line)
    <gzip-compressed canonical JSON payload>
    CRC:<8 hex digits>             (12-byte trailer)

The header is outside the compressed payload so version checks never
depend on being able to parse the payload they are versioning.  The
trailing CRC-32 covers *everything before it* — header included — so a
file chopped at any byte (a run SIGKILLed mid-write whose partial temp
file somehow survived, a truncated copy, a corrupted tail) is rejected
before the gzip layer ever sees it: there is no byte prefix of a valid
checkpoint that is itself a valid checkpoint.  Writes are crash-only:
temp file, flush, fsync, atomic rename, directory fsync
(:func:`write_atomic`, shared with the supervisor's state files and the
regression corpus).
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from typing import Dict

MAGIC = b"ESCKPT"
FORMAT_VERSION = 2

#: Fixed-size trailer: ``CRC:`` + 8 lowercase hex digits of the CRC-32.
_TRAILER_TAG = b"CRC:"
_TRAILER_LEN = len(_TRAILER_TAG) + 8

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointVersionError",
    "save_checkpoint",
    "load_checkpoint",
    "write_atomic",
]


class CheckpointError(Exception):
    """Base class for checkpoint load/save failures."""


class CheckpointFormatError(CheckpointError):
    """The file is not a checkpoint, or its payload is corrupt."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written by an incompatible format version."""

    def __init__(self, path: str, found, expected: int = FORMAT_VERSION):
        self.found = found
        self.expected = expected
        super().__init__(
            f"{path}: checkpoint format version {found!r} is not supported "
            f"by this build (expected {expected}); re-create the checkpoint "
            f"with the current code, or run it with the build that wrote it")


def save_checkpoint(path: str, payload: Dict) -> None:
    """Write ``payload`` as a versioned checkpoint at ``path``.

    Crash-only (see :func:`write_atomic`); the trailing CRC catches the
    residue if a partial temp file is ever mistaken for the real thing.
    """
    body = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()
    # mtime=0 keeps the gzip container byte-reproducible: the same machine
    # state always writes the same file.
    data = (MAGIC + b" " + str(FORMAT_VERSION).encode() + b"\n"
            + gzip.compress(body, mtime=0))
    data += _TRAILER_TAG + format(zlib.crc32(data), "08x").encode()
    write_atomic(path, data)


def write_atomic(path: str, data: bytes) -> None:
    """Durably replace ``path`` with ``data``.

    The bytes land in a temp file that is flushed, fsync'd and atomically
    renamed over ``path``, and the containing directory is fsync'd so the
    rename itself survives a power cut.  A writer killed at any instant
    leaves either the old file or the new one, never a half-written
    hybrid.  Callers serialize before calling, so a payload that fails to
    serialize never creates the temp file.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")


def _fsync_dir(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not all dirs are fsync-able
        pass
    finally:
        os.close(fd)


def load_checkpoint(path: str) -> Dict:
    """Read and validate a checkpoint; raises :class:`CheckpointError`."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            blob = fh.read()
    except OSError as exc:
        raise CheckpointFormatError(f"{path}: cannot read ({exc})") from exc
    parts = header.strip().split()
    if len(parts) != 2 or parts[0] != MAGIC:
        raise CheckpointFormatError(
            f"{path}: not a checkpoint file (bad header {header[:32]!r})")
    try:
        version = int(parts[1])
    except ValueError:
        raise CheckpointVersionError(path, parts[1].decode("ascii",
                                                           "replace"))
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(path, version)
    if len(blob) < _TRAILER_LEN or blob[-_TRAILER_LEN:-8] != _TRAILER_TAG:
        raise CheckpointFormatError(
            f"{path}: truncated checkpoint (missing CRC trailer — "
            f"the writer was interrupted or the file was chopped)")
    body, trailer = blob[:-_TRAILER_LEN], blob[-8:]
    try:
        expected = int(trailer, 16)
    except ValueError:
        raise CheckpointFormatError(
            f"{path}: corrupt checkpoint trailer {trailer!r}")
    actual = zlib.crc32(header + body)
    if actual != expected:
        raise CheckpointFormatError(
            f"{path}: corrupt checkpoint payload (CRC mismatch: "
            f"recorded {expected:08x}, computed {actual:08x})")
    try:
        return json.loads(gzip.decompress(body).decode())
    except (OSError, EOFError, ValueError, zlib.error) as exc:
        raise CheckpointFormatError(
            f"{path}: corrupt checkpoint payload ({exc})") from exc

"""Crash-safe file writes, sha256 integrity checks, the snapshot envelope.

Every on-disk artifact of the library — columnar store arrays,
``meta.json``, tree snapshots, forest manifests — goes through one
write protocol (DESIGN.md, "Fault model and degraded serving"):

1. write the full payload to a hidden *temp sibling* in the same
   directory (``.<name>.<pid>.tmp`` — same filesystem, so the rename
   below is atomic);
2. flush and ``fsync`` the temp file — the bytes are durable before the
   name is;
3. atomically rename (``os.replace``) the temp over the final name, then
   best-effort ``fsync`` the directory so the rename itself is durable.

A crash before step 3 leaves the previous version of the file untouched
plus a stale temp sibling; a crash after step 3 leaves the new version.
There is no window in which the final name holds a partial write, so "a
torn file under its real name" can only come from outside (bit rot, a
truncating copy) — which is what the checksums catch:
:func:`atomic_write_bytes` returns the payload's ``sha256:<hex>`` digest,
manifests record it per file, and loaders call :func:`verify_checksum`
before trusting any artifact.

Stale temp siblings are ignored by every loader (loaders open files by
their recorded names only) and swept by :func:`cleanup_stale_temps` at
the start of the next save into the same directory and when a manifest
is read — except a temp whose writer (the pid in its name) is another
live process: its save is still in flight.

An *index* file additionally travels behind a one-line header, the
**envelope** (:func:`write_envelope`), checked before it is decoded.

Fault points (:mod:`repro.testing.faults`): ``atomic.write:<name>``
before the temp write — ``truncate`` rules make the writer persist
exactly N payload bytes and then crash — and ``atomic.rename:<name>``
between fsync and rename.  On an injected crash the temp file is
deliberately left behind, exactly as a real crash would leave it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Any, List, Optional, Union

import numpy as np

from ..testing import faults

__all__ = [
    "TMP_SUFFIX",
    "IntegrityError",
    "sha256_bytes",
    "sha256_file",
    "atomic_write_bytes",
    "atomic_write_json",
    "npy_bytes",
    "cleanup_stale_temps",
    "verify_checksum",
    "write_envelope",
    "read_envelope",
    "read_manifest",
]

PathLike = Union[str, Path]

#: Temp siblings are ``.<final-name>.<pid>.tmp`` — hidden, same directory.
TMP_SUFFIX = ".tmp"


class IntegrityError(ValueError):
    """A file's content does not match its recorded length or sha256."""


def sha256_bytes(data: bytes) -> str:
    """The ``sha256:<hex>`` digest of a byte payload."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


def sha256_file(path: PathLike, chunk_size: int = 1 << 20) -> str:
    """The ``sha256:<hex>`` digest of a file, read in chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            chunk = f.read(chunk_size)
            if not chunk:
                break
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _tmp_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.{os.getpid()}{TMP_SUFFIX}")


def _fsync_directory(directory: Path) -> None:
    """Make a completed rename durable (best-effort: not every filesystem
    or platform supports directory fsync — failure is not corruption,
    only a shorter durability window)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> str:
    """Write ``data`` to ``path`` crash-safely; returns its checksum.

    Follows the temp-sibling / fsync / atomic-rename protocol of the
    module docstring: after this returns, ``path`` holds exactly ``data``;
    if it raises (or the process dies), ``path`` is untouched — the
    previous version, or absent — and at worst a stale temp sibling
    remains for the next :func:`cleanup_stale_temps` sweep.
    """
    path = Path(path)
    tmp = _tmp_path(path)
    truncate = faults.fire(f"atomic.write:{path.name}")
    payload = data if truncate is None else data[: truncate.nbytes]
    with open(tmp, "wb") as f:
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())
    if truncate is not None:
        # The injected crash-at-byte-offset: the partial payload is
        # durable in the temp sibling, the final name untouched.
        raise faults.CrashInjected(
            f"injected crash after {truncate.nbytes} bytes of {path.name}"
        )
    faults.fire(f"atomic.rename:{path.name}")
    os.replace(tmp, path)
    _fsync_directory(path.parent)
    return sha256_bytes(data)


def atomic_write_json(path: PathLike, obj: Any, indent: int = None) -> str:
    """JSON-serialize ``obj`` and write it crash-safely; returns the
    checksum of the encoded payload."""
    return atomic_write_bytes(path, json.dumps(obj, indent=indent).encode())


def npy_bytes(array: np.ndarray) -> bytes:
    """An array serialized to ``.npy`` bytes (``np.save`` into memory), so
    array files can go through :func:`atomic_write_bytes` like any other
    payload.  ``np.save`` writes float64/int64 verbatim — the round trip
    through :func:`numpy.load` is bit-identical."""
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _live_writer(temp_name: str) -> bool:
    """Whether the temp file ``.<name>.<pid>.tmp`` belongs to a process
    that is running and is not this one — a save still in flight."""
    pid = temp_name[:-len(TMP_SUFFIX)].rpartition(".")[2]
    if not (pid.isdecimal() and 0 < int(pid) != os.getpid()):
        return False
    try:
        os.kill(int(pid), 0)
    except PermissionError:         # exists, owned by another user
        return True
    except (OSError, OverflowError):
        return False
    return True


def cleanup_stale_temps(directory: PathLike) -> List[str]:
    """Remove temp siblings a crashed save left in ``directory``.

    Called at the start of every save into the directory and when a
    snapshot's manifest is read; returns the removed names (tests assert
    the sweep).  Only this module's naming pattern (``.<name>*.tmp``) is
    touched, and a temp whose writer pid is a live process other than
    this one is kept: that save is still in flight, and removing its temp
    would fail its rename.  A dead pid, this process's own pid (a crash it
    survived) or a name without a pid is stale.
    """
    removed = []
    for stale in Path(directory).glob(f".*{TMP_SUFFIX}"):
        if _live_writer(stale.name):
            continue
        try:
            stale.unlink()
        except OSError:
            continue
        removed.append(stale.name)
    return removed


def verify_checksum(
    path: PathLike,
    expected: str,
    error_cls: type = IntegrityError,
) -> None:
    """Raise ``error_cls`` unless ``path`` hashes to ``expected``.

    ``error_cls`` lets the loader surface its own typed error
    (``StoreError``).
    """
    actual = sha256_file(path)
    if actual != expected:
        raise error_cls(
            f"{Path(path).name} failed its integrity check "
            f"(recorded {expected}, found {actual}); file corrupted?"
        )


def write_envelope(path: PathLike, magic: str, version: str,
                   payload: bytes) -> str:
    """Write ``payload`` behind its envelope header, crash-safely; returns
    the *payload's* checksum (the header's, and what a manifest pins)."""
    checksum = sha256_bytes(payload)
    header = f"{magic} {version} {checksum} {len(payload)}\n".encode("ascii")
    atomic_write_bytes(path, header + payload)
    return checksum


def read_envelope(path: PathLike, magic: str, version: str,
                  expected: Optional[str] = None) -> bytes:
    """The payload of an envelope file, once it has proved itself.

    Checked in order, before the caller decodes a byte: header present
    (no snapshot written before envelopes has one), ``magic`` and
    ``version`` — plain ``ValueError``: another kind or release, rebuild;
    then payload length and sha256 against the header, and against
    ``expected`` when the caller holds a manifest's record of the checksum
    — :class:`IntegrityError`: damaged, or not the manifest's file.  One
    hash pass serves both comparisons.
    """
    with open(path, "rb") as f:
        # four short fields; the cap bounds the scan of a header-less file
        header = f.readline(256)
        payload = f.read()
    fields = header[:-1].decode("ascii", "replace").split(" ") \
        if header.endswith(b"\n") else []
    if len(fields) != 4 or not fields[3].isdigit():
        raise ValueError(
            f"{path!s} has no {magic} header: another kind of file, or one "
            f"that predates format {version}; rebuild it"
        )
    if fields[:2] != [magic, version]:
        raise ValueError(
            f"{path!s} is a {fields[0]} {fields[1]} file, this library "
            f"reads {magic} {version}; rebuild it"
        )
    recorded, length, actual = fields[2], int(fields[3]), sha256_bytes(payload)
    if len(payload) != length or actual != recorded:
        raise IntegrityError(
            f"{path!s} failed its integrity check (header records {length} "
            f"bytes hashing to {recorded}, file holds {len(payload)} "
            f"hashing to {actual}); truncated or corrupt"
        )
    if expected is not None and actual != expected:
        raise IntegrityError(
            f"{path!s} failed its integrity check (manifest records "
            f"{expected}, file holds {actual}): intact, but not the file "
            f"the manifest was written with"
        )
    return payload


def read_manifest(path: PathLike, magic: str, version: str,
                  error_cls: type, kind: str, remedy: str) -> dict:
    """The parsed JSON manifest of a snapshot directory, once it names its
    ``magic`` and ``version``; ``kind`` ("a forest snapshot") and
    ``remedy`` ("rebuild the forest") word the caller's ``error_cls``.
    Then sweeps the temp files a crashed writer left beside it (never
    part of a committed snapshot, by the write protocol)."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text()) if path.is_file() else None
    except ValueError as exc:
        raise error_cls(f"{path!s} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("magic") != magic:
        raise error_cls(f"{path.parent!s} is not {kind}")
    if manifest.get("version") != version:
        raise error_cls(
            f"{path.parent!s} was written in format "
            f"{manifest.get('version')}, this library expects {version}; "
            f"{remedy}"
        )
    cleanup_stale_temps(path.parent)
    return manifest

"""Deployment persistence: save and restore pipeline + model + optimizer.

The paper's platform deploys the *pipeline alongside the model* (§4.3)
and warm-starts from existing statistics, weights, and optimizer state
(§5.2). This module makes that state durable: a deployment bundle —
the fitted pipeline (with all component statistics), the model, and
the optimizer state — round-trips through a single file, so a platform
restart resumes exactly where it stopped (the conditional-independence
property of §3.3 guarantees the resumed training stream is identical).

Format: a pickle payload wrapped with a format tag, the library
version, and a SHA-256 checksum. Loading verifies the checksum and tag
before unpickling, so truncated or foreign files fail loudly instead
of deserialising garbage.

Writes are crash-safe: the blob is staged in a temporary file in the
destination directory, fsynced, and moved into place with
``os.replace`` — a process killed mid-write can never leave a
truncated bundle at the destination path (at worst a stray ``*.tmp``
file the next save ignores).

Security note — pickle executes code on load; only load bundles you
wrote. This mirrors every mainstream Python model store.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple, TypeVar, Union

from repro.exceptions import ReproError
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.pipeline.pipeline import Pipeline

# Crash-safe write primitives live in repro.utils.fileio (the bottom
# of the subsystem layering); re-exported here because every bundle
# consumer historically imported them from this module.
from repro.utils.fileio import atomic_write_bytes, sweep_stale_tmp

#: Anything the filesystem accepts as a path.
PathLike = Union[str, "os.PathLike[str]"]

#: File magic identifying a deployment bundle.
MAGIC = b"REPRO-BUNDLE-1\n"

_T = TypeVar("_T")


class PersistenceError(ReproError):
    """A bundle file is malformed, corrupted, or incompatible."""


def select_prunable(items: Sequence[_T], keep: int) -> List[_T]:
    """Return the items to drop so only the last ``keep`` remain.

    ``items`` must be ordered oldest first; the newest ``keep`` entries
    survive. Shared keep-last-K policy for the serving registry's
    bundle GC and the reliability layer's checkpoint retention.
    """
    if keep < 0:
        raise PersistenceError(f"keep must be >= 0, got {keep}")
    return list(items[: max(len(items) - keep, 0)])


@dataclass
class DeploymentBundle:
    """The durable unit: everything needed to resume a deployment."""

    pipeline: Pipeline
    model: LinearSGDModel
    optimizer: Optimizer

    def __post_init__(self) -> None:
        if not isinstance(self.pipeline, Pipeline):
            raise PersistenceError(
                f"pipeline must be a Pipeline, got "
                f"{type(self.pipeline).__name__}"
            )
        if not isinstance(self.model, LinearSGDModel):
            raise PersistenceError(
                f"model must be a LinearSGDModel, got "
                f"{type(self.model).__name__}"
            )
        if not isinstance(self.optimizer, Optimizer):
            raise PersistenceError(
                f"optimizer must be an Optimizer, got "
                f"{type(self.optimizer).__name__}"
            )




def save_bundle(
    path: PathLike,
    pipeline: Pipeline,
    model: LinearSGDModel,
    optimizer: Optimizer,
) -> Path:
    """Write a deployment bundle to ``path`` and return the path.

    The payload is fully serialised in memory first (a serialisation
    failure never touches the filesystem) and lands on disk through
    :func:`atomic_write_bytes`, so a crash mid-write can never leave a
    truncated file that fails its checksum on restart.
    """
    bundle = DeploymentBundle(
        pipeline=pipeline, model=model, optimizer=optimizer
    )
    path = Path(path)
    return atomic_write_bytes(path, serialize_bundle(bundle))


def serialize_bundle(bundle: DeploymentBundle) -> bytes:
    """Serialise a bundle to the on-disk blob (magic + digest + pickle)."""
    return seal_envelope(bundle, MAGIC, key="bundle")


def seal_envelope(obj: object, magic: bytes, key: str = "payload") -> bytes:
    """Wrap any picklable object in a checksummed envelope.

    The on-disk discipline of a deployment bundle — format magic,
    SHA-256 digest, then the pickle payload (which records the library
    version beside ``obj`` under ``key``) — reused by the reliability
    layer for checkpoints and spilled chunk payloads.
    """
    return b"".join(seal_parts(obj, magic, key))


def seal_parts(
    obj: object, magic: bytes, key: str = "payload"
) -> Tuple[bytes, bytes]:
    """:func:`seal_envelope`'s blob as its two parts, header (magic and
    digest) and payload, for a writer that puts several envelopes into
    one file without copying each payload into a joined blob."""
    payload = pickle.dumps(
        {"version": _library_version(), key: obj},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return magic + hashlib.sha256(payload).digest(), payload


def open_envelope(
    blob: bytes,
    magic: bytes,
    source: str = "<memory>",
    key: str = "payload",
) -> object:
    """Verify and unwrap a :func:`seal_envelope` blob.

    Raises :class:`PersistenceError` on a bad magic tag, checksum
    mismatch (corruption/truncation), or library-version mismatch.
    """
    if not blob.startswith(magic):
        raise PersistenceError(
            f"{source} is not a {magic[:-1].decode()} envelope "
            f"(bad magic header)"
        )
    body = blob[len(magic):]
    if len(body) < 32:
        raise PersistenceError(f"{source} is truncated")
    digest, payload = body[:32], body[32:]
    if hashlib.sha256(payload).digest() != digest:
        raise PersistenceError(
            f"{source} failed its checksum (corrupted or truncated)"
        )
    try:
        envelope = pickle.loads(payload)
    except Exception as error:
        raise PersistenceError(
            f"{source} could not be deserialised: {error}"
        ) from error
    written_by = envelope.get("version")
    current = _library_version()
    if written_by != current:
        raise PersistenceError(
            f"{source} was written by repro {written_by!r} but this "
            f"library is repro {current!r}"
        )
    return envelope.get(key)


def load_bundle(path: PathLike) -> DeploymentBundle:
    """Read a deployment bundle, verifying magic, checksum, and the
    library version it was written by."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise PersistenceError(
            f"cannot read bundle {path}: {error}"
        ) from error
    bundle = open_envelope(raw, MAGIC, source=str(path), key="bundle")
    if not isinstance(bundle, DeploymentBundle):
        raise PersistenceError(
            f"{path} does not contain a DeploymentBundle"
        )
    return bundle


def bundle_checksum(path: PathLike) -> str:
    """Hex SHA-256 of a bundle's payload, read from the file header.

    Cheap (no unpickling): the digest is stored right after the magic
    tag. The serving registry records it as the version fingerprint.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            header = handle.read(len(MAGIC) + 32)
    except OSError as error:
        raise PersistenceError(
            f"cannot read bundle {path}: {error}"
        ) from error
    if not header.startswith(MAGIC) or len(header) < len(MAGIC) + 32:
        raise PersistenceError(
            f"{path} is not a repro deployment bundle "
            f"(bad magic header)"
        )
    return header[len(MAGIC):].hex()


def _library_version() -> str:
    from repro import __version__

    return __version__

"""Crash-safe file primitives shared across the persistence layers.

Every durable artifact in the system — deployment bundles
(:mod:`repro.persistence`), platform checkpoints
(:mod:`repro.reliability.checkpoint`), registry manifests
(:mod:`repro.serving.registry`), and benchmark baselines
(:mod:`repro.obs.baseline`) — goes through :func:`atomic_write_bytes`,
so a process killed mid-write can never leave a truncated file at the
destination path.

This lives in ``repro.utils`` (the bottom of the subsystem layering,
see DESIGN.md §14) precisely because its callers span otherwise
unrelated layers: keeping it low is what lets ``obs`` stay below
``persistence`` in the import DAG.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import List, Union

#: Anything the filesystem accepts as a path.
PathLike = Union[str, "os.PathLike[str]"]

__all__ = ["PathLike", "atomic_write_bytes", "sweep_stale_tmp"]


def atomic_write_bytes(
    path: PathLike, blob: bytes, sweep: bool = True
) -> Path:
    """Write ``blob`` to ``path`` atomically (temp file + rename).

    The bytes are staged in a temporary file in the destination
    directory, flushed and fsynced, then moved over ``path`` with
    ``os.replace`` — on POSIX an atomic rename. A crash at any point
    leaves either the previous file or no file, never a truncation.
    ``sweep`` then lists the directory for this name's stale staging
    files (:func:`sweep_stale_tmp`); a writer that sweeps its
    directory once on its own (the checkpoint store) passes ``False``
    and lists nothing.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if sweep:
        sweep_stale_tmp(path)
    return path


def sweep_stale_tmp(path: PathLike) -> List[Path]:
    """Delete stale ``*.tmp`` staging files left behind for ``path``.

    A writer killed between ``mkstemp`` and ``os.replace`` leaves its
    staging file (``<name>.<random>.tmp``) in the destination
    directory forever. Each successful :func:`atomic_write_bytes` to
    the same destination sweeps them (unless told not to). Only
    staging files for *this* destination name are touched, so
    concurrent writers to other paths in the directory are never
    disturbed — the name is matched literally, whatever glob
    metacharacters it holds. Returns the removed paths, in sorted
    order so the unlink sequence is deterministic.
    """
    path = Path(path)
    prefix = path.name + "."
    removed: List[Path] = []
    for name in sorted(os.listdir(path.parent)):
        if name.startswith(prefix) and name.endswith(".tmp", len(prefix)):
            stale = path.parent / name
            try:
                stale.unlink()
            except OSError:
                continue
            removed.append(stale)
    return removed

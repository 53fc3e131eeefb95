"""The fault-injection site vocabulary — the single source of truth.

A *site* is a string naming one instrumented operation a
:class:`~repro.reliability.faults.FaultInjector` can interpose on.
Every site the platform fires is declared here as an importable
constant, and :class:`~repro.reliability.faults.FaultSpec` refuses any
other — a typo'd site would otherwise silently never fire and a fault
plan would silently never trigger.
"""

from __future__ import annotations

#: Pulling the next chunk from the deployment stream (fired by the
#: prequential loop before the source is read).
STREAM_READ = "stream.read"

#: Reading a raw chunk back from (simulated) disk for
#: re-materialization or retraining.
STORAGE_READ = "storage.read"

#: Persisting a platform checkpoint.
CHECKPOINT_WRITE = "checkpoint.write"

#: The sites the platform instruments, in firing-frequency order.
KNOWN_SITES = (STREAM_READ, STORAGE_READ, CHECKPOINT_WRITE)


def is_known_site(site: str) -> bool:
    """True when ``site`` names an instrumented operation."""
    return site in KNOWN_SITES

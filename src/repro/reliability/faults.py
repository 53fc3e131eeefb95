"""Deterministic fault injection for reliability testing.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each
addressing one *occurrence* of one *site* — e.g. "the 12th
``stream.read``". Sites are plain strings fired by the instrumented
code paths:

* ``stream.read`` — pulling the next chunk from the deployment stream
  (fired by the prequential loop before the source is read);
* ``storage.read`` — reading a raw chunk back from (simulated) disk
  for re-materialization or retraining;
* ``checkpoint.write`` — persisting a platform checkpoint.

Three fault kinds exist: ``crash`` (a :class:`SimulatedCrash`, fatal —
the recovery path is the fix), ``io_error`` (a :class:`TransientFault`,
an ``OSError`` subclass — a retry policy can mask it), and ``corrupt``
(the next written blob has one byte flipped — checksum verification
catches it on load).

Everything is deterministic: a plan is either spelled out explicitly
or derived from a seed via :meth:`FaultPlan.seeded`, and occurrence
counting makes the same plan hit the same operations on every
invocation. Plans are *per process incarnation* — a crash fault that
fired before a recovery does not replay after it (the recovered
process runs with whatever plan its harness passes, typically none),
mirroring how a real transient crash does not repeat deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReliabilityError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs import names
from repro.reliability import sites
from repro.utils.rng import SeedLike, ensure_rng

#: The sites the platform instruments (see
#: :mod:`repro.reliability.sites`, the canonical vocabulary).
KNOWN_SITES = sites.KNOWN_SITES

#: Valid fault kinds.
KINDS = ("crash", "io_error", "corrupt")


class SimulatedCrash(ReliabilityError):
    """An injected fatal fault: the process would have died here."""


class TransientFault(ReliabilityError, OSError):
    """An injected transient I/O fault; retry policies may mask it."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: the ``occurrence``-th hit of ``site``.

    ``occurrence`` is 1-based: ``FaultSpec("stream.read", 3, "crash")``
    crashes the third time the stream is read.
    """

    site: str
    occurrence: int
    kind: str

    def __post_init__(self) -> None:
        # A site nothing fires would be a fault that never happens.
        if not sites.is_known_site(self.site):
            raise ReliabilityError(
                f"site must be one of {KNOWN_SITES}, got {self.site!r}"
            )
        if self.occurrence < 1:
            raise ReliabilityError(
                f"occurrence must be >= 1, got {self.occurrence}"
            )
        if self.kind not in KINDS:
            raise ReliabilityError(
                f"kind must be one of {KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for spec in self.specs:
            key = (spec.site, spec.occurrence)
            if key in seen:
                raise ReliabilityError(
                    f"duplicate fault at {spec.site!r} "
                    f"occurrence {spec.occurrence}"
                )
            seen.add(key)

    @staticmethod
    def of(*specs: FaultSpec) -> "FaultPlan":
        """Plan from explicit specs."""
        return FaultPlan(specs=tuple(specs))

    @staticmethod
    def crash_at(site: str, occurrence: int) -> "FaultPlan":
        """Single-crash plan (the kill-at-chunk-k harness)."""
        return FaultPlan.of(FaultSpec(site, occurrence, "crash"))

    @staticmethod
    def seeded(
        seed: SeedLike,
        count: int,
        sites: Sequence[str] = KNOWN_SITES,
        kinds: Sequence[str] = KINDS,
        max_occurrence: int = 50,
    ) -> "FaultPlan":
        """Derive ``count`` faults deterministically from ``seed``.

        The same seed always yields the same plan (sites, occurrences,
        and kinds), which is what makes fault-injection experiments
        repeatable end to end.
        """
        if count < 0:
            raise ReliabilityError(f"count must be >= 0, got {count}")
        if not sites or not kinds:
            raise ReliabilityError("sites and kinds must be non-empty")
        rng = ensure_rng(seed)
        specs: List[FaultSpec] = []
        used = set()
        while len(specs) < count:
            site = sites[int(rng.integers(len(sites)))]
            occurrence = int(rng.integers(1, max_occurrence + 1))
            if (site, occurrence) in used:
                continue
            used.add((site, occurrence))
            kind = kinds[int(rng.integers(len(kinds)))]
            specs.append(FaultSpec(site, occurrence, kind))
        return FaultPlan(specs=tuple(specs))

    def __len__(self) -> int:
        return len(self.specs)


@dataclass
class FiredFault:
    """Record of one injected fault (for assertions and reports)."""

    site: str
    occurrence: int
    kind: str


class FaultInjector:
    """Counts site hits and raises/corrupts according to a plan.

    One injector instruments one process incarnation; share it between
    the components of a run (stream loop, storage, checkpoint store)
    so occurrence counts are global, the way a real run experiences
    faults.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self._hits: Dict[str, int] = {}
        self._by_site: Dict[str, Dict[int, str]] = {}
        for spec in self.plan.specs:
            self._by_site.setdefault(spec.site, {})[
                spec.occurrence
            ] = spec.kind
        #: Faults that actually fired, in order.
        self.fired: List[FiredFault] = []

    def hits(self, site: str) -> int:
        """Times ``site`` has been hit so far."""
        return self._hits.get(site, 0)

    def fire(self, site: str) -> None:
        """Register one hit of ``site``; raise if a fault is armed.

        ``crash`` raises :class:`SimulatedCrash`; ``io_error`` raises
        :class:`TransientFault`; ``corrupt`` does nothing here — it is
        consumed by :meth:`corrupt` on the next written blob.
        """
        count = self._hits.get(site, 0) + 1
        self._hits[site] = count
        kind = self._by_site.get(site, {}).get(count)
        if kind is None or kind == "corrupt":
            return
        self._record(site, count, kind)
        if kind == "crash":
            raise SimulatedCrash(
                f"injected crash at {site!r} occurrence {count}"
            )
        raise TransientFault(
            f"injected transient I/O error at {site!r} "
            f"occurrence {count}"
        )

    def corrupt(self, site: str, blob: bytes) -> bytes:
        """Flip one byte of ``blob`` when a corrupt fault is armed.

        Call this *after* :meth:`fire` for the same hit: it consults
        the occurrence count that :meth:`fire` just assigned. Returns
        the blob unchanged when no corruption is scheduled.
        """
        count = self._hits.get(site, 0)
        kind = self._by_site.get(site, {}).get(count)
        if kind != "corrupt" or not blob:
            return blob
        self._record(site, count, kind)
        index = len(blob) // 2
        mutated = bytearray(blob)
        mutated[index] ^= 0xFF
        return bytes(mutated)

    def _record(self, site: str, occurrence: int, kind: str) -> None:
        self.fired.append(FiredFault(site, occurrence, kind))
        self.telemetry.metrics.counter(
            names.RELIABILITY_FAULTS_INJECTED
        ).inc()
        self.telemetry.tracer.point(
            names.RELIABILITY_FAULT,
            site=site,
            occurrence=occurrence,
            kind=kind,
        )


#: Shared no-op injector (empty plan); lets call sites skip None checks.
NULL_INJECTOR = FaultInjector()

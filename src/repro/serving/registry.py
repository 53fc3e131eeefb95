"""Versioned model registry over deployment bundles.

The registry is a directory of immutable, checksummed deployment
bundles (see :mod:`repro.persistence`) plus one JSON manifest that
records, for every version, its lineage and lifecycle state:

``root/
    registry.json        manifest: versions, live pointer, transitions
    v0001.bundle         pipeline + model + optimizer snapshot
    v0002.bundle
    ...``

Every version carries lineage metadata — the parent version it was
trained from, how many deployment chunks the platform had observed,
the virtual-clock training cost, and arbitrary evaluation metrics —
so a rollback decision can always be audited after the fact.

Lifecycle: a version is registered as a ``candidate``, becomes
``live`` through :meth:`ModelRegistry.promote` (the incumbent moves to
``retired``), and a regression reverts it with
:meth:`ModelRegistry.rollback` (the failed version is marked
``rolled_back``, the previous live version is reinstated). Candidates
that never make it are ``rejected``. Every transition is appended to
the manifest's transition log and, when telemetry is attached, emitted
as a ``registry.*`` trace point.

Manifest writes are atomic (temp file + ``os.replace``), so a crash
mid-transition leaves the previous consistent manifest in place.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.exceptions import ServingError
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs import names
from repro.persistence import (
    DeploymentBundle,
    PathLike,
    atomic_write_bytes,
    bundle_checksum,
    load_bundle,
    save_bundle,
    select_prunable,
)
from repro.pipeline.pipeline import Pipeline

#: Manifest schema version.
MANIFEST_FORMAT = 1

#: Manifest file name inside the registry root.
MANIFEST_NAME = "registry.json"

#: Legal lifecycle states of a version.
STATUSES = ("candidate", "live", "retired", "rejected", "rolled_back")


@dataclass
class VersionInfo:
    """Metadata of one registered version (one manifest entry)."""

    version: str
    status: str = "candidate"
    parent: Optional[str] = None
    checksum: str = ""
    #: Deployment chunks the platform had observed at registration.
    chunks_observed: int = 0
    #: Virtual-clock cost spent producing this version.
    training_cost: float = 0.0
    #: Evaluation metrics supplied at registration (objective, error).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Registration order (monotonically increasing across versions).
    seq: int = 0
    #: Bundle file removed by :meth:`ModelRegistry.gc` (metadata stays).
    collected: bool = False

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "VersionInfo":
        known = {
            name: payload[name]
            for name in cls.__dataclass_fields__
            if name in payload
        }
        return cls(**known)


class ModelRegistry:
    """Versioned storage of deployment bundles with staged promotion.

    Parameters
    ----------
    root:
        Registry directory; created when missing. An existing manifest
        is loaded, so reopening a registry resumes its state.
    telemetry:
        Optional observability bundle; transitions become
        ``registry.*`` trace points and counters, and — when the
        bundle carries a :class:`~repro.obs.lineage.LineageLedger` —
        every version becomes a lineage ``model`` node whose
        lifecycle transitions the ledger records.
    name:
        Namespace of this registry's lineage nodes
        (``model:<name>:<version>``); defaults to the root directory
        name, which keeps versions of different registries (e.g. one
        per rollout policy) distinct in a shared ledger.
    """

    def __init__(
        self,
        root: PathLike,
        telemetry: Optional[Telemetry] = None,
        name: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.name = name if name is not None else self.root.name
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self._versions: Dict[str, VersionInfo] = {}
        self._live: Optional[str] = None
        self._next_id = 1
        self._transitions: List[Dict[str, object]] = []
        if self.manifest_path.exists():
            self._load_manifest()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def live_version(self) -> Optional[str]:
        """Version id currently serving, or ``None``."""
        return self._live

    @property
    def transitions(self) -> List[Dict[str, object]]:
        """Promotion/rollback/registration log, oldest first."""
        return list(self._transitions)

    def list_versions(self) -> List[VersionInfo]:
        """All versions in registration order."""
        return sorted(self._versions.values(), key=lambda v: v.seq)

    def candidates(self) -> List[VersionInfo]:
        """Versions still awaiting a promotion decision."""
        return [
            info for info in self.list_versions()
            if info.status == "candidate"
        ]

    def get(self, version: str) -> VersionInfo:
        """Metadata of ``version`` (raises on unknown ids)."""
        try:
            return self._versions[version]
        except KeyError:
            raise ServingError(
                f"unknown version {version!r}; registry has "
                f"{sorted(self._versions)}"
            ) from None

    def bundle_path(self, version: str) -> Path:
        return self.root / f"{self.get(version).version}.bundle"

    def load(self, version: str) -> DeploymentBundle:
        """Load a version's bundle, verifying its recorded checksum."""
        info = self.get(version)
        if info.collected:
            raise ServingError(
                f"version {version} was garbage-collected; its bundle "
                f"file is gone (lineage metadata is retained)"
            )
        path = self.bundle_path(version)
        checksum = bundle_checksum(path)
        if info.checksum and checksum != info.checksum:
            raise ServingError(
                f"bundle for {version} at {path} does not match its "
                f"registered checksum (expected {info.checksum[:12]}…, "
                f"found {checksum[:12]}…)"
            )
        return load_bundle(path)

    def load_live(self) -> DeploymentBundle:
        """Load the live version's bundle."""
        if self._live is None:
            raise ServingError("registry has no live version")
        return self.load(self._live)

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def register(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        parent: Optional[str] = None,
        chunks_observed: int = 0,
        training_cost: float = 0.0,
        metrics: Optional[Dict[str, float]] = None,
        lineage_event: Optional[str] = None,
    ) -> VersionInfo:
        """Snapshot a pipeline+model+optimizer as a new candidate.

        ``parent`` defaults to the current live version — the normal
        lineage of a proactive-training output. ``lineage_event`` is
        the provenance-ledger training node that produced these
        artifacts (when a ledger is attached); the new version's
        ``model`` node is linked to it with a ``produced`` edge.
        """
        version = f"v{self._next_id:04d}"
        self._next_id += 1
        if parent is None:
            parent = self._live
        elif parent not in self._versions:
            raise ServingError(
                f"parent version {parent!r} is not registered"
            )
        path = self.root / f"{version}.bundle"
        save_bundle(path, pipeline, model, optimizer)
        info = VersionInfo(
            version=version,
            status="candidate",
            parent=parent,
            checksum=bundle_checksum(path),
            chunks_observed=int(chunks_observed),
            training_cost=float(training_cost),
            metrics=dict(metrics or {}),
            seq=len(self._versions),
        )
        self._versions[version] = info
        ledger = self.telemetry.ledger
        if ledger is not None:
            ledger.record_model(
                self.name,
                version,
                checksum=info.checksum,
                parent=parent,
                training=lineage_event,
            )
        self._record("register", version=version, parent=parent)
        self._save_manifest()
        return info

    def promote(self, version: str, reason: str = "") -> VersionInfo:
        """Make ``version`` the live one; the incumbent is retired."""
        info = self.get(version)
        if info.collected:
            raise ServingError(
                f"cannot promote {version}: bundle was garbage-collected"
            )
        if info.status == "live":
            raise ServingError(f"{version} is already live")
        previous = self._live
        if previous is not None:
            self._versions[previous].status = "retired"
        info.status = "live"
        self._live = version
        self._record(
            "promote", version=version, previous=previous, reason=reason
        )
        self._save_manifest()
        return info

    def rollback(self, reason: str = "") -> VersionInfo:
        """Revert the live version to its predecessor.

        The failed version is marked ``rolled_back``; the most recent
        previously-live version (from the transition log) is
        reinstated. Raises when there is nothing to roll back to.
        """
        if self._live is None:
            raise ServingError("rollback: registry has no live version")
        previous = self._previous_live()
        if previous is None:
            raise ServingError(
                f"rollback: {self._live} has no predecessor to revert to"
            )
        if self._versions[previous].collected:
            raise ServingError(
                f"rollback: predecessor {previous} was garbage-collected"
            )
        failed = self._live
        self._versions[failed].status = "rolled_back"
        self._versions[previous].status = "live"
        self._live = previous
        self._record(
            "rollback", version=previous, failed=failed, reason=reason
        )
        self._save_manifest()
        return self._versions[previous]

    def reject(self, version: str, reason: str = "") -> VersionInfo:
        """Mark a candidate as rejected (it never went live)."""
        info = self.get(version)
        if info.status != "candidate":
            raise ServingError(
                f"only candidates can be rejected; {version} is "
                f"{info.status}"
            )
        info.status = "rejected"
        self._record("reject", version=version, reason=reason)
        self._save_manifest()
        return info

    def gc(self, keep: int = 3) -> List[str]:
        """Delete bundle files of old finished versions.

        Keeps the live version, every candidate, and the ``keep`` most
        recently registered finished (retired / rejected / rolled_back)
        versions. Collected versions keep their manifest entry — the
        lineage stays auditable — but their bundle file is removed.
        Returns the collected version ids.
        """
        if keep < 0:
            raise ServingError(f"keep must be >= 0, got {keep}")
        finished = [
            info for info in self.list_versions()
            if info.status in ("retired", "rejected", "rolled_back")
            and not info.collected
        ]
        collected: List[str] = []
        for info in select_prunable(finished, keep):
            path = self.root / f"{info.version}.bundle"
            if path.exists():
                path.unlink()
            info.collected = True
            collected.append(info.version)
        if collected:
            self._record("gc", collected=collected)
            self._save_manifest()
        return collected

    # ------------------------------------------------------------------
    # Manifest persistence
    # ------------------------------------------------------------------
    def _save_manifest(self) -> None:
        manifest = {
            "format": MANIFEST_FORMAT,
            "live": self._live,
            "next_id": self._next_id,
            "versions": {
                version: info.to_dict()
                for version, info in self._versions.items()
            },
            "transitions": self._transitions,
        }
        blob = json.dumps(manifest, indent=2, sort_keys=True)
        atomic_write_bytes(self.manifest_path, blob.encode("utf-8"))

    def _load_manifest(self) -> None:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError) as error:
            raise ServingError(
                f"cannot read registry manifest "
                f"{self.manifest_path}: {error}"
            ) from error
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ServingError(
                f"{self.manifest_path} has manifest format "
                f"{manifest.get('format')!r}; this library reads "
                f"format {MANIFEST_FORMAT}"
            )
        self._live = manifest.get("live")
        self._next_id = int(manifest.get("next_id", 1))
        self._transitions = list(manifest.get("transitions", []))
        self._versions = {
            version: VersionInfo.from_dict(payload)
            for version, payload in manifest.get("versions", {}).items()
        }
        if self._live is not None and self._live not in self._versions:
            raise ServingError(
                f"{self.manifest_path} points live at unknown version "
                f"{self._live!r}"
            )

    # ------------------------------------------------------------------
    def _previous_live(self) -> Optional[str]:
        """Most recent formerly-live version other than the current one."""
        for transition in reversed(self._transitions):
            if transition["event"] != "promote":
                continue
            if transition["version"] != self._live:
                continue
            previous = transition.get("previous")
            if previous is not None:
                return str(previous)
        return None

    def _record(self, event: str, **attrs: object) -> None:
        entry: Dict[str, object] = {"event": event, **attrs}
        self._transitions.append(entry)
        ledger = self.telemetry.ledger
        if (
            ledger is not None
            and event != "register"
            and "version" in attrs
        ):
            # register is recorded as a model node at registration
            # time; lifecycle transitions (promote/rollback/reject)
            # become ledger events and update the live-version map.
            ledger.record_transition(
                self.name, str(attrs["version"]), event
            )
        self.telemetry.tracer.point(names.REGISTRY_PREFIX + event, **attrs)
        self.telemetry.metrics.counter(names.REGISTRY_PREFIX + event).inc()

    def __repr__(self) -> str:
        return (
            f"ModelRegistry(root={str(self.root)!r}, "
            f"versions={len(self._versions)}, live={self._live})"
        )

"""Persisted benchmark baselines: the ``BENCH_<name>.json`` trajectory.

Every benchmark or perf-workload run condenses into one schema-
versioned :class:`BenchRecord` — headline metrics (each tagged with
the clock it was measured on), the profile digest of the traced run,
the git SHA, the environment fingerprint, and the seed/knobs needed to
reproduce the run from the JSON alone. Records append to a per-name
trajectory file, ``BENCH_<name>.json``, which the regression detector
(:mod:`repro.obs.perf`) gates fresh runs against and ``repro perf
report`` renders as the bench history of the repository.

Writes are atomic (the ``mkstemp`` + ``os.replace`` discipline of
:func:`repro.utils.fileio.atomic_write_bytes`): a benchmark process
killed mid-append can never leave a truncated trajectory behind.

Metric kinds
------------
``cost``
    Virtual-clock cost units — deterministic, gated by exact match.
``quality``
    Model-quality numbers (errors) — deterministic, gated by exact
    match.
``count``
    Event counts (chunks, retrainings) — deterministic, exact match.

Wall-clock is not a kind: it is measured in ``benchmarks/e2e`` only,
paired against a pinned commit (``make bench-e2e-check``).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.exceptions import ValidationError
from repro.obs import names
from repro.utils.fileio import atomic_write_bytes

PathLike = Union[str, Path]

#: Bump when the record layout changes incompatibly.
RECORD_SCHEMA = 1

#: Every kind is measured on a deterministic clock (exact-match gating).
METRIC_KINDS = ("cost", "quality", "count")


@dataclass(frozen=True)
class MetricValue:
    """One recorded metric: a number plus the clock it came from."""

    value: float
    kind: str = "cost"

    def __post_init__(self) -> None:
        if self.kind not in METRIC_KINDS:
            raise ValidationError(
                f"metric kind must be one of {METRIC_KINDS}, "
                f"got {self.kind!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {"value": self.value, "kind": self.kind}


@dataclass
class BenchRecord:
    """One benchmark run, condensed for the trajectory file."""

    name: str
    metrics: Dict[str, MetricValue]
    seed: Optional[int] = None
    params: Dict[str, object] = field(default_factory=dict)
    profile_digest: Optional[str] = None
    git_sha: Optional[str] = None
    env: Dict[str, str] = field(default_factory=dict)
    created_unix: float = 0.0
    schema: int = RECORD_SCHEMA

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in "/\\ "):
            raise ValidationError(
                f"record name must be a bare identifier, got "
                f"{self.name!r}"
            )

    def metric(self, key: str) -> MetricValue:
        try:
            return self.metrics[key]
        except KeyError:
            raise ValidationError(
                f"record {self.name!r} has no metric {key!r}; "
                f"recorded metrics are {sorted(self.metrics)}"
            ) from None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "name": self.name,
            "created_unix": self.created_unix,
            "git_sha": self.git_sha,
            "env": dict(self.env),
            "seed": self.seed,
            "params": dict(self.params),
            "profile_digest": self.profile_digest,
            "metrics": {
                key: value.to_dict()
                for key, value in sorted(self.metrics.items())
            },
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "BenchRecord":
        schema = raw.get("schema") if isinstance(raw, Mapping) else None
        if schema != RECORD_SCHEMA:
            raise ValidationError(
                f"bench record schema {schema!r} is not the supported "
                f"schema {RECORD_SCHEMA}"
            )
        metrics_raw = raw.get("metrics")
        if not isinstance(metrics_raw, Mapping):
            raise ValidationError(
                "bench record has no 'metrics' mapping"
            )
        metrics = {}
        for key, entry in metrics_raw.items():
            try:
                metrics[str(key)] = MetricValue(
                    float(entry["value"]), str(entry.get("kind", "cost"))
                )
            except (KeyError, TypeError, ValueError) as error:
                raise ValidationError(
                    f"metric {key!r} is not a value/kind entry "
                    f"({entry!r}): {error!r}"
                ) from None
        return cls(
            name=str(raw.get("name", "")),
            metrics=metrics,
            seed=raw.get("seed"),
            params=dict(raw.get("params", {})),
            profile_digest=raw.get("profile_digest"),
            git_sha=raw.get("git_sha"),
            env=dict(raw.get("env", {})),
            created_unix=float(raw.get("created_unix", 0.0)),
        )


def make_record(
    name: str,
    metrics: Mapping[str, MetricValue],
    seed: Optional[int] = None,
    params: Optional[Mapping[str, object]] = None,
    profile_digest: Optional[str] = None,
    repo_root: Optional[PathLike] = None,
) -> BenchRecord:
    """Build a record, stamping git SHA + environment fingerprint."""
    return BenchRecord(
        name=name,
        metrics=dict(metrics),
        seed=seed,
        params=dict(params or {}),
        profile_digest=profile_digest,
        git_sha=current_git_sha(repo_root),
        env=environment_fingerprint(),
        created_unix=time.time(),
    )


def environment_fingerprint() -> Dict[str, str]:
    """What the numbers were measured on, for trajectory forensics."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "numpy": numpy.__version__,
    }


def current_git_sha(repo_root: Optional[PathLike] = None) -> Optional[str]:
    """HEAD's SHA, or ``None`` outside a git checkout (e.g. a sdist)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class BaselineStore:
    """Directory of ``BENCH_<name>.json`` trajectory files.

    Each file holds every record ever appended for one bench name,
    oldest first. Appends rewrite the file atomically; a concurrent
    reader sees either the old or the new trajectory, never a torn
    one.
    """

    def __init__(self, root: PathLike, telemetry=None) -> None:
        self.root = Path(root)
        self.telemetry = telemetry

    def path_for(self, name: str) -> Path:
        return self.root / f"BENCH_{name}.json"

    def names(self) -> List[str]:
        """Bench names with a trajectory in this store, sorted."""
        if not self.root.is_dir():
            return []
        found = []
        for path in sorted(self.root.glob("BENCH_*.json")):
            found.append(path.stem[len("BENCH_"):])
        return found

    def load(self, name: str) -> List[BenchRecord]:
        """All records for ``name``, oldest first ([] when absent)."""
        path = self.path_for(name)
        if not path.exists():
            return []
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise ValidationError(
                f"trajectory {path} is unreadable: {error}"
            ) from error
        if (
            not isinstance(raw, Mapping)
            or raw.get("schema") != RECORD_SCHEMA
            or not isinstance(raw.get("records"), list)
        ):
            raise ValidationError(
                f"trajectory {path} is not a schema-{RECORD_SCHEMA} "
                "BENCH trajectory"
            )
        try:
            return [BenchRecord.from_dict(entry) for entry in raw["records"]]
        except ValidationError as error:
            raise ValidationError(f"trajectory {path}: {error}") from None

    def latest(self, name: str) -> Optional[BenchRecord]:
        records = self.load(name)
        return records[-1] if records else None

    def append(self, record: BenchRecord) -> Path:
        """Append ``record`` to its trajectory (atomic rewrite)."""
        records = self.load(record.name)
        payload = {
            "schema": RECORD_SCHEMA,
            "name": record.name,
            "records": [r.to_dict() for r in records]
            + [record.to_dict()],
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = atomic_write_bytes(
            self.path_for(record.name),
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
        )
        if self.telemetry is not None:
            self.telemetry.tracer.point(
                names.PERF_RECORD,
                bench=record.name,
                metrics=len(record.metrics),
            )
            self.telemetry.metrics.counter(
                names.PERF_RECORDS_APPENDED
            ).inc()
        return path

    def __repr__(self) -> str:
        return f"BaselineStore({str(self.root)!r})"

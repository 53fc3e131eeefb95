"""Prediction serving over registry versions: live, shadow, canary.

:class:`ServingEndpoint` answers prediction batches from the
registry's live version. A rollout may additionally attach a
*candidate* version in one of two staging modes:

* **shadow** — every batch is also scored by the candidate; its
  predictions are recorded for the quality gate but never returned.
  The primary path is untouched, so the caller-visible predictions
  are byte-identical to a run without the shadow.
* **canary** — a configurable fraction of rows is served *by* the
  candidate. The split is deterministic per-row hash routing
  (:mod:`repro.serving.routing`): the same logical row always lands
  on the same side, independent of batch boundaries or replays.

Every batch produces a :class:`ServedBatch` carrying the per-side
predictions and labels the :class:`~repro.serving.gate.QualityGate`
compares.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.table import Table
from repro.exceptions import ServingError
from repro.execution.cost import CostModel
from repro.execution.engine import LocalExecutionEngine
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs import names
from repro.persistence import DeploymentBundle
from repro.pipeline.pipeline import Pipeline
from repro.serving.registry import ModelRegistry
from repro.serving.routing import derive_routing_seed, route_mask, row_keys
from repro.utils.rng import SeedLike

#: Staging modes a candidate can be attached in.
MODES = ("shadow", "canary")

_EMPTY = np.empty(0, dtype=np.float64)


def shared_stateless_prefix(primary: Pipeline, candidate: Pipeline) -> int:
    """Length of the leading run of equivalent *stateless* components.

    Shadow scoring runs two pipelines over the same rows; the leading
    stateless components (parsers, feature extraction, filters) are
    usually identical between the champion and a candidate trained
    from the same code, so their work can be computed once and shared.
    Equivalence is checked conservatively — same class, same name,
    same pickled configuration — and stateful components stop the
    scan, because their fitted statistics may legitimately differ
    between versions. Capped at ``len - 1`` so each side always runs
    its own terminal stage.
    """
    limit = min(len(primary), len(candidate)) - 1
    shared = 0
    for ours, theirs in zip(primary.components, candidate.components):
        if shared >= limit:
            break
        if ours.is_stateful or theirs.is_stateful:
            break
        if type(ours) is not type(theirs) or ours.name != theirs.name:
            break
        try:
            if pickle.dumps(ours) != pickle.dumps(theirs):
                break
        except (pickle.PicklingError, TypeError, AttributeError):
            break
        shared += 1
    return shared


@dataclass
class ServedBatch:
    """One served prediction batch, with per-side detail.

    ``predictions``/``labels`` are what the caller consumes — in
    canary mode the rows served by the primary come first, then the
    canary rows (pipelines may filter rows per side, so a positional
    merge back into input order is not defined in general).
    """

    predictions: np.ndarray
    labels: np.ndarray
    primary_version: str
    mode: str = "solo"
    candidate_version: Optional[str] = None
    #: Rows answered by the live version (full batch in solo/shadow).
    primary_predictions: np.ndarray = field(default_factory=lambda: _EMPTY)
    primary_labels: np.ndarray = field(default_factory=lambda: _EMPTY)
    #: Rows scored by the candidate (mirror in shadow, split in canary).
    candidate_predictions: np.ndarray = field(
        default_factory=lambda: _EMPTY
    )
    candidate_labels: np.ndarray = field(default_factory=lambda: _EMPTY)
    #: Fraction of input rows routed to the canary (0 outside canary).
    canary_share: float = 0.0


class ServingEndpoint:
    """Routes prediction batches to registry versions.

    Parameters
    ----------
    registry:
        The version store; the endpoint serves its live version.
    cost_model:
        Prices for the endpoint's execution engine.
    seed:
        Seeds the deterministic canary routing salt (via
        :mod:`repro.utils.rng`), so a restart reproduces the split.
    telemetry:
        Optional observability bundle (``serving.predict`` spans,
        shadow/canary row counters).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        cost_model: Optional[CostModel] = None,
        seed: SeedLike = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.registry = registry
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.engine = LocalExecutionEngine(
            cost_model, telemetry=self.telemetry
        )
        self._routing_salt = derive_routing_seed(seed)
        self._primary_version: Optional[str] = None
        self._primary: Optional[DeploymentBundle] = None
        self._candidate_version: Optional[str] = None
        self._candidate: Optional[DeploymentBundle] = None
        self._mode: Optional[str] = None
        self._fraction = 0.0
        self._batch_index = -1
        #: Shadow transform dedup: ``(prefix, primary_rest,
        #: candidate_rest)`` pipelines when the attached shadow shares
        #: a leading stateless run with the primary, else ``None``.
        self._shadow_shared: Optional[
            Tuple[Pipeline, Pipeline, Pipeline]
        ] = None
        if registry.live_version is not None:
            self.reload_live()

    # ------------------------------------------------------------------
    @property
    def primary_version(self) -> Optional[str]:
        return self._primary_version

    @property
    def candidate_version(self) -> Optional[str]:
        return self._candidate_version

    @property
    def mode(self) -> str:
        """``"solo"`` when no candidate is attached, else the stage mode."""
        return self._mode if self._mode is not None else "solo"

    @property
    def primary_bundle(self) -> Optional[DeploymentBundle]:
        """The in-memory artifacts currently serving primary traffic."""
        return self._primary

    # ------------------------------------------------------------------
    # Version management
    # ------------------------------------------------------------------
    def reload_live(self) -> str:
        """(Re)load the registry's live version as the primary."""
        version = self.registry.live_version
        if version is None:
            raise ServingError(
                "registry has no live version to serve; promote one "
                "first"
            )
        self._primary = self.registry.load(version)
        self._primary_version = version
        if self._mode == "shadow" and self._candidate is not None:
            self._shadow_shared = self._build_shadow_shared()
        return version

    def attach_candidate(
        self, version: str, mode: str = "shadow", fraction: float = 0.1
    ) -> None:
        """Stage a candidate next to the live version.

        ``fraction`` only applies to canary mode; shadow always
        mirrors the full batch.
        """
        if self._primary is None:
            raise ServingError(
                "attach_candidate: endpoint has no live version"
            )
        if mode not in MODES:
            raise ServingError(
                f"mode must be one of {MODES}, got {mode!r}"
            )
        if self._candidate is not None:
            raise ServingError(
                f"a candidate ({self._candidate_version}) is already "
                f"attached; detach it first"
            )
        if version == self._primary_version:
            raise ServingError(
                f"candidate {version} is already the live version"
            )
        if mode == "canary" and not 0.0 < fraction <= 1.0:
            raise ServingError(
                f"canary fraction must be in (0, 1], got {fraction}"
            )
        self._candidate = self.registry.load(version)
        self._candidate_version = version
        self._mode = mode
        self._fraction = fraction if mode == "canary" else 0.0
        self._shadow_shared = (
            self._build_shadow_shared() if mode == "shadow" else None
        )
        self.telemetry.tracer.point(
            names.SERVING_ATTACH,
            version=version,
            mode=mode,
            fraction=self._fraction,
        )

    def detach_candidate(self) -> Optional[str]:
        """Remove the staged candidate; returns its version id."""
        version = self._candidate_version
        self._candidate = None
        self._candidate_version = None
        self._mode = None
        self._fraction = 0.0
        self._shadow_shared = None
        return version

    def promote_candidate(self) -> str:
        """Make the in-memory candidate the primary (post-promotion).

        Call after :meth:`ModelRegistry.promote`; avoids re-reading
        the bundle that is already loaded.
        """
        if self._candidate is None:
            raise ServingError("promote_candidate: no candidate attached")
        self._primary = self._candidate
        self._primary_version = self._candidate_version
        self.detach_candidate()
        return str(self._primary_version)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def predict(
        self, table: Table, chunk_index: Optional[int] = None
    ) -> ServedBatch:
        """Serve one prediction batch: a micro-batch of one request.

        ``chunk_index`` keys the deterministic canary routing; when
        omitted, an internal batch counter is used (stable within one
        endpoint lifetime, but not across restarts — pass the
        deployment chunk index for replay-stable routing).
        """
        return self.predict_requests(
            [table], None if chunk_index is None else [chunk_index]
        )

    def predict_requests(
        self,
        tables: Sequence[Table],
        keys: Optional[Sequence[int]] = None,
    ) -> ServedBatch:
        """Serve many queued requests as one micro-batch.

        The batched front end (:mod:`repro.traffic`): the requests'
        tables are concatenated and each pipeline/model runs once over
        the merged rows, amortizing per-call transform and kernel
        dispatch. ``keys`` are the stable per-request routing keys —
        canary routing is computed per request *before* merging, so
        every row lands on the same side it would have landed on had
        its request been served alone, and the flattened per-side
        prediction streams are bit-identical to request-at-a-time
        serving (pipelines may filter rows, so the merged result is
        reported batch-level, not re-split per request).
        """
        if self._primary is None:
            raise ServingError("endpoint has no live version to serve")
        tables = list(tables)
        if not tables:
            raise ServingError(
                "predict_requests needs at least one request"
            )
        if keys is None:
            keys = [self._batch_index + 1 + i for i in range(len(tables))]
        elif len(keys) != len(tables):
            raise ServingError(
                f"predict_requests got {len(tables)} tables but "
                f"{len(keys)} routing keys"
            )
        self._batch_index += len(tables)
        total_rows = sum(t.num_rows for t in tables)
        cost_before = self.engine.total_cost()
        if self._mode == "canary":
            served = self._predict_canary_requests(tables, keys)
        elif self._mode == "shadow":
            served = self._predict_shadow(Table.concat(tables))
        else:
            predictions, labels = self._score(
                self._primary.pipeline,
                self._primary.model,
                Table.concat(tables),
            )
            served = ServedBatch(
                predictions=predictions,
                labels=labels,
                primary_version=str(self._primary_version),
                primary_predictions=predictions,
                primary_labels=labels,
            )
        # Per-batch serving latency on the virtual clock — the
        # health monitor's SLO signal. A point + histogram, not a
        # span, so profile digests stay stable.
        batch_cost = self.engine.total_cost() - cost_before
        metrics = self.telemetry.metrics
        metrics.observe(names.SERVING_LATENCY, batch_cost)
        self.telemetry.tracer.point(
            names.SERVING_LATENCY,
            cost=batch_cost,
            rows=total_rows,
            mode=served.mode,
        )
        metrics.counter(names.SERVING_BATCHES).inc(len(tables))
        metrics.counter(names.SERVING_ROWS).inc(total_rows)
        if served.mode == "canary":
            metrics.counter(names.SERVING_CANARY_ROWS).inc(
                len(served.candidate_predictions)
            )
        elif served.mode == "shadow":
            metrics.counter(names.SERVING_SHADOW_ROWS).inc(
                len(served.candidate_predictions)
            )
        return served

    # ------------------------------------------------------------------
    def _build_shadow_shared(
        self,
    ) -> Optional[Tuple[Pipeline, Pipeline, Pipeline]]:
        """Split primary/candidate pipelines around their shared prefix.

        Component equality is pickle-based, so the transforms the
        prefix pipeline applies are exactly what each side would have
        applied — the split changes cost, never predictions.
        """
        assert self._primary is not None and self._candidate is not None
        shared = shared_stateless_prefix(
            self._primary.pipeline, self._candidate.pipeline
        )
        if shared == 0:
            return None
        components = self._primary.pipeline.components
        return (
            Pipeline(components[:shared]),
            Pipeline(components[shared:]),
            Pipeline(self._candidate.pipeline.components[shared:]),
        )

    def _predict_shadow(self, table: Table) -> ServedBatch:
        # The primary path runs first and, transform for transform,
        # computes what solo mode would (the shared prefix is pickle-
        # equal to the primary's own leading components), so its
        # predictions stay byte-identical with a shadow attached.
        if self._shadow_shared is not None and table.num_rows:
            prefix, primary_rest, candidate_rest = self._shadow_shared
            table = self.engine.serve_transform(prefix, table)
        else:
            primary_rest = self._primary.pipeline
            candidate_rest = self._candidate.pipeline
        predictions, labels = self._score(
            primary_rest, self._primary.model, table
        )
        shadow_predictions, shadow_labels = self._score(
            candidate_rest, self._candidate.model, table
        )
        return ServedBatch(
            predictions=predictions,
            labels=labels,
            primary_version=str(self._primary_version),
            mode="shadow",
            candidate_version=self._candidate_version,
            primary_predictions=predictions,
            primary_labels=labels,
            candidate_predictions=shadow_predictions,
            candidate_labels=shadow_labels,
        )

    def _predict_canary_requests(
        self, tables: Sequence[Table], keys: Sequence[int]
    ) -> ServedBatch:
        # Route each request by its own stable key, exactly as
        # request-at-a-time serving would, then merge the per-side
        # slices and score each side once.
        primary_parts = []
        candidate_parts = []
        canary_rows = 0
        total_rows = 0
        for key, table in zip(keys, tables):
            total_rows += table.num_rows
            mask = route_mask(
                row_keys(int(key), table.num_rows),
                self._fraction,
                salt=self._routing_salt,
            )
            routed = int(np.count_nonzero(mask))
            canary_rows += routed
            if routed == 0:
                primary_parts.append(table)
            elif routed == table.num_rows:
                candidate_parts.append(table)
            else:
                primary_parts.append(table.filter_rows(~mask))
                candidate_parts.append(table.filter_rows(mask))
        primary_predictions, primary_labels = self._score(
            self._primary.pipeline,
            self._primary.model,
            Table.concat(primary_parts),
        )
        candidate_predictions, candidate_labels = self._score(
            self._candidate.pipeline,
            self._candidate.model,
            Table.concat(candidate_parts),
        )
        return ServedBatch(
            predictions=np.concatenate(
                [primary_predictions, candidate_predictions]
            ),
            labels=np.concatenate([primary_labels, candidate_labels]),
            primary_version=str(self._primary_version),
            mode="canary",
            candidate_version=self._candidate_version,
            primary_predictions=primary_predictions,
            primary_labels=primary_labels,
            candidate_predictions=candidate_predictions,
            candidate_labels=candidate_labels,
            canary_share=canary_rows / max(total_rows, 1),
        )

    def _score(self, pipeline: Pipeline, model, table: Table):
        """Predictions and labels of ``model`` over ``table`` run
        through ``pipeline`` (a whole one, or what is left of it after
        a shared prefix); empty input never reaches the engine."""
        if table.num_rows == 0:
            return _EMPTY, _EMPTY
        features = self.engine.transform_only(pipeline, table)
        if features.num_rows == 0:
            return _EMPTY, _EMPTY
        predictions = self.engine.predict(model, features.matrix)
        return predictions, np.asarray(features.labels)

    def __repr__(self) -> str:
        return (
            f"ServingEndpoint(primary={self._primary_version}, "
            f"mode={self.mode}, candidate={self._candidate_version})"
        )

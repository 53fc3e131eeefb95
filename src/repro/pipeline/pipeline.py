"""Pipeline: an ordered chain of components with two execution paths.

* :meth:`Pipeline.update_transform` — the online-training path: each
  component updates its statistics from the batch, then transforms it
  (online statistics computation, §3.1).
* :meth:`Pipeline.transform` — the pure serving / re-materialization
  path: statistics are read but never written.

Both paths run the *same* components in the same order, which is the
paper's train/serve-consistency argument (§4.3) — one loop, differing
only in whether a stateful component is updated first. An optional
:class:`~repro.execution.cost.CostTracker` receives per-component
charges so experiments can attribute deployment cost to preprocessing.

The components before the first stateful one (the *stateless prefix*)
compute the same bytes on either path, so a caller that runs both over
one batch may pass a :class:`PrefixMemo`: the first pass leaves the
prefix's output in it, the second starts there and only repeats the
prefix's cost charges. The pipeline itself keeps nothing between calls;
who holds the memo decides how long it lives (the pipeline manager for
one prequential step, the chunk storage for as long as a re-read raw
chunk is stored).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import PipelineError
from repro.pipeline.component import Batch, Features, PipelineComponent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.execution.cost import CostTracker


class PrefixMemo:
    """One batch's stateless prefix: the ``source`` batch (the key, by
    identity — a batch is immutable by contract, and hashing a chunk
    would cost more than parsing it), the prefix's ``output`` and, in
    order, the ``(values, component name)`` of each transform charge it
    made. Empty (no source) until a whole prefix has run."""

    source: Optional[Batch] = None
    output: Optional[Batch] = None
    charges: Tuple[Tuple[int, str], ...] = ()

    def fill(self, source: Batch, output: Batch, charges) -> None:
        self.source, self.output, self.charges = source, output, tuple(charges)


def require_features(result: Batch) -> Features:
    """``result`` itself, once checked to be model-ready."""
    if not isinstance(result, Features):
        raise PipelineError(
            "pipeline did not terminate in a Features batch; add a "
            "terminal assembler/hasher component (got "
            f"{type(result).__name__})"
        )
    return result


class Pipeline:
    """An ordered, named chain of :class:`PipelineComponent` objects.

    Parameters
    ----------
    components:
        The chain, first component first. Names must be unique so that
        per-component statistics and cost lines are unambiguous.
    """

    def __init__(self, components: Sequence[PipelineComponent]) -> None:
        components = list(components)
        if not components:
            raise PipelineError("a pipeline needs at least one component")
        names = set()
        for component in components:
            if not isinstance(component, PipelineComponent):
                raise PipelineError(
                    f"{component!r} is not a PipelineComponent"
                )
            if component.name in names:
                raise PipelineError(
                    f"duplicate component name {component.name!r}"
                )
            names.add(component.name)
        self._components: List[PipelineComponent] = components

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def components(self) -> List[PipelineComponent]:
        """The chain (a copy; mutate via construction, not in place)."""
        return list(self._components)

    @property
    def component_names(self) -> List[str]:
        return [c.name for c in self._components]

    def component(self, name: str) -> PipelineComponent:
        """Return the component called ``name``."""
        for candidate in self._components:
            if candidate.name == name:
                return candidate
        raise PipelineError(
            f"no component {name!r}; have {self.component_names}"
        )

    @property
    def stateful_components(self) -> List[PipelineComponent]:
        """Components whose statistics online computation maintains."""
        return [c for c in self._components if c.is_stateful]

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[PipelineComponent]:
        return iter(self._components)

    def __repr__(self) -> str:
        chain = " -> ".join(self.component_names)
        return f"Pipeline({chain})"

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------
    def update_transform(
        self,
        batch: Batch,
        tracker: Optional["CostTracker"] = None,
        memo: Optional[PrefixMemo] = None,
    ) -> Batch:
        """Online path: update statistics with the batch, then transform.

        Cost accounting: every component charges a ``statistics`` line
        for the update scan and a ``transform`` line for the transform
        scan, each proportional to the batch's value count.
        """
        return self._run(batch, tracker, memo, update=True)

    def transform(
        self,
        batch: Batch,
        tracker: Optional["CostTracker"] = None,
        memo: Optional[PrefixMemo] = None,
    ) -> Batch:
        """Serving / re-materialization path: transform only."""
        return self._run(batch, tracker, memo, update=False)

    def _run(
        self,
        batch: Batch,
        tracker: Optional["CostTracker"],
        memo: Optional[PrefixMemo],
        update: bool,
    ) -> Batch:
        """Both paths, one loop. A ``memo`` holding this very ``batch``
        stands in for the stateless prefix (its charges are made again,
        in order: the virtual clock cannot tell); an empty one is
        filled once the whole prefix has run."""
        current, start, charges = batch, 0, None
        if memo is not None and memo.source is batch:
            current, start = memo.output, len(memo.charges)
            if tracker is not None:
                for values, name in memo.charges:
                    tracker.charge_transform(values, name)
        elif memo is not None and memo.source is None:
            charges = []  # the prefix's, until its end is reached
        for component in self._components[start:]:
            if charges is not None and component.is_stateful:
                memo.fill(batch, current, charges)
                charges = None
            values = PipelineComponent.batch_num_values(current)
            if update and component.is_stateful:
                component.update(current)
                if tracker is not None:
                    tracker.charge_statistics(values, component.name)
            current = component.transform(current)
            if tracker is not None:
                tracker.charge_transform(values, component.name)
            if charges is not None:
                charges.append((values, component.name))
        if charges is not None:  # nothing stateful: all of it is prefix
            memo.fill(batch, current, charges)
        return current

    def reset(self) -> None:
        """Reset the statistics of every component."""
        for component in self._components:
            component.reset()

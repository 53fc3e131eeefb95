"""Always-on metrics primitives for the deployment platform.

A :class:`MetricsRegistry` hands out three instrument kinds:

* :class:`Counter` — monotonically increasing totals (cache hits,
  evictions, scheduler decisions);
* :class:`Gauge` — last-written values (materialized chunk count,
  materialized bytes);
* :class:`StreamingHistogram` — quantile estimates (p50/p95/p99)
  without storing samples, via geometric bucketing. Relative error is
  bounded by the bucket growth factor (~5% with the default base),
  which is plenty for telemetry; exact percentiles over full traces
  are available offline through :mod:`repro.obs.summary`.

Everything here is plain-Python and allocation-light so that leaving
the registry attached to a deployment costs close to nothing.

Disabled metrics are a first-class mode, like
:class:`~repro.obs.trace.NullTracer`: :data:`NULL_METRICS` hands
every site one shared do-nothing instrument, so an emit site never
asks whether anyone is listening.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.exceptions import ValidationError

#: Geometric bucket growth factor: each bucket's upper bound is
#: ``base`` times its lower bound, bounding quantile error to ~base-1.
_DEFAULT_BASE = 1.1


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value:g})"


class Gauge:
    """A last-written value (may go up or down)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value:g})"


class StreamingHistogram:
    """Quantile sketch over a stream, without storing samples.

    Non-positive observations land in a dedicated zero bucket; positive
    ones in geometric buckets ``[base**i, base**(i+1))``. A quantile is
    answered by walking the cumulative bucket counts and reporting the
    geometric midpoint of the containing bucket, clamped to the
    observed min/max so tail quantiles never overshoot the data.
    """

    __slots__ = (
        "name",
        "_base",
        "_log_base",
        "_buckets",
        "_zero_count",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(self, name: str, base: float = _DEFAULT_BASE) -> None:
        if base <= 1.0:
            raise ValidationError(
                f"histogram base must be > 1, got {base}"
            )
        self.name = name
        self._base = base
        self._log_base = math.log(base)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self._zero_count += 1
            return
        index = math.floor(math.log(value) / self._log_base)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1) of the stream."""
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        # 1-based rank of the requested quantile.
        rank = max(1, math.ceil(q * self.count))
        seen = self._zero_count
        if rank <= seen:
            return min(0.0, self.min)
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                midpoint = self._base ** (index + 0.5)
                return min(max(midpoint, self.min), self.max)
        return self.max

    def percentiles(self) -> Dict[str, float]:
        """The standard telemetry trio."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another sketch's samples into this one.

        Both sketches must share the same bucket base; merging is how
        the health monitor combines per-window sketches into a sliding
        view without re-observing samples.
        """
        if other._base != self._base:
            raise ValidationError(
                f"cannot merge histograms with bases {self._base} "
                f"and {other._base}"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zero_count += other._zero_count
        self.count += other.count
        self.total += other.total
        if other.count:
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max

    def state_dict(self) -> Dict[str, object]:
        """Full sketch state (unlike the lossy snapshot percentiles).

        The dump is strict-JSON safe: bucket indices are a sorted
        ``[index, count]`` list (JSON objects cannot carry int keys)
        and the min/max of an empty sketch are ``None`` rather than
        the non-JSON infinities — a ``json.dumps``/``loads`` round
        trip restores the sketch bit-identically.
        """
        return {
            "base": self._base,
            "buckets": [
                [index, self._buckets[index]]
                for index in sorted(self._buckets)
            ],
            "zero_count": self._zero_count,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore sketch state captured by :meth:`state_dict`.

        Accepts both the list-of-pairs bucket encoding and the legacy
        ``{index: count}`` mapping from pre-JSON-safe checkpoints.
        """
        self._base = float(state["base"])
        self._log_base = math.log(self._base)
        buckets = state["buckets"]
        if isinstance(buckets, dict):
            self._buckets = {
                int(k): int(v) for k, v in buckets.items()
            }
        else:
            self._buckets = {
                int(index): int(count) for index, count in buckets
            }
        self._zero_count = int(state["zero_count"])
        self.count = int(state["count"])
        self.total = float(state["total"])
        saved_min = state.get("min")
        saved_max = state.get("max")
        self.min = math.inf if saved_min is None else float(saved_min)
        self.max = -math.inf if saved_max is None else float(saved_max)

    def __repr__(self) -> str:
        return (
            f"StreamingHistogram({self.name!r}, count={self.count}, "
            f"mean={self.mean:g})"
        )


class MetricsRegistry:
    """Get-or-create store for counters, gauges, and histograms.

    Instruments are identified by name; re-requesting a name returns
    the same instrument, so instrumentation sites never need to share
    references explicitly.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, base: Optional[float] = None
    ) -> StreamingHistogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = StreamingHistogram(
                name, base if base is not None else _DEFAULT_BASE
            )
        return instrument

    def observe(self, name: str, value: float) -> None:
        """Shorthand for ``histogram(name).add(value)``."""
        self.histogram(name).add(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready dump of every instrument's current state."""
        histograms = {}
        for name, hist in sorted(self._histograms.items()):
            histograms[name] = {
                "count": hist.count,
                "mean": hist.mean,
                "min": hist.min if hist.count else 0.0,
                "max": hist.max if hist.count else 0.0,
                **hist.percentiles(),
            }
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": histograms,
        }

    def state_dict(self) -> Dict[str, Dict[str, object]]:
        """Lossless dump of every instrument (cf. the lossy
        :meth:`snapshot`), for checkpoint/recovery: a registry restored
        from this state produces byte-identical snapshots."""
        return {
            "counters": {
                name: counter.value
                for name, counter in self._counters.items()
            },
            "gauges": {
                name: gauge.value for name, gauge in self._gauges.items()
            },
            "histograms": {
                name: hist.state_dict()
                for name, hist in self._histograms.items()
            },
        }

    def load_state_dict(
        self, state: Dict[str, Dict[str, object]]
    ) -> None:
        """Replace all instrument state with a :meth:`state_dict` dump."""
        self.reset()
        for name, value in state["counters"].items():
            self.counter(name).value = float(value)
        for name, value in state["gauges"].items():
            self.gauge(name).set(value)
        for name, hist_state in state["histograms"].items():
            self.histogram(name).load_state_dict(hist_state)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )


class _NullInstrument:
    """Shared do-nothing counter, gauge and histogram."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Disabled registry: every name resolves to the shared no-op
    instrument, so nothing is ever registered and
    :meth:`snapshot`/:meth:`state_dict` list no instruments."""

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self, name: str, base: Optional[float] = None
    ) -> _NullInstrument:
        return NULL_INSTRUMENT


NULL_METRICS = NullMetricsRegistry()

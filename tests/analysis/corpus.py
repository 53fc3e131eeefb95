"""The reprolint fixture corpus.

One (flagging, clean, noqa-suppressed) source triple per rule, kept
as strings so the deliberately-bad fixture code never reaches the
general linters (ruff/pyflakes) that sweep ``tests/``. The test
harness writes each snippet to a temp file and lints it with exactly
one rule selected.

Per-file rules (REP001–REP008) use single-source triples in
``CORPUS``; the whole-program rules (REP009–REP014, DESIGN.md §14)
need cross-file structure, so ``PROGRAM_CORPUS`` maps each variant to
a *file tree* (repo-relative path -> source) that the harness writes
under a temp root and lints whole.
"""

from __future__ import annotations

from textwrap import dedent
from typing import Dict, Tuple

#: (rule id, variant) -> source. Variants: flag / clean / noqa.
CORPUS: Dict[Tuple[str, str], str] = {}

#: (rule id, variant) -> {relpath: source}. Variants: flag / clean /
#: noqa. Paths follow the ``src/repro/<subsystem>/...`` layout so the
#: program model's module naming and subsystem mapping apply.
PROGRAM_CORPUS: Dict[Tuple[str, str], Dict[str, str]] = {}


def _add(rule: str, flag: str, clean: str, noqa: str) -> None:
    CORPUS[(rule, "flag")] = dedent(flag)
    CORPUS[(rule, "clean")] = dedent(clean)
    CORPUS[(rule, "noqa")] = dedent(noqa)


def _add_program(
    rule: str,
    flag: Dict[str, str],
    clean: Dict[str, str],
    noqa: Dict[str, str],
) -> None:
    PROGRAM_CORPUS[(rule, "flag")] = {
        path: dedent(source) for path, source in flag.items()
    }
    PROGRAM_CORPUS[(rule, "clean")] = {
        path: dedent(source) for path, source in clean.items()
    }
    PROGRAM_CORPUS[(rule, "noqa")] = {
        path: dedent(source) for path, source in noqa.items()
    }


_add(
    "REP001",
    flag="""\
    import numpy as np

    def jitter(n):
        return np.random.default_rng(0).normal(size=n)
    """,
    clean="""\
    from repro.utils.rng import ensure_rng

    def jitter(n, seed=None):
        return ensure_rng(seed).normal(size=n)
    """,
    noqa="""\
    import numpy as np

    def jitter(n):
        return np.random.default_rng(0).normal(size=n)  # repro: noqa[REP001]
    """,
)

_add(
    "REP004",
    flag="""\
    class Skewed:
        def state_dict(self):
            return {"cursor": self.cursor, "extra": 1}

        def load_state_dict(self, state):
            self.cursor = state["cursor"]
            self.other = state["missing"]
    """,
    clean="""\
    class Symmetric:
        def state_dict(self):
            return {"cursor": self.cursor, "total": self.total}

        def load_state_dict(self, state):
            self.cursor = state["cursor"]
            self.total = state.get("total", 0.0)
    """,
    # One noqa per asymmetric side: REP004 reports the saved-but-never-
    # read key at state_dict and the read-but-never-saved key at
    # load_state_dict.
    noqa="""\
    class Skewed:
        def state_dict(self):  # repro: noqa[REP004]
            return {"cursor": self.cursor, "extra": 1}

        def load_state_dict(self, state):  # repro: noqa[REP004]
            self.cursor = state["cursor"]
            self.other = state["missing"]
    """,
)

_add(
    "REP005",
    flag="""\
    def record(telemetry):
        telemetry.metrics.counter("cache.bogus_event").inc()
        telemetry.tracer.point("camelCaseName", x=1)
    """,
    clean="""\
    from repro.obs import names

    def record(telemetry):
        telemetry.metrics.counter(names.CACHE_HITS).inc()
        telemetry.tracer.point(names.SCHEDULER_DECISION, x=1)
        telemetry.tracer.point(names.ROLLOUT_PREFIX + "promote", x=1)
        telemetry.tracer.point(names.RELIABILITY_CHECKPOINT_WRITTEN, n=1)
        telemetry.metrics.counter(names.RELIABILITY_CHECKPOINTS_WRITTEN).inc()
        telemetry.tracer.point(names.ALERT_FIRING, rule="drift")
        telemetry.metrics.counter(names.ALERTS_FIRED).inc()
        telemetry.metrics.gauge(names.MONITOR_WINDOWS).set(24)
        telemetry.metrics.observe(names.SERVING_LATENCY, 0.01)
        telemetry.tracer.point(names.PLATFORM_CHUNK, error=0.4)
        telemetry.tracer.point(names.HEALTH_EXPORTED, path="h.json")
        telemetry.metrics.counter(names.TRAFFIC_ARRIVALS).inc()
        telemetry.metrics.counter(names.TRAFFIC_SHED).inc()
        telemetry.metrics.gauge(names.TRAFFIC_QUEUE_DEPTH).set(3)
        telemetry.metrics.counter(names.BATCH_DISPATCHED).inc()
        telemetry.metrics.observe(names.BATCH_WAIT, 0.002)
        telemetry.tracer.point(names.SLO_LATENCY, cost=0.01)
        telemetry.metrics.gauge(names.SLO_SHED_RATE).set(0.0)
        telemetry.tracer.point(names.FLEET_EPOCH, epoch=0)
        telemetry.metrics.counter(names.FLEET_TRAININGS).inc()
        telemetry.metrics.gauge(names.FLEET_BALANCE).set(0.25)
        telemetry.metrics.counter(names.FLEET_RESCUES).inc()
        telemetry.tracer.point(names.FLEET_OVERDRAFT, tenant="t0")
        telemetry.tracer.point(names.LINEAGE_NODE, kind="chunk")
        telemetry.metrics.counter(names.LINEAGE_NODES).inc()
        telemetry.metrics.counter(names.LINEAGE_EDGES).inc()
        telemetry.tracer.point(names.LINEAGE_EXPORTED, path="l.json")
    """,
    noqa="""\
    def record(telemetry):
        telemetry.metrics.counter("cache.bogus_event").inc()  # repro: noqa[REP005]
        telemetry.tracer.point("camelCaseName", x=1)  # repro: noqa
    """,
)

_add(
    "REP007",
    flag="""\
    def swallow(op):
        try:
            return op()
        except Exception:
            return None
    """,
    # A blind handler that re-raises (error translation) is allowed;
    # so is catching a specific type.
    clean="""\
    def translate(op):
        try:
            return op()
        except ValueError as error:
            raise RuntimeError("bad value") from error
    """,
    noqa="""\
    def swallow(op):
        try:
            return op()
        except Exception:  # repro: noqa[REP007]
            return None
    """,
)

_add(
    "REP008",
    flag="""\
    def accumulate(value, into=[]):
        if value == 0.125:
            into.append(value)
        return into
    """,
    clean="""\
    import math

    def accumulate(value, into=None):
        into = [] if into is None else into
        if math.isclose(value, 0.125):
            into.append(value)
        return into
    """,
    noqa="""\
    def accumulate(value, into=[]):  # repro: noqa[REP008]
        if value == 0.125:  # repro: noqa[REP008]
            into.append(value)
        return into
    """,
)

# -- whole-program triples (REP009–REP014) ---------------------------

_add_program(
    "REP009",
    # `self.rows` is mutable and the checkpoint pair never touches it:
    # a recovered Cursor silently loses the buffered rows.
    flag={
        "src/repro/core/cursor.py": """\
        class Cursor:
            def __init__(self):
                self.rows = []
                self.position = 0

            def state_dict(self):
                return {"position": self.position}

            def load_state_dict(self, state):
                self.position = state["position"]
        """,
    },
    # Coverage through a helper: state_dict calls self._snapshot(),
    # which reads self.rows — the rule follows self.<method>() calls.
    clean={
        "src/repro/core/cursor.py": """\
        class Cursor:
            def __init__(self):
                self.rows = []
                self.position = 0

            def _snapshot(self):
                return {"rows": list(self.rows), "position": self.position}

            def state_dict(self):
                return self._snapshot()

            def load_state_dict(self, state):
                self.rows = list(state["rows"])
                self.position = state["position"]
        """,
    },
    noqa={
        "src/repro/core/cursor.py": """\
        class Cursor:
            def __init__(self):
                self.rows = []  # repro: noqa[REP009]
                self.position = 0

            def state_dict(self):
                return {"position": self.position}

            def load_state_dict(self, state):
                self.position = state["position"]
        """,
    },
)

_add_program(
    "REP010",
    flag={
        "src/repro/reliability/janitor.py": """\
        def sweep(directory):
            for stale in directory.glob("*.tmp"):
                stale.unlink()
        """,
    },
    clean={
        "src/repro/reliability/janitor.py": """\
        def sweep(directory):
            for stale in sorted(directory.glob("*.tmp")):
                stale.unlink()
        """,
    },
    noqa={
        "src/repro/reliability/janitor.py": """\
        def sweep(directory):
            for stale in directory.glob("*.tmp"):  # repro: noqa[REP010]
                stale.unlink()
        """,
    },
)

_add_program(
    "REP012",
    # ml (layer 2) importing serving (layer 9) points *up* the table.
    flag={
        "src/repro/ml/trainer.py": """\
        from repro.serving import registry

        def train():
            return registry.ROUTES
        """,
        "src/repro/serving/registry.py": """\
        ROUTES = ()
        """,
    },
    # The reverse direction points strictly down and is legal.
    clean={
        "src/repro/ml/trainer.py": """\
        def train():
            return ()
        """,
        "src/repro/serving/registry.py": """\
        from repro.ml import trainer

        def routes():
            return trainer.train()
        """,
    },
    noqa={
        "src/repro/ml/trainer.py": """\
        from repro.serving import registry  # repro: noqa[REP012]

        def train():
            return registry.ROUTES
        """,
        "src/repro/serving/registry.py": """\
        ROUTES = ()
        """,
    },
)

_add_program(
    "REP013",
    # chunk_cost never touches time.* itself; the call graph connects
    # it to the wall read two hops away in another module. stamp,
    # which reads the wall clock directly, is flagged too.
    flag={
        "src/repro/core/costs.py": """\
        from repro.utils.clock import stamp

        def chunk_cost(rows):
            return stamp() * len(rows)
        """,
        "src/repro/utils/clock.py": """\
        import time

        def stamp():
            return time.time()
        """,
    },
    clean={
        "src/repro/core/costs.py": """\
        from repro.utils.clock import stamp

        def chunk_cost(rows):
            return stamp() * len(rows)
        """,
        "src/repro/utils/clock.py": """\
        _TICKS = 0


        def stamp():
            global _TICKS
            _TICKS += 1
            return _TICKS
        """,
    },
    noqa={
        "src/repro/core/costs.py": """\
        from repro.utils.clock import stamp

        def chunk_cost(rows):  # repro: noqa[REP013]
            return stamp() * len(rows)
        """,
        "src/repro/utils/clock.py": """\
        import time

        def stamp():  # repro: noqa[REP013]
            return time.time()
        """,
    },
)

_add_program(
    "REP014",
    # DEAD_NAME is declared in the vocabulary but nothing emits it.
    flag={
        "src/repro/obs/names.py": """\
        CHUNKS_PROCESSED = "engine.chunks_processed"
        DEAD_NAME = "engine.never_emitted"
        """,
        "src/repro/core/engine.py": """\
        from repro.obs import names

        def run(metrics):
            metrics.counter(names.CHUNKS_PROCESSED).inc()
        """,
    },
    # Live via constant reference AND via raw string value; the
    # trailing-dot prefix constant is a wildcard family and exempt.
    clean={
        "src/repro/obs/names.py": """\
        CHUNKS_PROCESSED = "engine.chunks_processed"
        ROWS_SEEN = "engine.rows_seen"
        ENGINE_PREFIX = "engine."
        """,
        "src/repro/core/engine.py": """\
        from repro.obs import names

        def run(metrics):
            metrics.counter(names.CHUNKS_PROCESSED).inc()
            metrics.gauge("engine.rows_seen").set(0)
        """,
    },
    noqa={
        "src/repro/obs/names.py": """\
        CHUNKS_PROCESSED = "engine.chunks_processed"
        DEAD_NAME = "engine.never_emitted"  # repro: noqa[REP014]
        """,
        "src/repro/core/engine.py": """\
        from repro.obs import names

        def run(metrics):
            metrics.counter(names.CHUNKS_PROCESSED).inc()
        """,
    },
)

#: Rule ids covered by the per-file corpus.
RULE_IDS = sorted({rule for rule, _ in CORPUS})

#: Rule ids covered by the whole-program corpus.
PROGRAM_RULE_IDS = sorted({rule for rule, _ in PROGRAM_CORPUS})

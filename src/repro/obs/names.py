"""The telemetry name vocabulary — the single source of truth.

Every metric, span, and point event the platform emits is named here
as an importable constant, so adding an event means adding a constant
(one diff line reviewers can veto), not inventing a string at a call
site that dashboards and trace tooling will never learn about;
reprolint's REP014 rule flags a constant nothing emits.

Names follow the ``subsystem.event`` dotted convention: lowercase
``[a-z0-9_]`` segments joined by dots, at least two segments, the
first naming the owning subsystem (``engine``, ``cache``,
``scheduler``, ``platform``, ``serving``, ``registry``, ``rollout``,
``reliability``, ``drift``, ``sampler``, ``span``, ``perf``,
``profile``, ``monitor``, ``alert``, ``health``, ``traffic``,
``batch``, ``slo``, ``fleet``, ``lineage``).

Families whose tail is data-dependent (``registry.<event>``,
``rollout.<action>``, ``span.<span-name>``) are declared as
``*_PREFIX`` constants; call sites build them as ``prefix + tail``.
"""

from __future__ import annotations

# -- execution engine ---------------------------------------------------
ENGINE_ONLINE_PASS = "engine.online_pass"
ENGINE_TRANSFORM_ONLY = "engine.transform_only"
ENGINE_SERVE_TRANSFORM = "engine.serve_transform"
ENGINE_TRAIN_STEP = "engine.train_step"
ENGINE_TRAIN_FULL = "engine.train_full"
ENGINE_PREDICT = "engine.predict"
ENGINE_READ_CHUNK = "engine.read_chunk"

# -- materialization cache / sampling -----------------------------------
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
CACHE_EVICTIONS = "cache.evictions"
CACHE_REMATERIALIZATIONS = "cache.rematerializations"
CACHE_MATERIALIZED_CHUNKS = "cache.materialized_chunks"
CACHE_MATERIALIZED_BYTES = "cache.materialized_bytes"
CACHE_SAMPLE = "cache.sample"
SAMPLER_CHUNK_AGE = "sampler.chunk_age"

# -- platform / scheduler -----------------------------------------------
PLATFORM_OBSERVE = "platform.observe"
PLATFORM_CHUNK = "platform.chunk"
PLATFORM_PROACTIVE_TRAINING = "platform.proactive_training"
PLATFORM_FULL_RETRAIN = "platform.full_retrain"
PLATFORM_REGISTER_CANDIDATE = "platform.register_candidate"
SCHEDULER_DECISION = "scheduler.decision"
SCHEDULER_FIRED = "scheduler.fired"
SCHEDULER_SKIPPED = "scheduler.skipped"
PROACTIVE_DURATION = "proactive.duration"

# -- drift detection ----------------------------------------------------
DRIFT_SIGNAL = "drift.signal"
DRIFT_WARNING = "drift.warning"
DRIFT_SIGNALS = "drift.signals"
DRIFT_WARNINGS = "drift.warnings"

# -- serving / registry / rollout ---------------------------------------
SERVING_ATTACH = "serving.attach"
SERVING_BATCHES = "serving.batches"
SERVING_ROWS = "serving.rows"
SERVING_CANARY_ROWS = "serving.canary_rows"
SERVING_SHADOW_ROWS = "serving.shadow_rows"
SERVING_LATENCY = "serving.latency"

#: ``registry.<event>`` — event ∈ register/promote/rollback/reject/gc…
REGISTRY_PREFIX = "registry."
#: ``rollout.<action>`` — action ∈ stage/promote/reject/rollback…
ROLLOUT_PREFIX = "rollout."
#: ``span.<span-name>`` — the tracer's per-span duration histograms.
SPAN_PREFIX = "span."

# -- traffic: open-loop load generation / admission control -------------
TRAFFIC_ARRIVALS = "traffic.arrivals"
TRAFFIC_ADMITTED = "traffic.admitted"
TRAFFIC_SHED = "traffic.shed"
TRAFFIC_COMPLETED = "traffic.completed"
TRAFFIC_ROWS = "traffic.rows"
TRAFFIC_USERS = "traffic.users"
TRAFFIC_QUEUE_DEPTH = "traffic.queue_depth"
TRAFFIC_TRAINING_CHUNKS = "traffic.training_chunks"

# -- micro-batching front end -------------------------------------------
BATCH_DISPATCHED = "batch.dispatched"
BATCH_ROWS = "batch.rows"
BATCH_SIZE = "batch.size"
BATCH_WAIT = "batch.wait"
BATCH_FLUSH_FULL = "batch.flush_full"
BATCH_FLUSH_WAIT = "batch.flush_wait"

# -- serving SLO surface ------------------------------------------------
SLO_LATENCY = "slo.latency"
SLO_QUEUE_DELAY = "slo.queue_delay"
SLO_SERVICE_TIME = "slo.service_time"
SLO_THROUGHPUT = "slo.throughput"
SLO_SHED_RATE = "slo.shed_rate"

# -- fleet orchestration ------------------------------------------------
FLEET_EPOCH = "fleet.epoch"
FLEET_TRAINING = "fleet.training"
FLEET_TRAININGS = "fleet.trainings"
FLEET_TENANT_CHUNK = "fleet.tenant_chunk"
FLEET_ACTIVE_TENANTS = "fleet.active_tenants"
FLEET_BALANCE = "fleet.balance"
FLEET_OVERDRAFT = "fleet.overdraft"
FLEET_OVERDRAFTS = "fleet.overdrafts"
FLEET_EVICTIONS = "fleet.evictions"
FLEET_RESCUES = "fleet.rescues"
FLEET_AGGREGATE_ERROR = "fleet.aggregate_error"

# -- reliability --------------------------------------------------------
RELIABILITY_CHECKPOINT_WRITTEN = "reliability.checkpoint_written"
RELIABILITY_CHECKPOINTS_WRITTEN = "reliability.checkpoints_written"
RELIABILITY_CHECKPOINT_CORRUPT = "reliability.checkpoint_corrupt"
RELIABILITY_RECOVERED = "reliability.recovered"
RELIABILITY_FAULT = "reliability.fault"
RELIABILITY_FAULTS_INJECTED = "reliability.faults_injected"
RELIABILITY_RETRY = "reliability.retry"
RELIABILITY_RETRIES = "reliability.retries"
RELIABILITY_RETRIES_EXHAUSTED = "reliability.retries_exhausted"

# -- provenance ledger --------------------------------------------------
LINEAGE_NODE = "lineage.node"
LINEAGE_NODES = "lineage.nodes"
LINEAGE_EDGES = "lineage.edges"
LINEAGE_EXPORTED = "lineage.exported"

# -- health monitor -----------------------------------------------------
MONITOR_EVENTS = "monitor.events"
MONITOR_SAMPLES = "monitor.samples"
MONITOR_WINDOWS = "monitor.windows"
MONITOR_INCIDENTS = "monitor.incidents"
ALERT_PENDING = "alert.pending"
ALERT_FIRING = "alert.firing"
ALERT_RESOLVED = "alert.resolved"
ALERTS_FIRED = "alert.fired"
ALERTS_RESOLVED = "alert.resolved_total"
HEALTH_EXPORTED = "health.exported"

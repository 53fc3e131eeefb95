"""Open-loop traffic generation, micro-batching, admission.

The paper's serving story (§4.5) assumes a deployed pipeline answers
a stream of prediction queries while training continues in the
background. This package generates that load, and holds the
admission and micro-batching policies of a front end to the serving
endpoint:

* :mod:`repro.traffic.generator` — a deterministic open-loop
  generator: heavy-tailed inter-arrivals, diurnal rate curves, burst
  episodes, and Zipf-popular synthetic users (millions of them in
  O(1) memory) whose requests sample rows from a replay pool.
* :mod:`repro.traffic.admission` — a bounded admission queue with a
  deterministic shed policy.
* :mod:`repro.traffic.batcher` — the micro-batching flush policy
  (max batch size / max wait) in front of the serving endpoint.

Everything is seeded through :mod:`repro.utils.rng`, so arrival
streams and shed decisions are byte-reproducible across runs.
"""

from repro.traffic.admission import AdmissionQueue, Request
from repro.traffic.batcher import Flush, MicroBatcher
from repro.traffic.generator import (
    Arrivals,
    BurstEpisode,
    OpenLoopGenerator,
    TrafficPattern,
)

__all__ = [
    "AdmissionQueue",
    "Arrivals",
    "BurstEpisode",
    "Flush",
    "MicroBatcher",
    "OpenLoopGenerator",
    "Request",
    "TrafficPattern",
]

"""Generated property: eviction finds the oldest payload without a scan.

``ChunkStorage`` keeps the timestamps that hold a payload in
payload-insertion order, so eviction takes the first of them instead of
walking the feature entries past every stub. The reference is a plain
model of the storage that walks its entries from the oldest to the first
payload on every eviction. Over generated sequences of puts, re-puts
over stubs, explicit evictions, ``raw_capacity`` changes (dropping the
oldest raw chunks with their entries), ``set_byte_budget`` calls and
manifest round trips through ``restore``, both evict the same payloads
in the same order and agree on ``stats``, ``materialized_timestamps``,
``num_materialized`` and ``materialized_bytes`` after every operation.

Everything is drawn from a ``repro.utils.rng`` seed; a failure names the
seed and the ``pytest -k`` line that replays it.
"""

from collections import OrderedDict
from dataclasses import asdict

import numpy as np
import pytest

from repro.data.chunk import ChunkStub, FeatureChunk, RawChunk
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.utils.rng import ensure_rng

SEEDS = range(40)
OPERATIONS = ("put", "reput", "evict", "raw_capacity", "budget", "restore")


class ScanningModel:
    """The storage's contract, eviction by a scan: ``entries`` maps a
    timestamp to its payload size, or ``None`` for a stub."""

    def __init__(self, max_materialized, max_bytes):
        self.max_materialized, self.max_bytes = max_materialized, max_bytes
        self.raw_capacity = None
        self.raw, self.entries = [], OrderedDict()
        self.stats = dict.fromkeys(
            ("raw_inserted", "raw_dropped", "features_inserted",
             "features_evicted", "feature_hits", "feature_misses",
             "bytes_materialized"),
            0,
        )
        self.victims = []
        #: The most stubs one scan walked past.
        self.walked = 0

    @property
    def materialized(self):
        return [t for t, size in self.entries.items() if size is not None]

    @property
    def nbytes(self):
        return sum(size for size in self.entries.values() if size is not None)

    def put(self, timestamp, size):
        self.raw.append(timestamp)
        self.stats["raw_inserted"] += 1
        capacity = self.raw_capacity
        while capacity is not None and len(self.raw) > capacity:
            oldest = self.raw.pop(0)
            self.stats["raw_dropped"] += 1
            if self.entries.pop(oldest, None) is not None:
                self._account_eviction()
        self.put_features(timestamp, size)

    def put_features(self, timestamp, size):
        self.entries.pop(timestamp, None)  # a stub moves to the end
        self.entries[timestamp] = size
        self.stats["features_inserted"] += 1
        self.stats["bytes_materialized"] = self.nbytes
        self.evict_over_budget()

    def evict_over_budget(self):
        while (
            self.max_materialized is not None
            and len(self.materialized) > self.max_materialized
        ) or (self.max_bytes is not None and self.nbytes > self.max_bytes):
            for walked, (timestamp, size) in enumerate(self.entries.items()):
                if size is not None:  # the scan's end
                    self.walked = max(self.walked, walked)
                    self.evict(timestamp)
                    break
            else:
                return

    def evict(self, timestamp):
        self.entries[timestamp] = None
        self.victims.append(timestamp)
        self._account_eviction()

    def _account_eviction(self):
        self.stats["features_evicted"] += 1
        self.stats["bytes_materialized"] = self.nbytes


def payload(timestamp, rows):
    features, labels = np.zeros((rows, 2)), np.zeros(rows)
    return FeatureChunk(timestamp, timestamp, features, labels)


def round_trip(storage):
    """A fresh storage of the same bounds, restored from ``storage``'s
    manifest as a checkpoint restores it."""
    manifest = storage.manifest()
    fresh = ChunkStorage(
        storage.max_materialized, storage.max_bytes, storage.raw_capacity
    )
    fresh.restore(
        [storage.peek_raw(t) for t in manifest["raw"]],
        [
            storage.peek_features(t)
            if materialized
            else ChunkStub(t, reference)
            for t, reference, materialized in zip(
                manifest["features"],
                manifest["raw_reference"],
                manifest["materialized"],
            )
        ],
        manifest["stats"],
    )
    return fresh


def recording(storage, victims):
    """``storage`` with every eviction's timestamp appended to ``victims``."""
    evict = storage.evict

    def recorded(timestamp):
        victims.append(timestamp)
        return evict(timestamp)

    storage.evict = recorded
    return storage


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_eviction_takes_the_oldest_payload_as_the_scan_does(seed):
    run_sequence(seed)


def test_the_generated_sequences_are_not_vacuous():
    """Over the seeds every operation is drawn, and the scan this
    replaces walks past many stubs to find the oldest payload."""
    drawn, walked = set(), 0
    for seed in SEEDS:
        history, model = run_sequence(seed)
        drawn.update(history)
        walked = max(walked, model.walked)
    assert drawn == set(OPERATIONS)
    assert walked >= 10


def run_sequence(seed):
    """One generated sequence, checked after every operation; returns
    the operations run and the reference model."""
    rng = ensure_rng([seed, 41])
    replay = (
        f"seed {seed}; replay: pytest "
        f"tests/property/test_property_eviction_order.py -k 'seed{seed}]'"
    )
    max_materialized = None if rng.random() < 0.3 else int(rng.integers(0, 6))
    max_bytes = None if rng.random() < 0.5 else int(rng.integers(0, 12)) * 48
    model = ScanningModel(max_materialized, max_bytes)
    victims = []
    storage = recording(ChunkStorage(max_materialized, max_bytes), victims)
    table = Table({"x": np.zeros(1)})
    history = []
    for _ in range(int(rng.integers(20, 80))):
        operation = str(rng.choice(OPERATIONS))
        stubs = [
            t for t, size in model.entries.items()
            if size is None and t in model.raw
        ]
        if operation == "reput" and stubs:
            timestamp = int(rng.choice(stubs))
            rows = int(rng.integers(0, 4))
            storage.put_features(payload(timestamp, rows))
            model.put_features(timestamp, payload(timestamp, rows).nbytes())
        elif operation == "evict" and model.materialized:
            timestamp = int(rng.choice(model.materialized))
            storage.evict(timestamp)
            model.evict(timestamp)
        elif operation == "raw_capacity":
            capacity = None if rng.random() < 0.3 else int(rng.integers(1, 9))
            storage.raw_capacity = model.raw_capacity = capacity
        elif operation == "budget":
            budget = None
            if rng.random() >= 0.3:
                budget = int(rng.integers(0, 12)) * 48
            before = len(model.victims)
            evicted = storage.set_byte_budget(budget)
            model.max_bytes = budget
            model.evict_over_budget()
            assert evicted == len(model.victims) - before, replay
        elif operation == "restore":
            storage = recording(round_trip(storage), victims)
        else:
            operation = "put"
            timestamp = model.stats["raw_inserted"]
            rows = int(rng.integers(0, 4))
            storage.put_raw(RawChunk(timestamp, table))
            storage.put_features(payload(timestamp, rows))
            model.put(timestamp, payload(timestamp, rows).nbytes())
        history.append(operation)
        context = f"{replay}; after {history}"
        assert victims == model.victims, context
        assert asdict(storage.stats) == model.stats, context
        assert storage.materialized_timestamps == model.materialized, context
        assert storage.num_materialized == len(model.materialized), context
        assert storage.materialized_bytes == model.nbytes, context
        assert storage.feature_timestamps == list(model.entries), context
    return history, model

"""Micro-batched serving: bit-identity and deduplicated transforms.

``predict_requests`` serves many queued requests as one merged
batch. The acceptance bar is
bit-identity — the flattened per-side prediction streams must match
request-at-a-time serving byte for byte, in every rollout mode — plus
the satellite guarantee that shadow serving runs the shared stateless
pipeline prefix once per batch, not once per side.
"""

import numpy as np
import pytest

from repro.datasets.url import make_url_pipeline
from repro.exceptions import ServingError
from repro.pipeline.components.parser import SvmLightParser
from repro.serving import ServingEndpoint
from repro.serving.endpoint import shared_stateless_prefix

from tests.serving.conftest import ROWS

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


def endpoint_for(registry, **kwargs):
    kwargs.setdefault("seed", 5)
    return ServingEndpoint(registry, **kwargs)


def request_tables(url_world, chunk=0, sizes=(3, 7, 1, 5)):
    table = url_world.generator.chunk(chunk)
    tables, start = [], 0
    for size in sizes:
        tables.append(table.take(range(start, start + size)))
        start += size
    return tables


def served_streams(served):
    return (
        served.primary_predictions.tobytes(),
        served.candidate_predictions.tobytes(),
    )


def row_at_a_time_streams(endpoint, tables, keys):
    primary, candidate = [], []
    for table, key in zip(tables, keys):
        served = endpoint.predict(table, chunk_index=key)
        primary.append(served.primary_predictions)
        candidate.append(served.candidate_predictions)
    return (
        np.concatenate(primary).tobytes(),
        np.concatenate(candidate).tobytes(),
    )


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("mode", ["solo", "shadow", "canary"])
    def test_streams_match_request_at_a_time(
        self, live_registry, url_world, mode
    ):
        registry, __, ___ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(4))
        )
        batched = endpoint_for(registry)
        single = endpoint_for(registry)
        if mode != "solo":
            for endpoint in (batched, single):
                endpoint.attach_candidate(
                    candidate.version, mode=mode, fraction=0.4
                )
        tables = request_tables(url_world)
        keys = [31, 32, 33, 34]
        served = batched.predict_requests(tables, keys=keys)
        assert served_streams(served) == row_at_a_time_streams(
            single, tables, keys
        )

    def test_default_keys_advance(self, live_registry, url_world):
        registry, __, ___ = live_registry
        endpoint = endpoint_for(registry)
        tables = request_tables(url_world)
        first = endpoint.predict_requests(tables)
        second = endpoint.predict_requests(tables)
        assert np.array_equal(first.predictions, second.predictions)

    def test_empty_request_list_rejected(self, live_registry):
        registry, __, ___ = live_registry
        with pytest.raises(ServingError, match="at least one"):
            endpoint_for(registry).predict_requests([])

    def test_key_count_mismatch_rejected(self, live_registry, url_world):
        registry, __, ___ = live_registry
        tables = request_tables(url_world)
        with pytest.raises(ServingError, match="routing keys"):
            endpoint_for(registry).predict_requests(tables, keys=[1])

    def test_canary_share_reflects_routing(
        self, live_registry, url_world
    ):
        registry, __, ___ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(3))
        )
        endpoint = endpoint_for(registry)
        endpoint.attach_candidate(
            candidate.version, mode="canary", fraction=0.5
        )
        served = endpoint.predict_requests(request_tables(url_world))
        assert 0.0 < served.canary_share < 1.0
        assert (
            len(served.primary_predictions)
            + len(served.candidate_predictions)
            == ROWS // 3  # 3+7+1+5 of the 50-row chunk
        )


class TestSharedPrefixDedup:
    def test_url_pipelines_share_the_parser(self):
        first = make_url_pipeline(hash_features=64)
        second = make_url_pipeline(hash_features=64)
        # parser is stateless and identically configured; the imputer
        # right after it is stateful, which caps the shared prefix.
        assert shared_stateless_prefix(first, second) == 1

    def test_prefix_stops_at_config_mismatch(self):
        first = make_url_pipeline(hash_features=64)
        second = make_url_pipeline(hash_features=128)
        assert shared_stateless_prefix(first, second) == 1

    def test_shadow_transforms_shared_prefix_once(
        self, live_registry, url_world, monkeypatch
    ):
        """Satellite regression: shadow serving must not re-run the
        shared stateless prefix per side. One batch => one parser
        call, even with a candidate attached."""
        registry, __, ___ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(3))
        )
        endpoint = endpoint_for(registry)
        endpoint.attach_candidate(candidate.version, mode="shadow")

        calls = {"transform": 0}
        original = SvmLightParser.transform

        def counting_transform(self, batch):
            calls["transform"] += 1
            return original(self, batch)

        monkeypatch.setattr(
            SvmLightParser, "transform", counting_transform
        )
        served = endpoint.predict_requests(request_tables(url_world))
        assert calls["transform"] == 1
        assert len(served.candidate_predictions) == len(
            served.primary_predictions
        )

    def test_solo_baseline_single_transform(
        self, live_registry, url_world, monkeypatch
    ):
        registry, __, ___ = live_registry
        endpoint = endpoint_for(registry)

        calls = {"transform": 0}
        original = SvmLightParser.transform

        def counting_transform(self, batch):
            calls["transform"] += 1
            return original(self, batch)

        monkeypatch.setattr(
            SvmLightParser, "transform", counting_transform
        )
        endpoint.predict_requests(request_tables(url_world))
        assert calls["transform"] == 1

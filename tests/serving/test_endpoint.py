"""Serving endpoint: solo, shadow, and canary prediction paths."""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.obs import Telemetry
from repro.serving import ServingEndpoint

from tests.serving.conftest import ROWS

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


def endpoint_for(registry, **kwargs):
    kwargs.setdefault("seed", 5)
    return ServingEndpoint(registry, **kwargs)


class TestSoloServing:
    def test_serves_live_version(self, live_registry, url_world):
        registry, first, __ = live_registry
        endpoint = endpoint_for(registry)
        assert endpoint.primary_version == first.version
        served = endpoint.predict(url_world.generator.chunk(0))
        assert served.mode == "solo"
        assert served.primary_version == first.version
        assert len(served.predictions) == ROWS
        assert len(served.labels) == ROWS
        assert np.array_equal(served.predictions, served.primary_predictions)

    def test_no_live_version_fails(self, url_world):
        registry = url_world.registry_factory()
        with pytest.raises(ServingError, match="live version"):
            endpoint_for(registry).predict(url_world.generator.chunk(0))

    def test_reload_live_follows_promotions(
        self, live_registry, url_world
    ):
        registry, first, __ = live_registry
        endpoint = endpoint_for(registry)
        second = registry.register(
            *url_world.make_parts(train_chunks=range(4))
        )
        registry.promote(second.version)
        assert endpoint.primary_version == first.version  # not yet
        endpoint.reload_live()
        assert endpoint.primary_version == second.version


class TestShadowServing:
    def test_primary_predictions_byte_identical(
        self, live_registry, url_world
    ):
        """Acceptance: attaching a shadow must not change a single
        byte of the caller-visible predictions."""
        registry, first, __ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(4))
        )

        solo = endpoint_for(registry)
        shadowed = endpoint_for(registry)
        shadowed.attach_candidate(candidate.version, mode="shadow")

        for index in range(4):
            chunk = url_world.generator.chunk(index)
            baseline = solo.predict(chunk, chunk_index=index)
            served = shadowed.predict(chunk, chunk_index=index)
            assert (
                served.predictions.tobytes()
                == baseline.predictions.tobytes()
            )
            assert served.labels.tobytes() == baseline.labels.tobytes()

    def test_shadow_is_recorded_but_not_returned(
        self, live_registry, url_world
    ):
        registry, __, __ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(4))
        )
        endpoint = endpoint_for(registry)
        endpoint.attach_candidate(candidate.version, mode="shadow")
        served = endpoint.predict(url_world.generator.chunk(1))
        assert served.mode == "shadow"
        assert served.candidate_version == candidate.version
        # The mirror scored the full batch...
        assert len(served.candidate_predictions) == ROWS
        # ...but the returned predictions are the primary's.
        assert np.array_equal(
            served.predictions, served.primary_predictions
        )


class TestCanaryServing:
    def test_split_routes_roughly_the_fraction(
        self, live_registry, url_world
    ):
        registry, __, __ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(4))
        )
        endpoint = endpoint_for(registry)
        endpoint.attach_candidate(
            candidate.version, mode="canary", fraction=0.3
        )
        total = candidate_rows = 0
        for index in range(10):
            served = endpoint.predict(
                url_world.generator.chunk(index), chunk_index=index
            )
            assert served.mode == "canary"
            assert len(served.predictions) == ROWS
            assert len(served.primary_predictions) + len(
                served.candidate_predictions
            ) == ROWS
            total += ROWS
            candidate_rows += len(served.candidate_predictions)
        assert candidate_rows / total == pytest.approx(0.3, abs=0.15)

    def test_routing_is_deterministic_per_chunk(
        self, live_registry, url_world
    ):
        registry, __, __ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(4))
        )
        a = endpoint_for(registry, seed=5)
        b = endpoint_for(registry, seed=5)
        for endpoint in (a, b):
            endpoint.attach_candidate(
                candidate.version, mode="canary", fraction=0.5
            )
        chunk = url_world.generator.chunk(2)
        served_a = a.predict(chunk, chunk_index=2)
        served_b = b.predict(chunk, chunk_index=2)
        assert np.array_equal(served_a.predictions, served_b.predictions)
        assert served_a.canary_share == served_b.canary_share

    def test_fraction_one_routes_everything(
        self, live_registry, url_world
    ):
        registry, __, __ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(4))
        )
        endpoint = endpoint_for(registry)
        endpoint.attach_candidate(
            candidate.version, mode="canary", fraction=1.0
        )
        served = endpoint.predict(
            url_world.generator.chunk(0), chunk_index=0
        )
        assert served.canary_share == 1.0
        assert len(served.primary_predictions) == 0
        assert len(served.candidate_predictions) == ROWS


class TestCandidateManagement:
    def test_attach_validation(self, live_registry, url_world):
        registry, first, __ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(3))
        )
        endpoint = endpoint_for(registry)
        with pytest.raises(ServingError, match="mode"):
            endpoint.attach_candidate(candidate.version, mode="blue")
        with pytest.raises(ServingError, match="already the live"):
            endpoint.attach_candidate(first.version)
        with pytest.raises(ServingError, match="fraction"):
            endpoint.attach_candidate(
                candidate.version, mode="canary", fraction=0.0
            )
        endpoint.attach_candidate(candidate.version, mode="shadow")
        with pytest.raises(ServingError, match="already"):
            endpoint.attach_candidate(candidate.version)

    def test_detach_restores_solo(self, live_registry, url_world):
        registry, __, __ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(3))
        )
        endpoint = endpoint_for(registry)
        endpoint.attach_candidate(candidate.version, mode="shadow")
        assert endpoint.detach_candidate() == candidate.version
        assert endpoint.mode == "solo"
        served = endpoint.predict(url_world.generator.chunk(0))
        assert served.mode == "solo"

    def test_promote_candidate_swaps_in_memory(
        self, live_registry, url_world
    ):
        registry, __, __ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(3))
        )
        endpoint = endpoint_for(registry)
        endpoint.attach_candidate(candidate.version, mode="shadow")
        registry.promote(candidate.version)
        assert endpoint.promote_candidate() == candidate.version
        assert endpoint.primary_version == candidate.version
        assert endpoint.mode == "solo"

    def test_promote_without_candidate_fails(self, live_registry):
        registry, __, __ = live_registry
        with pytest.raises(ServingError, match="no candidate"):
            endpoint_for(registry).promote_candidate()


class TestTelemetry:
    def test_serving_counters(self, live_registry, url_world):
        registry, __, __ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(3))
        )
        telemetry = Telemetry()
        endpoint = endpoint_for(registry, telemetry=telemetry)
        endpoint.predict(url_world.generator.chunk(0), chunk_index=0)
        endpoint.attach_candidate(candidate.version, mode="shadow")
        endpoint.predict(url_world.generator.chunk(1), chunk_index=1)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["serving.batches"] == 2
        assert counters["serving.rows"] == 2 * ROWS
        assert counters["serving.shadow_rows"] == ROWS


class TestPredictIsABatchOfOne:
    """``predict(table, k)`` is ``predict_requests([table], [k])``:
    every :class:`ServedBatch` field and every ``serving.*`` counter,
    in every mode, including the inputs that used to have a branch of
    their own (no rows; a canary split with nothing on one side)."""

    CASES = {
        "solo": dict(mode=None),
        "shadow": dict(mode="shadow"),
        "canary": dict(mode="canary", fraction=0.4),
        "canary-all-candidate": dict(mode="canary", fraction=1.0),
        "canary-all-primary": dict(mode="canary", fraction=1e-12),
    }

    @staticmethod
    def served_fields(served):
        return {
            f.name: (
                (value.dtype, value.tobytes())
                if isinstance(value, np.ndarray)
                else value
            )
            for f in dataclasses.fields(served)
            for value in [getattr(served, f.name)]
        }

    @pytest.mark.parametrize("empty", [False, True], ids=["rows", "empty"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_field_by_field(self, live_registry, url_world, case, empty):
        registry, __, ___ = live_registry
        candidate = registry.register(
            *url_world.make_parts(train_chunks=range(4))
        )
        stage = dict(self.CASES[case])
        mode = stage.pop("mode")
        table = url_world.generator.chunk(3)
        if empty:
            table = table.head(0)
        served, counters = [], []
        for call in ("predict", "predict_requests"):
            telemetry = Telemetry()
            endpoint = endpoint_for(registry, telemetry=telemetry)
            if mode is not None:
                endpoint.attach_candidate(
                    candidate.version, mode=mode, **stage
                )
            if call == "predict":
                batch = endpoint.predict(table, 17)
            else:
                batch = endpoint.predict_requests([table], [17])
            served.append(self.served_fields(batch))
            counters.append(
                {
                    name: value
                    for name, value in telemetry.metrics.snapshot()[
                        "counters"
                    ].items()
                    if name.startswith("serving.")
                }
            )
        assert served[0] == served[1]
        assert counters[0] == counters[1]
        assert counters[0]["serving.batches"] == 1
        if not empty and case == "canary-all-candidate":
            assert served[0]["canary_share"] == 1.0
            assert served[0]["primary_predictions"][1] == b""
        if not empty and case == "canary-all-primary":
            assert served[0]["canary_share"] == 0.0
            assert served[0]["candidate_predictions"][1] == b""

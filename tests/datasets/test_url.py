"""Unit tests for the synthetic URL stream generator."""

import numpy as np
import pytest

from repro.datasets.drift import GradualDrift, NoDrift
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.exceptions import ValidationError
from repro.pipeline.components.parser import SvmLightParser

from tests.sparse import row_dicts


def small_generator(**overrides):
    defaults = dict(
        num_chunks=10,
        rows_per_chunk=8,
        base_features=50,
        new_features_per_chunk=3,
        active_per_row=5,
        seed=11,
    )
    defaults.update(overrides)
    return URLStreamGenerator(**defaults)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = small_generator().chunk(4)
        b = small_generator().chunk(4)
        assert a == b

    def test_chunk_access_order_irrelevant(self):
        forward = small_generator()
        chunks_fwd = [forward.chunk(i) for i in (2, 5)]
        backward = small_generator()
        chunks_bwd = [backward.chunk(5), backward.chunk(2)]
        assert chunks_fwd[0] == chunks_bwd[1]
        assert chunks_fwd[1] == chunks_bwd[0]

    def test_different_seed_differs(self):
        a = small_generator(seed=1).chunk(0)
        b = small_generator(seed=2).chunk(0)
        assert a != b

    def test_initial_data_deterministic(self):
        assert (
            small_generator().initial_data(20)[0]
            == small_generator().initial_data(20)[0]
        )


class TestStreamShape:
    def test_stream_length(self):
        chunks = list(small_generator().stream())
        assert len(chunks) == 10
        assert all(c.num_rows == 8 for c in chunks)

    def test_lines_parse(self):
        parser = SvmLightParser()
        table = parser.transform(small_generator().chunk(3))
        assert set(np.unique(table.labels)) <= {-1.0, 1.0}
        for row in row_dicts(table):
            assert len(row) == 5

    def test_feature_space_grows(self):
        generator = small_generator()
        assert generator.available_features(0) == 50
        assert generator.available_features(9) == 50 + 27

    def test_late_features_absent_early(self):
        generator = small_generator(recent_feature_bias=0.0)
        parser = SvmLightParser()
        early = parser.transform(generator.chunk(0))
        max_early = max(
            max(row) for row in row_dicts(early) if row
        )
        assert max_early < generator.available_features(0)

    def test_recent_bias_shifts_indices_late(self):
        biased = small_generator(
            recent_feature_bias=0.9, recent_pool=10
        )
        parser = SvmLightParser()
        late = parser.transform(biased.chunk(9))
        available = biased.available_features(9)
        recent = sum(
            1
            for row in row_dicts(late)
            for index in row
            if index >= available - 10
        )
        total = sum(len(row) for row in row_dicts(late))
        assert recent / total > 0.5

    def test_missing_values_appear(self):
        generator = small_generator(missing_rate=0.5, seed=3)
        parser = SvmLightParser()
        table = parser.transform(generator.chunk(0))
        nan_count = sum(
            1
            for row in row_dicts(table)
            for value in row.values()
            if value != value
        )
        assert nan_count > 0

    def test_no_missing_when_rate_zero(self):
        generator = small_generator(missing_rate=0.0)
        parser = SvmLightParser()
        table = parser.transform(generator.chunk(0))
        assert all(
            value == value
            for row in row_dicts(table)
            for value in row.values()
        )


class TestConcept:
    def test_labels_learnable_without_drift_or_noise(self):
        """A linear model must fit a no-drift, no-noise stream."""
        from repro.ml.models import LinearSVM
        from repro.ml.optim import Adam
        from repro.ml.regularizers import L2
        from repro.ml.sgd import SGDTrainer
        from repro.pipeline.component import union_features

        generator = small_generator(
            drift=NoDrift(), label_noise=0.0, missing_rate=0.0,
            num_chunks=10, rows_per_chunk=40,
        )
        pipeline = make_url_pipeline(hash_features=256)
        parts = [
            pipeline.update_transform(chunk)
            for chunk in generator.stream()
        ]
        batch = union_features(parts)
        model = LinearSVM(256, regularizer=L2(1e-4))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            SGDTrainer(model, Adam(0.05)).train(
                batch.matrix, batch.labels,
                max_iterations=600, tolerance=1e-9, seed=0,
            )
        accuracy = float(
            np.mean(model.predict(batch.matrix) == batch.labels)
        )
        assert accuracy > 0.85

    def test_drift_changes_concept(self):
        drifting = small_generator(drift=GradualDrift(0.5))
        static = small_generator(drift=NoDrift())
        # Same seed: chunk 0 labels may already differ after one drift
        # step is applied, but chunk 9 must differ a lot more.
        assert drifting.chunk(9) != static.chunk(9)


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            small_generator(num_chunks=0)
        with pytest.raises(ValidationError):
            small_generator(missing_rate=1.5)
        with pytest.raises(ValidationError):
            small_generator(new_features_per_chunk=-1)
        with pytest.raises(ValidationError):
            small_generator(recent_feature_bias=-0.1)

    def test_chunk_index_bounds(self):
        generator = small_generator()
        with pytest.raises(ValidationError):
            generator.chunk(10)
        with pytest.raises(ValidationError):
            generator.available_features(-1)


class TestPipelineFactory:
    def test_component_names_match_paper(self):
        pipeline = make_url_pipeline(64)
        assert pipeline.component_names == [
            "input_parser", "imputer", "scaler", "hasher",
        ]

    def test_end_to_end(self):
        pipeline = make_url_pipeline(64)
        features = pipeline.update_transform(
            small_generator().chunk(0)
        )
        assert features.num_features == 64
        assert features.num_rows == 8

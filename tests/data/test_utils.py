"""Unit tests for the shared utilities (rng, validation)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
    ensure_rng,
    spawn_rng,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, 5)
        b = ensure_rng(42).integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_generator_passes_through(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_spawn_is_independent(self):
        parent = ensure_rng(0)
        child = spawn_rng(parent)
        assert child is not parent
        # The child stream differs from a same-seed parent's stream.
        fresh = ensure_rng(0)
        spawn_rng(fresh)
        assert not np.array_equal(
            child.integers(0, 10**9, 8),
            ensure_rng(0).integers(0, 10**9, 8),
        )


class TestValidation:
    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        for bad in (0, -1, float("nan"), float("inf"), "3", True):
            with pytest.raises(ValidationError):
                check_positive(bad, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0, "x") == 0.0
        with pytest.raises(ValidationError):
            check_non_negative(-0.1, "x")

    def test_check_fraction(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0
        for bad in (-0.01, 1.01):
            with pytest.raises(ValidationError):
                check_fraction(bad, "x")

    def test_check_positive_int(self):
        assert check_positive_int(3, "x") == 3
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(ValidationError):
                check_positive_int(bad, "x")

    def test_error_names_parameter(self):
        with pytest.raises(ValidationError, match="my_param"):
            check_positive(-1, "my_param")


class TestExceptionHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro import exceptions

        for name in (
            "ValidationError",
            "SchemaError",
            "PipelineError",
            "NotFittedError",
            "StorageError",
            "SamplingError",
            "SchedulingError",
        ):
            cls = getattr(exceptions, name)
            assert issubclass(cls, exceptions.ReproError)

    def test_validation_error_is_value_error(self):
        from repro.exceptions import ValidationError

        assert issubclass(ValidationError, ValueError)

    def test_not_fitted_is_pipeline_error(self):
        from repro.exceptions import NotFittedError, PipelineError

        assert issubclass(NotFittedError, PipelineError)

    def test_persistence_error_in_hierarchy(self):
        from repro.exceptions import ReproError
        from repro.persistence import PersistenceError

        assert issubclass(PersistenceError, ReproError)


def _raise_union_of_nothing():
    from repro.pipeline.component import union_features

    union_features([])


def _raise_union_of_mixed():
    import scipy.sparse as sp

    from repro.pipeline.component import Features, union_features

    union_features(
        [
            Features(matrix=np.eye(2), labels=np.ones(2)),
            Features(matrix=sp.csr_matrix(np.eye(2)), labels=np.ones(2)),
        ]
    )


def _raise_taxi_chunk_out_of_range():
    from repro.datasets.taxi import TaxiStreamGenerator

    TaxiStreamGenerator(num_chunks=2, rows_per_chunk=4).chunk(2)


def _raise_unknown_serving_policy():
    from repro.experiments.common import url_scenario
    from repro.experiments.exp5_serving import run_policy

    run_policy(url_scenario("test"), "hopeful", None, [], "unused")


def _raise_grid_search_without_one_table():
    from dataclasses import replace

    from repro.experiments.common import url_scenario
    from repro.experiments.exp2_tuning import table3

    scenario = replace(url_scenario("test"), make_initial_data=list)
    table3(scenario, adaptations=("adam",), strengths=(1e-3,))


def _raise_deploy_fraction_out_of_range():
    from repro.experiments.common import url_scenario
    from repro.experiments.exp2_tuning import figure5

    figure5(url_scenario("test"), {}, deploy_fraction=0.0)


def _raise_unknown_optimizer():
    from repro.ml.optim import make_optimizer

    make_optimizer("hopeful")


def _raise_negative_charge():
    from repro.execution.cost import CostTracker

    CostTracker().charge_training(-1, "sgd_step")


def _raise_trigger_cooldown_not_a_number():
    from repro.core.scheduler import DegradationTrigger

    DegradationTrigger(cooldown_chunks=float("nan"))


def _raise_drift_delay_not_a_number():
    from repro.driftdetect import DriftTrigger, PageHinkley

    DriftTrigger(PageHinkley(), delay_chunks=float("nan"))


def _raise_training_rule_repeats_not_a_number():
    from repro.core.platform import (
        ContinuousDeploymentPlatform,
        TrainingRule,
    )
    from repro.core.scheduler import StaticScheduler
    from repro.experiments.common import url_scenario

    scenario = url_scenario("test")
    ContinuousDeploymentPlatform(
        scenario.make_pipeline(),
        scenario.make_model(),
        scenario.make_optimizer(),
        rules=[TrainingRule(StaticScheduler(1), repeats=float("nan"))],
    )


def _raise_dynamic_slack_not_a_number():
    from repro.core.scheduler import DynamicScheduler

    DynamicScheduler(slack=float("nan"))


class TestEveryValidationFailureIsAReproError:
    """``exceptions.py``: "callers can catch every library-specific
    failure with a single ``except``" — and each stays a ValueError."""

    @pytest.mark.parametrize(
        "trigger",
        [
            _raise_union_of_nothing,
            _raise_union_of_mixed,
            _raise_taxi_chunk_out_of_range,
            _raise_unknown_serving_policy,
            _raise_grid_search_without_one_table,
            _raise_deploy_fraction_out_of_range,
            _raise_unknown_optimizer,
            _raise_negative_charge,
            _raise_trigger_cooldown_not_a_number,
            _raise_drift_delay_not_a_number,
            _raise_training_rule_repeats_not_a_number,
            _raise_dynamic_slack_not_a_number,
        ],
        ids=lambda trigger: trigger.__name__[len("_raise_"):],
    )
    def test_raises_inside_the_hierarchy(self, trigger):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError) as caught:
            trigger()
        assert isinstance(caught.value, ValueError)


class TestImportSurface:
    def test_top_level_all_resolves(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_all_resolves(self):
        import repro.core as core
        import repro.data as data
        import repro.datasets as datasets
        import repro.driftdetect as driftdetect
        import repro.evaluation as evaluation
        import repro.execution as execution
        import repro.ml as ml
        import repro.pipeline as pipeline

        for module in (
            core, data, datasets, driftdetect, evaluation,
            execution, ml, pipeline,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

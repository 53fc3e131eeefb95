"""Tests for pipeline-component fingerprints."""

import pickle

import numpy as np

from repro.data.table import Table
from repro.pipeline import (
    Pipeline,
    component_fingerprint,
    pipeline_fingerprint,
)
from repro.pipeline.components.hasher import FeatureHasher
from repro.pipeline.components.imputer import SparseMeanImputer
from repro.pipeline.components.scaler import (
    MinMaxScaler,
    SparseStandardScaler,
    StandardScaler,
)
from repro.pipeline.fingerprint import _canonical, code_digest

from tests.sparse import sparse_rows


def scaler(**kwargs):
    return StandardScaler(["a", "b"], **kwargs)


def batch():
    return Table({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})


class TestComponentFingerprint:
    def test_identical_instances_identical_digest(self):
        assert component_fingerprint(scaler()) == component_fingerprint(
            scaler()
        )

    def test_has_all_digest_fields(self):
        fp = component_fingerprint(scaler())
        for key in ("name", "kind", "stateful", "code", "config",
                    "stats", "digest"):
            assert key in fp

    def test_config_change_moves_config_digest_only(self):
        base = component_fingerprint(scaler())
        changed = component_fingerprint(scaler(with_mean=False))
        assert changed["code"] == base["code"]
        assert changed["config"] != base["config"]
        assert changed["digest"] != base["digest"]

    def test_fitting_moves_stats_digest_only(self):
        fitted = scaler()
        fitted.update(batch())
        base = component_fingerprint(scaler())
        after = component_fingerprint(fitted)
        assert after["code"] == base["code"]
        assert after["config"] == base["config"]
        assert after["stats"] != base["stats"]
        assert after["digest"] != base["digest"]

    def test_same_fit_same_digest(self):
        first, second = scaler(), scaler()
        first.update(batch())
        second.update(batch())
        assert component_fingerprint(first) == component_fingerprint(
            second
        )

    def test_code_digest_distinguishes_classes(self):
        assert code_digest(scaler()) != code_digest(
            MinMaxScaler(["a"])
        )
        assert code_digest(scaler()) == code_digest(scaler())


class TestStateNotBuffers:
    """Identity is the pickled state: how statistics were accumulated
    and what a component has memoized are not part of it."""

    ROWS = [
        {3: 1.0, 900: 2.0},
        {3: 4.0, -5: float("nan")},
        {10**12: 0.5, 3: 2.5, -5: 1.0},
        {900: 7.0, 17: 1.0},
    ]

    def test_sparse_statistics_ignore_growth_history(self):
        at_once, row_by_row = SparseMeanImputer(), SparseMeanImputer()
        at_once.update(sparse_rows(self.ROWS))
        for row in self.ROWS:
            row_by_row.update(sparse_rows([row]))
        assert component_fingerprint(at_once) == component_fingerprint(
            row_by_row
        )
        assert pickle.dumps(at_once) == pickle.dumps(row_by_row)

    def test_sparse_statistics_move_the_stats_digest(self):
        fitted = SparseStandardScaler()
        base = component_fingerprint(fitted)
        fitted.update(sparse_rows(self.ROWS[:2]))
        first = component_fingerprint(fitted)
        fitted.update(sparse_rows([{3: 9.0}]))  # no new index, new mean
        second = component_fingerprint(fitted)
        assert len({base["stats"], first["stats"], second["stats"]}) == 3
        assert base["config"] == first["config"] == second["config"]

    def test_hasher_identity_survives_its_memo(self):
        hasher = FeatureHasher(num_features=32)
        fresh_fingerprint = component_fingerprint(hasher)
        fresh_pickle = pickle.dumps(hasher)
        before = hasher.transform(sparse_rows(self.ROWS))
        assert len(hasher._keys) == 5  # the memo did fill
        assert component_fingerprint(hasher) == fresh_fingerprint
        assert pickle.dumps(hasher) == fresh_pickle
        assert fresh_pickle == pickle.dumps(FeatureHasher(num_features=32))
        # ... and a restored hasher, memo empty again, hashes the same.
        restored = pickle.loads(pickle.dumps(hasher))
        assert len(restored._keys) == 0
        after = restored.transform(sparse_rows(self.ROWS))
        for part in ("indptr", "indices", "data"):
            assert (
                getattr(before.matrix, part).tobytes()
                == getattr(after.matrix, part).tobytes()
            )

    def test_filled_hasher_still_shares_a_stateless_prefix(self):
        from repro.pipeline.components.parser import SvmLightParser
        from repro.serving.endpoint import shared_stateless_prefix

        def chain():
            return Pipeline(
                [
                    SvmLightParser(name="parser"),
                    FeatureHasher(num_features=32, name="hasher"),
                    MinMaxScaler(["a"], name="tail"),
                ]
            )

        served, candidate = chain(), chain()
        served.components[1].transform(sparse_rows(self.ROWS))
        assert shared_stateless_prefix(served, candidate) == 2


class TestPipelineFingerprint:
    def test_chain_order_preserved(self):
        pipeline = Pipeline(
            [StandardScaler(["a"], name="first"),
             MinMaxScaler(["a"], name="second")]
        )
        prints = pipeline_fingerprint(pipeline)
        assert [fp["name"] for fp in prints] == ["first", "second"]

    def test_reordering_changes_sequence(self):
        forward = pipeline_fingerprint(
            Pipeline([StandardScaler(["a"]), MinMaxScaler(["a"])])
        )
        backward = pipeline_fingerprint(
            Pipeline([MinMaxScaler(["a"]), StandardScaler(["a"])])
        )
        assert [fp["digest"] for fp in forward] != [
            fp["digest"] for fp in backward
        ]


class TestCanonical:
    def test_scalars_pass_through(self):
        assert _canonical(True) is True
        assert _canonical(None) is None
        assert _canonical(3) == 3
        assert _canonical("x") == "x"

    def test_float_uses_repr(self):
        assert _canonical(0.1) == {"__float__": "0.1"}
        assert _canonical(np.float64(0.1)) == {"__float__": "0.1"}

    def test_ndarray_includes_dtype_and_shape(self):
        ints = _canonical(np.array([1, 2], dtype=np.int32))
        longs = _canonical(np.array([1, 2], dtype=np.int64))
        assert ints != longs
        assert _canonical(np.zeros((2, 3)))["__ndarray__"][1] == [2, 3]

    def test_dict_sorted_by_key(self):
        assert _canonical({"b": 1, "a": 2}) == _canonical(
            dict([("a", 2), ("b", 1)])
        )

    def test_nested_object_recurses(self):
        rendered = _canonical(scaler())
        assert rendered["__obj__"] == "StandardScaler"

    def test_recursion_guard(self):
        loop = []
        loop.append(loop)
        rendered = _canonical(loop)
        # Terminates; the innermost level is the guard marker.
        text = str(rendered)
        assert "__deep__" in text

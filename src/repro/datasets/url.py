"""Synthetic URL-like stream (stand-in for Ma et al.'s URL dataset).

The real dataset: 2.4M URLs over 121 days, ~3.2M sparse features,
binary malicious/legitimate labels, with *new features appearing over
time* and gradually changing characteristics (§5.3). This generator
reproduces those properties at laptop scale:

* sparse rows, emitted as svmlight-format text lines (so the pipeline
  genuinely parses raw records);
* a feature-index space that **grows** by ``new_features_per_chunk``
  each chunk — late features only ever occur in late chunks;
* a ground-truth linear concept whose weights drift per a
  :class:`~repro.datasets.drift.DriftSchedule` (gradual by default);
* missing values (``nan`` tokens) at a configurable rate, giving the
  imputer real work;
* label noise, so no approach reaches zero error.

**Draw-sequence contract.** A table is a pure function of its seed,
and every digest and golden in the repo is downstream of these bytes:
``_make_rows`` consumes, per row and in this order, one binomial, one
``choice`` without replacement (when any recent index is drawn), as
many bounded integers as it takes to fill the index set, ``active``
normals, then ``active + 1`` uniforms. Draws may be *batched* — the
bounded integers a round is certain to need, a row's uniforms — but
never reordered, added or dropped: the emitted lines and the
generator's state after each table must not move
(``tests/property/test_property_url_generator.py`` keeps the
one-draw-at-a-time code as the reference).

The default pipeline (:func:`make_url_pipeline`) mirrors the paper's:
input parser → missing-value imputer → standard scaler → feature
hasher → (linear SVM, built by the caller).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.data.table import Table
from repro.datasets.drift import DriftSchedule, GradualDrift
from repro.exceptions import ValidationError
from repro.pipeline.components.hasher import FeatureHasher
from repro.pipeline.components.imputer import SparseMeanImputer
from repro.pipeline.components.parser import SvmLightParser
from repro.pipeline.components.scaler import SparseStandardScaler
from repro.pipeline.pipeline import Pipeline
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive_int


class URLStreamGenerator:
    """Generates the synthetic URL stream chunk by chunk.

    Parameters
    ----------
    num_chunks:
        Deployment-stream length (the paper uses 12,000; scale down).
    rows_per_chunk:
        URLs per chunk.
    base_features:
        Feature indices available from chunk 0.
    new_features_per_chunk:
        Fresh indices added to the universe every chunk (the growing
        feature space).
    active_per_row:
        Non-zero features per URL row.
    missing_rate:
        Probability an emitted value is ``nan`` (missing measurement).
    label_noise:
        Probability a label is flipped.
    drift:
        Weight-drift schedule (gradual by default).
    recent_feature_bias:
        Probability that an active feature is drawn from the
        ``recent_pool`` newest indices instead of uniformly from all
        available ones. Real URL tokens behave this way — once a new
        token (campaign, domain, …) appears it occurs frequently — and
        this is what makes recent history genuinely more informative
        (the premise of time-based sampling, §5.3).
    recent_pool:
        Size of the "newest indices" pool the bias draws from.
    seed:
        Generator seed (the stream is fully deterministic given it).
    """

    def __init__(
        self,
        num_chunks: int = 600,
        rows_per_chunk: int = 50,
        base_features: int = 400,
        new_features_per_chunk: int = 2,
        active_per_row: int = 15,
        missing_rate: float = 0.05,
        label_noise: float = 0.05,
        drift: Optional[DriftSchedule] = None,
        recent_feature_bias: float = 0.3,
        recent_pool: int = 100,
        seed: SeedLike = 0,
    ) -> None:
        self.num_chunks = check_positive_int(num_chunks, "num_chunks")
        self.rows_per_chunk = check_positive_int(
            rows_per_chunk, "rows_per_chunk"
        )
        self.base_features = check_positive_int(
            base_features, "base_features"
        )
        if new_features_per_chunk < 0:
            raise ValidationError(
                f"new_features_per_chunk must be >= 0, "
                f"got {new_features_per_chunk}"
            )
        self.new_features_per_chunk = int(new_features_per_chunk)
        self.active_per_row = check_positive_int(
            active_per_row, "active_per_row"
        )
        self.missing_rate = check_fraction(missing_rate, "missing_rate")
        self.label_noise = check_fraction(label_noise, "label_noise")
        self.recent_feature_bias = check_fraction(
            recent_feature_bias, "recent_feature_bias"
        )
        self.recent_pool = check_positive_int(recent_pool, "recent_pool")
        self.drift = drift if drift is not None else GradualDrift(0.02)
        self._seed_rng = ensure_rng(seed)
        # Pre-draw the full ground-truth weight universe so feature i
        # has a stable "birth weight"; drift then perturbs a copy.
        self._universe = self.base_features + (
            self.new_features_per_chunk * self.num_chunks
        )
        self._birth_weights = self._seed_rng.standard_normal(
            self._universe
        )
        self._bias = float(self._seed_rng.standard_normal() * 0.1)
        self._chunk_seeds = self._seed_rng.integers(
            0, 2**63 - 1, size=self.num_chunks
        )
        self._initial_seed = int(
            self._seed_rng.integers(0, 2**63 - 1)
        )
        # Rolling drift-replay cache (see _weights_at).
        self._drift_weights = self._birth_weights.copy()
        self._drift_rng = ensure_rng(int(self._chunk_seeds[0]) ^ 0x5EED)
        self._drift_next = 0

    # ------------------------------------------------------------------
    def available_features(self, chunk_index: int) -> int:
        """Indices in existence at ``chunk_index`` (grows linearly)."""
        if not 0 <= chunk_index < self.num_chunks:
            raise ValidationError(
                f"chunk_index {chunk_index} outside "
                f"[0, {self.num_chunks})"
            )
        return self.base_features + (
            self.new_features_per_chunk * chunk_index
        )

    # ------------------------------------------------------------------
    def initial_data(self, num_rows: int = 500) -> List[Table]:
        """The "day 0" training data: pre-drift, base features only."""
        rng = ensure_rng(self._initial_seed)
        weights = self._birth_weights
        table = self._make_rows(
            rng, num_rows, self.base_features, weights
        )
        return [table]

    def chunk(self, chunk_index: int) -> Table:
        """Deterministically generate deployment chunk ``chunk_index``."""
        available = self.available_features(chunk_index)
        rng = ensure_rng(int(self._chunk_seeds[chunk_index]))
        weights = self._weights_at(chunk_index)
        return self._make_rows(
            rng, self.rows_per_chunk, available, weights
        )

    def stream(self) -> Iterator[Table]:
        """The full deployment stream, chunk 0 first."""
        for chunk_index in range(self.num_chunks):
            yield self.chunk(chunk_index)

    # ------------------------------------------------------------------
    def _weights_at(self, chunk_index: int) -> np.ndarray:
        """Ground-truth weights after ``chunk_index + 1`` drift steps.

        Drift is replayed from the birth weights with a dedicated RNG,
        so ``chunk(i)`` is deterministic regardless of call order. A
        rolling cache makes in-order access (the common streaming
        case) O(1) drift steps per chunk; random access restarts the
        replay only when jumping backwards.
        """
        if self._drift_next > chunk_index:
            self._drift_weights = self._birth_weights.copy()
            self._drift_rng = ensure_rng(
                int(self._chunk_seeds[0]) ^ 0x5EED
            )
            self._drift_next = 0
        while self._drift_next <= chunk_index:
            self._drift_weights = self.drift.apply(
                self._drift_weights, self._drift_next, self._drift_rng
            )
            self._drift_next += 1
        return self._drift_weights

    def _make_rows(
        self,
        rng: np.random.Generator,
        num_rows: int,
        available: int,
        weights: np.ndarray,
    ) -> Table:
        active = min(self.active_per_row, available)
        pool_start = max(0, available - self.recent_pool)
        lines = np.empty(num_rows, dtype=object)
        for row in range(num_rows):
            indices = self._draw_indices(
                rng, available, active, pool_start
            )
            values = np.abs(rng.standard_normal(active)) + 0.1
            score = float(values @ weights[indices]) + self._bias
            label = 1 if score >= 0 else -1
            # One bulk draw: the label-noise uniform, then one
            # missing-value uniform per active feature.
            uniforms = rng.random(active + 1).tolist()
            if uniforms[0] < self.label_noise:
                label = -label
            tokens = [str(label)]
            for index, value, uniform in zip(
                indices.tolist(), values.tolist(), uniforms[1:]
            ):
                if uniform < self.missing_rate:
                    tokens.append(f"{index}:nan")
                else:
                    tokens.append(f"{index}:{value:.6f}")
            lines[row] = " ".join(tokens)
        return Table({"line": lines})

    def _draw_indices(
        self,
        rng: np.random.Generator,
        available: int,
        active: int,
        pool_start: int,
    ) -> np.ndarray:
        """Active feature indices for one row.

        A ``recent_feature_bias`` fraction of the draws comes from the
        newest ``recent_pool`` indices; the rest is uniform over all
        available indices. Duplicates are merged (a row never lists an
        index twice).
        """
        recent_count = int(
            rng.binomial(active, self.recent_feature_bias)
        )
        recent_count = min(recent_count, available - pool_start)
        chosen = set()
        if recent_count:
            recent = rng.choice(
                available - pool_start, size=recent_count, replace=False
            )
            chosen.update((recent + pool_start).tolist())
        while len(chosen) < active:
            # A draw adds at most one index, so drawing one at a time
            # would make at least ``shortfall`` more draws: a bulk
            # draw of exactly that many never runs ahead of it.
            shortfall = active - len(chosen)
            chosen.update(
                rng.integers(0, available, size=shortfall).tolist()
            )
        return np.fromiter(chosen, dtype=np.int64)


def make_url_pipeline(hash_features: int = 1024) -> Pipeline:
    """The paper's URL pipeline: parse → impute → scale → hash.

    The terminal SVM model is constructed separately (it needs the
    hashed dimensionality); see
    :func:`repro.experiments.common.build_url_model`.
    """
    return Pipeline(
        [
            SvmLightParser(name="input_parser"),
            SparseMeanImputer(name="imputer"),
            SparseStandardScaler(name="scaler"),
            FeatureHasher(num_features=hash_features, name="hasher"),
        ]
    )

"""Chunk sampling strategies (§4.2 of the paper).

Three strategies select historical chunks for proactive training:

* :class:`UniformSampler` — every stored chunk is equally likely.
* :class:`WindowBasedSampler` — uniform over only the ``window_size``
  most recent chunks.
* :class:`TimeBasedSampler` — recency-weighted: the sampling weight of a
  chunk decays exponentially with its age rank, so recent chunks are
  more likely. The paper specifies only "higher probability for recent
  chunks"; we use exponential decay with a configurable half-life
  (measured in chunks).

Samplers draw *without replacement* from the population of available
chunk timestamps — this matches the hypergeometric analysis of §3.2.2.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

import numpy as np

from repro.exceptions import SamplingError, ValidationError
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive, check_positive_int


class Sampler(ABC):
    """Strategy for selecting chunk timestamps for proactive training."""

    #: Short identifier used in configs, reports, and benchmarks.
    name: str = "base"

    @abstractmethod
    def weights(self, timestamps: Sequence[int]) -> np.ndarray:
        """Return unnormalised, non-negative sampling weights.

        ``timestamps`` are the available chunk ids sorted oldest-first.
        A zero weight excludes a chunk from sampling entirely.
        """

    def sample(
        self,
        timestamps: Sequence[int],
        size: int,
        rng: SeedLike = None,
    ) -> List[int]:
        """Draw ``size`` timestamps without replacement.

        When fewer than ``size`` chunks have non-zero weight, every
        eligible chunk is returned (the paper samples *s* out of *n*
        chunks, degrading gracefully early in a deployment when *n* is
        still small).
        """
        if size < 1:
            raise SamplingError(f"sample size must be >= 1, got {size}")
        ordered = sorted(timestamps)
        if not ordered:
            raise SamplingError("cannot sample from an empty population")
        generator = ensure_rng(rng)
        raw_weights = np.asarray(self.weights(ordered), dtype=np.float64)
        if raw_weights.shape != (len(ordered),):
            raise SamplingError(
                f"weights() returned shape {raw_weights.shape}, expected "
                f"({len(ordered)},)"
            )
        if np.any(raw_weights < 0):
            raise SamplingError("sampling weights must be non-negative")
        eligible = np.flatnonzero(raw_weights > 0)
        if eligible.size == 0:
            raise SamplingError("all sampling weights are zero")
        if eligible.size <= size:
            return [ordered[i] for i in eligible]
        probabilities = raw_weights[eligible] / raw_weights[eligible].sum()
        chosen = generator.choice(
            eligible, size=size, replace=False, p=probabilities
        )
        return [ordered[i] for i in np.sort(chosen).tolist()]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UniformSampler(Sampler):
    """Uniform random sampling over the entire stored history."""

    name = "uniform"

    def weights(self, timestamps: Sequence[int]) -> np.ndarray:
        return np.ones(len(timestamps), dtype=np.float64)


class WindowBasedSampler(Sampler):
    """Uniform sampling restricted to the most recent ``window_size`` chunks.

    The *active window* (paper §3.2.2, parameter *w*) always contains
    the newest chunks; older chunks receive zero weight.
    """

    name = "window"

    def __init__(self, window_size: int) -> None:
        self.window_size = check_positive_int(window_size, "window_size")

    def weights(self, timestamps: Sequence[int]) -> np.ndarray:
        count = len(timestamps)
        weights = np.zeros(count, dtype=np.float64)
        start = max(0, count - self.window_size)
        weights[start:] = 1.0
        return weights

    def __repr__(self) -> str:
        return f"WindowBasedSampler(window_size={self.window_size})"


class TimeBasedSampler(Sampler):
    """Recency-weighted sampling with exponential decay.

    A chunk that is ``age`` positions older than the newest chunk gets
    weight ``0.5 ** (age / half_life)``. ``half_life`` therefore is the
    number of chunks after which the sampling weight halves.
    """

    name = "time"

    def __init__(self, half_life: float = 1000.0) -> None:
        self.half_life = check_positive(half_life, "half_life")

    def weights(self, timestamps: Sequence[int]) -> np.ndarray:
        count = len(timestamps)
        ages = np.arange(count - 1, -1, -1, dtype=np.float64)
        return np.power(0.5, ages / self.half_life)

    def __repr__(self) -> str:
        return f"TimeBasedSampler(half_life={self.half_life})"


def make_sampler(
    name: str,
    window_size: int | None = None,
    half_life: float | None = None,
) -> Sampler:
    """Construct a sampler from its config name.

    Accepts ``"uniform"``, ``"window"`` (requires ``window_size``), and
    ``"time"`` (optional ``half_life``).
    """
    if name == UniformSampler.name:
        return UniformSampler()
    if name == WindowBasedSampler.name:
        if window_size is None:
            raise ValidationError(
                "window sampler requires window_size"
            )
        return WindowBasedSampler(window_size)
    if name == TimeBasedSampler.name:
        if half_life is None:
            return TimeBasedSampler()
        return TimeBasedSampler(half_life)
    raise ValidationError(
        f"unknown sampler {name!r}; expected one of "
        f"['uniform', 'window', 'time']"
    )

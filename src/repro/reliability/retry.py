"""Bounded exponential backoff with deterministic jitter.

A :class:`RetryPolicy` describes the schedule; a :class:`Retrier`
executes callables under it, retrying :class:`TransientFault` /
``OSError`` failures and re-raising everything else (including
:class:`~repro.reliability.faults.SimulatedCrash` — a crash is not
retryable by definition).

Delays are *virtual*: the platform's clock is the deterministic
cost-model clock, so the retrier records the backoff it would have
slept (``total_delay``) instead of sleeping wall time. Jitter comes
from a dedicated generator seeded through :mod:`repro.utils.rng`,
keeping retried runs bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.exceptions import ReliabilityError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs import names
from repro.reliability.faults import SimulatedCrash, TransientFault
from repro.utils.rng import SeedLike, ensure_rng

_T = TypeVar("_T")

#: Exception types a retrier considers transient by default.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    TransientFault,
    OSError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff parameters.

    Attempt ``i`` (0-based) backs off ``min(base_delay * multiplier**i,
    max_delay)`` plus a uniform jitter in ``[0, jitter * delay]``. At
    most ``max_attempts`` calls run in total.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReliabilityError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ReliabilityError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ReliabilityError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ReliabilityError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def backoff(self, attempt: int) -> float:
        """Deterministic (pre-jitter) delay after failed ``attempt``."""
        return min(
            self.base_delay * self.multiplier**attempt, self.max_delay
        )


class RetryExhausted(ReliabilityError):
    """Every attempt allowed by the policy failed."""


class Retrier:
    """Executes callables under a :class:`RetryPolicy`.

    Records ``reliability.retries`` / ``reliability.retries_exhausted``
    counters and accumulates the virtual backoff in
    :attr:`total_delay`.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self._rng = ensure_rng(self.policy.seed)
        #: Virtual seconds of backoff accumulated (never slept).
        self.total_delay = 0.0
        #: Number of retried (i.e. failed-then-reattempted) calls.
        self.retries = 0

    def call(
        self,
        fn: Callable[[], _T],
        site: str = "<unnamed>",
        retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE,
    ) -> _T:
        """Run ``fn``, retrying transient failures per the policy.

        :class:`SimulatedCrash` and non-``retryable`` exceptions
        propagate immediately; after ``max_attempts`` transient
        failures a :class:`RetryExhausted` chains the last one.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.policy.max_attempts):
            try:
                return fn()
            except SimulatedCrash:
                raise
            except retryable as error:
                last = error
                if attempt == self.policy.max_attempts - 1:
                    break
                delay = self.policy.backoff(attempt)
                delay += float(
                    self._rng.uniform(0.0, self.policy.jitter * delay)
                )
                self.total_delay += delay
                self.retries += 1
                self.telemetry.metrics.counter(
                    names.RELIABILITY_RETRIES
                ).inc()
                self.telemetry.tracer.point(
                    names.RELIABILITY_RETRY,
                    site=site,
                    attempt=attempt + 1,
                    delay=delay,
                )
        self.telemetry.metrics.counter(
            names.RELIABILITY_RETRIES_EXHAUSTED
        ).inc()
        raise RetryExhausted(
            f"{site!r} failed after {self.policy.max_attempts} "
            f"attempts: {last}"
        ) from last

"""The fleet's shared virtual clock."""

from __future__ import annotations


class VirtualClock:
    """A monotone simulation clock, callable for telemetry binding."""

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, t: float) -> None:
        if t > self.now:
            self.now = t

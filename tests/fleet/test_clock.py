"""The fleet's shared virtual clock."""

import pytest

from repro.fleet.clock import VirtualClock


class TestVirtualClock:
    def test_monotone(self):
        clock = VirtualClock()
        clock.advance(1.0)
        assert clock() == pytest.approx(1.0)
        clock.advance(0.5)  # never goes backwards
        assert clock() == pytest.approx(1.0)

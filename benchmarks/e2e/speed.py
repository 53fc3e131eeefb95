"""How fast the machine is running right now, read between chunks.

The sandboxes this benchmark runs on share their cores: the same code
runs 1.5x to 1.9x slower for seconds to hours at a time. Raw
wall-clock metrics of one commit spread 14-36 % between runs and
their medians moved by a third within the hour (measured; see
README.md, "Speed normalisation"), while ``BENCHMARK.json`` may give
no metric a bound above 0.25 and is refused when ten runs spread wider
than the bound. So the gated times are not raw. A :class:`SpeedProbe`
reading times a fixed ~1 ms mix of the kinds of work the platform
does (interpreter loop, small dense numpy, scipy CSR row slicing,
allocation). One is taken at every stream pull, outside every timed
call, and each chunk's times are scaled to what they would be at
``REFERENCE_S`` per reading: the unit of every reported time is "a
second on a machine on which a reading takes 1 ms". That takes the
spread of the same runs to 2-4 %. The probe is part of the benchmark,
not of the program: no change under ``src/`` can make it faster, and
both sides of a comparison are divided by the same work.
"""

from time import perf_counter
from typing import Iterable, Iterator, List

import numpy as np
import scipy.sparse as sp

#: A reading on this class of machine when nothing else runs on it.
REFERENCE_S = 1.0e-3
#: A time is scaled by the readings of this many stream pulls around
#: it: one reading is too short a sample of the machine to stand alone.
WINDOW = 9


class SpeedProbe:
    """A fixed piece of work whose duration tracks the machine's speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._dense = rng.random((50, 11))
        self._weights = rng.random(11)
        self._sparse = sp.random(
            50, 1024, density=0.03, format="csr", random_state=rng
        )
        self._wide = rng.random(1024)

    def read(self) -> float:
        """Seconds the fixed work took."""
        start = perf_counter()
        total = 0
        for value in range(3000):
            total += value * value % 7
        for _ in range(40):
            residual = self._dense @ self._weights
            gradient = self._dense.T @ residual
            np.sqrt(gradient * gradient + 1.0) / (1.0 + gradient)
        for index in range(6):
            row = self._sparse[index : index + 1]
            row.T @ (row @ self._wide)
        for _ in range(40):
            {key: float(key) for key in range(60)}
            [None] * 100
        return perf_counter() - start


def speed_factors(readings: List[float], summed: bool) -> np.ndarray:
    """Per reading, what to multiply a time measured next to it by to
    get the time at reference speed.

    Interference comes in bursts of milliseconds. A time that will be
    ``summed`` (a run's wall, a layer's seconds) carries every burst
    that hit it, so it is scaled by the mean of the readings around
    it, which carries them too. A latency whose median over many calls
    is reported leaves the bursts out, and so does the median reading
    that scales it. (Measured on ``rows_per_s`` in a bursty hour:
    quartiles 9 % apart with the median, 4 % with the mean.)
    """
    half = WINDOW // 2
    padded = np.pad(np.asarray(readings), half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)
    typical = np.mean if summed else np.median
    return REFERENCE_S / typical(windows, axis=1)


class Replay:
    """Hands the deployment its next chunk when it asks (closed loop,
    one client), taking a speed reading first. ``starts[i]`` to
    ``ends[i]`` is the wall chunk ``i`` took, readings excluded."""

    def __init__(self, stream: Iterable, probe: SpeedProbe) -> None:
        self._stream = stream
        self._probe = probe
        self.readings: List[float] = []
        self.starts: List[float] = []
        self.ends: List[float] = []

    def __iter__(self) -> Iterator:
        for table in self._stream:
            if self.starts:
                self.ends.append(perf_counter())
            self.readings.append(self._probe.read())
            self.starts.append(perf_counter())
            yield table
        self.ends.append(perf_counter())

    @property
    def chunk_s(self) -> np.ndarray:
        return np.subtract(self.ends, self.starts)

    def factors(self, summed: bool) -> np.ndarray:
        return speed_factors(self.readings, summed)


def calibrate(probe: SpeedProbe) -> float:
    """Milliseconds for ~0.3 s of fixed work (300 readings)."""
    return sum(probe.read() for _ in range(300)) * 1e3

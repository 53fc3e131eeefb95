"""Synthetic taxi-trip stream (stand-in for the NYC TLC trip records).

The real dataset: 280M trips, Feb-2015 … Jun-2016, one chunk per hour.
Its distribution is known to stay static over time (§5.3), so this
generator is stationary: a fixed ground-truth model maps trip features
to log-duration, and chunks differ only through sampling noise and
calendar position.

Trips are generated around Manhattan-ish coordinates. The true
log-duration is (approximately) linear in the features the paper's
pipeline extracts — haversine distance, hour of day, day of week —
plus noise, so the linear-regression model is well-specified. A
configurable fraction of trips is anomalous (absurd durations or
zero-distance), giving the anomaly detector its paper-mandated job
(trips > 22 hours, < 10 seconds, or with zero distance are filtered).

:func:`make_taxi_pipeline` mirrors the paper's Taxi pipeline:
input parser (trip duration) → feature extractor (haversine, bearing,
hour, weekday) → anomaly detector → standard scaler → assembler
(→ linear regression on ``log1p(duration)``, RMSLE metric).
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.data.table import Table
from repro.exceptions import ValidationError
from repro.pipeline.components.anomaly import AnomalyFilter
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.extractor import (
    ColumnDifference,
    ColumnExtractor,
    DayOfWeekExtractor,
    HourOfDayExtractor,
    SECONDS_PER_HOUR,
)
from repro.pipeline.components.geo import (
    bearing_component,
    haversine_component,
    haversine_distance,
)
from repro.pipeline.components.scaler import StandardScaler
from repro.pipeline.pipeline import Pipeline
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive_int

#: Manhattan-ish coordinate box.
LAT_CENTER, LON_CENTER = 40.75, -73.98
COORD_SPREAD = 0.05

#: Anomaly-filter thresholds from the paper (§5.1).
MAX_TRIP_SECONDS = 22 * 3600
MIN_TRIP_SECONDS = 10

#: Feature columns the Taxi pipeline feeds the regression model
#: (11 features, the paper's Taxi dimensionality).
TAXI_FEATURE_COLUMNS = (
    "distance_km",
    "bearing_deg",
    "hour_of_day",
    "day_of_week",
    "passenger_count",
    "pickup_lat",
    "pickup_lon",
    "dropoff_lat",
    "dropoff_lon",
    "delta_lat",
    "delta_lon",
)


class TaxiStreamGenerator:
    """Generates hourly chunks of synthetic taxi trips.

    Parameters
    ----------
    num_chunks:
        Deployment-stream length (one chunk = one hour of trips).
    rows_per_chunk:
        Trips per hourly chunk.
    anomaly_rate:
        Fraction of trips made anomalous (over-long, instant, or
        zero-distance) for the filter to drop.
    noise_std:
        Std of the Gaussian noise on the true log-duration.
    start_epoch:
        POSIX seconds of chunk 0's hour.
    seed:
        Generator seed.
    """

    def __init__(
        self,
        num_chunks: int = 400,
        rows_per_chunk: int = 80,
        anomaly_rate: float = 0.02,
        noise_std: float = 0.25,
        start_epoch: float = 1_422_748_800.0,  # 2015-02-01 00:00 UTC
        seed: SeedLike = 0,
    ) -> None:
        self.num_chunks = check_positive_int(num_chunks, "num_chunks")
        self.rows_per_chunk = check_positive_int(
            rows_per_chunk, "rows_per_chunk"
        )
        self.anomaly_rate = check_fraction(anomaly_rate, "anomaly_rate")
        self.noise_std = float(noise_std)
        self.start_epoch = float(start_epoch)
        root = ensure_rng(seed)
        self._chunk_seeds = root.integers(
            0, 2**63 - 1, size=self.num_chunks
        )
        self._initial_seed = int(root.integers(0, 2**63 - 1))

    # ------------------------------------------------------------------
    # Ground truth: log1p(duration_seconds) as a function of features.
    # Stationary coefficients — the concept never drifts.
    # ------------------------------------------------------------------
    _BASE_LOG_DURATION = 5.6        # ~270 s for a zero-distance ride
    _LOG_PER_KM = 0.22              # longer trips take longer
    _LOG_PER_HOUR = 0.012           # later hours slightly slower
    _LOG_PER_WEEKDAY = -0.015       # weekends slightly faster
    _LOG_PER_PASSENGER = 0.005

    def true_log_duration(
        self,
        distance_km: np.ndarray,
        hour: np.ndarray,
        weekday: np.ndarray,
        passengers: np.ndarray,
    ) -> np.ndarray:
        """Noise-free ground truth in ``log1p`` space."""
        return (
            self._BASE_LOG_DURATION
            + self._LOG_PER_KM * distance_km
            + self._LOG_PER_HOUR * hour
            + self._LOG_PER_WEEKDAY * weekday
            + self._LOG_PER_PASSENGER * passengers
        )

    # ------------------------------------------------------------------
    def initial_data(self, num_rows: int = 800) -> List[Table]:
        """The "January 2015" initial training data (one big table)."""
        rng = ensure_rng(self._initial_seed)
        # Initial data spans the month before the stream starts.
        epoch = self.start_epoch - 30 * 24 * SECONDS_PER_HOUR
        return [self._make_trips(rng, num_rows, epoch, spread_hours=720)]

    def chunk(self, chunk_index: int) -> Table:
        """Deterministically generate hourly chunk ``chunk_index``."""
        if not 0 <= chunk_index < self.num_chunks:
            raise ValidationError(
                f"chunk_index {chunk_index} outside [0, {self.num_chunks})"
            )
        rng = ensure_rng(int(self._chunk_seeds[chunk_index]))
        epoch = self.start_epoch + chunk_index * SECONDS_PER_HOUR
        return self._make_trips(
            rng, self.rows_per_chunk, epoch, spread_hours=1
        )

    def stream(self) -> Iterator[Table]:
        """The full deployment stream in timestamp order."""
        for chunk_index in range(self.num_chunks):
            yield self.chunk(chunk_index)

    # ------------------------------------------------------------------
    def _make_trips(
        self,
        rng: np.random.Generator,
        num_rows: int,
        epoch: float,
        spread_hours: float,
    ) -> Table:
        pickup_lat = LAT_CENTER + rng.normal(0, COORD_SPREAD, num_rows)
        pickup_lon = LON_CENTER + rng.normal(0, COORD_SPREAD, num_rows)
        dropoff_lat = LAT_CENTER + rng.normal(0, COORD_SPREAD, num_rows)
        dropoff_lon = LON_CENTER + rng.normal(0, COORD_SPREAD, num_rows)
        passengers = rng.integers(1, 7, num_rows).astype(np.float64)
        pickup_time = epoch + rng.uniform(
            0, spread_hours * SECONDS_PER_HOUR, num_rows
        )

        distance = haversine_distance(
            pickup_lat, pickup_lon, dropoff_lat, dropoff_lon
        )
        hour = np.floor(pickup_time % 86_400 / SECONDS_PER_HOUR)
        weekday = (np.floor(pickup_time / 86_400) + 3) % 7
        log_duration = self.true_log_duration(
            distance, hour, weekday, passengers
        ) + rng.normal(0, self.noise_std, num_rows)
        duration = np.expm1(log_duration)

        # Inject anomalies: over-long trips, instant trips, and
        # zero-distance trips (car never moved).
        anomalous = rng.random(num_rows) < self.anomaly_rate
        kind = rng.integers(0, 3, num_rows)
        over_long = anomalous & (kind == 0)
        instant = anomalous & (kind == 1)
        parked = anomalous & (kind == 2)
        duration = np.where(
            over_long, MAX_TRIP_SECONDS + rng.uniform(1, 1e5, num_rows),
            duration,
        )
        duration = np.where(
            instant, rng.uniform(0, MIN_TRIP_SECONDS - 1, num_rows),
            duration,
        )
        dropoff_lat = np.where(parked, pickup_lat, dropoff_lat)
        dropoff_lon = np.where(parked, pickup_lon, dropoff_lon)

        return Table(
            {
                "pickup_datetime": pickup_time,
                "dropoff_datetime": pickup_time + duration,
                "pickup_lat": pickup_lat,
                "pickup_lon": pickup_lon,
                "dropoff_lat": dropoff_lat,
                "dropoff_lon": dropoff_lon,
                "passenger_count": passengers,
            }
        )


def make_taxi_pipeline() -> Pipeline:
    """The paper's Taxi pipeline, terminal assembler included.

    The model (linear regression on ``log1p(duration)``) is built by
    the caller; the assembler already emits labels in log space, so
    RMSE on the model output *is* the RMSLE of the raw predictions.
    """
    return Pipeline(
        [
            ColumnDifference(
                minuend="dropoff_datetime",
                subtrahend="pickup_datetime",
                output="trip_duration",
                name="input_parser",
            ),
            haversine_component(
                "pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon",
                name="haversine",
            ),
            bearing_component(
                "pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon",
                name="bearing",
            ),
            HourOfDayExtractor("pickup_datetime", name="hour"),
            DayOfWeekExtractor("pickup_datetime", name="weekday"),
            _delta_component("pickup_lat", "dropoff_lat", "delta_lat"),
            _delta_component("pickup_lon", "dropoff_lon", "delta_lon"),
            _anomaly_detector(),
            StandardScaler(TAXI_FEATURE_COLUMNS, name="scaler"),
            FeatureAssembler(
                feature_columns=TAXI_FEATURE_COLUMNS,
                label_column="trip_duration",
                label_transform=np.log1p,
                name="assembler",
            ),
        ]
    )


def _column_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a - b (module-level so pipelines stay picklable)."""
    return np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)


def _delta_component(origin: str, destination: str, output: str):
    return ColumnExtractor(
        inputs=[destination, origin],
        function=_column_difference,
        output=output,
        name=output,
    )


def _keep_plausible_trips(table: Table) -> np.ndarray:
    """Keep-mask for the paper's anomaly rules (module-level so the
    assembled pipeline stays picklable)."""
    duration = np.asarray(table.column("trip_duration"))
    distance = np.asarray(table.column("distance_km"))
    return (
        (duration >= MIN_TRIP_SECONDS)
        & (duration <= MAX_TRIP_SECONDS)
        & (distance > 0.0)
    )


def _anomaly_detector() -> AnomalyFilter:
    """Drop trips > 22 h, < 10 s, or with zero distance (§5.1)."""
    return AnomalyFilter(_keep_plausible_trips, name="anomaly_detector")

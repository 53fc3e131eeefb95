"""Synthetic datasets standing in for the paper's URL and Taxi data.

The real datasets (Ma et al.'s malicious-URL stream; NYC TLC trip
records) are not redistributable/offline-available, so these
generators produce streams that exercise the same pipeline code paths
and the same statistical phenomena the paper's experiments rely on:

* :mod:`repro.datasets.url` — sparse, high-dimensional, *gradually
  drifting* binary-classification stream with missing values and a
  growing feature space (the paper notes the URL data gains new
  features over time, which is why time-based sampling wins there).
* :mod:`repro.datasets.taxi` — dense trip-record regression stream
  with a *stationary* distribution and injected anomalies (so the
  anomaly filter has work to do, and sampling strategies tie).
"""

from repro.datasets.drift import (
    AbruptDrift,
    DriftSchedule,
    GradualDrift,
    NoDrift,
)
from repro.datasets.taxi import TaxiStreamGenerator, make_taxi_pipeline
from repro.datasets.url import URLStreamGenerator, make_url_pipeline

__all__ = [
    "DriftSchedule",
    "NoDrift",
    "GradualDrift",
    "AbruptDrift",
    "URLStreamGenerator",
    "make_url_pipeline",
    "TaxiStreamGenerator",
    "make_taxi_pipeline",
]

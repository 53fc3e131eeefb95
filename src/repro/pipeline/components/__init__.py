"""Concrete pipeline components.

The two paper pipelines are assembled from these parts:

* URL pipeline — :class:`SvmLightParser`, :class:`SparseMeanImputer`,
  :class:`SparseStandardScaler`, :class:`FeatureHasher` (+ linear SVM).
* Taxi pipeline — :class:`ColumnExtractor` instances (trip duration,
  haversine, bearing, hour, weekday), :class:`AnomalyFilter`,
  :class:`StandardScaler`, :class:`FeatureAssembler` (+ linear
  regression).
"""

from repro.pipeline.components.anomaly import AnomalyFilter, RangeFilter
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.extractor import (
    ColumnDifference,
    ColumnExtractor,
    DayOfWeekExtractor,
    HourOfDayExtractor,
)
from repro.pipeline.components.geo import (
    bearing,
    bearing_component,
    haversine_component,
    haversine_distance,
)
from repro.pipeline.components.hasher import FeatureHasher
from repro.pipeline.components.imputer import (
    MissingValueImputer,
    SparseMeanImputer,
)
from repro.pipeline.components.parser import SvmLightParser
from repro.pipeline.components.scaler import (
    MinMaxScaler,
    SparseStandardScaler,
    StandardScaler,
)

__all__ = [
    "SvmLightParser",
    "MissingValueImputer",
    "SparseMeanImputer",
    "StandardScaler",
    "SparseStandardScaler",
    "MinMaxScaler",
    "FeatureHasher",
    "AnomalyFilter",
    "RangeFilter",
    "ColumnExtractor",
    "ColumnDifference",
    "HourOfDayExtractor",
    "DayOfWeekExtractor",
    "haversine_distance",
    "bearing",
    "haversine_component",
    "bearing_component",
    "FeatureAssembler",
]

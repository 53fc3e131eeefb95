"""Concept-drift detection (the paper's §7 future work, implemented).

The paper's platform handles drift implicitly (recency-weighted
sampling keeps proactive training on fresh data) and names *native*
drift detection as future work. This package provides classic
streaming detectors over the prequential error signal:

* :class:`PageHinkley` — Page–Hinkley test on any real-valued error
  signal (classification or regression residuals).
* :class:`WindowComparisonDetector` — recent-vs-reference window mean
  comparison, a simple and robust baseline.

:class:`DriftTrigger` puts a detector on the scheduler protocol, so a
continuous deployment carries its drift response as one more training
rule (``ContinuousDeployment(..., rules=[TrainingRule(DriftTrigger(
detector), WindowBasedSampler(5), repeats=5)])``): a burst of proactive
trainings on the newest chunks, on top of the regular schedule.
"""

from repro.driftdetect.base import DriftDetector, DriftState
from repro.driftdetect.page_hinkley import PageHinkley
from repro.driftdetect.trigger import DriftTrigger
from repro.driftdetect.window import WindowComparisonDetector

__all__ = [
    "DriftState",
    "DriftDetector",
    "PageHinkley",
    "WindowComparisonDetector",
    "DriftTrigger",
]

"""ROC evaluation of workload-characterization methods (section V-D).

The ground truth for a benchmark tuple is whether its distance in the
hardware-performance-counter space is *large* (beyond a fixed fraction
of the maximum observed distance).  A characterization method "detects"
a tuple by its distance in the microarchitecture-independent space
exceeding a sweepable threshold.  Sweeping that threshold traces the ROC
curve:

* sensitivity (true-positive rate): fraction of HPC-large tuples that
  are also large in the microarchitecture-independent space;
* specificity: fraction of HPC-small tuples that are also small there.

The paper plots sensitivity against (1 - specificity) and compares
methods by area under the curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class RocCurve:
    """One ROC curve.

    Attributes:
        false_positive_rate: x coordinates (1 - specificity), ascending.
        true_positive_rate: matching y coordinates (sensitivity).
        thresholds: microarchitecture-independent distance threshold per
            point (same order as the coordinates).
    """

    false_positive_rate: np.ndarray
    true_positive_rate: np.ndarray
    thresholds: np.ndarray

    @property
    def area(self) -> float:
        """Area under the curve (trapezoidal)."""
        return auc(self.false_positive_rate, self.true_positive_rate)


def roc_curve(
    reference_distances: np.ndarray,
    candidate_distances: np.ndarray,
    reference_threshold_fraction: float = 0.2,
    points: int = 101,
) -> RocCurve:
    """ROC of a candidate space against the reference (HPC) space.

    Args:
        reference_distances: condensed distances in the reference space
            (defines the positive class via the fixed threshold).
        candidate_distances: condensed distances in the candidate
            microarchitecture-independent space (swept).
        reference_threshold_fraction: the paper's fixed 20%-of-maximum
            classification threshold in the reference space.
        points: number of sweep points across the candidate range.

    Raises:
        AnalysisError: on length mismatch or a degenerate reference
            space (all tuples on one side of the threshold).
    """
    reference = np.asarray(reference_distances, dtype=float)
    candidate = np.asarray(candidate_distances, dtype=float)
    if reference.shape != candidate.shape or reference.ndim != 1:
        raise AnalysisError("distance vectors must have identical shape")
    if len(reference) < 2:
        raise AnalysisError("need at least two benchmark tuples")
    if not 0.0 < reference_threshold_fraction < 1.0:
        raise AnalysisError("reference_threshold_fraction must be in (0,1)")

    positive = reference > reference_threshold_fraction * reference.max()
    n_positive = int(positive.sum())
    n_negative = len(reference) - n_positive
    if n_positive == 0 or n_negative == 0:
        raise AnalysisError(
            "degenerate reference space: all tuples fall on one side of "
            "the threshold"
        )

    # Sweep from above-max (nothing flagged) down to just below zero
    # (everything flagged, including zero-distance tuples).
    maximum = float(candidate.max())
    thresholds = np.linspace(maximum * 1.0001, 0.0, points)
    thresholds[-1] = -1e-12
    # A class's tuples flagged at a threshold: those above it.
    tpr, fpr = (
        (len(ranked) - np.searchsorted(ranked, thresholds, side="right"))
        / len(ranked)
        for ranked in (np.sort(candidate[positive]),
                       np.sort(candidate[~positive]))
    )
    return RocCurve(
        false_positive_rate=fpr, true_positive_rate=tpr, thresholds=thresholds
    )


def auc(x: np.ndarray, y: np.ndarray) -> float:
    """Trapezoidal area under a curve given by point sequences.

    Points are sorted by x first, so curves may be supplied in any
    sweep direction.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise AnalysisError("auc needs two equal-length vectors (>= 2)")
    order = np.argsort(x, kind="stable")
    x_sorted = x[order]
    y_sorted = y[order]
    widths = np.diff(x_sorted)
    return float((widths * (y_sorted[1:] + y_sorted[:-1]) / 2.0).sum())

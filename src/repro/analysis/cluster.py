"""Cluster-count selection and benchmark clustering (section VI).

The paper runs k-means for K = 1..70 and keeps the K whose BIC score is
"within 90% of the maximum score".  BIC scores are negative
log-likelihood-based quantities, so the 90% rule is applied to the
min-max normalized score (the SimPoint convention): the smallest K whose
normalized score reaches the threshold wins.

Every K is solved by one :func:`~repro.analysis.kmeans.lockstep_kmeans`
call, bit-for-bit ``kmeans(data, K, seed + K)`` per K (see
:mod:`repro.analysis.kmeans` for the draw protocol and summation order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from .kmeans import KMeansResult, bic_scores, lockstep_kmeans


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of BIC-guided k-means clustering.

    Attributes:
        k: chosen number of clusters.
        result: the k-means solution at the chosen K.
        bic_by_k: BIC score for every explored K.
        normalized_scores: min-max normalized BIC per explored K.
    """

    k: int
    result: KMeansResult
    bic_by_k: Dict[int, float]
    normalized_scores: Dict[int, float]

    def members(self, cluster: int) -> np.ndarray:
        """Row indices belonging to one cluster."""
        return np.flatnonzero(self.result.assignments == cluster)

    def singleton_clusters(self) -> List[int]:
        """Clusters containing exactly one benchmark."""
        sizes = self.result.cluster_sizes()
        return [int(c) for c in np.flatnonzero(sizes == 1)]


def choose_k(
    data: np.ndarray,
    k_range: Tuple[int, int] = (1, 70),
    score_fraction: float = 0.9,
    seed: int = 0,
    restarts: int = 3,
) -> ClusteringResult:
    """Cluster with the smallest K reaching the BIC score threshold.

    Args:
        data: (n x d) matrix of benchmarks in the reduced space.
        k_range: inclusive K range to explore (paper: 1..70; capped at
            the number of benchmarks).
        score_fraction: normalized-BIC threshold (paper: 0.9).
        seed: RNG seed for all k-means runs.
        restarts: k-means++ restarts per K.

    Raises:
        AnalysisError: on an invalid range or threshold, or when the
            range starts above the row-capped largest K.
    """
    data = np.asarray(data, dtype=float)
    low, high = k_range
    if low < 1 or high < low:
        raise AnalysisError("k_range must satisfy 1 <= low <= high")
    if not 0.0 < score_fraction <= 1.0:
        raise AnalysisError("score_fraction must be in (0, 1]")
    high = min(high, len(data) - 1 if len(data) > 1 else 1)
    if low > high:
        raise AnalysisError(
            f"k_range {tuple(k_range)} starts above K = {high}, the "
            f"largest K explored for {len(data)} rows"
        )

    ks = range(low, high + 1)
    runs = lockstep_kmeans(data, ks, [seed + k for k in ks], restarts)
    solutions: Dict[int, KMeansResult] = dict(zip(ks, runs))
    scores = dict(zip(ks, bic_scores(data, runs).tolist()))

    values = np.array([scores[k] for k in sorted(scores)])
    finite = values[np.isfinite(values)]
    if len(finite) == 0:
        raise AnalysisError("no finite BIC score in the explored range")
    lowest, highest = float(finite.min()), float(finite.max())
    spread = highest - lowest
    normalized: Dict[int, float] = {}
    for k, score in scores.items():
        if not np.isfinite(score):
            normalized[k] = 0.0
        elif spread == 0.0:
            normalized[k] = 1.0
        else:
            normalized[k] = (score - lowest) / spread

    chosen = min(
        (k for k in sorted(scores) if normalized[k] >= score_fraction),
        default=max(scores, key=lambda k: scores[k]),
    )
    return ClusteringResult(
        k=chosen,
        result=solutions[chosen],
        bic_by_k=scores,
        normalized_scores=normalized,
    )


def cluster_benchmarks(
    data: np.ndarray,
    names: Sequence[str],
    k_range: Tuple[int, int] = (1, 70),
    score_fraction: float = 0.9,
    seed: int = 0,
) -> "tuple[ClusteringResult, Dict[int, List[str]]]":
    """Cluster and return the membership by benchmark name.

    Returns:
        ``(clustering, members)`` where ``members[c]`` lists the names
        in cluster ``c`` in row order, for every cluster index ``c``
        in ascending order (an empty cluster lists none).
    """
    if len(names) != len(data):
        raise AnalysisError("names must match the number of rows")
    clustering = choose_k(
        data, k_range=k_range, score_fraction=score_fraction, seed=seed
    )
    members: Dict[int, List[str]] = {}
    for cluster in range(clustering.result.k):
        indices = clustering.members(cluster)
        members[cluster] = [names[i] for i in indices]
    return clustering, members

"""K-means clustering and the Bayesian Information Criterion.

The paper clusters the 122 benchmarks in the reduced 8-dimensional
workload space with k-means, choosing K by the BIC score (Sherwood et
al. / Pelleg & Moore formulation): the smallest K whose score reaches
90% of the maximum over K = 1..70.

The implementation uses k-means++ seeding with multiple restarts and is
fully deterministic given the seed.  Two batched steps are bit-for-bit
what a per-call formulation produces:

* *Seeding draws.* Each k-means++ center is one ``choice_indices``
  draw over ``choice_cdf`` of the normalized weights
  ``closest_sq / total`` (the batched weighted-draw protocol of
  :mod:`repro.synth.rng`): one ``rng.random()`` searched in the cdf
  numpy builds from that same ``p``, so the index and the generator
  state match ``Generator.choice(n, p=p)`` without its per-call
  validation.
* *Centroid update.* For ``d >= 2`` numpy reduces ``members.mean(axis=0)``
  row by row, in row order, from ``+0.0``, so one ``np.add.at`` of every
  row into its cluster's zero-initialized sum followed by one division
  by the counts gives the same bits (signed zeros included).  A
  single column is reduced pairwise instead, which no scatter-add
  replays, so one-column data keeps the per-cluster ``mean``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..synth.rng import choice_cdf, choice_indices


@dataclass(frozen=True)
class KMeansResult:
    """One k-means solution.

    Attributes:
        k: number of clusters.
        assignments: cluster index per point.
        centers: (k x d) cluster centroids.
        inertia: total within-cluster squared distance.
    """

    k: int
    assignments: np.ndarray
    centers: np.ndarray
    inertia: float

    def cluster_sizes(self) -> np.ndarray:
        """Point count per cluster."""
        return np.bincount(self.assignments, minlength=self.k)


def _kmeans_plus_plus(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding."""
    n = len(data)
    centers = np.empty((k, data.shape[1]))
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # All remaining points coincide with a center already.
            centers[index:] = data[int(rng.integers(n))]
            break
        choice = int(choice_indices(rng, choice_cdf(closest_sq / total)))
        centers[index] = data[choice]
        distance_sq = ((data - centers[index]) ** 2).sum(axis=1)
        np.minimum(closest_sq, distance_sq, out=closest_sq)
    return centers


def _lloyd(
    data: np.ndarray,
    centers: np.ndarray,
    max_iterations: int,
) -> "tuple[np.ndarray, np.ndarray, float]":
    """Lloyd iterations; returns (assignments, centers, inertia)."""
    assignments = np.zeros(len(data), dtype=np.int64)
    for _ in range(max_iterations):
        # Squared distances to every center.
        distances = (
            (data[:, None, :] - centers[None, :, :]) ** 2
        ).sum(axis=2)
        new_assignments = distances.argmin(axis=1)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
        _update_centers(data, assignments, centers)
    distances = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float(distances[np.arange(len(data)), assignments].sum())
    return assignments, centers, inertia


def _update_centers(
    data: np.ndarray, assignments: np.ndarray, centers: np.ndarray
) -> None:
    """Move every non-empty cluster's center to its members' mean."""
    if data.shape[1] == 1:
        # numpy sums one column pairwise; only the per-cluster mean
        # itself reproduces those bits (see the module docstring).
        for cluster in range(len(centers)):
            members = data[assignments == cluster]
            if len(members):
                centers[cluster] = members.mean(axis=0)
        return
    sums = np.zeros(centers.shape)
    np.add.at(sums, assignments, data)
    counts = np.bincount(assignments, minlength=len(centers))
    present = counts > 0
    centers[present] = sums[present] / counts[present, None]


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int = 0,
    restarts: int = 5,
    max_iterations: int = 100,
) -> KMeansResult:
    """Cluster rows of ``data`` into ``k`` clusters.

    Runs ``restarts`` independent k-means++ initializations and keeps
    the lowest-inertia solution.

    Raises:
        AnalysisError: if ``k`` is not within ``[1, n]``.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or len(data) == 0:
        raise AnalysisError("kmeans needs a non-empty 2-D matrix")
    if not 1 <= k <= len(data):
        raise AnalysisError(f"k must be in [1, {len(data)}], got {k}")
    rng = np.random.default_rng(seed)
    best: "KMeansResult | None" = None
    for _ in range(max(restarts, 1)):
        centers = _kmeans_plus_plus(data, k, rng)
        assignments, centers, inertia = _lloyd(
            data, centers.copy(), max_iterations
        )
        if best is None or inertia < best.inertia:
            best = KMeansResult(
                k=k, assignments=assignments, centers=centers, inertia=inertia
            )
    assert best is not None
    return best


def bic_score(data: np.ndarray, result: KMeansResult) -> float:
    """BIC of a k-means solution (spherical-Gaussian likelihood).

    Uses the Pelleg & Moore (X-means) formulation also used by SimPoint:
    maximum-likelihood pooled variance, per-cluster log-likelihood, and
    a ``(p / 2) log R`` complexity penalty with ``p = K (d + 1)`` free
    parameters.  Larger is better.
    """
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    k = result.k
    if n <= k:
        # Degenerate: every point its own cluster; maximal complexity.
        return -np.inf
    residual_sq = 0.0
    for cluster in range(k):
        members = data[result.assignments == cluster]
        if len(members):
            residual_sq += (
                ((members - result.centers[cluster]) ** 2).sum()
            )
    variance = residual_sq / (d * (n - k))
    variance = max(variance, 1e-12)

    log_likelihood = 0.0
    sizes = result.cluster_sizes()
    for cluster in range(k):
        size = int(sizes[cluster])
        if size == 0:
            continue
        log_likelihood += (
            size * np.log(size / n)
            - size * d / 2.0 * np.log(2.0 * np.pi * variance)
            - (size - 1) * d / 2.0
        )
    parameters = k * (d + 1)
    return float(log_likelihood - parameters / 2.0 * np.log(n))

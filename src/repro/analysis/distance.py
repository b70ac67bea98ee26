"""Pairwise benchmark distances.

The paper compares benchmarks by the Euclidean distance between their
(normalized) characteristic vectors, over all benchmark tuples.  The
condensed form (one entry per unordered pair, scipy ``pdist`` layout) is
the canonical representation throughout this library.
"""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError


def pairwise_distances(data: np.ndarray) -> np.ndarray:
    """Condensed Euclidean distances between all row pairs.

    Args:
        data: (n benchmarks x d characteristics) matrix, already
            normalized.

    Returns:
        Condensed distance vector of length ``n * (n - 1) / 2``.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise AnalysisError("need a 2-D matrix with at least two rows")
    if data.shape[1] == 0:
        raise AnalysisError("need at least one characteristic column")
    # scipy is imported per call so that importing repro.analysis (the
    # dataset builder, the CLI, the service) does not load it.
    from scipy.spatial.distance import pdist
    return pdist(data, metric="euclidean")


def distance_matrix(condensed: np.ndarray) -> np.ndarray:
    """Square symmetric matrix from a condensed distance vector."""
    from scipy.spatial.distance import squareform
    return squareform(condensed)


def condensed_index(i: int, j: int, n: int) -> int:
    """Index of pair ``(i, j)`` in a condensed distance vector of ``n``
    items.

    >>> condensed_index(0, 1, 4)
    0

    Raises:
        AnalysisError: if ``i == j`` or either index is out of range.
    """
    if i == j:
        raise AnalysisError("no self-distances in condensed form")
    if not (0 <= i < n and 0 <= j < n):
        raise AnalysisError(f"pair ({i}, {j}) out of range for n={n}")
    if i > j:
        i, j = j, i
    return n * i - i * (i + 1) // 2 + (j - i - 1)

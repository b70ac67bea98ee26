"""Pairwise benchmark distances.

The paper compares benchmarks by the Euclidean distance between their
(normalized) characteristic vectors, over all benchmark tuples.  The
condensed form (one entry per unordered pair, scipy ``pdist`` layout) is
the canonical representation throughout this library.
"""

from __future__ import annotations

from typing import Callable

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


def subset_distances(data: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``mask -> pairwise_distances(data[:, mask])`` for many column
    subsets of one matrix (``mask`` selects at least one column).

    SciPy's condensed Euclidean distance is the square root of a
    sequential, column-order sum of squared coordinate differences.
    So the squared difference of every row pair in every column is
    tabulated once (one table row per column, pairs in condensed
    order), and a subset's distances are the square root of its table
    rows summed in column order: the same bits.  Accumulating row by
    row in place beats gathering the rows and summing them: no copy of
    the selected rows is made.
    """
    data = np.asarray(data, dtype=float)
    first, second = np.triu_indices(len(data), k=1)
    # Filled one column at a time so the only transient is one row.
    squared = np.empty((data.shape[1], len(first)))
    for feature, column in enumerate(data.T):
        np.square(column[first] - column[second], out=squared[feature])

    def distances(mask: np.ndarray) -> np.ndarray:
        features = np.flatnonzero(mask)
        total = squared[features[0]].copy()
        for feature in features[1:]:
            total += squared[feature]
        return np.sqrt(total, out=total)

    return distances


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

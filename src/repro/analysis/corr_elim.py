"""Correlation elimination (section V-A of the paper).

For each characteristic, compute its average absolute correlation with
all other (remaining) characteristics; remove the one with the highest
average — it carries the least additional information — and iterate.
The removal order induces, for every target dimensionality ``k``, the
set of ``k`` retained characteristics.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import AnalysisError
from .correlation import correlation_matrix


def correlation_elimination_order(
    data: np.ndarray, ranking: str = "mean"
) -> List[int]:
    """Column indices in elimination order (first removed first).

    Args:
        data: (n benchmarks x d characteristics) matrix.
        ranking: ``"mean"`` removes the highest average |r| (the
            paper's rule); ``"max"`` removes the highest maximum |r|
            (an ablation variant).

    Returns:
        A list of all ``d`` column indices; eliminating a prefix of
        length ``d - k`` leaves the ``k`` best characteristics.
    """
    if ranking not in ("mean", "max"):
        raise AnalysisError(f"unknown ranking rule: {ranking!r}")
    matrix = np.abs(correlation_matrix(data))
    np.fill_diagonal(matrix, 0.0)
    d = matrix.shape[0]
    remaining = list(range(d))
    order: List[int] = []
    while len(remaining) > 1:
        sub = matrix[np.ix_(remaining, remaining)]
        if ranking == "mean":
            scores = sub.sum(axis=1) / (len(remaining) - 1)
        else:
            scores = sub.max(axis=1)
        victim_position = int(np.argmax(scores))
        order.append(remaining.pop(victim_position))
    order.append(remaining.pop())
    return order


def retain_by_correlation(
    data: np.ndarray,
    keep: int,
    ranking: str = "mean",
    order: "Sequence[int] | None" = None,
) -> List[int]:
    """The ``keep`` characteristic indices retained by correlation
    elimination, in ascending index order.

    ``order`` is the :func:`correlation_elimination_order` of ``data``
    under ``ranking`` when the caller already has it (computed if None).

    Raises:
        AnalysisError: if ``keep`` is not within ``[1, d]``.
    """
    d = np.asarray(data).shape[1]
    if not 1 <= keep <= d:
        raise AnalysisError(f"keep must be in [1, {d}], got {keep}")
    if order is None:
        order = correlation_elimination_order(data, ranking=ranking)
    retained = order[d - keep:]
    return sorted(retained)

"""Pearson correlation utilities."""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length vectors.

    Constant vectors have undefined correlation; this returns 0.0 for
    them (no linear association measurable), which is the safe value in
    every use within this library.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise AnalysisError("pearson needs two equal-length 1-D vectors")
    if len(x) < 2:
        raise AnalysisError("pearson needs at least two observations")
    return PearsonAgainst(x)(y)


class PearsonAgainst:
    """:func:`pearson` of many vectors against one fixed ``x``.

    The half of the coefficient that depends on ``x`` alone (its
    centered copy and that copy's sum of squares) is computed once;
    each call returns exactly ``pearson(x, y)``.  Calls skip
    :func:`pearson`'s shape validation.
    """

    def __init__(self, x: np.ndarray):
        self._centered = x - x.mean()
        self._sum_sq = (self._centered**2).sum()

    def __call__(self, y: np.ndarray) -> float:
        y_centered = y - y.mean()
        denominator = np.sqrt(self._sum_sq * (y_centered**2).sum())
        if denominator == 0.0:
            return 0.0
        return float((self._centered * y_centered).sum() / denominator)


def correlation_matrix(data: np.ndarray) -> np.ndarray:
    """Column-by-column Pearson correlation matrix.

    Constant columns yield zero correlation with everything (and, by
    convention, 1.0 on their own diagonal entry).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise AnalysisError("need a 2-D matrix with at least two rows")
    centered = data - data.mean(axis=0)
    std = centered.std(axis=0)
    safe = np.where(std > 0.0, std, 1.0)
    scaled = centered / safe
    matrix = scaled.T @ scaled / data.shape[0]
    constant = std == 0.0
    matrix[constant, :] = 0.0
    matrix[:, constant] = 0.0
    np.fill_diagonal(matrix, 1.0)
    return matrix

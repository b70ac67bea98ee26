"""Agglomerative hierarchical clustering with ASCII dendrograms.

The PCA-based prior work the paper builds on (Eeckhout et al.,
Phansalkar et al.) visualizes benchmark similarity with dendrograms
from hierarchical clustering.  This module provides that comparator:
complete/average/single-linkage clustering on the same distance
vectors the rest of the pipeline uses, a flat-cut helper, and a
terminal-friendly dendrogram rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..errors import AnalysisError

#: Supported linkage methods.
LINKAGE_METHODS = ("single", "complete", "average", "ward")


@dataclass(frozen=True)
class HierarchicalResult:
    """Outcome of hierarchical clustering.

    Attributes:
        linkage_matrix: scipy linkage matrix (``(n-1) x 4``).
        names: item labels, in input row order.
        method: linkage method used.
    """

    linkage_matrix: np.ndarray
    names: "tuple[str, ...]"
    method: str

    def cut(self, k: int) -> Dict[int, List[str]]:
        """Flat clusters from cutting the tree into ``k`` groups.

        Returns:
            cluster id (0-based, ordered by size descending) -> names.
        """
        if not 1 <= k <= len(self.names):
            raise AnalysisError(
                f"k must be in [1, {len(self.names)}], got {k}"
            )
        from scipy.cluster.hierarchy import fcluster
        labels = fcluster(self.linkage_matrix, k, criterion="maxclust")
        groups: Dict[int, List[str]] = {}
        for name, label in zip(self.names, labels):
            groups.setdefault(int(label), []).append(name)
        ordered = sorted(groups.values(), key=len, reverse=True)
        return {index: members for index, members in enumerate(ordered)}

    def merge_heights(self) -> np.ndarray:
        """The distance at which each merge happened (ascending)."""
        return self.linkage_matrix[:, 2].copy()

    def format_dendrogram(self, width: int = 60) -> str:
        """ASCII dendrogram: one leaf per line, join depth as indent.

        Rendering follows the scipy leaf ordering; the horizontal
        position of each leaf's connector encodes the height at which
        it merges into the tree (deeper = more dissimilar).
        """
        from scipy.cluster.hierarchy import dendrogram
        order = dendrogram(self.linkage_matrix, no_plot=True)["leaves"]
        heights = self._leaf_merge_heights()
        peak = max(float(heights.max()), 1e-12)
        lines = []
        for leaf in order:
            bar = round(heights[leaf] / peak * (width - 1)) + 1
            lines.append(f"{'-' * bar}+ {self.names[leaf]}")
        return "\n".join(lines)

    def _leaf_merge_heights(self) -> np.ndarray:
        """Height at which each original item first merges."""
        n = len(self.names)
        heights = np.zeros(n)
        for row in self.linkage_matrix:
            left, right, height = int(row[0]), int(row[1]), float(row[2])
            for node in (left, right):
                if node < n and heights[node] == 0.0:
                    heights[node] = height
        return heights


def hierarchical_cluster(
    data: np.ndarray,
    names: Sequence[str],
    method: str = "complete",
) -> HierarchicalResult:
    """Cluster rows of a (normalized) matrix hierarchically.

    Args:
        data: (n x d) matrix, already normalized.
        names: one label per row.
        method: linkage method (one of :data:`LINKAGE_METHODS`).

    Raises:
        AnalysisError: on unknown methods or mismatched names.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or len(data) < 2:
        raise AnalysisError("need a 2-D matrix with at least two rows")
    if len(names) != len(data):
        raise AnalysisError("names must match the number of rows")
    if method not in LINKAGE_METHODS:
        raise AnalysisError(
            f"unknown linkage method {method!r}; "
            f"expected one of {LINKAGE_METHODS}"
        )
    from scipy.cluster.hierarchy import linkage
    matrix = linkage(data, method=method, metric="euclidean")
    return HierarchicalResult(
        linkage_matrix=matrix, names=tuple(names), method=method
    )

"""Statistical analysis pipeline.

Everything downstream of characterization: normalization, pairwise
distances, correlation, the two dimensionality-reduction methods the
paper proposes (correlation elimination and the genetic algorithm), the
PCA baseline it compares against, ROC evaluation, the Table III quadrant
classification, k-means clustering with BIC-based K selection, and
kiviat-plot data preparation.
"""

from .normalize import zscore, max_normalize
from .distance import pairwise_distances, subset_distances, condensed_index
from .correlation import pearson, correlation_matrix
from .pca import PCA
from .corr_elim import correlation_elimination_order, retain_by_correlation
from .genetic import GAResult, GeneticSelector
from .roc import RocCurve, roc_curve, auc
from .classify import QuadrantFractions, classify_quadrants
from .kmeans import KMeansResult, kmeans, bic_score
from .cluster import ClusteringResult, choose_k, cluster_benchmarks
from .hierarchical import (
    HierarchicalResult,
    LINKAGE_METHODS,
    hierarchical_cluster,
)
from .subset import SubsetResult, format_subset, select_representatives
from .kiviat import kiviat_normalize, kiviat_ascii, kiviat_table

__all__ = [
    "zscore",
    "max_normalize",
    "pairwise_distances",
    "subset_distances",
    "condensed_index",
    "pearson",
    "correlation_matrix",
    "PCA",
    "correlation_elimination_order",
    "retain_by_correlation",
    "GAResult",
    "GeneticSelector",
    "RocCurve",
    "roc_curve",
    "auc",
    "QuadrantFractions",
    "classify_quadrants",
    "KMeansResult",
    "kmeans",
    "bic_score",
    "ClusteringResult",
    "choose_k",
    "cluster_benchmarks",
    "HierarchicalResult",
    "LINKAGE_METHODS",
    "hierarchical_cluster",
    "SubsetResult",
    "format_subset",
    "select_representatives",
    "kiviat_normalize",
    "kiviat_ascii",
    "kiviat_table",
]

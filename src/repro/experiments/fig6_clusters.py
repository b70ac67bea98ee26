"""Figure 6: clustering the 122 benchmarks in the reduced space.

K-means over the GA-selected characteristic subspace (z-scored), with K
chosen as the smallest value whose BIC score reaches 90% of the maximum
over K = 1..70 (the paper lands on 15 clusters).  Reports cluster
membership with suite composition, singleton (isolated) benchmarks, the
SPECfp-grouping observation, per-suite SPEC-similarity fractions, and
kiviat plots of cluster centroids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..analysis import (
    ClusteringResult,
    GeneticSelector,
    cluster_benchmarks,
    kiviat_ascii,
    kiviat_normalize,
    kiviat_table,
)
from ..config import DEFAULT_CONFIG, ReproConfig
from ..mica import CHARACTERISTICS
from ..reporting import format_table
from .dataset import WorkloadDataset

#: The nine SPECfp programs the paper groups into one cluster, plus the
#: remaining five FP programs.
SPECFP_PROGRAMS = (
    "ammp", "applu", "apsi", "art", "equake", "facerec", "fma3d",
    "galgel", "lucas", "mesa", "mgrid", "sixtrack", "swim", "wupwise",
)


@dataclass(frozen=True)
class Fig6Result:
    """Figure 6 data.

    Attributes:
        clustering: the BIC-selected k-means outcome.
        members: cluster id -> benchmark names.
        selected: characteristic indices spanning the reduced space.
        singleton_names: benchmarks isolated in their own cluster.
        specfp_max_shared: size of the largest single-cluster group of
            SPECfp programs (paper: 9 of 14).
        suite_spec_similarity: per suite, the fraction of its
            benchmarks sharing a cluster with >= 1 SPEC benchmark.
        kiviat_data: min-max normalized reduced matrix (rows align with
            the dataset's benchmarks).
    """

    clustering: ClusteringResult
    members: Dict[int, List[str]]
    selected: Tuple[int, ...]
    singleton_names: List[str]
    specfp_max_shared: int
    suite_spec_similarity: Dict[str, float]
    kiviat_data: np.ndarray
    names: Tuple[str, ...]

    @property
    def k(self) -> int:
        return self.clustering.k

    def format(self, kiviat_plots: bool = True) -> str:
        """Human-readable report section."""
        lines = [
            "Figure 6: clustering in the reduced "
            f"{len(self.selected)}-dimensional space",
            f"chosen K = {self.k} (paper: 15; BIC within 90% of max over "
            "K = 1..70)",
            "",
        ]
        axis_labels = [CHARACTERISTICS[i].key for i in self.selected]
        order = sorted(
            self.members, key=lambda c: len(self.members[c]), reverse=True
        )
        for cluster in order:
            names = self.members[cluster]
            suites = sorted({name.split("/")[0] for name in names})
            lines.append(
                f"cluster {cluster:>2} ({len(names):>3} benchmarks; "
                f"suites: {', '.join(suites)})"
            )
            for name in sorted(names):
                lines.append(f"    {name}")
            if kiviat_plots:
                center_rows = [self.names.index(name) for name in names]
                centroid = self.kiviat_data[center_rows].mean(axis=0)
                lines.append("")
                lines.append(kiviat_ascii(centroid.tolist(), radius=5))
            lines.append("")
        lines.append(
            "isolated benchmarks (singleton clusters): "
            + (", ".join(sorted(self.singleton_names)) or "none")
        )
        lines.append(
            f"largest single-cluster SPECfp group: {self.specfp_max_shared} "
            "of 14 (paper: 9 of 14)"
        )
        rows = [
            [suite, f"{fraction:.0%}"]
            for suite, fraction in sorted(self.suite_spec_similarity.items())
        ]
        lines.append("")
        lines.append(
            format_table(
                ["suite", "benchmarks sharing a cluster with SPEC"],
                rows,
                align_right=[False, True],
                title="suite-level similarity to SPEC CPU2000:",
            )
        )
        lines.append("")
        lines.append("cluster-centroid kiviat table (axes = selected chars):")
        order_names = [f"cluster {c}" for c in order]
        centroids = np.vstack(
            [
                self.kiviat_data[
                    [self.names.index(name) for name in self.members[c]]
                ].mean(axis=0)
                for c in order
            ]
        )
        lines.append(kiviat_table(order_names, centroids, axis_labels))
        return "\n".join(lines)


def run_fig6(
    dataset: WorkloadDataset,
    config: ReproConfig = DEFAULT_CONFIG,
    ga_result=None,
    k_range: "Tuple[int, int] | None" = None,
) -> Fig6Result:
    """Cluster the population in the GA-reduced space."""
    mica_normalized = dataset.mica_normalized()
    if ga_result is None:
        selector = GeneticSelector(
            population=config.ga_population,
            generations=config.ga_generations,
            seed=config.ga_seed,
        )
        ga_result = selector.select(mica_normalized)
    selected = ga_result.selected
    reduced = mica_normalized[:, list(selected)]

    clustering, members = cluster_benchmarks(
        reduced,
        dataset.names,
        k_range=k_range or config.kmeans_k_range,
        score_fraction=config.bic_score_fraction,
        seed=config.seed,
    )

    singleton_names = [
        members[cluster][0] for cluster in clustering.singleton_clusters()
    ]

    # SPECfp grouping: per cluster, count distinct SPECfp *programs*.
    specfp_count_by_cluster: Dict[int, set] = {}
    for cluster, names in members.items():
        programs = {
            name.split("/")[1]
            for name in names
            if name.startswith("spec2000/")
            and name.split("/")[1] in SPECFP_PROGRAMS
        }
        specfp_count_by_cluster[cluster] = programs
    specfp_max_shared = max(
        (len(programs) for programs in specfp_count_by_cluster.values()),
        default=0,
    )

    # Per-suite SPEC-similarity.
    cluster_of = {}
    for cluster, names in members.items():
        for name in names:
            cluster_of[name] = cluster
    clusters_with_spec = {
        cluster
        for cluster, names in members.items()
        if any(name.startswith("spec2000/") for name in names)
    }
    suite_similarity: Dict[str, float] = {}
    for suite in sorted(set(dataset.suites)):
        if suite == "spec2000":
            continue
        suite_names = [
            name for name in dataset.names if name.startswith(suite + "/")
        ]
        shared = sum(
            1 for name in suite_names if cluster_of[name] in clusters_with_spec
        )
        suite_similarity[suite] = shared / len(suite_names)

    kiviat_data = kiviat_normalize(dataset.mica[:, list(selected)])
    return Fig6Result(
        clustering=clustering,
        members=members,
        selected=selected,
        singleton_names=singleton_names,
        specfp_max_shared=specfp_max_shared,
        suite_spec_similarity=suite_similarity,
        kiviat_data=kiviat_data,
        names=dataset.names,
    )

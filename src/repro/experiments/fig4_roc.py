"""Figure 4: ROC curves of the characterization methods.

Compares how well each reduced characteristic set identifies program
similarity (ground truth: HPC-space distance beyond the fixed 20%
threshold): all 47 characteristics, the GA-selected subset, and
correlation elimination retaining 17, 12 and 7 characteristics.  The
paper's areas: all = 0.72, GA = 0.69, CE-17 = 0.67, CE-12/7 = 0.64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


from ..analysis import (
    GeneticSelector,
    RocCurve,
    correlation_elimination_order,
    pairwise_distances,
    retain_by_correlation,
    roc_curve,
)
from ..config import DEFAULT_CONFIG, ReproConfig
from ..reporting import ascii_lines, format_table
from .dataset import WorkloadDataset


@dataclass(frozen=True)
class Fig4Result:
    """Figure 4 data.

    Attributes:
        curves: ROC curve per method label.
        areas: AUC per method label.
        selected: characteristic indices used per method (0-based).
    """

    curves: Dict[str, RocCurve]
    areas: Dict[str, float]
    selected: Dict[str, Tuple[int, ...]]

    def format(self) -> str:
        """Human-readable report section."""
        paper_areas = {
            "all-47": 0.72,
            "GA": 0.69,
            "CE-17": 0.67,
            "CE-12": 0.64,
            "CE-7": 0.64,
        }
        rows = []
        for label, area in self.areas.items():
            rows.append(
                [
                    label,
                    len(self.selected[label]),
                    f"{area:.3f}",
                    f"{paper_areas.get(label, float('nan')):.2f}",
                ]
            )
        table = format_table(
            ["method", "#chars", "AUC", "paper AUC"],
            rows,
            align_right=[False, True, True, True],
        )
        plot = ascii_lines(
            {
                label: (curve.false_positive_rate, curve.true_positive_rate)
                for label, curve in self.curves.items()
            },
            x_label="1 - specificity",
            y_label="sensitivity",
        )
        return (
            "Figure 4: ROC curves of the characterization methods\n"
            + table
            + "\n\n"
            + plot
        )


def run_fig4(
    dataset: WorkloadDataset,
    config: ReproConfig = DEFAULT_CONFIG,
    ce_sizes: Tuple[int, ...] = (17, 12, 7),
    ga_result=None,
) -> Fig4Result:
    """Compute the Figure 4 ROC comparison.

    Args:
        dataset: the workload data set.
        config: GA parameters and the classification threshold.
        ce_sizes: retained-set sizes for correlation elimination.
        ga_result: a precomputed GA selection (one is computed with the
            config's GA settings otherwise).
    """
    mica_normalized = dataset.mica_normalized()
    hpc_distances = dataset.hpc_distances()
    threshold = config.similarity_threshold

    methods: Dict[str, Tuple[int, ...]] = {
        "all-47": tuple(range(mica_normalized.shape[1]))
    }
    if ga_result is None:
        selector = GeneticSelector(
            population=config.ga_population,
            generations=config.ga_generations,
            seed=config.ga_seed,
        )
        ga_result = selector.select(mica_normalized)
    methods["GA"] = ga_result.selected
    order = correlation_elimination_order(mica_normalized)
    for size in ce_sizes:
        methods[f"CE-{size}"] = tuple(
            retain_by_correlation(mica_normalized, size, order=order)
        )

    curves: Dict[str, RocCurve] = {}
    areas: Dict[str, float] = {}
    for label, indices in methods.items():
        distances = pairwise_distances(mica_normalized[:, list(indices)])
        curve = roc_curve(
            hpc_distances,
            distances,
            reference_threshold_fraction=threshold,
        )
        curves[label] = curve
        areas[label] = curve.area
    return Fig4Result(curves=curves, areas=areas, selected=methods)

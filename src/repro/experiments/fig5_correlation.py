"""Figure 5: distance-correlation fidelity versus retained count.

For correlation elimination, the Pearson correlation between the
distances in the full 47-characteristic space and in the reduced space
is traced as characteristics are progressively removed; the GA's single
operating point is overlaid.  In the paper, the GA achieves 0.876 with
8 characteristics while correlation elimination needs 17 to reach
0.823 — the GA dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..analysis import (
    GeneticSelector,
    correlation_elimination_order,
    subset_distances,
)
from ..analysis.correlation import PearsonAgainst
from ..config import DEFAULT_CONFIG, ReproConfig
from ..reporting import ascii_lines, format_table
from .dataset import WorkloadDataset


@dataclass(frozen=True)
class Fig5Result:
    """Figure 5 data.

    Attributes:
        ce_curve: retained-count -> distance correlation, for
            correlation elimination (descending counts).
        ga_point: ``(n_selected, rho)`` of the GA solution.
        ga_selected: GA-selected characteristic indices (0-based).
    """

    ce_curve: Dict[int, float]
    ga_point: Tuple[int, float]
    ga_selected: Tuple[int, ...]

    def ce_at(self, retained: int) -> float:
        """CE correlation at a retained-count (for tests/benches)."""
        return self.ce_curve[retained]

    def format(self) -> str:
        """Human-readable report section."""
        counts = sorted(self.ce_curve, reverse=True)
        sample = [c for c in counts if c in (46, 40, 32, 24, 17, 12, 8, 7, 4, 2)]
        rows = [[c, f"{self.ce_curve[c]:.3f}"] for c in sample]
        table = format_table(
            ["retained", "CE distance correlation"],
            rows,
            align_right=[True, True],
        )
        ga_n, ga_rho = self.ga_point
        plot = ascii_lines(
            {
                "CE": (
                    np.array(counts, dtype=float),
                    np.array([self.ce_curve[c] for c in counts]),
                ),
                "*GA": (
                    np.array([ga_n, ga_n], dtype=float),
                    np.array([0.0, ga_rho]),
                ),
            },
            x_label="number of retained characteristics",
            y_label="distance correlation with full space",
        )
        return (
            "Figure 5: distance correlation vs retained characteristics\n"
            f"GA point: {ga_n} characteristics, rho = {ga_rho:.3f} "
            "(paper: 8 chars, 0.876)\n"
            f"CE at 17: {self.ce_curve.get(17, float('nan')):.3f} "
            "(paper: 0.823)\n\n"
            + table
            + "\n\n"
            + plot
        )


def run_fig5(
    dataset: WorkloadDataset,
    config: ReproConfig = DEFAULT_CONFIG,
    ga_result=None,
) -> Fig5Result:
    """Compute the Figure 5 comparison.

    Each CE point is ``pearson(pairwise_distances(X),
    pairwise_distances(X[:, kept]))``, read bit for bit off one table of
    squared pair differences (:func:`subset_distances`).
    """
    mica_normalized = dataset.mica_normalized()
    distances = subset_distances(mica_normalized)
    kept = np.ones(mica_normalized.shape[1], dtype=bool)
    correlate = PearsonAgainst(distances(kept))

    ce_curve: Dict[int, float] = {}
    for victim in correlation_elimination_order(mica_normalized)[:-1]:
        kept[victim] = False
        ce_curve[int(kept.sum())] = correlate(distances(kept))

    if ga_result is None:
        selector = GeneticSelector(
            population=config.ga_population,
            generations=config.ga_generations,
            seed=config.ga_seed,
        )
        ga_result = selector.select(mica_normalized)

    return Fig5Result(
        ce_curve=ce_curve,
        ga_point=(ga_result.n_selected, ga_result.rho),
        ga_selected=ga_result.selected,
    )

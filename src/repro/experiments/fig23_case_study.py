"""Figures 2 and 3: the bzip2-versus-blast case study.

The paper's concrete pitfall instance: SPEC CPU2000's bzip2 and
BioInfoMark's blast look *similar* on hardware performance counters
(Figure 2) while their microarchitecture-independent characteristics are
*different* (Figure 3) — most strikingly the working sets, the
global-history branch predictability and the global store strides.

Each figure normalizes per characteristic by the maximum observed value
across the compared benchmarks, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..analysis import max_normalize
from ..errors import AnalysisError
from ..mica import CHARACTERISTICS
from ..reporting import format_table
from ..uarch.hpc import HPC_METRIC_NAMES
from .dataset import WorkloadDataset

#: Mix columns in the MICA matrix (prepended to the HPC vector for the
#: Figure 2 comparison, as the paper does).
_MIX_SLICE = slice(0, 6)


@dataclass(frozen=True)
class CaseStudyResult:
    """Figures 2-3 data for one benchmark pair.

    Attributes:
        name_a / name_b: the two benchmarks compared.
        hpc_labels / hpc_a / hpc_b: Figure 2 (max-normalized HPC metrics
            plus instruction mix).
        mica_labels / mica_a / mica_b: Figure 3 (max-normalized MICA
            characteristics, Table II order).
        hpc_distance_rank / mica_distance_rank: the pair's distance
            percentile among all tuples in each space (low HPC rank +
            high MICA rank = a false-positive pair).
    """

    name_a: str
    name_b: str
    hpc_labels: Tuple[str, ...]
    hpc_a: np.ndarray
    hpc_b: np.ndarray
    mica_labels: Tuple[str, ...]
    mica_a: np.ndarray
    mica_b: np.ndarray
    hpc_distance_rank: float
    mica_distance_rank: float

    def _comparison_table(
        self, labels: Tuple[str, ...], a: np.ndarray, b: np.ndarray
    ) -> str:
        rows: List[List[str]] = []
        for label, value_a, value_b in zip(labels, a, b):
            delta = abs(float(value_a) - float(value_b))
            rows.append(
                [
                    label,
                    f"{value_a:.3f}",
                    f"{value_b:.3f}",
                    f"{delta:.3f}",
                    "#" * round(delta * 20),
                ]
            )
        return format_table(
            ["characteristic", self.name_a.split("/")[1],
             self.name_b.split("/")[1], "|delta|", ""],
            rows,
            align_right=[False, True, True, True, False],
        )

    def format(self) -> str:
        """Human-readable report section."""
        lines = [
            f"Figures 2-3 case study: {self.name_a} vs {self.name_b}",
            "",
            f"pair distance percentile in HPC space:   "
            f"{self.hpc_distance_rank:.0%} (similar when low)",
            f"pair distance percentile in MICA space:  "
            f"{self.mica_distance_rank:.0%} (dissimilar when high)",
            "",
            "Figure 2: hardware performance counter characteristics "
            "(max-normalized)",
            self._comparison_table(self.hpc_labels, self.hpc_a, self.hpc_b),
            "",
            "Figure 3: microarchitecture-independent characteristics "
            "(max-normalized, Table II order)",
            self._comparison_table(self.mica_labels, self.mica_a, self.mica_b),
        ]
        return "\n".join(lines)


def find_false_positive_pair(dataset: WorkloadDataset) -> "Tuple[str, str]":
    """The most striking false-positive pair: smallest HPC-distance
    percentile combined with the largest MICA-distance percentile."""
    from scipy.stats import rankdata

    hpc_distances = dataset.hpc_distances()
    mica_distances = dataset.mica_distances()
    hpc_ranks = rankdata(hpc_distances) / len(hpc_distances)
    mica_ranks = rankdata(mica_distances) / len(mica_distances)
    best = int(np.argmax(mica_ranks - hpc_ranks))
    # Invert the condensed index.
    n = len(dataset)
    position = 0
    for i in range(n - 1):
        row_pairs = n - 1 - i
        if best < position + row_pairs:
            j = i + 1 + (best - position)
            return dataset.names[i], dataset.names[j]
        position += row_pairs
    raise AnalysisError("condensed index out of range")  # pragma: no cover


def run_case_study(
    dataset: WorkloadDataset,
    benchmark_a: str = "spec2000/bzip2/graphic",
    benchmark_b: str = "bioinfomark/blast/protein",
) -> CaseStudyResult:
    """Compute the Figures 2-3 comparison for a benchmark pair.

    When the requested pair is not in the data set (subset runs), the
    most striking false-positive pair is compared instead.
    """
    try:
        index_a = dataset.index_of(benchmark_a)
        index_b = dataset.index_of(benchmark_b)
    except AnalysisError:
        benchmark_a, benchmark_b = find_false_positive_pair(dataset)
        index_a = dataset.index_of(benchmark_a)
        index_b = dataset.index_of(benchmark_b)

    # Figure 2: HPC metrics + instruction mix, normalized by the maximum
    # across the whole population (so the two bars are comparable).
    mix = dataset.mica[:, _MIX_SLICE]
    hpc_extended = np.hstack([dataset.hpc, mix])
    hpc_normalized = max_normalize(hpc_extended)
    hpc_labels = tuple(HPC_METRIC_NAMES) + tuple(
        characteristic.key for characteristic in CHARACTERISTICS[_MIX_SLICE]
    )

    mica_normalized = max_normalize(dataset.mica)
    mica_labels = tuple(
        characteristic.key for characteristic in CHARACTERISTICS
    )

    hpc_distances = dataset.hpc_distances()
    mica_distances = dataset.mica_distances()
    from ..analysis import condensed_index

    pair = condensed_index(index_a, index_b, len(dataset))
    hpc_rank = float((hpc_distances <= hpc_distances[pair]).mean())
    mica_rank = float((mica_distances <= mica_distances[pair]).mean())

    return CaseStudyResult(
        name_a=dataset.names[index_a],
        name_b=dataset.names[index_b],
        hpc_labels=hpc_labels,
        hpc_a=hpc_normalized[index_a],
        hpc_b=hpc_normalized[index_b],
        mica_labels=mica_labels,
        mica_a=mica_normalized[index_a],
        mica_b=mica_normalized[index_b],
        hpc_distance_rank=hpc_rank,
        mica_distance_rank=mica_rank,
    )

"""Experiment drivers: one module per table/figure of the paper.

========================  ==========================================
module                    paper artifact
========================  ==========================================
``dataset``               both workload spaces for all 122 benchmarks
``fig1_distance_scatter`` Figure 1 (distance scatter + correlation)
``table3_classification`` Table III (quadrant fractions)
``fig23_case_study``      Figures 2-3 (bzip2 vs blast case study)
``fig4_roc``              Figure 4 (ROC curves, AUCs)
``fig5_correlation``      Figure 5 (distance correlation vs retained)
``table4_selected``       Table IV (GA-selected characteristics) +
                          the measurement-cost model (3X speedup)
``fig6_clusters``         Figure 6 (k-means/BIC clusters, kiviats)
``phase_homogeneity``     extension: SimPoint-premise validation of
                          detected phases against per-interval HPC
``runner``                run everything, produce the full report
========================  ==========================================
"""

from .dataset import (
    BenchmarkBuildStatus,
    DatasetBuildReport,
    WorkloadDataset,
    build_dataset,
    clear_dataset_cache,
    dataset_journal_path,
    load_cached_dataset,
    resume_dataset,
    retry_delay,
)
from .fig1_distance_scatter import Fig1Result, run_fig1
from .table3_classification import Table3Result, run_table3
from .fig23_case_study import CaseStudyResult, run_case_study
from .fig4_roc import Fig4Result, run_fig4
from .fig5_correlation import Fig5Result, run_fig5
from .table4_selected import Table4Result, run_table4, measurement_cost
from .fig6_clusters import Fig6Result, run_fig6
from .input_sensitivity import InputSensitivityResult, run_input_sensitivity
from .phase_homogeneity import (
    PhaseHomogeneityResult,
    run_phase_homogeneity,
)
from .subsetting import SubsettingResult, run_subsetting
from .runner import run_all

__all__ = [
    "BenchmarkBuildStatus",
    "DatasetBuildReport",
    "WorkloadDataset",
    "build_dataset",
    "clear_dataset_cache",
    "dataset_journal_path",
    "load_cached_dataset",
    "resume_dataset",
    "retry_delay",
    "Fig1Result",
    "run_fig1",
    "Table3Result",
    "run_table3",
    "CaseStudyResult",
    "run_case_study",
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "Table4Result",
    "run_table4",
    "measurement_cost",
    "Fig6Result",
    "run_fig6",
    "InputSensitivityResult",
    "run_input_sensitivity",
    "PhaseHomogeneityResult",
    "run_phase_homogeneity",
    "SubsettingResult",
    "run_subsetting",
    "run_all",
]

"""Integration tests: dataset builder and all experiment drivers on a
small six-benchmark population."""

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import AnalysisError
from repro.experiments import (
    build_dataset,
    measurement_cost,
    run_all,
    run_case_study,
    run_fig1,
    run_fig4,
    run_fig5,
    run_fig6,
    run_table3,
    run_table4,
)
from repro.experiments.table4_selected import PAPER_TABLE4_INDICES
from repro.mica import NUM_CHARACTERISTICS

SMALL_CONFIG = ReproConfig(
    trace_length=8_000, ga_generations=8, ga_population=16
)


@pytest.fixture(scope="module")
def dataset(small_population):
    return build_dataset(
        SMALL_CONFIG, benchmarks=small_population, use_cache=False, jobs=1
    )


class TestBuildDataset:
    def test_shapes(self, dataset):
        assert dataset.mica.shape == (8, 47)
        assert dataset.hpc.shape == (8, 7)
        assert len(dataset.names) == len(dataset.suites) == 8

    def test_values_finite(self, dataset):
        assert np.isfinite(dataset.mica).all()
        assert np.isfinite(dataset.hpc).all()

    def test_index_of_partial_name(self, dataset):
        assert dataset.index_of("mcf") == dataset.names.index(
            "spec2000/mcf/ref"
        )

    def test_index_of_unknown(self, dataset):
        with pytest.raises(AnalysisError):
            dataset.index_of("not-a-benchmark")

    def test_normalized_views(self, dataset):
        z = dataset.mica_normalized()
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)

    def test_distances_length(self, dataset):
        assert len(dataset.mica_distances()) == 28  # C(8, 2).

    def test_disk_cache_round_trip(self, small_population, tmp_path):
        first = build_dataset(
            SMALL_CONFIG,
            benchmarks=small_population,
            cache_dir=tmp_path,
            jobs=1,
        )
        files = list(tmp_path.glob("dataset-*.npz"))
        assert len(files) == 1
        from repro.experiments.dataset import _MEMORY_CACHE

        _MEMORY_CACHE.clear()
        second = build_dataset(
            SMALL_CONFIG,
            benchmarks=small_population,
            cache_dir=tmp_path,
            jobs=1,
        )
        assert np.array_equal(first.mica, second.mica)

    def test_parallel_matches_serial(self, small_population, dataset):
        parallel = build_dataset(
            SMALL_CONFIG,
            benchmarks=small_population,
            use_cache=False,
            jobs=3,
        )
        assert np.array_equal(parallel.mica, dataset.mica)
        assert np.array_equal(parallel.hpc, dataset.hpc)


class TestDrivers:
    def test_fig1(self, dataset):
        result = run_fig1(dataset)
        assert -1.0 <= result.correlation <= 1.0
        assert result.tuples == 28
        assert "correlation coefficient" in result.format()

    def test_table3(self, dataset):
        result = run_table3(dataset)
        q = result.quadrants
        total = (q.true_positive + q.false_negative
                 + q.false_positive + q.true_negative)
        assert total == pytest.approx(1.0)
        assert (0.1, 0.1) in result.sensitivity
        assert "Table III" in result.format()

    def test_case_study_explicit_pair(self, dataset):
        result = run_case_study(
            dataset, "spec2000/bzip2/graphic", "bioinfomark/blast/protein"
        )
        assert result.name_a.endswith("bzip2/graphic")
        assert len(result.mica_a) == 47
        assert "Figure 2" in result.format()

    def test_case_study_fallback_pair(self, dataset, small_population):
        # Request a pair not in the population: auto-selection kicks in.
        subset = build_dataset(
            SMALL_CONFIG,
            benchmarks=small_population[:4],
            use_cache=False,
            jobs=1,
        )
        result = run_case_study(subset, "no/such/thing", "nor/this/one")
        assert result.name_a in subset.names
        assert result.name_b in subset.names

    def test_fig4(self, dataset):
        result = run_fig4(dataset, SMALL_CONFIG, ce_sizes=(17, 7))
        assert set(result.areas) == {"all-47", "GA", "CE-17", "CE-7"}
        for area in result.areas.values():
            assert 0.0 <= area <= 1.0
        assert "ROC" in result.format()

    def test_fig5(self, dataset):
        result = run_fig5(dataset, SMALL_CONFIG)
        assert set(result.ce_curve) == set(range(1, 47))
        assert 1 <= result.ga_point[0] <= 47
        assert "Figure 5" in result.format()

    def test_fig5_full_space_correlation_is_high_for_small_cuts(
        self, dataset
    ):
        result = run_fig5(dataset, SMALL_CONFIG)
        assert result.ce_curve[46] > 0.98  # Removing one char: harmless.

    def test_table4(self, dataset):
        result = run_table4(dataset, SMALL_CONFIG)
        assert 1 <= result.ga.n_selected <= 47
        assert result.selected_cost <= result.full_cost
        assert result.speedup >= 1.0
        assert "Table IV" in result.format()

    def test_fig6(self, dataset):
        result = run_fig6(dataset, SMALL_CONFIG, k_range=(1, 5))
        assert 1 <= result.k <= 5
        flat = [n for names in result.members.values() for n in names]
        assert sorted(flat) == sorted(dataset.names)
        assert "Figure 6" in result.format(kiviat_plots=False)

    def test_run_all(self, dataset):
        report = run_all(SMALL_CONFIG, dataset=dataset)
        text = report.format()
        for marker in ("Figure 1", "Table III", "Figure 4", "Figure 5",
                       "Table IV", "Figure 6"):
            assert marker in text


class TestMeasurementCost:
    def test_full_cost_near_paper(self):
        full = measurement_cost(range(NUM_CHARACTERISTICS))
        assert full == pytest.approx(110.0, abs=5.0)

    def test_paper_subset_near_37(self):
        cost = measurement_cost(PAPER_TABLE4_INDICES)
        assert cost == pytest.approx(37.0, abs=5.0)

    def test_empty_costs_nothing(self):
        assert measurement_cost([]) == 0.0

    def test_shared_pass_not_double_charged(self):
        one_mix = measurement_cost([0])
        all_mix = measurement_cost(range(6))
        assert one_mix == all_mix

    def test_each_window_charged(self):
        assert measurement_cost([6, 7]) == 2 * measurement_cost([6])

    def test_monotone(self):
        assert measurement_cost(range(10)) <= measurement_cost(range(20))

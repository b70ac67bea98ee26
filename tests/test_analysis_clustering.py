"""Tests for k-means, BIC, K selection and kiviat utilities."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.analysis import (
    ClusteringResult,
    bic_score,
    choose_k,
    cluster_benchmarks,
    kiviat_ascii,
    kiviat_normalize,
    kiviat_table,
    kmeans,
)


def make_blobs(k=3, per_cluster=15, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=(k, 4))
    points = np.vstack(
        [
            center + rng.normal(scale=spread, size=(per_cluster, 4))
            for center in centers
        ]
    )
    labels = np.repeat(np.arange(k), per_cluster)
    return points, labels


class TestKMeans:
    def test_recovers_separated_blobs(self):
        points, labels = make_blobs(k=3)
        result = kmeans(points, 3, seed=1)
        # Each true cluster maps to exactly one predicted cluster.
        for true_cluster in range(3):
            predicted = result.assignments[labels == true_cluster]
            assert len(set(predicted.tolist())) == 1

    def test_inertia_decreases_with_k(self):
        points, _ = make_blobs(k=4)
        inertia = [
            kmeans(points, k, seed=2).inertia for k in (1, 2, 4, 8)
        ]
        assert inertia == sorted(inertia, reverse=True)

    def test_k_equals_n_gives_zero_inertia(self):
        points = np.random.default_rng(3).normal(size=(6, 2))
        result = kmeans(points, 6, seed=0, restarts=10)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_given_seed(self):
        points, _ = make_blobs()
        a = kmeans(points, 3, seed=5)
        b = kmeans(points, 3, seed=5)
        assert np.array_equal(a.assignments, b.assignments)

    def test_cluster_sizes(self):
        points, _ = make_blobs(k=3, per_cluster=10)
        result = kmeans(points, 3, seed=1)
        assert sorted(result.cluster_sizes().tolist()) == [10, 10, 10]

    def test_bad_k_rejected(self):
        points, _ = make_blobs()
        with pytest.raises(AnalysisError):
            kmeans(points, 0)
        with pytest.raises(AnalysisError):
            kmeans(points, len(points) + 1)


class TestBic:
    def test_true_k_maximizes_bic(self):
        points, _ = make_blobs(k=4, per_cluster=20, spread=0.1, seed=7)
        scores = {}
        for k in range(1, 9):
            result = kmeans(points, k, seed=k)
            scores[k] = bic_score(points, result)
        assert max(scores, key=lambda k: scores[k]) == 4

    def test_degenerate_k_is_minus_infinity(self):
        points = np.random.default_rng(8).normal(size=(5, 2))
        result = kmeans(points, 5, seed=0)
        assert bic_score(points, result) == -np.inf


class TestChooseK:
    def test_finds_blob_count(self):
        points, _ = make_blobs(k=5, per_cluster=12, spread=0.1, seed=9)
        clustering = choose_k(points, k_range=(1, 12), seed=1)
        assert clustering.k == 5

    def test_prefers_smallest_k_at_threshold(self):
        points, _ = make_blobs(k=3, per_cluster=20, spread=0.1, seed=10)
        strict = choose_k(points, k_range=(1, 10), score_fraction=1.0,
                          seed=1)
        lenient = choose_k(points, k_range=(1, 10), score_fraction=0.5,
                           seed=1)
        assert lenient.k <= strict.k

    def test_range_above_row_cap_names_range_and_rows(self):
        points = np.random.default_rng(13).normal(size=(3, 2))
        with pytest.raises(AnalysisError) as excinfo:
            choose_k(points, k_range=(5, 70))
        message = str(excinfo.value)
        assert "(5, 70)" in message and "3 rows" in message
        assert "no finite BIC" not in message

    def test_result_contents(self):
        points, _ = make_blobs(k=3, seed=11)
        clustering = choose_k(points, k_range=(1, 8), seed=2)
        assert isinstance(clustering, ClusteringResult)
        assert set(clustering.bic_by_k) == set(range(1, 9))
        assert all(
            0.0 <= v <= 1.0 for v in clustering.normalized_scores.values()
        )
        members = np.concatenate(
            [clustering.members(c) for c in range(clustering.result.k)]
        )
        assert sorted(members.tolist()) == list(range(len(points)))

    def test_singletons_detected(self):
        rng = np.random.default_rng(12)
        cluster = rng.normal(size=(20, 3), scale=0.05)
        outlier = np.full((1, 3), 50.0)
        points = np.vstack([cluster, outlier])
        clustering = choose_k(points, k_range=(1, 6), seed=3)
        singletons = clustering.singleton_clusters()
        assert len(singletons) >= 1
        assert 20 in clustering.members(singletons[0])

    def test_invalid_range(self):
        points, _ = make_blobs()
        with pytest.raises(AnalysisError):
            choose_k(points, k_range=(0, 5))
        with pytest.raises(AnalysisError):
            choose_k(points, k_range=(1, 5), score_fraction=0.0)

    def test_cluster_benchmarks_names(self):
        points, _ = make_blobs(k=2, per_cluster=5, seed=13)
        names = [f"bench-{i}" for i in range(len(points))]
        clustering, members = cluster_benchmarks(
            points, names, k_range=(1, 5), seed=4
        )
        flat = [name for group in members.values() for name in group]
        assert sorted(flat) == sorted(names)

    def test_cluster_benchmarks_name_mismatch(self):
        points, _ = make_blobs()
        with pytest.raises(AnalysisError):
            cluster_benchmarks(points, ["only-one"], k_range=(1, 3))


class TestKiviat:
    def test_normalize_to_unit_range(self):
        rng = np.random.default_rng(14)
        data = rng.uniform(-5.0, 5.0, size=(10, 4))
        normalized = kiviat_normalize(data)
        assert normalized.min() == pytest.approx(0.0)
        assert normalized.max() == pytest.approx(1.0)

    def test_normalize_constant_column(self):
        data = np.ones((4, 2))
        data[:, 1] = [0, 1, 2, 3]
        normalized = kiviat_normalize(data)
        assert (normalized[:, 0] == 0.5).all()

    def test_ascii_renders_polygon(self):
        art = kiviat_ascii([1.0] * 8, radius=5)
        assert "*" in art
        assert "+" in art

    def test_ascii_with_labels(self):
        art = kiviat_ascii([0.5, 0.7], labels=["alpha", "beta"], radius=4)
        assert "alpha" in art
        assert "0.50" in art

    def test_ascii_rejects_out_of_range(self):
        with pytest.raises(AnalysisError):
            kiviat_ascii([1.5])
        with pytest.raises(AnalysisError):
            kiviat_ascii([])

    def test_ascii_label_count_checked(self):
        with pytest.raises(AnalysisError):
            kiviat_ascii([0.5, 0.5], labels=["only-one"])

    def test_table_renders_rows(self):
        data = np.array([[0.0, 1.0], [0.5, 0.25]])
        text = kiviat_table(["a", "b"], data, ["x", "y"])
        assert "a" in text and "b" in text
        assert "#" in text

    def test_table_validates(self):
        with pytest.raises(AnalysisError):
            kiviat_table(["a"], np.array([[2.0]]), ["x"])

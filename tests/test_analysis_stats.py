"""Tests for normalization, distances, correlation and PCA."""

import numpy as np
import pytest
from scipy.spatial.distance import squareform

from repro.errors import AnalysisError
from repro.analysis import (
    PCA,
    condensed_index,
    correlation_matrix,
    max_normalize,
    pairwise_distances,
    pearson,
    zscore,
)


@pytest.fixture()
def random_matrix():
    return np.random.default_rng(0).normal(size=(20, 6))


class TestNormalize:
    def test_zscore_moments(self, random_matrix):
        z = zscore(random_matrix)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0)

    def test_zscore_constant_column(self):
        data = np.ones((5, 2))
        data[:, 1] = [1, 2, 3, 4, 5]
        z = zscore(data)
        assert (z[:, 0] == 0.0).all()

    def test_zscore_needs_two_rows(self):
        with pytest.raises(AnalysisError):
            zscore(np.ones((1, 3)))

    def test_zscore_rejects_1d(self):
        with pytest.raises(AnalysisError):
            zscore(np.ones(5))

    def test_max_normalize_bounds(self, random_matrix):
        normalized = max_normalize(np.abs(random_matrix))
        assert normalized.max() <= 1.0 + 1e-12
        assert np.allclose(np.abs(normalized).max(axis=0), 1.0)

    def test_max_normalize_zero_column(self):
        data = np.zeros((4, 2))
        data[:, 1] = [1, 2, 3, 4]
        normalized = max_normalize(data)
        assert (normalized[:, 0] == 0.0).all()


class TestDistance:
    def test_condensed_length(self, random_matrix):
        distances = pairwise_distances(random_matrix)
        n = len(random_matrix)
        assert len(distances) == n * (n - 1) // 2

    def test_known_distances(self):
        data = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        distances = pairwise_distances(data)
        assert distances[0] == pytest.approx(5.0)   # (0,1)
        assert distances[1] == pytest.approx(0.0)   # (0,2)
        assert distances[2] == pytest.approx(5.0)   # (1,2)

    def test_condensed_index_consistency(self, random_matrix):
        condensed = pairwise_distances(random_matrix)
        square = squareform(condensed)
        n = len(random_matrix)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                index = condensed_index(i, j, n)
                assert condensed[index] == pytest.approx(square[i, j])

    def test_condensed_index_rejects_self_pair(self):
        with pytest.raises(AnalysisError):
            condensed_index(2, 2, 5)

    def test_condensed_index_rejects_out_of_range(self):
        with pytest.raises(AnalysisError):
            condensed_index(0, 9, 5)

    def test_empty_columns_rejected(self):
        with pytest.raises(AnalysisError):
            pairwise_distances(np.empty((5, 0)))


class TestCorrelation:
    def test_perfect_correlation(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_vector_returns_zero(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            pearson(np.ones(4), np.ones(5))

    def test_matrix_diagonal_is_one(self, random_matrix):
        matrix = correlation_matrix(random_matrix)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_matrix_matches_pairwise_pearson(self, random_matrix):
        matrix = correlation_matrix(random_matrix)
        assert matrix[0, 1] == pytest.approx(
            pearson(random_matrix[:, 0], random_matrix[:, 1])
        )

    def test_matrix_symmetric_bounded(self, random_matrix):
        matrix = correlation_matrix(random_matrix)
        assert np.allclose(matrix, matrix.T)
        assert (np.abs(matrix) <= 1.0 + 1e-9).all()

    def test_duplicated_column_fully_correlated(self):
        rng = np.random.default_rng(1)
        column = rng.normal(size=12)
        data = np.column_stack([column, column, rng.normal(size=12)])
        matrix = correlation_matrix(data)
        assert matrix[0, 1] == pytest.approx(1.0)


class TestPCA:
    def test_recovers_dominant_direction(self):
        rng = np.random.default_rng(2)
        direction = np.array([3.0, 1.0]) / np.sqrt(10.0)
        data = np.outer(rng.normal(size=300), direction)
        data += rng.normal(scale=0.01, size=data.shape)
        pca = PCA().fit(data)
        leading = pca.components[0]
        assert abs(np.dot(leading, direction)) == pytest.approx(1.0, abs=1e-3)

    def test_explained_variance_descending(self):
        rng = np.random.default_rng(3)
        pca = PCA().fit(rng.normal(size=(50, 8)))
        assert (np.diff(pca.explained_variance) <= 1e-9).all()
        assert pca.explained_variance_ratio.sum() == pytest.approx(1.0)

    def test_transform_shape(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(30, 10))
        reduced = PCA(n_components=3).fit_transform(data)
        assert reduced.shape == (30, 3)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(AnalysisError):
            PCA().transform(np.ones((3, 3)))

    def test_components_for_variance(self):
        rng = np.random.default_rng(5)
        # One dominant direction: one component should reach 90%.
        data = np.outer(rng.normal(size=100), np.ones(5))
        data += rng.normal(scale=0.01, size=data.shape)
        pca = PCA().fit(data)
        assert pca.components_for_variance(0.9) == 1

    def test_components_for_variance_bounds(self):
        pca = PCA().fit(np.random.default_rng(6).normal(size=(10, 3)))
        with pytest.raises(AnalysisError):
            pca.components_for_variance(0.0)

    def test_distances_preserved_with_all_components(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(15, 4))
        projected = PCA().fit_transform(data)
        assert np.allclose(
            pairwise_distances(data), pairwise_distances(projected)
        )

"""Tests for ROC evaluation and quadrant classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.analysis import auc, classify_quadrants, roc_curve


def oracle_roc_rates(reference, candidate, fraction=0.2, points=101):
    """The historical per-threshold loop of ``roc_curve``, verbatim."""
    positive = reference > fraction * reference.max()
    n_positive = int(positive.sum())
    n_negative = len(reference) - n_positive
    maximum = float(candidate.max())
    thresholds = np.linspace(maximum * 1.0001, 0.0, points)
    thresholds[-1] = -1e-12
    tpr = np.empty(points)
    fpr = np.empty(points)
    for index, threshold in enumerate(thresholds):
        flagged = candidate > threshold
        tpr[index] = float((flagged & positive).sum()) / n_positive
        fpr[index] = float((flagged & ~positive).sum()) / n_negative
    return tpr, fpr, thresholds


@pytest.fixture()
def spaces():
    """Reference distances and a noisy copy as candidate."""
    rng = np.random.default_rng(0)
    reference = rng.uniform(0.0, 10.0, size=500)
    candidate = reference + rng.normal(scale=1.0, size=500)
    return reference, np.clip(candidate, 0.0, None)


class TestRocCurve:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 300),
        rounding=st.sampled_from([None, 0, 1]),
        points=st.sampled_from([2, 11, 101]),
    )
    def test_counts_equal_the_threshold_loop(
        self, seed, size, rounding, points
    ):
        """Ties (rounded distances), zeros and thresholds that equal a
        candidate distance all land on the loop's exact counts."""
        rng = np.random.default_rng(seed)
        reference = rng.uniform(0.0, 10.0, size=size)
        reference[0], reference[-1] = 0.0, 10.0  # both classes present
        candidate = rng.exponential(3.0, size=size)
        if rounding is not None:
            candidate = np.round(candidate, rounding)
        # The lowest candidate moves onto the middle threshold (the
        # maximum, and so the sweep, stays put).
        middle = np.linspace(candidate.max() * 1.0001, 0.0, points)
        candidate[np.argmin(candidate)] = middle[points // 2]
        curve = roc_curve(reference, candidate, points=points)
        tpr, fpr, thresholds = oracle_roc_rates(
            reference, candidate, points=points
        )
        assert curve.true_positive_rate.tobytes() == tpr.tobytes()
        assert curve.false_positive_rate.tobytes() == fpr.tobytes()
        assert curve.thresholds.tobytes() == thresholds.tobytes()

    def test_perfect_candidate_auc_one(self):
        rng = np.random.default_rng(1)
        reference = rng.uniform(0.0, 10.0, size=400)
        curve = roc_curve(reference, reference)
        assert curve.area == pytest.approx(1.0, abs=0.01)

    def test_random_candidate_auc_half(self):
        rng = np.random.default_rng(2)
        reference = rng.uniform(0.0, 10.0, size=3000)
        candidate = rng.uniform(0.0, 10.0, size=3000)
        curve = roc_curve(reference, candidate)
        assert curve.area == pytest.approx(0.5, abs=0.05)

    def test_noisy_candidate_in_between(self, spaces):
        reference, candidate = spaces
        curve = roc_curve(reference, candidate)
        assert 0.7 < curve.area < 1.0

    def test_curve_endpoints(self, spaces):
        reference, candidate = spaces
        curve = roc_curve(reference, candidate)
        assert curve.true_positive_rate[0] == 0.0
        assert curve.false_positive_rate[0] == 0.0
        assert curve.true_positive_rate[-1] == 1.0
        assert curve.false_positive_rate[-1] == 1.0

    def test_curve_monotone(self, spaces):
        reference, candidate = spaces
        curve = roc_curve(reference, candidate)
        assert (np.diff(curve.true_positive_rate) >= 0.0).all()
        assert (np.diff(curve.false_positive_rate) >= 0.0).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            roc_curve(np.ones(4), np.ones(5))

    def test_degenerate_reference_rejected(self):
        with pytest.raises(AnalysisError):
            roc_curve(np.ones(10), np.ones(10))

    def test_threshold_fraction_bounds(self, spaces):
        reference, candidate = spaces
        with pytest.raises(AnalysisError):
            roc_curve(reference, candidate, reference_threshold_fraction=0.0)


class TestAuc:
    def test_unit_square_diagonal(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        assert auc(x, y) == pytest.approx(0.5)

    def test_step_function(self):
        x = np.array([0.0, 0.0, 1.0])
        y = np.array([0.0, 1.0, 1.0])
        assert auc(x, y) == pytest.approx(1.0)

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=30)
        y = rng.uniform(size=30)
        shuffle = rng.permutation(30)
        assert auc(x, y) == pytest.approx(auc(x[shuffle], y[shuffle]))

    def test_needs_two_points(self):
        with pytest.raises(AnalysisError):
            auc(np.array([1.0]), np.array([1.0]))


class TestClassifyQuadrants:
    def test_fractions_sum_to_one(self, spaces):
        reference, candidate = spaces
        quadrants = classify_quadrants(reference, candidate)
        total = (
            quadrants.true_positive + quadrants.false_negative
            + quadrants.false_positive + quadrants.true_negative
        )
        assert total == pytest.approx(1.0)
        assert quadrants.tuples == len(reference)

    def test_identical_spaces_have_no_confusion(self):
        rng = np.random.default_rng(4)
        distances = rng.uniform(0.0, 10.0, size=200)
        quadrants = classify_quadrants(distances, distances)
        assert quadrants.false_positive == 0.0
        assert quadrants.false_negative == 0.0

    def test_known_quadrants(self):
        reference = np.array([10.0, 10.0, 1.0, 1.0])
        candidate = np.array([10.0, 1.0, 10.0, 1.0])
        quadrants = classify_quadrants(reference, candidate)
        assert quadrants.true_positive == 0.25
        assert quadrants.false_negative == 0.25
        assert quadrants.false_positive == 0.25
        assert quadrants.true_negative == 0.25

    def test_threshold_moves_boundary(self):
        reference = np.linspace(0.0, 10.0, 100)
        candidate = reference.copy()
        low = classify_quadrants(
            reference, candidate,
            reference_threshold_fraction=0.1,
            candidate_threshold_fraction=0.1,
        )
        high = classify_quadrants(
            reference, candidate,
            reference_threshold_fraction=0.5,
            candidate_threshold_fraction=0.5,
        )
        assert low.true_positive > high.true_positive

    def test_format_layout(self, spaces):
        reference, candidate = spaces
        text = classify_quadrants(reference, candidate).format()
        assert "false positive" in text
        assert "true negative" in text

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            classify_quadrants(np.empty(0), np.empty(0))

"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis import (
    auc,
    classify_quadrants,
    kiviat_normalize,
    kmeans,
    max_normalize,
    pairwise_distances,
    pearson,
    zscore,
)
from repro.analysis.distance import condensed_index
from repro.mica import characterize, ppm_predictabilities
from repro.synth import (
    MixSpec,
    RegisterSpec,
    SequentialStream,
    WorkloadProfile,
    generate_trace,
)
from repro.trace import validate_trace

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(3, 12), st.integers(1, 8)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestNormalizationProperties:
    @_SETTINGS
    @given(finite_matrices)
    def test_zscore_idempotent_shape(self, data):
        z = zscore(data)
        assert z.shape == data.shape
        assert np.isfinite(z).all()
        # Columns are zero-mean after normalization.
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-6)

    @_SETTINGS
    @given(finite_matrices)
    def test_max_normalize_bounded(self, data):
        normalized = max_normalize(data)
        assert (np.abs(normalized) <= 1.0 + 1e-9).all()

    @_SETTINGS
    @given(finite_matrices)
    def test_kiviat_normalize_unit_interval(self, data):
        normalized = kiviat_normalize(data)
        assert (normalized >= -1e-12).all()
        assert (normalized <= 1.0 + 1e-12).all()


class TestDistanceProperties:
    @_SETTINGS
    @given(finite_matrices)
    def test_distances_non_negative_and_symmetric(self, data):
        condensed = pairwise_distances(data)
        assert (condensed >= 0.0).all()
        n = data.shape[0]
        assert len(condensed) == n * (n - 1) // 2
        for i in range(n):
            for j in range(i + 1, n):
                assert condensed_index(i, j, n) == condensed_index(j, i, n)

    @_SETTINGS
    @given(finite_matrices)
    def test_triangle_inequality(self, data):
        from scipy.spatial.distance import squareform

        square = squareform(pairwise_distances(data))
        n = len(square)
        for i in range(min(n, 5)):
            for j in range(min(n, 5)):
                for k in range(min(n, 5)):
                    assert square[i, j] <= (
                        square[i, k] + square[k, j] + 1e-6
                    )

    @_SETTINGS
    @given(
        arrays(
            np.float64,
            st.integers(2, 50),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        )
    )
    def test_pearson_bounded(self, x):
        y = np.roll(x, 1)
        value = pearson(x, y)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    @_SETTINGS
    @given(finite_matrices)
    def test_self_classification_has_no_confusion(self, data):
        condensed = pairwise_distances(data)
        if condensed.max() == 0.0:
            return  # Degenerate: all rows identical.
        quadrants = classify_quadrants(condensed, condensed)
        assert quadrants.false_positive == 0.0
        assert quadrants.false_negative == 0.0


class TestAucProperties:
    @_SETTINGS
    @given(
        arrays(
            np.float64,
            st.integers(2, 40),
            elements=st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    def test_auc_bounded_for_unit_box(self, y):
        x = np.linspace(0.0, 1.0, len(y))
        value = auc(x, y)
        assert -1e-9 <= value <= 1.0 + 1e-9


class TestKMeansProperties:
    @_SETTINGS
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(4, 20), st.integers(1, 4)),
            elements=st.floats(-100.0, 100.0, allow_nan=False),
        ),
        st.integers(1, 4),
    )
    def test_assignments_complete_and_valid(self, data, k):
        k = min(k, len(data))
        result = kmeans(data, k, seed=0, restarts=2)
        assert len(result.assignments) == len(data)
        assert result.assignments.min() >= 0
        assert result.assignments.max() < k
        assert result.inertia >= 0.0

    @_SETTINGS
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(6, 15), st.integers(1, 3)),
            elements=st.floats(-50.0, 50.0, allow_nan=False),
        )
    )
    def test_more_clusters_never_increase_inertia(self, data):
        two = kmeans(data, 2, seed=1, restarts=4).inertia
        four = kmeans(data, min(4, len(data)), seed=1, restarts=4).inertia
        assert four <= two + 1e-6


class TestSynthProperties:
    @_SETTINGS
    @given(
        st.integers(100, 3000),
        st.integers(0, 2**31),
    )
    def test_generated_traces_always_validate(self, length, seed):
        profile = WorkloadProfile(name=f"prop/{seed % 7}", seed=seed % 5)
        trace = generate_trace(profile, length, seed=seed)
        assert len(trace) == length
        validate_trace(trace)

    @_SETTINGS
    @given(st.integers(1, 6))
    def test_characteristics_bounded(self, variant):
        profile = WorkloadProfile(name=f"prop/char/{variant}")
        trace = generate_trace(profile, 2_000)
        vector = characterize(trace).values
        # Fractions and probabilities are within [0, 1].
        mix = vector[0:6]
        assert ((mix >= 0.0) & (mix <= 1.0)).all()
        dep = vector[12:19]
        assert ((dep >= 0.0) & (dep <= 1.0)).all()
        strides = vector[23:43]
        assert ((strides >= 0.0) & (strides <= 1.0)).all()
        ppm = vector[43:47]
        assert ((ppm >= 0.0) & (ppm <= 1.0)).all()
        # Counts and rates are non-negative.
        assert (vector[6:12] >= 0.0).all()
        assert (vector[19:23] >= 0.0).all()

    @_SETTINGS
    @given(st.integers(1, 1000), st.integers(8, 512))
    def test_sequential_stream_stays_in_region(self, count, footprint_slots):
        stream = SequentialStream(
            base=0x1000, footprint=footprint_slots * 8
        )
        addrs = stream.generate(np.random.default_rng(0), count)
        assert (addrs >= 0x1000).all()
        assert (addrs < 0x1000 + footprint_slots * 8).all()

    @_SETTINGS
    @given(
        st.floats(0.01, 0.97),
        st.integers(0, 100),
    )
    def test_mix_normalized_always_valid(self, load_weight, seed):
        mix = MixSpec.normalized(
            load=load_weight,
            store=0.1,
            branch=0.1,
            int_alu=0.5,
            int_mul=0.02,
            fp=0.05,
        )
        assert abs(sum(mix.as_dict().values()) - 1.0) < 1e-9

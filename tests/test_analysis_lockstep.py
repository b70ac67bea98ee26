"""The lockstep k-means engine against the per-K loop it replaced.

:func:`repro.analysis.choose_k` runs every (K, restart) of its range
together and :func:`repro.analysis.kmeans` is the one-K case of the
same engine.  These differential properties replay the historical
per-K, per-restart loop and per-cluster BIC loop (the oracles copied
in ``test_analysis_exactness.py``) and demand the same bits: every
assignment, center and inertia, and every K's BIC score.  The drawn
matrices cover 2-60 rows, 1-200 columns (8+ and 128+ columns reach
numpy's unrolled and split pairwise sums), repeated rows (the
seeding branch where every point already coincides with a center),
ranges that start above K = 1, 1-4 restarts and exhausted iteration
budgets; examples add the paper analysis's shape (122 x 7, K = 1..70)
and a phases job's (20 x 188, K = 1..12).  A shrunken element budget
sends the same runs through small buckets and row-by-row distances.
"""

from __future__ import annotations

import importlib
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import KMeansResult, choose_k, kmeans
from test_analysis_exactness import oracle_bic_score, oracle_kmeans

kmeans_module = importlib.import_module("repro.analysis.kmeans")

_WIDTHS = st.one_of(
    st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 200]),
    st.integers(1, 200),
)


@st.composite
def matrices(draw):
    """(n x d) matrices whose rows repeat a pool of distinct rows."""
    n = draw(st.integers(2, 60))
    d = draw(_WIDTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.normal(size=(draw(st.integers(1, n)), d))
    pool *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        pool = np.round(pool, 1)  # exact ties and signed zeros
    return pool[rng.integers(0, len(pool), size=n)]


def _same(actual: KMeansResult, expected) -> None:
    assignments, centers, inertia = expected
    assert actual.assignments.tolist() == assignments.tolist()
    assert actual.centers.tobytes() == centers.tobytes()
    assert float(actual.inertia).hex() == float(inertia).hex()


def _check_choose_k(data, low, span, seed, restarts) -> None:
    high = min(low + span, len(data) - 1 if len(data) > 1 else 1)
    low = min(low, high)
    clustering = choose_k(
        data, k_range=(low, low + span), seed=seed, restarts=restarts
    )
    assert sorted(clustering.bic_by_k) == list(range(low, high + 1))
    for k in range(low, high + 1):
        expected = oracle_kmeans(data, k, seed + k, restarts)
        score = oracle_bic_score(data, KMeansResult(k, *expected))
        assert float(clustering.bic_by_k[k]).hex() == float(score).hex()
        if k == clustering.k:
            _same(clustering.result, expected)


class TestLockstepMatchesPerKLoop:

    @settings(max_examples=80, deadline=None)
    @example(data=np.ones((6, 3)), low=1, span=6, seed=0, restarts=2)
    @example(  # the paper analysis: 122 benchmarks, 7 GA dimensions
        data=np.random.default_rng(122).normal(size=(122, 7)),
        low=1, span=69, seed=42, restarts=3,
    )
    @example(  # a phases job: 20 intervals of sparse code signatures
        data=np.random.default_rng(20).exponential(size=(20, 188))
        * (np.random.default_rng(21).random((20, 188)) < 0.3),
        low=1, span=11, seed=0, restarts=3,
    )
    @example(  # one column: per-cluster pairwise means
        data=np.random.default_rng(1).normal(size=(40, 1)),
        low=1, span=5, seed=3, restarts=3,
    )
    @given(
        data=matrices(),
        low=st.integers(1, 12),
        span=st.integers(0, 12),
        seed=st.integers(0, 2**31),
        restarts=st.integers(1, 4),
    )
    def test_choose_k_matches_the_per_k_loop(
        self, data, low, span, seed, restarts
    ):
        _check_choose_k(data, low, span, seed, restarts)

    @settings(max_examples=30, deadline=None)
    @given(
        data=matrices(),
        low=st.integers(1, 6),
        span=st.integers(0, 6),
        seed=st.integers(0, 2**31),
        budget=st.sampled_from([1, 64, 1000]),
    )
    def test_choose_k_matches_under_a_small_budget(
        self, data, low, span, seed, budget
    ):
        with mock.patch.object(kmeans_module, "_ELEMENT_BUDGET", budget):
            _check_choose_k(data, low, span, seed, restarts=2)

    @settings(max_examples=80, deadline=None)
    @given(
        data=matrices(),
        k_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
        restarts=st.integers(1, 4),
        max_iterations=st.sampled_from([-1, 0, 1, 2, 100]),
    )
    def test_kmeans_matches_the_per_restart_loop(
        self, data, k_fraction, seed, restarts, max_iterations
    ):
        k = 1 + int(k_fraction * (len(data) - 1))
        _same(
            kmeans(data, k, seed=seed, restarts=restarts,
                   max_iterations=max_iterations),
            oracle_kmeans(data, k, seed, restarts, max_iterations),
        )


def test_row_memo_stays_within_the_budget():
    """Past ``_ELEMENT_BUDGET`` the n x n row table is never built."""
    n = 600
    assert n * n > kmeans_module._ELEMENT_BUDGET
    data = np.random.default_rng(3).normal(size=(n, 2))
    tracemalloc.start()
    try:
        choose_k(data, k_range=(1, 4), seed=0, restarts=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 // 2, peak

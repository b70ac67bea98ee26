"""Bit-for-bit guards on the GA selector and k-means + BIC.

Two guards:

* a committed golden fixture (``tests/data/analysis_golden.json``) of
  GA results and every ``choose_k`` solution on small seeded matrices
  (random, duplicate-row, one-column, blobs), floats stored as
  ``float.hex()`` and arrays as sha256 of their bytes, so a change that
  moves a single bit of either analysis fails here;
* differential properties: :func:`repro.analysis.kmeans` against the
  historical one-``rng.choice``-per-center seeding and
  per-cluster-``mean`` Lloyd loop, the all-K BIC pass
  (:func:`repro.analysis.kmeans.bic_scores`) against the historical
  per-cluster ``bic_score`` loop (both copied below as oracles), the
  shared subset distances against ``scipy.spatial.distance.pdist``, and
  Figure 5's correlation-elimination curve against one ``pdist`` pair
  and ``pearson`` per point.

Refresh the fixture (only for an intended change of analysis output)
with ``PYTHONPATH=src python tests/test_analysis_exactness.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

from repro.analysis import (
    GeneticSelector,
    KMeansResult,
    choose_k,
    correlation_elimination_order,
    kmeans,
    pairwise_distances,
    pearson,
    subset_distances,
)
from repro.experiments import run_fig5
from repro.analysis.kmeans import bic_scores

GOLDEN = Path(__file__).parent / "data" / "analysis_golden.json"
GOLDEN_SEED = 20061015
CHOOSE_K_SEED = 0
CHOOSE_K_RESTARTS = 3
GA_PARAMETERS = dict(population=12, generations=8, patience=4, seed=7)


def golden_matrices() -> dict:
    """The small seeded inputs the fixture pins."""
    rng = np.random.default_rng(GOLDEN_SEED)
    random = rng.normal(size=(24, 9))
    pool = rng.normal(size=(7, 5))
    duplicates = pool[rng.integers(0, len(pool), size=20)]
    # Enough rows that clusters reach the 8+ members where numpy's
    # pairwise one-column sum departs from a sequential one.
    one_column = rng.normal(size=(60, 1))
    centers = rng.uniform(-5.0, 5.0, size=(3, 6))
    blobs = np.repeat(centers, 7, axis=0) + rng.normal(
        scale=0.3, size=(21, 6)
    )
    return {
        "random": random,
        "duplicates": duplicates,
        "one_column": one_column,
        "blobs": blobs,
    }


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def ga_record(data: np.ndarray, size_penalty: bool) -> dict:
    result = GeneticSelector(
        size_penalty=size_penalty, **GA_PARAMETERS
    ).select(data)
    return {
        "selected": list(result.selected),
        "fitness": float(result.fitness).hex(),
        "rho": float(result.rho).hex(),
        "generations_run": result.generations_run,
        "history": [float(value).hex() for value in result.history],
    }


def choose_k_record(data: np.ndarray) -> dict:
    clustering = choose_k(
        data, seed=CHOOSE_K_SEED, restarts=CHOOSE_K_RESTARTS
    )
    solutions = {}
    for k in sorted(clustering.bic_by_k):
        # choose_k keeps only the chosen solution; rerun each K with
        # the seed choose_k gives it.
        solution = kmeans(
            data, k, seed=CHOOSE_K_SEED + k, restarts=CHOOSE_K_RESTARTS
        )
        solutions[str(k)] = {
            "assignments": _sha256(solution.assignments),
            "centers": _sha256(solution.centers),
            "inertia": float(solution.inertia).hex(),
        }
    return {
        "k": clustering.k,
        "assignments": _sha256(clustering.result.assignments),
        "centers": _sha256(clustering.result.centers),
        "bic_by_k": {
            str(k): float(score).hex()
            for k, score in sorted(clustering.bic_by_k.items())
        },
        "solutions": solutions,
    }


def golden_document() -> dict:
    document = {}
    for name, data in golden_matrices().items():
        document[name] = {
            "ga": {
                "size_penalty": ga_record(data, size_penalty=True),
                "plain_rho": ga_record(data, size_penalty=False),
            },
            "choose_k": choose_k_record(data),
        }
    return document


class TestGoldenFixture:

    def test_analysis_outputs_match_the_pinned_bits(self):
        pinned = json.loads(GOLDEN.read_text())
        actual = golden_document()
        assert sorted(actual) == sorted(pinned)
        for name in pinned:
            assert actual[name]["ga"] == pinned[name]["ga"], name
            assert actual[name]["choose_k"] == pinned[name]["choose_k"], name


# --------------------------------------------------------------------------
# Oracle: the historical k-means seeding and Lloyd loop, verbatim.
# --------------------------------------------------------------------------


def _kmeans_plus_plus(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding."""
    n = len(data)
    centers = np.empty((k, data.shape[1]))
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # All remaining points coincide with a center already.
            centers[index:] = data[int(rng.integers(n))]
            break
        probabilities = closest_sq / total
        choice = int(rng.choice(n, p=probabilities))
        centers[index] = data[choice]
        distance_sq = ((data - centers[index]) ** 2).sum(axis=1)
        np.minimum(closest_sq, distance_sq, out=closest_sq)
    return centers


def _lloyd(
    data: np.ndarray,
    centers: np.ndarray,
    max_iterations: int,
) -> "tuple[np.ndarray, np.ndarray, float]":
    """Lloyd iterations; returns (assignments, centers, inertia)."""
    k = len(centers)
    assignments = np.zeros(len(data), dtype=np.int64)
    for _ in range(max_iterations):
        # Squared distances to every center.
        distances = (
            (data[:, None, :] - centers[None, :, :]) ** 2
        ).sum(axis=2)
        new_assignments = distances.argmin(axis=1)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
        for cluster in range(k):
            members = data[assignments == cluster]
            if len(members):
                centers[cluster] = members.mean(axis=0)
    distances = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float(distances[np.arange(len(data)), assignments].sum())
    return assignments, centers, inertia


def oracle_kmeans(data, k, seed, restarts, max_iterations=100):
    """The historical ``kmeans`` restart loop over the oracle pieces."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(restarts, 1)):
        centers = _kmeans_plus_plus(data, k, rng)
        solution = _lloyd(data, centers.copy(), max_iterations)
        if best is None or solution[2] < best[2]:
            best = solution
    return best


def oracle_bic_score(data: np.ndarray, result: KMeansResult) -> float:
    """The historical per-cluster ``bic_score`` loop, verbatim."""
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    k = result.k
    if n <= k:
        # Degenerate: every point its own cluster; maximal complexity.
        return -np.inf
    residual_sq = 0.0
    for cluster in range(k):
        members = data[result.assignments == cluster]
        if len(members):
            residual_sq += (
                ((members - result.centers[cluster]) ** 2).sum()
            )
    variance = residual_sq / (d * (n - k))
    variance = max(variance, 1e-12)

    log_likelihood = 0.0
    sizes = result.cluster_sizes()
    for cluster in range(k):
        size = int(sizes[cluster])
        if size == 0:
            continue
        log_likelihood += (
            size * np.log(size / n)
            - size * d / 2.0 * np.log(2.0 * np.pi * variance)
            - (size - 1) * d / 2.0
        )
    parameters = k * (d + 1)
    return float(log_likelihood - parameters / 2.0 * np.log(n))


_SETTINGS = settings(max_examples=120, deadline=None)


@st.composite
def matrices_with_duplicates(draw):
    """(n x d) matrices, d in 1..12, whose rows repeat a smaller pool
    (so coincident points and zero-distance draws occur).  The pool is
    either drawn element by element (signed zeros, ties, extremes) or
    seeded normal noise, whose sums round in their last bits."""
    d = draw(st.integers(1, 12))
    size = draw(st.integers(1, 12))
    if draw(st.booleans()):
        pool = draw(arrays(
            np.float64, (size, d),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ))
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        pool = np.random.default_rng(seed).normal(size=(size, d))
    rows = draw(st.lists(
        st.integers(0, size - 1), min_size=1, max_size=40
    ))
    return pool[rows]


class TestKMeansMatchesOracle:

    @_SETTINGS
    @example(  # signed zeros: numpy's mean starts its sum at +0.0
        data=np.array([[1.0, -0.0], [-0.0, -0.0]]),
        k_fraction=1.0, seed=0, restarts=1,
    )
    @example(  # one column, k = 2 over 30 rows: pairwise summation
        data=np.random.default_rng(0).normal(size=(30, 1)),
        k_fraction=0.04, seed=0, restarts=1,
    )
    @given(
        data=matrices_with_duplicates(),
        k_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.integers(1, 3),
    )
    def test_kmeans_replays_historical_bits(
        self, data, k_fraction, seed, restarts
    ):
        k = 1 + int(k_fraction * (len(data) - 1))
        expected = oracle_kmeans(data, k, seed, restarts)
        actual = kmeans(data, k, seed=seed, restarts=restarts)
        assert actual.assignments.tolist() == expected[0].tolist()
        assert actual.centers.tobytes() == expected[1].tobytes()
        assert float(actual.inertia).hex() == float(expected[2]).hex()


@st.composite
def labelled_solutions(draw):
    """A matrix and k-means-shaped solutions over it: any K in 1..n+2
    (``n <= K`` scores ``-inf``), labels on a random subset of the K
    clusters (so some are empty) and arbitrary centers.  Up to 40 rows
    of up to 200 columns give clusters of 8+ and 128+ elements, where
    numpy's pairwise sum unrolls and splits."""
    n = draw(st.integers(1, 40))
    d = draw(st.one_of(
        st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 200]),
        st.integers(1, 200),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        data = np.round(data, 1)  # exact ties and zero residuals
    solutions = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, n + 2))
        used = rng.choice(k, size=draw(st.integers(1, k)), replace=False)
        solutions.append(KMeansResult(
            k, used[rng.integers(0, len(used), size=n)],
            data[rng.integers(0, n, size=k)] + rng.normal(size=(k, d)),
            0.0,
        ))
    return data, solutions


class TestBicScoresMatchOracle:

    @settings(max_examples=150, deadline=None)
    @example(case=(  # one column, one cluster of 128+ elements
        np.random.default_rng(2).normal(size=(300, 1)),
        [KMeansResult(2, (np.arange(300) >= 130).astype(np.int64),
                      np.array([[0.5], [-0.5]]), 0.0)],
    ))
    @example(case=(  # empty clusters, and n <= K scoring -inf
        np.arange(6.0).reshape(3, 2),
        [KMeansResult(k, np.zeros(3, dtype=np.int64), np.ones((k, 2)), 0.0)
         for k in (1, 2, 3, 4)],
    ))
    @given(case=labelled_solutions())
    def test_all_k_pass_equals_the_per_cluster_loop(self, case):
        data, solutions = case
        scores = bic_scores(data, solutions)
        assert len(scores) == len(solutions)
        for score, solution in zip(scores.tolist(), solutions):
            assert score.hex() == oracle_bic_score(data, solution).hex()


class TestGASubsetDistances:

    @settings(max_examples=60, deadline=None)
    @given(
        data=arrays(
            np.float64,
            st.tuples(st.integers(2, 16), st.integers(1, 12)),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ),
        bits=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_subset_distances_equal_pdist(self, data, bits):
        mask = np.array(bits[: data.shape[1]])
        if not mask.any():
            mask[0] = True
        assert subset_distances(data)(mask).tobytes() == pdist(
            data[:, mask]
        ).tobytes()


class TestFig5Curve:
    """Every correlation-elimination point of Figure 5 is the
    correlation of two fresh ``pdist`` calls, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=arrays(
            np.float64,
            st.tuples(st.integers(3, 12), st.integers(2, 10)),
            elements=st.one_of(
                st.sampled_from([-1.0, 0.0, 2.5]),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
        ),
        constant=st.lists(st.booleans(), min_size=10, max_size=10),
    )
    @example(
        # Tied columns 1 and 2, constant column 0.
        data=np.array([[1.0, 2.0, 2.0], [1.0, 5.0, 5.0], [1.0, 3.0, 3.0]]),
        constant=[False] * 10,
    )
    @example(
        # Rounding depends on the order the squared columns are summed.
        data=np.array([
            [1.3, -1.3, 6.4, 1.0], [-5.4, 3.6, 13.0, 9.5],
            [-7.0, -12.7, -6.2, 0.4], [-23.3, -2.2, -12.5, -7.3],
        ]),
        constant=[False] * 10,
    )
    def test_every_point_equals_pearson_of_pdists(self, data, constant):
        data[:, np.array(constant[: data.shape[1]])] = 0.25
        dataset = SimpleNamespace(mica_normalized=lambda: data)
        ga = SimpleNamespace(n_selected=1, rho=1.0, selected=(0,))
        curve = run_fig5(dataset, ga_result=ga).ce_curve
        kept = np.ones(data.shape[1], dtype=bool)
        for victim in correlation_elimination_order(data)[:-1]:
            kept[victim] = False
            expected = pearson(
                pairwise_distances(data), pairwise_distances(data[:, kept])
            )
            assert curve[int(kept.sum())].hex() == expected.hex()
        assert len(curve) == data.shape[1] - 1


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(golden_document(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")

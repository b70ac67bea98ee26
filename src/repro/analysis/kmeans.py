"""K-means clustering and the Bayesian Information Criterion.

The paper clusters the 122 benchmarks in the reduced 8-dimensional
workload space with k-means, choosing K by the BIC score (Sherwood et
al. / Pelleg & Moore formulation): the smallest K whose score reaches
90% of the maximum over K = 1..70.

The implementation uses k-means++ seeding with multiple restarts and is
fully deterministic given the seed.  :func:`lockstep_kmeans` advances
every (K, restart) run of a :func:`~repro.analysis.choose_k` together
(:func:`kmeans` is its one-K case), with the bits of separate runs:

* *Draw protocol.* Each K draws from its own generator in the
  historical order, restart by restart, center by center: one
  ``rng.integers(n)`` per first center (and per fill once every point
  coincides with a center), one ``rng.random()`` per weighted draw.
  A step's array work is shared: the weights ``closest_sq / total``,
  their cumulative table (built as :func:`repro.synth.rng.choice_cdf`
  does) and ``count(cdf <= u)``, which is ``searchsorted(cdf, u,
  side="right")`` on a nondecreasing table.
* *Summation order.* Every distance, weight total and inertia is a sum
  over the contiguous last axis of its own row, the reduction (pairwise
  blocks included) numpy applies to one run alone.  For ``d >= 2``
  numpy reduces ``members.mean(axis=0)`` row by row from ``+0.0``, so
  one ``np.add.at`` into zeroed sums, divided by the counts, gives the
  same bits (signed zeros too).  One column is reduced pairwise, which
  no scatter-add replays, so it keeps the per-cluster ``mean``.
* *Memory.* Runs are bucketed by K (little padding) and every array of
  a bucket or distance block holds at most ``_ELEMENT_BUDGET`` elements
  unless one run or point needs more: no all-runs tensor, no ``n x n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import AnalysisError

#: Elements of the largest k-means temporary (float64: 256 KiB).
_ELEMENT_BUDGET = 1 << 15


@dataclass(frozen=True)
class KMeansResult:
    """One k-means solution.

    Attributes:
        k: number of clusters.
        assignments: cluster index per point.
        centers: (k x d) cluster centroids.
        inertia: total within-cluster squared distance.
    """

    k: int
    assignments: np.ndarray
    centers: np.ndarray
    inertia: float

    def cluster_sizes(self) -> np.ndarray:
        """Point count per cluster."""
        return np.bincount(self.assignments, minlength=self.k)


def _sq_distances(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``(m, n)`` squared distances of ``m`` points to the ``n`` rows,
    each summed over the last axis, a budget of points at a time."""
    out = np.empty((len(points), len(data)))
    step = max(1, _ELEMENT_BUDGET // data.size)
    for start in range(0, len(points), step):
        block = data[None, :, :] - points[start : start + step, None, :]
        block **= 2
        block.sum(axis=2, out=out[start : start + step])
    return out


def _seed_centers(
    data: np.ndarray, ks: Sequence[int], seeds: Sequence[int], restarts: int
) -> List[np.ndarray]:
    """k-means++ in lockstep: per K, the ``(restarts, k)`` data rows its
    starting centers copy.  Each step places one center of every K with
    restarts left; rows from the first live K on are computed (a
    finished K's stale row is ignored)."""
    n = len(data)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows: "List[List[int]]" = [[] for _ in ks]
    closest_sq = np.empty((len(ks), n))
    live = list(range(len(ks)))
    with np.errstate(divide="ignore", invalid="ignore"):
        while live:
            low = live[0]
            near = closest_sq[low:]
            totals = near.sum(axis=1)
            total_of = totals.tolist()
            picks, uniforms = [0] * len(near), [0.0] * len(near)
            first, weighted = [], []
            for i in live:
                slot, index = i - low, len(rows[i]) % ks[i]
                if index == 0:
                    picks[slot] = int(rngs[i].integers(n))
                    first.append(slot)
                elif total_of[slot] <= 0.0:
                    # All remaining points coincide with a center already.
                    rows[i] += [int(rngs[i].integers(n))] * (ks[i] - index)
                else:
                    uniforms[slot] = rngs[i].random()
                    weighted.append(slot)
            if weighted:
                cdf = (near / totals[:, None]).cumsum(axis=1)
                cdf /= cdf[:, -1:].copy()
                draws = (cdf <= np.array(uniforms)[:, None]).sum(axis=1)
                for slot, draw in zip(weighted, draws[weighted].tolist()):
                    picks[slot] = draw
            for slot in first + weighted:
                rows[slot + low].append(picks[slot])
            live = [i for i in live if len(rows[i]) < restarts * ks[i]]
            if first:
                near[first] = np.inf  # a restart starts its distances afresh
            np.minimum(near, _sq_distances(data, data[picks]), out=near)
    return [np.reshape(rows[i], (restarts, k)) for i, k in enumerate(ks)]


def _lloyd(
    data: np.ndarray, starts: "List[np.ndarray]", max_iterations: int
) -> "List[KMeansResult]":
    """Lloyd iterations from every start (the data rows its centers
    copy), in lockstep buckets; one solution per start, in order.

    Padded centers are ``+inf`` away and never computed.  Distances are
    computed once per distinct center: starts that copy one data row
    share them, and a center that did not move keeps them (same bits),
    so an iteration recomputes only the moved centers.
    """
    n, d = data.shape
    buckets: "List[List[int]]" = []
    for run in sorted(range(len(starts)), key=lambda run: len(starts[run])):
        size = n * max(len(starts[run]), d)
        if buckets and (len(buckets[-1]) + 1) * size <= _ELEMENT_BUDGET:
            buckets[-1].append(run)
        else:
            buckets.append([run])
    solved = [None] * len(starts)
    for bucket in buckets:
        ks = np.array([len(starts[run]) for run in bucket])
        real = np.arange(ks.max())[None, :] < ks[:, None]
        rows = np.concatenate([starts[run] for run in bucket])
        centers = np.zeros(real.shape + (d,))
        centers[real] = data[rows]
        distances = np.full(real.shape + (n,), np.inf)
        copied, inverse = np.unique(rows, return_inverse=True)
        distances[real] = _sq_distances(data, data[copied])[inverse]
        assignments = np.zeros((len(bucket), n), dtype=np.int64)
        inertia = np.zeros(len(bucket))
        active = np.arange(len(bucket))
        for iteration in range(max(max_iterations, 0) + 1):
            labels = distances.argmin(axis=1)[active]
            settled = (labels == assignments[active]).all(axis=1)
            if iteration >= max_iterations:
                settled[:] = True  # out of iterations: score as it stands
            done = active[settled]
            inertia[done] = distances[
                done[:, None], assignments[done], np.arange(n)
            ].sum(axis=1)
            active = active[~settled]
            if not len(active):
                break
            assignments[active] = labels[~settled]
            before = centers[active]
            _update_centers(data, assignments, centers, active, ks)
            moved = np.zeros(real.shape, dtype=bool)
            moved[active] = (centers[active] != before).any(axis=2)
            distances[moved] = _sq_distances(data, centers[moved])
        for slot, run in enumerate(bucket):
            solved[run] = KMeansResult(
                int(ks[slot]), assignments[slot].copy(),
                centers[slot, : ks[slot]].copy(), float(inertia[slot]),
            )
    return solved


def _update_centers(data, assignments, centers, active, ks) -> None:
    """Move every non-empty cluster of the active runs to its mean."""
    n, d = data.shape
    if d == 1:
        # numpy sums one column pairwise; only the per-cluster mean
        # itself reproduces those bits (see the module docstring).
        for slot in active:
            for cluster in range(ks[slot]):
                members = data[assignments[slot] == cluster]
                if len(members):
                    centers[slot, cluster] = members.mean(axis=0)
        return
    width = centers.shape[1]
    target = (np.arange(len(active))[:, None] * width
              + assignments[active]).ravel()
    sums = np.zeros((len(active) * width, d))
    np.add.at(sums, target, np.tile(data, (len(active), 1)))
    counts = np.bincount(target, minlength=len(sums))
    present = counts > 0
    means = centers[active].reshape(-1, d)
    means[present] = sums[present] / counts[present, None]
    centers[active] = means.reshape(len(active), width, d)


def lockstep_kmeans(
    data: np.ndarray,
    ks: Sequence[int],
    seeds: Sequence[int],
    restarts: int,
    max_iterations: int = 100,
) -> "List[KMeansResult]":
    """``kmeans(data, ks[i], seeds[i], restarts)`` for every ``i``, with
    all (K, restart) runs advanced together.

    Raises:
        AnalysisError: on an empty or non-2-D matrix, or a K not
            within ``[1, n]``.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or len(data) == 0:
        raise AnalysisError("kmeans needs a non-empty 2-D matrix")
    for k in ks:
        if not 1 <= k <= len(data):
            raise AnalysisError(f"k must be in [1, {len(data)}], got {k}")
    restarts = max(restarts, 1)
    starts = _seed_centers(data, ks, seeds, restarts)
    runs = _lloyd(data, [run for per_k in starts for run in per_k],
                  max_iterations)
    # The first lowest inertia wins, as in one restart after another.
    return [
        min(runs[i * restarts : (i + 1) * restarts],
            key=lambda run: run.inertia)
        for i in range(len(ks))
    ]


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int = 0,
    restarts: int = 5,
    max_iterations: int = 100,
) -> KMeansResult:
    """Cluster rows of ``data`` into ``k`` clusters.

    Runs ``restarts`` independent k-means++ initializations and keeps
    the lowest-inertia solution (the one-K :func:`lockstep_kmeans`).

    Raises:
        AnalysisError: if ``k`` is not within ``[1, n]``.
    """
    return lockstep_kmeans(data, [k], [seed], restarts, max_iterations)[0]


def bic_score(data: np.ndarray, result: KMeansResult) -> float:
    """BIC of a k-means solution (spherical-Gaussian likelihood).

    Uses the Pelleg & Moore (X-means) formulation also used by SimPoint:
    maximum-likelihood pooled variance, per-cluster log-likelihood, and
    a ``(p / 2) log R`` complexity penalty with ``p = K (d + 1)`` free
    parameters.  Larger is better.
    """
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

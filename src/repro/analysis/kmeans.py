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
  one ``bincount`` over (cluster, column) cells, which adds in input
  order into zeroed sums, divided by the counts, gives the same bits
  (signed zeros too).  One column is reduced pairwise, which no
  scatter-add replays (nor ``np.add.reduceat`` over sorted members),
  but one ``(clusters, size)`` row sum per cluster size does.
  :func:`bic_scores` sums each cluster's residual as one block and
  adds clusters up in order, as :func:`bic_score` always has.
* *Memory.* Runs are bucketed by K (little padding) and every array of
  a bucket, distance block or BIC pass holds at most
  ``_ELEMENT_BUDGET`` elements unless one run or point needs more: no
  all-runs tensor.  Seeding only measures distances to data rows, so
  a call keeps one row memo that seeding and the Lloyd starts read:
  the ``n x n`` table, each row computed on first use, while it fits
  the budget (``n <= 181``); past it, each request recomputes its
  distinct rows.
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


def _row_distances(data: np.ndarray):
    """``rows -> _sq_distances(data, data[rows])`` with each data row's
    distances computed once per call while the ``n x n`` table fits
    ``_ELEMENT_BUDGET``; past it, each distinct row once per request."""
    n = len(data)
    table = np.empty((n, n)) if n * n <= _ELEMENT_BUDGET else None
    filled = np.zeros(n, dtype=bool)

    def distances_to(rows) -> np.ndarray:
        rows = np.asarray(rows)
        if table is None:
            distinct, inverse = np.unique(rows, return_inverse=True)
            return _sq_distances(data, data[distinct])[inverse]
        if not filled[rows].all():
            missing = np.zeros(n, dtype=bool)
            missing[rows] = True
            missing &= ~filled
            table[missing] = _sq_distances(data, data[missing])
            filled[missing] = True
        return table[rows]

    return distances_to


def _seed_centers(
    data: np.ndarray, ks: Sequence[int], seeds: Sequence[int], restarts: int,
    distances_to,
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
            np.minimum(near, distances_to(picks), out=near)
    return [np.reshape(rows[i], (restarts, k)) for i, k in enumerate(ks)]


def _lloyd(
    data: np.ndarray, starts: "List[np.ndarray]", max_iterations: int,
    distances_to,
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
        # Point-major, so each point's argmin reads one contiguous row.
        distances = np.full((len(bucket), n, real.shape[1]), np.inf)
        by_center = distances.transpose(0, 2, 1)
        by_center[real] = distances_to(rows)
        assignments = np.zeros((len(bucket), n), dtype=np.int64)
        inertia = np.zeros(len(bucket))
        active = np.arange(len(bucket))
        for iteration in range(max(max_iterations, 0) + 1):
            labels = distances[active].argmin(axis=2)
            settled = (labels == assignments[active]).all(axis=1)
            if iteration >= max_iterations:
                settled[:] = True  # out of iterations: score as it stands
            done = active[settled]
            inertia[done] = distances[
                done[:, None], np.arange(n), assignments[done]
            ].sum(axis=1)
            active = active[~settled]
            if not len(active):
                break
            assignments[active] = labels[~settled]
            before = centers[active]
            _update_centers(data, assignments, centers, active, ks)
            moved = np.zeros(real.shape, dtype=bool)
            moved[active] = (centers[active] != before).any(axis=2)
            by_center[moved] = _sq_distances(data, centers[moved])
        for slot, run in enumerate(bucket):
            solved[run] = KMeansResult(
                int(ks[slot]), assignments[slot].copy(),
                centers[slot, : ks[slot]].copy(), float(inertia[slot]),
            )
    return solved


def _update_centers(data, assignments, centers, active, ks) -> None:
    """Move every non-empty cluster of the active runs to its mean."""
    n, d = data.shape
    width = centers.shape[1]
    target = (np.arange(len(active))[:, None] * width
              + assignments[active]).ravel()
    counts = np.bincount(target, minlength=len(active) * width)
    if d == 1:
        # numpy sums one column pairwise, as it sums one block alone.
        members = np.tile(data, (len(active), 1))[_size_order(target, counts)]
        sums = _block_sums(members, counts)[:, None]
    else:
        # One bincount over (cluster, column) cells adds each cell's
        # terms in row order into +0.0, as a per-row scatter-add would.
        cells = (target[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(
            cells, weights=np.tile(data.ravel(), len(active)),
            minlength=counts.size * d,
        ).reshape(-1, d)
    present = counts > 0
    means = centers[active].reshape(-1, d)
    means[present] = sums[present] / counts[present, None]
    centers[active] = means.reshape(len(active), width, d)


def _size_order(labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row order grouped by cell size, then cell, in row order."""
    return np.argsort(counts[labels] * len(counts) + labels, kind="stable")


def _block_sums(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per cell, the sum of its ``rows`` (in :func:`_size_order`) as one
    block, which numpy sums as it sums that block alone; every cell of
    one size is summed in one ``(cells, size * width)`` row sum."""
    sums = np.zeros(len(counts))
    first = 0
    for size in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        cells = np.flatnonzero(counts == size)
        block = rows[first : first + len(cells) * size]
        sums[cells] = block.reshape(len(cells), -1).sum(axis=1)
        first += len(cells) * size
    return sums


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
    distances_to = _row_distances(data)
    starts = _seed_centers(data, ks, seeds, restarts, distances_to)
    runs = _lloyd(data, [run for per_k in starts for run in per_k],
                  max_iterations, distances_to)
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
    parameters.  Larger is better; ``-inf`` when ``n <= K``.
    """
    return float(bic_scores(data, [result])[0])


def bic_scores(
    data: np.ndarray, results: "Sequence[KMeansResult]"
) -> np.ndarray:
    """:func:`bic_score` of every result, in one pass per budget of
    results.

    A cluster's residual is the sum of its members' squared deviations
    as one ``(members x d)`` block, and every cluster of one size is
    summed in one ``(clusters, size * d)`` reduction, which sums each
    row as the block alone.  Residuals and log-likelihood terms then
    add up in cluster order from +0.0 (an empty cluster adds +0.0).
    """
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    ks = np.array([result.k for result in results])
    width = int(ks.max())
    sizes = np.zeros((len(results), width), dtype=np.int64)
    residual = np.zeros((len(results), width))
    step = max(1, _ELEMENT_BUDGET // data.size)
    for start in range(0, len(results), step):
        chunk = results[start : start + step]
        centers = np.zeros((len(chunk), width, d))
        for slot, result in enumerate(chunk):
            centers[slot, : result.k] = result.centers
        labels = np.concatenate([
            result.assignments + slot * width
            for slot, result in enumerate(chunk)
        ])
        counts = np.bincount(labels, minlength=len(chunk) * width)
        order = _size_order(labels, counts)
        centers = centers.reshape(-1, d)
        squares = (data[order % n] - centers[labels[order]]) ** 2
        residual[start : start + len(chunk)] = _block_sums(
            squares, counts
        ).reshape(len(chunk), width)
        sizes[start : start + len(chunk)] = counts.reshape(len(chunk), width)
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = np.maximum(
            residual.cumsum(axis=1)[:, -1] / (d * (n - ks)), 1e-12
        )
        terms = (
            sizes * np.log(sizes / n)
            - sizes * d / 2.0 * np.log(2.0 * np.pi * variance)[:, None]
            - (sizes - 1) * d / 2.0
        )
    log_likelihood = np.where(sizes > 0, terms, 0.0).cumsum(axis=1)[:, -1]
    scores = log_likelihood - ks * (d + 1) / 2.0 * np.log(n)
    # Degenerate at n <= K: every point its own cluster.
    return np.where(n > ks, scores, -np.inf)

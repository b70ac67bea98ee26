"""Genetic-algorithm characteristic selection (section V-B of the paper).

A solution is a bit string over the N characteristics (1 = selected).
The fitness of a solution is

    f = rho * (1 - n / N)

where ``rho`` is the Pearson correlation between the pairwise benchmark
distances in the full (z-scored) data set and the distances in the
selected subset, and ``n`` is the number of selected characteristics —
so the GA simultaneously maximizes fidelity to the full workload space
and minimizes how many characteristics must be measured.

Generations evolve by elitist tournament selection, uniform crossover
and per-bit mutation; evolution stops after ``generations`` rounds or
when the best fitness has not improved for ``patience`` rounds,
following the paper ("until no more improvement is observed").

Fitness evaluation never recomputes a benchmark difference: every
benchmark pair's squared difference in every feature is tabulated once
(:func:`~repro.analysis.distance.subset_distances`), and a subset's
distances, bit-for-bit ``pairwise_distances(data[:, mask])``, are its
rows summed in feature order.  The full-space side of the correlation
is likewise centered once (:class:`PearsonAgainst`).

Breeding replays numpy's draws in bulk.  Per child the historical loop
(:func:`_breed_reference`) draws a tournament (``integers(0, P,
size=3)``), ``random()`` for crossover and, on crossover, a second
tournament and ``random(N)`` for the mask, then ``random(N)`` for the
flips.  On PCG64 a double is ``(word >> 11) * 2**-53`` and a bounded
integer is Lemire's ``(u32 * P) >> 32`` over uint32 halves: a fresh
word's low half, its high half buffered for the next uint32 draw.
:func:`_breed` draws one ``random_raw`` block (2N + 5 words per child),
walks a cursor through it, breeds the children with a few gathers and
re-positions the generator (restore, ``advance``, then the buffered
half, which ``advance`` clears).  A child numpy would breed otherwise,
on a rejected Lemire draw (leftover below ``2**32 mod P``, never for a
power-of-two P) or as an all-zero child (the ``integers(N)`` repair
draw), is bred by the loop from its own start; bulk breeding resumes
after it.  ``tests/test_numpy_draw_protocol.py`` pins this behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import AnalysisError
from .correlation import PearsonAgainst
from .distance import subset_distances


@dataclass(frozen=True)
class GAResult:
    """Outcome of a GA selection run.

    Attributes:
        selected: sorted indices of the selected characteristics.
        fitness: best fitness ``rho * (1 - n/N)``.
        rho: distance-correlation term of the best solution.
        generations_run: generations actually evolved.
        history: best fitness after every generation.
    """

    selected: Tuple[int, ...]
    fitness: float
    rho: float
    generations_run: int
    history: Tuple[float, ...]

    @property
    def n_selected(self) -> int:
        return len(self.selected)


class GeneticSelector:
    """GA-based selection of key characteristics.

    Args:
        population: individuals per generation (>= 2).
        generations: maximum generations.
        patience: stop after this many generations without improvement.
        mutation_rate: per-bit flip probability (default 1/N at run
            time when None).
        crossover_rate: probability a child is produced by crossover
            rather than cloned.
        elite: individuals copied unchanged into the next generation.
        seed: RNG seed (results are deterministic given the seed).
        size_penalty: when False, fitness is plain ``rho`` — the
            ablation variant without the ``(1 - n/N)`` term.
    """

    def __init__(
        self,
        population: int = 64,
        generations: int = 60,
        patience: int = 15,
        mutation_rate: "float | None" = None,
        crossover_rate: float = 0.9,
        elite: int = 2,
        seed: int = 42,
        size_penalty: bool = True,
    ):
        if population < 2:
            raise AnalysisError("population must be >= 2")
        if generations < 1:
            raise AnalysisError("generations must be >= 1")
        if elite >= population:
            raise AnalysisError("elite must be smaller than population")
        self.population = population
        self.generations = generations
        self.patience = patience
        self.mutation_rate = mutation_rate
        self.crossover_rate = crossover_rate
        self.elite = elite
        self.seed = seed
        self.size_penalty = size_penalty

    def select(self, data: np.ndarray) -> GAResult:
        """Run the GA on a (n benchmarks x N characteristics) z-scored
        matrix and return the best subset found."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 3:
            raise AnalysisError("GA needs a 2-D matrix with >= 3 rows")
        n_features = data.shape[1]
        rng = np.random.default_rng(self.seed)
        distances = subset_distances(data)
        correlate = PearsonAgainst(
            distances(np.ones(n_features, dtype=bool))
        )
        mutation_rate = (
            self.mutation_rate
            if self.mutation_rate is not None
            else 1.0 / n_features
        )

        fitness_cache: Dict[bytes, Tuple[float, float]] = {}

        def evaluate(mask: np.ndarray) -> Tuple[float, float]:
            """(fitness, rho) of one bit mask, memoized."""
            key = mask.tobytes()
            cached = fitness_cache.get(key)
            if cached is not None:
                return cached
            count = int(mask.sum())
            if count == 0:
                result = (-1.0, 0.0)
            else:
                rho = correlate(distances(mask))
                if self.size_penalty:
                    fitness = rho * (1.0 - count / n_features)
                else:
                    fitness = rho
                result = (fitness, rho)
            fitness_cache[key] = result
            return result

        # Initial population: varied densities so both small and large
        # subsets are represented from the start.
        population = np.zeros((self.population, n_features), dtype=bool)
        for row in range(self.population):
            density = rng.uniform(0.1, 0.6)
            population[row] = rng.random(n_features) < density
            if not population[row].any():
                population[row, rng.integers(n_features)] = True

        scores = np.array([evaluate(ind)[0] for ind in population])
        best_index = int(np.argmax(scores))
        best_mask = population[best_index].copy()
        best_fitness = float(scores[best_index])
        history: List[float] = []
        stale = 0
        generations_run = 0

        for generation in range(self.generations):
            generations_run = generation + 1
            next_population = np.zeros_like(population)
            # Elitism: carry over the current best individuals.
            elite_order = np.argsort(scores)[::-1][: self.elite]
            next_population[: self.elite] = population[elite_order]

            next_population[self.elite :] = _breed(
                rng, population, scores, self.population - self.elite,
                self.crossover_rate, mutation_rate,
            )

            population = next_population
            scores = np.array([evaluate(ind)[0] for ind in population])
            generation_best = int(np.argmax(scores))
            if scores[generation_best] > best_fitness + 1e-12:
                best_fitness = float(scores[generation_best])
                best_mask = population[generation_best].copy()
                stale = 0
            else:
                stale += 1
            history.append(best_fitness)
            if stale >= self.patience:
                break

        _, best_rho = evaluate(best_mask)
        return GAResult(
            selected=tuple(sorted(np.flatnonzero(best_mask).tolist())),
            fitness=best_fitness,
            rho=best_rho,
            generations_run=generations_run,
            history=tuple(history),
        )


def _tournament(rng, population, scores) -> np.ndarray:
    contenders = rng.integers(0, len(population), size=3)
    return population[contenders[int(np.argmax(scores[contenders]))]]


def _breed_reference(
    rng, population, scores, children, crossover_rate, mutation_rate
) -> np.ndarray:
    """``children`` children bred one at a time, each with its own
    draws in the order of the module docstring."""
    n_features = population.shape[1]
    bred = np.empty((children, n_features), dtype=bool)
    for row in range(children):
        parent_a = _tournament(rng, population, scores)
        if rng.random() < crossover_rate:
            parent_b = _tournament(rng, population, scores)
            take_from_a = rng.random(n_features) < 0.5
            child = np.where(take_from_a, parent_a, parent_b)
        else:
            child = parent_a.copy()
        flips = rng.random(n_features) < mutation_rate
        child = child ^ flips
        if not child.any():
            child[rng.integers(n_features)] = True
        bred[row] = child
    return bred


def _breed(
    rng, population, scores, children, crossover_rate, mutation_rate
) -> np.ndarray:
    """:func:`_breed_reference`, bit for bit and leaving ``rng`` in the
    same state, from one raw block per run of regular children."""
    size, n_features = population.shape
    threshold = (1 << 32) % size  # numpy rejects a Lemire leftover below
    bitgen = rng.bit_generator
    bred = np.empty((children, n_features), dtype=bool)
    done = 0
    while done < children:
        start = bitgen.state
        todo = children - done
        words = bitgen.random_raw(todo * (2 * n_features + 5))
        # Half 0 is the generator's buffered uint32; word w gives halves
        # 2w + 1 (low, drawn first) and 2w + 2 (high, buffered).
        halves = np.insert(np.column_stack(
            (words & 0xFFFFFFFF, words >> 32)
        ).ravel(), 0, start["uinteger"])
        doubles = (words >> 11) * 2.0**-53  # numpy's next_double
        crossing = doubles < crossover_rate
        # Cursor walk: word position, whether a half is buffered, and
        # which half the generator last buffered.
        walk = (0, bool(start["has_uint32"]), 0)
        starts, draws, crossed, flip_at = [], [], [], []
        for _ in range(todo):
            starts.append(walk)
            position, pending, buffered = _tournament_halves(walk, draws)
            crossed.append(bool(crossing[position]))
            position += 1
            if crossed[-1]:
                position, pending, buffered = _tournament_halves(
                    (position, pending, buffered), draws
                )
                position += n_features  # the crossover mask
            else:
                draws.extend(draws[-3:])  # no tournament B
            flip_at.append(position)
            walk = (position + n_features, pending, buffered)
        starts.append(walk)

        scaled = halves[np.reshape(draws, (todo, 2, 3))] * np.uint64(size)
        contenders = (scaled >> 32).astype(np.intp)
        crossed = np.array(crossed)[:, None]
        rejected = (scaled & 0xFFFFFFFF) < threshold
        best = scores[contenders].argmax(axis=2)
        winners = contenders[np.arange(todo)[:, None], [0, 1], best]
        parents = population[winners]
        flip_at = np.array(flip_at)[:, None] + np.arange(n_features)
        take_from_a = doubles[flip_at - n_features * crossed] < 0.5
        take_from_a |= ~crossed
        flips = doubles[flip_at] < mutation_rate
        kids = np.where(take_from_a, parents[:, 0], parents[:, 1]) ^ flips

        irregular = np.flatnonzero(_irregular(rejected, kids))
        regular = int(irregular[0]) if len(irregular) else todo
        bred[done : done + regular] = kids[:regular]
        done += regular
        position, pending, buffered = starts[regular]
        bitgen.state = start
        bitgen.advance(position)
        state = bitgen.state
        state["has_uint32"] = int(pending)
        state["uinteger"] = int(halves[buffered])
        bitgen.state = state
        if regular < todo:
            bred[done] = _breed_reference(
                rng, population, scores, 1, crossover_rate, mutation_rate
            )[0]
            done += 1
    return bred


def _tournament_halves(walk: tuple, draws: list) -> tuple:
    """Append the halves of one tournament's three uint32 draws and
    return ``walk`` (position, pending, buffered) past them."""
    position, pending, buffered = walk
    if pending:
        draws += (buffered, 2 * position + 1, 2 * position + 2)
        return position + 1, False, 2 * position + 2
    draws += (2 * position + 1, 2 * position + 2, 2 * position + 3)
    return position + 2, True, 2 * position + 4


def _irregular(rejected: np.ndarray, children: np.ndarray) -> np.ndarray:
    """Children the bulk replay cannot breed: one with a rejected
    tournament draw (numpy draws again) or an all-zero one (it takes
    the ``integers(N)`` repair draw)."""
    return rejected.any(axis=(1, 2)) | ~children.any(axis=1)

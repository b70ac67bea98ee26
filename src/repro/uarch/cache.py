"""Set-associative cache simulator with true-LRU replacement.

The simulator is functional (hit/miss accounting only, no data), which
is all hardware-performance-counter reproduction requires.

**Tag convention.**  The full line id (``address >> log2(line_bytes)``)
is stored as the tag everywhere: the set-index bits are redundant but
harmless, equal tags imply equal lines, and no separate tag extraction
is ever needed.  ``-1`` marks an empty way.

**State representation.**  Each set is a true-LRU *recency stack*
(``_stack[set, 0]`` is the MRU line, ``_stack[set, ways - 1]`` the LRU
victim; empty ways trail as ``-1``).  A stack is equivalent to the
classic tags-plus-ages layout but makes the batch engine's job explicit:
after any access sequence the stack holds exactly the last ``ways``
distinct lines of that set, most recent first.  Because both the scalar
:meth:`SetAssociativeCache.access` path and the batch
:meth:`SetAssociativeCache.simulate` engine reconstruct that same
canonical state, interleaving them is always safe (the historical
direct-mapped fast path left LRU ages stale; a recency stack cannot).

**Batch engine.**  :meth:`SetAssociativeCache.simulate` resolves a whole
access stream without per-access Python loops, and only where the
outcome is not already known.  An access to the same line as the access
before it is an MRU hit that leaves the stack unchanged, so only the
heads of such runs are simulated (statistics still count every access);
a :class:`LineRuns` holds them, and :meth:`SetAssociativeCache.simulate_runs`
takes one cut already.  The heads are stable-sorted by set (a warm
cache prepends its residents as virtual warm-up accesses in LRU-to-MRU
order, so warm starts are just a longer stream; a single-set cache
skips the sort); set ids, and line ids spanning at most 2**16 values,
are sorted as ``uint16`` keys, which numpy radix-sorts.  Direct-mapped
hits are one previous-same-line compare, and each set ends holding its
last access's line, so no previous-occurrence links are built.  Small
associativities walk a "last A distinct lines" pointer recurrence
bounded by the (small, static) associativity; large associativities
(the fully-associative TLB) use exact LRU stack distances behind a
reuse-gap filter: by LRU inclusion, a line reused after fewer than
``ways`` other accesses hits, and so does every reuse in a stream of at
most ``ways`` distinct lines.  Only the remaining reuses are counted,
blockwise under a fixed element budget (``_ELEMENT_BUDGET``).  A fresh
single-set cache takes its links and stack distances from its
:class:`LineRuns`, where they are kept: distances counted for ``ways``
answer every larger associativity, so TLBs sharing one stream share
one pass.  :meth:`SetAssociativeCache.simulate_reference`
retains the scalar per-access loop as the executable specification the
equivalence tests pin the engine against, bit for bit — including the
final stack state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError

#: Associativities up to this bound use the pointer-recurrence engine;
#: larger ones (e.g. the 64-entry fully-associative TLB) use the exact
#: stack-distance engine.
_SMALL_WAYS = 8

#: Safety valve for the pointer recurrence: pathological streams that
#: alternate between few lines for very long stretches would make the
#: masked pointer jumps crawl, so after this many total jump passes the
#: engine falls back to the stack-distance path (identical results).
_MAX_JUMP_PASSES = 96

#: Block and sub-block sizes of the exact stack-distance count.
_BLOCKS = (256, 16)

#: Elements of the largest exact stack-distance temporary (int64: 512 KiB).
_ELEMENT_BUDGET = 1 << 16

#: Stack distance of a first access: a miss at any associativity.
_NEVER = np.iinfo(np.int64).max


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Attributes:
        name: label used in reports (e.g. ``"L1D"``).
        size_bytes: total capacity.
        line_bytes: cache-line size (power of two).
        associativity: ways per set (1 = direct-mapped).
    """

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise SimulationError("line_bytes must be a positive power of two")
        if self.associativity < 1:
            raise SimulationError("associativity must be >= 1")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise SimulationError(
                f"{self.name}: size must be a multiple of line*assoc"
            )
        if self.num_sets & (self.num_sets - 1):
            raise SimulationError(
                f"{self.name}: number of sets must be a power of two"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass
class CacheStats:
    """Access/miss counters of one simulated cache."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when never accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


def _run_firsts(keys: np.ndarray) -> np.ndarray:
    """True at the first element of each run of equal keys."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    first[1:] = keys[1:] != keys[:-1]
    return first


def _stable_order(keys: np.ndarray, domain: int, base: int = 0) -> np.ndarray:
    """Stable argsort of ``keys``, all in ``[base, base + domain)``.

    Keys whose domain fits 16 bits are sorted as ``uint16`` offsets,
    which numpy's stable sort handles with a radix sort: the same
    permutation, several times faster than the int64 sort.
    """
    if domain <= 1 << 16:
        keys = (keys - base).astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _previous_occurrences(lines: np.ndarray) -> np.ndarray:
    """Position of the previous access of the same line (-1 if none).

    One line-keyed stable sort: within a run of equal lines in sorted
    order, each access links to the one before it.
    """
    lowest = int(lines.min())
    order = _stable_order(lines, int(lines.max()) - lowest + 1, lowest)
    repeats = np.flatnonzero(~_run_firsts(lines[order]))
    previous = np.full(len(lines), -1, dtype=np.int64)
    previous[order[repeats]] = order[repeats - 1]
    return previous


def _stack_distances(previous_same: np.ndarray, floor: int) -> np.ndarray:
    """Exact LRU stack distances where they are at least ``floor``.

    The stack distance of an access is the number of distinct lines
    touched in its set since the previous access of the same line: the
    reuse gap (accesses in between) minus the in-window repeats, i.e.
    accesses whose own previous occurrence also lies inside the window.
    Every distance below ``floor`` comes back as some value below
    ``floor``, and a first access as :data:`_NEVER`, so for any
    ``ways >= floor`` an access hits iff its value is below ``ways``.
    A gap below ``floor`` bounds the distance, and a stream of at most
    ``floor`` distinct lines keeps every distance below it, so only the
    other reuses are counted.  For an access at ``i`` whose previous
    occurrence is ``l``, the repeats are the positions ``p < i`` with
    ``previous_same[p] > l`` (every ``p <= l`` points below ``l``).
    They are counted by binary search in the sorted pointers of each
    whole block inside the window (``_BLOCKS``: blocks, then sub-blocks
    of the block holding ``i``) and by direct compare in the sub-block
    of ``i``, ``_ELEMENT_BUDGET`` elements at a time.  Groups never
    contaminate each other: a foreign access's pointer always falls
    outside the window's position range.
    """
    m = len(previous_same)
    reused = previous_same >= 0
    distances = np.where(reused, 0, _NEVER)
    if m - np.count_nonzero(reused) <= floor:
        return distances
    positions = np.arange(m, dtype=np.int64)
    gap = positions - previous_same - 1
    queries = np.flatnonzero(reused & (gap >= floor))
    if len(queries) == 0:
        return distances
    # Per block size, block-major and pointer-minor keys: block c fills
    # sorted slots [c*size, c*size + size).
    span = m + 1
    levels = [
        (size, np.sort(positions // size * span + previous_same + 1))
        for size in _BLOCKS
    ]
    lows = previous_same[queries]
    block, sub_block = _BLOCKS
    work = np.cumsum(
        queries // block - (lows + 1) // block + block // sub_block + sub_block
    )
    cuts = np.searchsorted(
        work, np.arange(_ELEMENT_BUDGET, work[-1], _ELEMENT_BUDGET)
    )
    for start, stop in zip(np.append(0, cuts), np.append(cuts, len(queries))):
        query = queries[start:stop]
        low = lows[start:stop]
        begin = low + 1
        repeats = np.zeros(len(query), dtype=np.int64)
        for size, keys in levels:
            first = begin // size
            count = query // size - first
            owner = np.repeat(np.arange(len(query)), count)
            blocks = np.repeat(first - np.cumsum(count) + count, count)
            blocks += np.arange(len(owner))
            above = (blocks + 1) * size - np.searchsorted(
                keys, blocks * span + low[owner] + 1, side="right"
            )
            repeats += np.bincount(owner, above, len(query)).astype(np.int64)
            begin = query // size * size
        window = begin[:, None] + np.arange(sub_block)
        repeats += np.count_nonzero(
            (previous_same[np.minimum(window, m - 1)] > low[:, None])
            & (window < query[:, None]),
            axis=1,
        )
        distances[query] = gap[query] - repeats
    return distances


class LineRuns:
    """One access stream at one line size, cut into runs of one line.

    An access to the line of the access before it is an MRU hit that
    leaves any LRU state as it is, so caches resolve only the run
    heads.  The heads' previous-occurrence links and, per floor, their
    stack distances are computed on first use and kept: caches of one
    line size over one stream (the two Alpha machines' 8 KB-page TLBs)
    share them.

    Attributes:
        line_bytes: the line size the stream is cut at.
        accesses: number of accesses in the stream.
        heads: position of each run's first access.
        lines: line id of each run.
    """

    def __init__(self, addresses: np.ndarray, line_bytes: int):
        self.line_bytes = line_bytes
        self.accesses = len(addresses)
        lines = addresses.astype(np.int64) >> (line_bytes.bit_length() - 1)
        self.heads = np.flatnonzero(_run_firsts(lines))
        self.lines = lines[self.heads]
        self._previous: "np.ndarray | None" = None
        self._distances: "tuple[int, np.ndarray] | None" = None

    @property
    def previous(self) -> np.ndarray:
        """Previous run of the same line, per run (-1 for the first)."""
        if self._previous is None:
            self._previous = _previous_occurrences(self.lines)
        return self._previous

    def lru_hits(self, ways: int) -> np.ndarray:
        """Hit mask of the runs in a cold fully-associative LRU cache.

        One stack-distance pass at the smallest ``ways`` asked so far
        answers every larger one (LRU inclusion).
        """
        if self._distances is None or ways < self._distances[0]:
            self._distances = ways, _stack_distances(self.previous, ways)
        return self._distances[1] < ways


class SetAssociativeCache:
    """A single cache level with true-LRU replacement.

    Tags are full line ids (``address >> log2(line_bytes)``), stored as
    recency stacks per set — see the module docstring for the tag and
    state conventions shared by the scalar and batch paths.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        # Per-set recency stack of full line ids, MRU first, -1 empty.
        self._stack = np.full(
            (config.num_sets, config.associativity), -1, dtype=np.int64
        )
        self.stats = CacheStats()

    def reset(self) -> None:
        """Invalidate all lines and clear statistics."""
        self._stack.fill(-1)
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Access one address.  Returns True on hit, False on miss.

        A miss allocates the line, evicting the set's LRU victim.  This
        is the scalar executable specification of the batch engine.
        """
        line = int(address) >> self._line_shift
        stack = self._stack[line & self._set_mask]
        self.stats.accesses += 1
        matches = np.flatnonzero(stack == line)
        if len(matches):
            depth = int(matches[0])
            stack[1 : depth + 1] = stack[:depth].copy()
            stack[0] = line
            return True
        self.stats.misses += 1
        stack[1:] = stack[:-1].copy()
        stack[0] = line
        return False

    def simulate_reference(self, addresses: np.ndarray) -> np.ndarray:
        """Scalar per-access simulation — the executable specification.

        Identical results (miss mask, statistics, final stack state) to
        :meth:`simulate`; retained for the equivalence tests and the
        perf harness.
        """
        n = len(addresses)
        misses = np.empty(n, dtype=bool)
        access = self.access
        for position, address in enumerate(addresses.tolist()):
            misses[position] = not access(address)
        return misses

    def simulate(self, addresses: np.ndarray) -> np.ndarray:
        """Simulate a sequence of accesses with the batch engine.

        Returns:
            Boolean miss mask, one entry per address (True = miss).
        """
        return self.simulate_runs(LineRuns(addresses, self.config.line_bytes))

    def simulate_runs(self, runs: "LineRuns") -> np.ndarray:
        """:meth:`simulate` over an access stream already cut into runs.

        ``runs`` must be at this cache's line size; a fresh single-set
        cache reads its previous-occurrence links and stack distances
        from ``runs``, so caches sharing one :class:`LineRuns` share
        that work.

        Returns:
            Boolean miss mask, one entry per access (True = miss).
        """
        if runs.line_bytes != self.config.line_bytes:
            raise SimulationError(f"{self.config.name}: wrong line size")
        n = runs.accesses
        if n == 0:
            return np.zeros(0, dtype=bool)
        ways = self.config.associativity
        # Prepend the current residents as virtual accesses (LRU to MRU
        # per set), turning warm starts into plain longer streams.
        resident = self._stack >= 0
        fresh = not resident.any()
        lines = runs.lines
        if not fresh:
            lines = np.concatenate(
                [self._stack[:, ::-1][resident[:, ::-1]], lines]
            )
        n_virtual = len(lines) - len(runs.lines)
        m = len(lines)

        # Group by set with one stable sort (none for a single set):
        # virtuals lead each group, then the batch accesses in order.
        order = None
        group_lines = lines
        group_sets = lines & self._set_mask
        if self.config.num_sets > 1:
            order = _stable_order(group_sets, self.config.num_sets)
            group_lines = lines[order]
            group_sets = group_sets[order]
        new_group = _run_firsts(group_sets)

        self._stack.fill(-1)
        if ways == 1:
            # Direct-mapped: one previous-same-line compare, and each
            # set ends holding the line of its last access.
            hits = np.empty(m, dtype=bool)
            hits[0] = False
            hits[1:] = group_lines[1:] == group_lines[:-1]
            hits &= ~new_group
            last = np.flatnonzero(np.append(new_group[1:], True))
            self._stack[group_sets[last], 0] = group_lines[last]
        else:
            # Equal lines share a set, so links within the groups are
            # links within the stream.
            shared = fresh and order is None
            previous = (
                runs.previous if shared else _previous_occurrences(group_lines)
            )
            if ways <= _SMALL_WAYS:
                hits = self._small_ways_hits(
                    group_lines, new_group, previous, ways
                )
            elif shared:
                hits = runs.lru_hits(ways)
            else:
                hits = _stack_distances(previous, ways) < ways
            # Final state: the last `ways` distinct lines per set, MRU
            # first, from each line's final occurrence.
            is_final = np.ones(m, dtype=bool)
            is_final[previous[previous >= 0]] = False
            final_positions = np.flatnonzero(is_final)[::-1]  # Descending.
            final_sets = group_sets[final_positions]
            mru_order = _stable_order(final_sets, self.config.num_sets)
            rows = final_sets[mru_order]
            row_first = _run_firsts(rows)
            depth = np.arange(len(rows), dtype=np.int64)
            depth -= np.maximum.accumulate(np.where(row_first, depth, 0))
            keep = depth < ways
            self._stack[rows[keep], depth[keep]] = group_lines[
                final_positions[mru_order[keep]]
            ]

        # Scatter the query results back to program order.
        if order is not None:
            in_order = np.empty(m, dtype=bool)
            in_order[order] = hits
            hits = in_order
        misses = np.zeros(n, dtype=bool)
        misses[runs.heads] = ~hits[n_virtual:]
        self.stats.accesses += n
        self.stats.misses += int(misses.sum())
        return misses

    def _small_ways_hits(
        self,
        group_lines: np.ndarray,
        new_group: np.ndarray,
        previous_same: np.ndarray,
        ways: int,
    ) -> np.ndarray:
        """Hit mask via the "last A distinct lines" pointer recurrence.

        An access hits iff its line is among the A most recently used
        distinct lines of its set, i.e. iff its previous occurrence is
        no older than the last access of the A-th MRU distinct line.
        That threshold is found by chasing ``different_previous``
        pointers (largest earlier position holding a different line —
        one run-start gather, no loop) A-1 times; a chased candidate
        whose line is already collected is jumped again (masked, and
        rare: consecutive chain entries always differ, so jumps only
        trigger on re-interleavings).  Falls back to the exact
        stack-distance engine if a pathological stream exhausts the
        jump budget.
        """
        m = len(group_lines)
        positions = np.arange(m, dtype=np.int64)
        # Largest earlier same-group position with a *different* line:
        # one before the run start (runs = consecutive equal lines).
        run_first = new_group.copy()
        run_first[1:] |= group_lines[1:] != group_lines[:-1]
        run_start = np.maximum.accumulate(np.where(run_first, positions, 0))
        group_start = np.maximum.accumulate(np.where(new_group, positions, 0))
        different_previous = np.where(run_start > group_start, run_start - 1, -1)

        chain = np.where(new_group, -1, positions - 1)
        chain_lines = np.full((ways - 1, m), -2, dtype=np.int64)
        passes = 0
        for rank in range(1, ways):
            chain_lines[rank - 1] = np.where(
                chain >= 0, group_lines[np.maximum(chain, 0)], -2
            )
            candidate = np.where(
                chain >= 0, different_previous[np.maximum(chain, 0)], -1
            )
            while True:
                live = candidate >= 0
                duplicate = np.zeros(m, dtype=bool)
                candidate_lines = group_lines[np.maximum(candidate, 0)]
                for earlier in range(rank):
                    duplicate |= live & (
                        candidate_lines == chain_lines[earlier]
                    )
                if not duplicate.any():
                    break
                passes += 1
                if passes > _MAX_JUMP_PASSES:
                    return _stack_distances(previous_same, ways) < ways
                candidate[duplicate] = different_previous[
                    np.maximum(candidate[duplicate], 0)
                ]
            chain = candidate
        # `chain` is now the last access of the A-th MRU distinct line
        # (-1 when fewer than A distinct lines exist): hit iff the
        # line's previous occurrence is at least that recent.
        return (previous_same >= 0) & (previous_same >= chain)

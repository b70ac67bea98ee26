"""Differential properties of the cache and counter-scan engines.

``SetAssociativeCache.simulate`` resolves only run heads, hits any reuse
whose gap is below the associativity without counting, and counts
exact stack distances blockwise for the rest;
``_saturating_counter_states`` scans runs of equal updates instead of
single events.  These properties replay the scalar specifications and
demand the same bits.  Cache streams are built from the shapes that
sit on those shortcuts' edges: a cyclic scan one line longer than the
ways, a hot set that fits exactly, phase flips between two working
sets, a line reused after exactly ``ways - 1``, ``ways`` or ``ways + 1``
other lines, single-line streams and runs of one repeated address,
over cold and warm starts.  Counter streams are built from long runs
of one delta, zero deltas, both saturation bounds and 3-bit ranges.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch import CacheConfig, SetAssociativeCache
from repro.uarch import cache as cache_module
from repro.uarch.branch_predictors import _saturating_counter_states

_LINE = 4


@st.composite
def segments(draw, ways: int, sets: int):
    """Line ids of one stream segment, all in one set or spread over all."""
    home = draw(st.integers(0, sets - 1))
    spread = draw(st.booleans())

    def line(k: int) -> int:
        return k * sets + (k % sets if spread else home)

    shape = draw(
        st.sampled_from(["scan", "hot", "flip", "gap", "single", "pool"])
    )
    base = draw(st.integers(0, 3)) * 1000
    if shape == "scan":  # ways + 1 lines cycled: every reuse misses.
        rounds = draw(st.integers(1, 4))
        return [line(base + k) for _ in range(rounds) for k in range(ways + 1)]
    if shape == "hot":  # exactly `ways` lines: every reuse hits.
        order = draw(
            st.lists(st.integers(0, ways - 1), min_size=1, max_size=300)
        )
        return [line(base + k) for k in list(range(ways)) + order]
    if shape == "flip":  # two working sets, alternating phases.
        width = draw(st.integers(1, 2 * ways + 2))
        phase = draw(st.integers(1, 300))
        flips = draw(st.integers(2, 4))
        return [
            line(base + (f % 2) * 500 + k % width)
            for f in range(flips)
            for k in range(phase)
        ]
    if shape == "gap":  # one line reused after ways - 1, ways or ways + 1.
        others = ways + draw(st.integers(-1, 1))
        between = [line(base + 1 + k) for k in range(others)]
        return [line(base)] + between + [line(base)]
    if shape == "single":
        return [line(base)] * draw(st.integers(1, 40))
    pool = draw(st.integers(1, 3 * ways + 3))
    return [
        line(base + k)
        for k in draw(st.lists(st.integers(0, pool - 1), min_size=1, max_size=300))
    ]


@st.composite
def cache_cases(draw):
    ways = draw(st.sampled_from([1, 2, 3, 8, 9, 64, 128]))
    sets = draw(st.sampled_from([1, 2, 4]))
    streams = []
    for _ in range(draw(st.integers(1, 2))):  # two streams = warm start
        lines = []
        for _ in range(draw(st.integers(1, 4))):
            lines += draw(segments(ways, sets))
        repeats = draw(
            st.lists(st.integers(1, 3), min_size=len(lines), max_size=len(lines))
        )
        addresses = np.repeat(np.array(lines, dtype=np.int64), repeats) * _LINE
        addresses += draw(st.integers(0, _LINE - 1))
        streams.append(addresses)
    return ways, sets, streams


class TestCacheMatchesReference:

    @settings(max_examples=150, deadline=None)
    @given(
        case=cache_cases(),
        budget=st.sampled_from([1 << 16, 40]),
        jump_passes=st.sampled_from([96, 0]),
    )
    def test_masks_stats_and_stacks(self, case, budget, jump_passes):
        ways, sets, streams = case
        config = CacheConfig("C", sets * ways * _LINE, _LINE, ways)
        batch = SetAssociativeCache(config)
        reference = SetAssociativeCache(config)
        with mock.patch.object(cache_module, "_ELEMENT_BUDGET", budget), \
                mock.patch.object(cache_module, "_MAX_JUMP_PASSES", jump_passes):
            for addresses in streams:
                expected = reference.simulate_reference(addresses)
                actual = batch.simulate(addresses)
                assert actual.tolist() == expected.tolist()
                assert batch.stats == reference.stats
                assert np.array_equal(batch._stack, reference._stack)


def _counter_loop(table, cells, deltas, low, high):
    before = []
    for cell, delta in zip(cells.tolist(), deltas.tolist()):
        before.append(int(table[cell]))
        table[cell] = min(high, max(low, int(table[cell]) + delta))
    return before


@st.composite
def counter_cases(draw):
    low, high = draw(st.sampled_from([(0, 3), (0, 7), (0, 1), (-2, 5)]))
    size = draw(st.sampled_from([1, 4, 64, 70_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(low, high + 1, size=size).astype(np.int8)
    used = rng.integers(0, size, size=draw(st.integers(1, 6)))
    cells, deltas = [], []
    for _ in range(draw(st.integers(1, 30))):
        run = draw(st.integers(1, 40))
        cells += [int(used[draw(st.integers(0, len(used) - 1))])] * run
        deltas += [draw(st.sampled_from([-3, -1, 0, 0, 1, 2]))] * run
    if draw(st.booleans()):  # interleave the runs of different cells
        order = rng.permutation(len(cells))
        cells = [cells[k] for k in order]
        deltas = [deltas[k] for k in order]
    return table, np.array(cells, dtype=np.int64), np.array(deltas), low, high


class TestCounterScanMatchesLoop:

    @settings(max_examples=200, deadline=None)
    @given(case=counter_cases())
    def test_states_and_table(self, case):
        table, cells, deltas, low, high = case
        expected_table = table.copy()
        expected = _counter_loop(expected_table, cells, deltas, low, high)
        actual = _saturating_counter_states(table, cells, deltas, low, high)
        assert actual.tolist() == expected
        assert np.array_equal(table, expected_table)

"""Differential properties of the cache, event and counter-scan engines.

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
with line ids near zero or spanning more than 2**16 values, over cold
and warm starts.  Counter streams are built from long runs of one
delta, zero deltas, both saturation bounds and 3-bit ranges.

The shared pass (one :class:`~repro.uarch.events.EventStreams` handed
to two machines' ``simulate_events`` calls, one
:class:`~repro.uarch.cache.LineRuns` handed to two caches) must equal
independent calls: event arrays, every counter and every final
recency stack.  Machine pairs draw equal and different page sizes and
equal and different TLB entry counts; traces draw memoryless and
single-access streams and page ids spanning more than 2**16 values.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import TRACE_DTYPE, OpClass
from repro.trace import Trace
from repro.uarch import (
    EV56_CONFIG, EV67_CONFIG, CacheConfig, SetAssociativeCache,
)
from repro.uarch import cache as cache_module
from repro.uarch.branch_predictors import _saturating_counter_states
from repro.uarch.cache import LineRuns
from repro.uarch.events import EventStreams, simulate_events

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
    base = draw(st.sampled_from([0, 1000, 2000, 3000, 1 << 17, 1 << 40]))
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
def cache_cases(draw, ways=st.sampled_from([1, 2, 3, 8, 9, 64, 128]),
                starts=st.integers(1, 2)):
    ways = draw(ways)
    sets = draw(st.sampled_from([1, 2, 4]))
    streams = []
    for _ in range(draw(starts)):  # two or more streams = warm starts
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

    @settings(max_examples=200, deadline=None)
    @given(
        # Direct-mapped warm starts get their own draws: the level
        # rebuilds its state from each set's last access.
        case=st.one_of(
            cache_cases(),
            cache_cases(ways=st.just(1), starts=st.integers(2, 3)),
        ),
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

    @settings(max_examples=100, deadline=None)
    @given(
        case=cache_cases(starts=st.just(1)),
        other_ways=st.sampled_from([1, 2, 8, 9, 64, 128, None]),
        budget=st.sampled_from([1 << 16, 40]),
    )
    def test_shared_runs_match_independent_caches(
        self, case, other_ways, budget
    ):
        """Two fresh caches over one LineRuns (the second may have the
        same ways) equal two caches that each cut their own runs."""
        ways, sets, (addresses,) = case
        other_ways = ways if other_ways is None else other_ways
        runs = LineRuns(addresses, _LINE)
        with mock.patch.object(cache_module, "_ELEMENT_BUDGET", budget):
            for assoc in (ways, other_ways):
                config = CacheConfig("C", sets * assoc * _LINE, _LINE, assoc)
                shared = SetAssociativeCache(config)
                alone = SetAssociativeCache(config)
                assert (
                    shared.simulate_runs(runs).tolist()
                    == alone.simulate(addresses).tolist()
                )
                assert shared.stats == alone.stats
                assert np.array_equal(shared._stack, alone._stack)


#: Page sizes drawn for the machine pairs (the Alpha pages are 8 KB).
_PAGES = [8 << 10, 4 << 10, 64 << 10]


@st.composite
def machine_pairs(draw):
    """EV56/EV67 variants: TLB entry counts and page sizes drawn equal or
    different; either machine may come first."""
    first = replace(
        EV56_CONFIG, tlb_entries=draw(st.sampled_from([4, 64, 128])),
        tlb_page_bytes=draw(st.sampled_from(_PAGES)),
    )
    same_page = draw(st.booleans())
    page = first.tlb_page_bytes if same_page else draw(st.sampled_from(_PAGES))
    count = draw(st.sampled_from([first.tlb_entries, 4, 64, 128]))
    second = replace(EV67_CONFIG, tlb_entries=count, tlb_page_bytes=page)
    return (first, second) if draw(st.booleans()) else (second, first)


@st.composite
def event_traces(draw):
    """Traces of 1-40 or 300-700 instructions over a pool of data pages.

    Memory is absent, a single access, or a share of the stream; data
    pages are drawn at random from the pool or cycled through it, so
    pools of 65-200 pages put reuses past the gap filter of a 64- and a
    128-entry TLB, and far bases make page (and line) ids span more
    than 2**16 values.
    """
    length = draw(st.one_of(st.integers(1, 40), st.integers(300, 700)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    memory = draw(st.sampled_from(["none", "single", "some", "some"]))
    classes = rng.choice(
        [OpClass.INT_ALU, OpClass.BRANCH, OpClass.LOAD, OpClass.STORE],
        size=length, p=[0.3, 0.2, 0.35, 0.15],
    ).astype(np.uint8)
    if memory != "some":
        classes[(classes == OpClass.LOAD) | (classes == OpClass.STORE)] = (
            OpClass.INT_ALU
        )
        if memory == "single":
            classes[rng.integers(length)] = OpClass.LOAD
    is_memory = (classes == OpClass.LOAD) | (classes == OpClass.STORE)
    pool = draw(st.one_of(st.integers(1, 300), st.integers(65, 200)))
    if draw(st.booleans()):
        picks = rng.integers(0, pool, size=length)
    else:
        picks = np.arange(length) % pool
    base = draw(st.sampled_from([1, 1 << 20, 1 << 31]))
    pages = base + picks * draw(st.sampled_from([1, 3, 1 << 5]))
    if draw(st.booleans()):  # one far page: the span passes 2**16
        pages[rng.integers(length)] += 1 << 17
    offsets = rng.integers(0, 1 << 10, size=length) * 8
    pcs = 0x1000 + 4 * rng.integers(0, 64, size=length)
    if draw(st.booleans()):
        pcs[rng.integers(length)] += 1 << 30
    columns = {field: np.zeros(length, TRACE_DTYPE[field])
               for field in TRACE_DTYPE.names}
    columns["pc"] = pcs.astype(np.uint64)
    columns["opclass"] = classes
    columns["mem_addr"] = np.where(
        is_memory, pages * (8 << 10) + offsets, 0
    ).astype(np.uint64)
    columns["taken"] = (
        (classes == OpClass.BRANCH) & (rng.random(length) < 0.6)
    ).astype(np.uint8)
    return Trace.from_columns(columns, name="property/events")


@contextmanager
def recorded_caches():
    """Every cache (and TLB) built inside, in construction order."""
    made = []
    original = SetAssociativeCache.__init__

    def init(self, config):
        original(self, config)
        made.append(self)

    with mock.patch.object(SetAssociativeCache, "__init__", init):
        yield made


def _events_and_stacks(trace, machines, engine="batch", shared=False):
    streams = EventStreams(trace, machines) if shared else None
    with recorded_caches() as caches:
        events = [
            simulate_events(trace, machine, engine=engine, streams=streams)
            for machine in machines
        ]
    return events, [cache._stack for cache in caches]


class TestSharedEventPass:

    @settings(max_examples=120, deadline=None)
    @given(
        trace=event_traces(),
        machines=machine_pairs(),
        budget=st.sampled_from([1 << 16, 40]),
    )
    def test_shared_pass_equals_independent_calls(
        self, trace, machines, budget
    ):
        with mock.patch.object(cache_module, "_ELEMENT_BUDGET", budget):
            shared, shared_stacks = _events_and_stacks(
                trace, machines, shared=True
            )
            for engine in ("batch", "reference"):
                alone, alone_stacks = _events_and_stacks(
                    trace, machines, engine=engine
                )
                for got, expected in zip(shared, alone):
                    for name in ("fetch_latency", "memory_latency",
                                 "mispredict"):
                        assert np.array_equal(
                            getattr(got, name), getattr(expected, name)
                        ), name
                    for name in ("l1i", "l1d", "l2", "tlb", "predictor"):
                        assert getattr(got, name) == getattr(
                            expected, name
                        ), name
                assert len(shared_stacks) == len(alone_stacks) == 8
                for got, expected in zip(shared_stacks, alone_stacks):
                    assert np.array_equal(got, expected)


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

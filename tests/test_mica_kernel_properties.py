"""Golden MICA vectors and differential properties of the MICA kernels.

One-shot ``characterize`` runs three kernels that take shortcuts a
scalar reading of Table II does not: producer recovery merges
radix-grouped reads and writes with one binary search, the ILP walk
starts each window size from the depths of the largest walked size
dividing it, and the working-set kernel counts blocks in a presence
table (or a sort) and derives pages from the unique blocks.  These
properties replay the executable specifications — or ``np.unique`` —
and demand the same bits, on streams built to sit on those shortcuts'
edges: few registers (an instruction reading the register it writes),
window-size sets that nest, do not divide, mix, repeat or come
unsorted, traces shorter than a window, value spans above the dense
budget, empty data streams, pages finer than blocks and single
addresses.  The golden fixture pins the 47-vectors of the test
population; drift there is a semantic change and needs a
``CHAR_CACHE_VERSION`` bump and a fixture refresh.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import FP_ZERO_REG, INT_ZERO_REG, NO_REG, OpClass, TRACE_DTYPE
from repro.mica import (
    characterize,
    producer_indices,
    segmented_characterize,
    working_set,
)
from repro.mica.ilp import (
    _window_critical_paths_reference,
    producer_indices_reference,
    window_cycle_counts,
)
from repro.perf.cache import CHAR_CACHE_VERSION
from repro.synth import WorkloadProfile, generate_trace
from repro.trace import Trace

#: The module, not the function ``repro.mica`` re-exports under its name.
working_set_module = importlib.import_module("repro.mica.working_set")

GOLDEN_PATH = Path(__file__).parent / "data" / "mica_golden.json"

_SETTINGS = settings(max_examples=40, deadline=None)

#: Few live registers (so reads often meet their own instruction's
#: write), both hardwired zeros and the empty slot.
_REGISTERS = np.array([1, 2, 3, 40, INT_ZERO_REG, FP_ZERO_REG, NO_REG])


def _trace(
    seed: int,
    length: int,
    memory_fraction: float = 0.4,
    address_span: int = 1 << 12,
) -> Trace:
    """Random columns: registers from :data:`_REGISTERS`, addresses
    from ``[0x1000, 0x1000 + address_span)``."""
    rng = np.random.default_rng(seed)
    data = np.zeros(length, dtype=TRACE_DTYPE)
    for field in ("src1", "src2", "dst"):
        data[field] = rng.choice(_REGISTERS, size=length)
    memory = rng.random(length) < memory_fraction
    data["opclass"] = np.where(
        memory, int(OpClass.LOAD), int(OpClass.INT_ALU)
    )
    data["mem_addr"] = np.where(
        memory,
        np.uint64(0x1000)
        + rng.integers(0, address_span, size=length, dtype=np.uint64),
        np.uint64(0),
    )
    data["pc"] = 0x1000 + 4 * rng.integers(0, 64, size=length)
    return Trace(data, name=f"kernel/{seed}")


class TestGoldenMicaVectors:
    """Regression fixtures for the eight-benchmark test population.

    Stored as ``float.hex`` strings, so the comparison is bit-for-bit.
    """

    def test_vectors_match_goldens(self):
        from repro.workloads import get_benchmark

        payload = json.loads(GOLDEN_PATH.read_text())
        assert payload["vectors"], "golden fixture must not be empty"
        for name, expected in payload["vectors"].items():
            trace = generate_trace(
                get_benchmark(name).profile, payload["trace_length"],
                seed=payload["seed"],
            )
            vector = characterize(trace)
            assert [float(v).hex() for v in vector.values] == expected, (
                f"MICA vector drifted for {name}"
            )

    def test_goldens_follow_the_cache_version(self):
        payload = json.loads(GOLDEN_PATH.read_text())
        assert payload["char_cache_version"] == CHAR_CACHE_VERSION

    def test_goldens_cover_the_test_population(self, small_population):
        payload = json.loads(GOLDEN_PATH.read_text())
        assert set(payload["vectors"]) == {
            benchmark.full_name for benchmark in small_population
        }


class TestProducerIndices:
    @_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(0, 300))
    def test_matches_the_per_register_specification(self, seed, length):
        trace = _trace(seed, length)
        for fast, spec in zip(
            producer_indices(trace), producer_indices_reference(trace)
        ):
            assert np.array_equal(fast, spec)


#: Window-size sets: nesting, coprime, mixed divisibility, repeated and
#: unsorted entries.
_SIZE_SETS = st.one_of(
    st.just([32, 64, 128, 256]),
    st.just([3, 5, 7]),
    st.just([4, 6, 12, 24]),
    st.permutations([1, 2, 4, 8, 8, 3, 6]),
    st.lists(st.integers(1, 40), min_size=1, max_size=5),
)


@st.composite
def producer_streams(draw):
    """Producers ``p[i] < i`` (or none), mostly near, sometimes far."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(1, 400))
    positions = np.arange(length)

    def one_slot():
        near = positions - rng.integers(1, 9, size=length)
        far = np.floor(rng.random(length) * positions).astype(np.int64)
        producer = np.where(rng.random(length) < 0.7, near, far)
        producer[rng.random(length) < 0.15] = -1
        producer[producer >= positions] = -1  # Position 0 has none.
        return np.maximum(producer, -1).astype(np.int64)

    return one_slot(), one_slot()


class TestWindowCycleCounts:
    @_SETTINGS
    @given(producer_streams(), _SIZE_SETS)
    def test_matches_the_scalar_walk(self, producers, sizes):
        expected = [
            _window_critical_paths_reference(*producers, size)
            for size in sizes
        ]
        assert window_cycle_counts(*producers, sizes) == expected

    @_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 31))
    def test_traces_shorter_than_a_window(self, seed, length):
        producers = producer_indices(_trace(seed, length))
        sizes = [32, 64, 128, 256]
        expected = [
            _window_critical_paths_reference(*producers, size)
            for size in sizes
        ]
        assert window_cycle_counts(*producers, sizes) == expected


def _unique_oracle(trace: Trace, block_bytes: int, page_bytes: int):
    data = trace.mem_addr[trace.memory_mask]
    return [
        len(np.unique(stream // np.uint64(granularity)))
        for stream in (data, trace.pc)
        for granularity in (block_bytes, page_bytes)
    ]


_GRANULARITIES = st.sampled_from([1, 8, 32, 64, 4096])


class TestWorkingSet:
    @_SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.sampled_from([0.0, 0.01, 0.5]),
        st.sampled_from([1, 40, 1 << 16, 1 << 40]),
        _GRANULARITIES,
        _GRANULARITIES,
        st.sampled_from([4, 1 << 22]),
    )
    def test_matches_unique(
        self, seed, length, memory_fraction, span, block, page, budget
    ):
        trace = _trace(seed, length, memory_fraction, span)
        with mock.patch.object(
            working_set_module, "_DENSE_UNIQUE_CELLS", budget
        ):
            counts = working_set(trace, block, page)
        assert counts.tolist() == _unique_oracle(trace, block, page)

    @_SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.sampled_from([1 << 12, 1 << 62]),
        _GRANULARITIES,
        _GRANULARITIES,
        st.sampled_from([4, 1 << 22]),
    )
    def test_interval_keyed_counts_match_unique(
        self, seed, count, span, block, page, budget
    ):
        """The segmented engine's path, dense, packed and lexsorted."""
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, span, size=50 * count, dtype=np.uint64)
        addresses[::7] = addresses[0]  # Repeats across intervals.
        interval_ids = np.sort(rng.integers(0, count, size=len(addresses)))
        with mock.patch.object(
            working_set_module, "_DENSE_UNIQUE_CELLS", budget
        ):
            blocks, pages = working_set_module._block_page_counts(
                addresses, block, page, interval_ids, count
            )
        for interval in range(count):
            chunk = addresses[interval_ids == interval]
            assert blocks[interval] == len(np.unique(chunk // np.uint64(block)))
            assert pages[interval] == len(np.unique(chunk // np.uint64(page)))

    def test_a_single_address(self):
        trace = _trace(0, 1, memory_fraction=1.0)
        assert working_set(trace).tolist() == [1.0, 1.0, 1.0, 1.0]


class TestCrossPathOracle:
    """One-shot ``characterize`` is one interval of the segmented engine."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16), st.integers(40, 600))
    def test_characterize_is_one_segmented_interval(self, seed, length):
        trace = generate_trace(
            WorkloadProfile(name=f"kernel/cross/{seed}"), length, seed=seed
        )
        np.testing.assert_array_equal(
            characterize(trace).values,
            segmented_characterize(trace, len(trace))[0],
        )

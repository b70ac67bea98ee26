"""Run-compressed basic-block vectors against instruction-wise counting.

:func:`repro.phases.basic_block_vectors` counts whole runs of
consecutive instructions in one code region.  This differential
property replays the historical form, which searched every
instruction's region with ``np.unique`` and counted it with one
``np.add.at``, on random PCs (scattered, run-heavy, one region, and
addresses with the top bit set) and every interval from one
instruction up to half the trace, and demands the same bits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa import TRACE_DTYPE
from repro.phases.intervals import basic_block_vectors, interval_count
from repro.trace import Trace


def reference_bbv(trace: Trace, interval: int, region_bytes: int):
    """Every instruction searched for its region and counted alone."""
    shift = region_bytes.bit_length() - 1
    count = interval_count(trace, interval)
    regions = (trace.pc[: count * interval] >> np.uint64(shift)).astype(
        np.int64
    )
    unique_regions, region_index = np.unique(regions, return_inverse=True)
    vectors = np.zeros((count, len(unique_regions)))
    interval_index = np.repeat(np.arange(count), interval)
    np.add.at(vectors, (interval_index, region_index), 1.0)
    return vectors / interval


def _trace(pcs) -> Trace:
    data = np.zeros(len(pcs), dtype=TRACE_DTYPE)
    data["pc"] = pcs
    return Trace(data)


@st.composite
def program_counters(draw):
    """PC streams: scattered, run-heavy (blocks of sequential fetch),
    a single region, or near the top of the address space."""
    n = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["scattered", "runs", "single", "high"]))
    if kind == "scattered":
        return rng.integers(0, 1 << 16, size=n).astype(np.uint64) * 4
    if kind == "single":
        return np.full(n, 0x1200, dtype=np.uint64) + rng.integers(
            0, 32, size=n
        ).astype(np.uint64) * 4
    lengths = rng.integers(1, 40, size=n)
    starts = rng.integers(0, 1 << 12, size=n).astype(np.uint64) * 64
    pcs = np.concatenate([
        start + np.arange(length, dtype=np.uint64) * 4
        for start, length in zip(starts, lengths)
    ])[:n]
    if kind == "high":
        pcs += np.uint64(0xFFFF_FFFF_FFF0_0000)
    return pcs


class TestRunCompressedBBVs:

    @settings(max_examples=150, deadline=None)
    @example(pcs=np.array([0, 0, 4, 4096], dtype=np.uint64),
             interval_fraction=0.0, region_bytes=128)
    @given(
        pcs=program_counters(),
        interval_fraction=st.floats(0.0, 1.0),
        region_bytes=st.sampled_from([4, 64, 128, 4096]),
    )
    def test_matches_instruction_wise_counting(
        self, pcs, interval_fraction, region_bytes
    ):
        trace = _trace(pcs)
        interval = 1 + int(interval_fraction * (len(trace) // 2 - 1))
        expected = reference_bbv(trace, interval, region_bytes)
        actual = basic_block_vectors(trace, interval, region_bytes)
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()

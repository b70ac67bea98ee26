"""Per-interval feature extraction for phase analysis.

A trace is split into fixed-length intervals; each interval is
summarized by a cheap feature vector:

* **basic-block vectors** (BBVs, the SimPoint signature): the relative
  execution frequency of each static code region (PC blocks), capturing
  *what code* ran;
* **instruction-mix vectors**: the six Table II mix fractions per
  interval, a behavior-level alternative.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import AnalysisError
from ..isa import OpClass
from ..trace import Trace

#: Code-region granularity for BBVs, in bytes of code.
BBV_REGION_BYTES = 128


def interval_count(trace: Trace, interval: int) -> int:
    """Number of full intervals — the phase layer's shared validation.

    Every per-interval feature extractor (:func:`split_intervals`,
    :func:`basic_block_vectors`, :func:`interval_mix`, and the
    segmented timeline engine) funnels through this check, so a bad
    interval always surfaces as the same :class:`AnalysisError` rather
    than a ``ZeroDivisionError`` from ``len(trace) // interval``.

    Raises:
        AnalysisError: on ``interval <= 0`` or a trace yielding fewer
            than two intervals.
    """
    if interval <= 0:
        raise AnalysisError(f"interval must be positive, got {interval}")
    count = len(trace) // interval
    if count < 2:
        raise AnalysisError(
            f"trace too short: {len(trace)} instructions give "
            f"{count} interval(s) of {interval}"
        )
    return count


def split_intervals(trace: Trace, interval: int) -> List[Trace]:
    """Consecutive fixed-size intervals (trailing partial dropped).

    Raises:
        AnalysisError: on a non-positive interval or a trace yielding
            fewer than two intervals.
    """
    count = interval_count(trace, interval)
    return [
        trace[start : start + interval]
        for start in range(0, count * interval, interval)
    ]


def basic_block_vectors(
    trace: Trace, interval: int, region_bytes: int = BBV_REGION_BYTES
) -> np.ndarray:
    """SimPoint-style code signatures, one row per interval.

    Each column is a static code region of ``region_bytes`` (ascending
    addresses); entries are the fraction of the interval's instructions
    fetched from that region.  Rows sum to one.  Consecutive
    instructions in one region form a *run* (runs also break at
    interval starts): only run heads are searched for their region, and
    one ``bincount`` adds each run's length to its cell.  The counts
    are exact integers, so the bits match counting each instruction.

    Raises:
        AnalysisError: on a non-power-of-two region size, a non-positive
            interval, or a trace yielding fewer than two intervals.
    """
    if region_bytes <= 0 or region_bytes & (region_bytes - 1):
        raise AnalysisError("region_bytes must be a positive power of two")
    shift = region_bytes.bit_length() - 1
    count = interval_count(trace, interval)
    total = count * interval
    regions = trace.pc[:total] >> np.uint64(shift)
    heads = np.ones(total, dtype=bool)
    np.not_equal(regions[1:], regions[:-1], out=heads[1:])
    heads[::interval] = True
    starts = np.flatnonzero(heads)
    unique_regions, region_index = np.unique(
        regions[starts], return_inverse=True
    )
    cells = starts // interval * len(unique_regions) + region_index
    vectors = np.bincount(
        cells, weights=np.diff(starts, append=total),
        minlength=count * len(unique_regions),
    )
    return vectors.reshape(count, len(unique_regions)) / interval


def interval_mix(trace: Trace, interval: int) -> np.ndarray:
    """Instruction-mix fractions per interval (one row each).

    Columns follow Table II order: loads, stores, branches, arithmetic,
    integer multiplies, FP.

    Raises:
        AnalysisError: on a non-positive interval or a trace yielding
            fewer than two intervals.
    """
    count = interval_count(trace, interval)
    classes = trace.opclass[: count * interval].astype(np.int64)
    interval_index = np.repeat(np.arange(count), interval)
    order = [
        int(OpClass.LOAD),
        int(OpClass.STORE),
        int(OpClass.BRANCH),
        int(OpClass.INT_ALU),
        int(OpClass.INT_MUL),
        int(OpClass.FP),
    ]
    vectors = np.zeros((count, len(order)))
    for column, opclass in enumerate(order):
        mask = classes == opclass
        np.add.at(vectors[:, column], interval_index[mask], 1.0)
    return vectors / interval

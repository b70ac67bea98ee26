"""Working-set characteristics (Table II, characteristics 20-23).

The paper counts the unique 32-byte blocks and unique 4 KB pages touched
by the data stream and by the instruction stream.  The counts are raw
(not normalized by trace length), exactly as in the paper; experiments
normalize across benchmarks afterwards.

Each stream is counted by one unique-value kernel, shared with the
segmented (per-interval) engine, which keys values by interval id:
a dense presence table where the value span fits
:data:`_DENSE_UNIQUE_CELLS` (every instruction stream, most data
streams), a sort otherwise.  Pages are at least as coarse as blocks in
every configuration the paper uses, so the page count comes from the
sorted unique blocks, not from a second pass over the stream.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..trace import Trace

#: Presence-table budget for the dense unique-value path (cells).
_DENSE_UNIQUE_CELLS = 1 << 22


def _granularity_shift(granularity: int) -> np.uint64:
    shift = int(granularity).bit_length() - 1
    if granularity != (1 << shift):
        raise CharacterizationError(
            f"granularity must be a power of two, got {granularity}"
        )
    return np.uint64(shift)


def _unique_pairs(
    values: np.ndarray, interval_ids: Optional[np.ndarray], count: int
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Distinct ``(interval, value)`` pairs, sorted by interval then value.

    ``interval_ids=None`` means one interval (``count == 1``), and the
    returned ids are then ``None`` too.  Cheapest applicable strategy
    first: a dense (interval x value span) presence table; else a sort
    of the values alone (one interval), of packed ``(interval, value -
    low)`` keys when they fit 63 bits, or a two-key ``lexsort``.
    """
    if len(values) == 0:
        empty = np.empty(0, dtype=np.int64)
        return (None if interval_ids is None else empty), values
    low = values.min()
    offsets = values - low
    span = int(offsets.max()) + 1
    if span * count <= _DENSE_UNIQUE_CELLS:
        present = np.zeros(span * count, dtype=bool)
        cells = offsets.astype(np.int64)
        if interval_ids is not None:
            cells += interval_ids * span
        present[cells] = True
        cells = np.flatnonzero(present)
        if interval_ids is None:
            return None, cells.astype(values.dtype) + low
        return cells // span, (cells % span).astype(values.dtype) + low
    if interval_ids is None:
        ordered = np.sort(values)
        first = np.ones(len(ordered), dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        return None, ordered[first]
    value_bits = (span - 1).bit_length()
    if value_bits + max(1, (count - 1).bit_length()) <= 63:
        packed = np.sort(
            (interval_ids << np.int64(value_bits)) | offsets.astype(np.int64)
        )
        first = np.ones(len(packed), dtype=bool)
        first[1:] = packed[1:] != packed[:-1]
        packed = packed[first]
        unique_values = (packed & np.int64((1 << value_bits) - 1)).astype(
            values.dtype
        )
        return packed >> np.int64(value_bits), unique_values + low
    order = np.lexsort((values, interval_ids))
    sorted_values = values[order]
    sorted_ids = interval_ids[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = (sorted_ids[1:] != sorted_ids[:-1]) | (
        sorted_values[1:] != sorted_values[:-1]
    )
    return sorted_ids[first], sorted_values[first]


def _pair_counts(
    interval_ids: Optional[np.ndarray], values: np.ndarray, count: int
) -> np.ndarray:
    """Distinct values per interval of ``(interval, value)``-sorted pairs."""
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    if interval_ids is None:
        return np.array([np.count_nonzero(first)])
    first[1:] |= interval_ids[1:] != interval_ids[:-1]
    return np.bincount(interval_ids[first], minlength=count)


def _unique_counts(
    addresses: np.ndarray, granularity: int, interval_ids, count: int
) -> np.ndarray:
    """Unique ``granularity``-byte units of one address stream, per interval."""
    units = addresses >> _granularity_shift(granularity)
    return _pair_counts(*_unique_pairs(units, interval_ids, count), count)


def _block_page_counts(
    addresses: np.ndarray,
    block_bytes: int,
    page_bytes: int,
    interval_ids: Optional[np.ndarray] = None,
    count: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Unique blocks and unique pages of one address stream, per interval.

    Returns:
        ``(blocks, pages)`` int64 arrays of length ``count``.

    Raises:
        CharacterizationError: for a non-power-of-two granularity.
    """
    block_shift = _granularity_shift(block_bytes)
    page_shift = _granularity_shift(page_bytes)
    if page_shift < block_shift:
        return (
            _unique_counts(addresses, block_bytes, interval_ids, count),
            _unique_counts(addresses, page_bytes, interval_ids, count),
        )
    ids, blocks = _unique_pairs(addresses >> block_shift, interval_ids, count)
    return (
        _pair_counts(ids, blocks, count),
        _pair_counts(ids, blocks >> (page_shift - block_shift), count),
    )


def working_set(
    trace: Trace, block_bytes: int = 32, page_bytes: int = 4096
) -> np.ndarray:
    """The four working-set characteristics, in Table II order.

    Returns:
        ``[D blocks, D pages, I blocks, I pages]`` — unique 32-byte
        blocks and 4 KB pages touched by data accesses and by
        instruction fetches.

    Raises:
        CharacterizationError: for an empty trace or non-power-of-two
            granularities.
    """
    if len(trace) == 0:
        raise CharacterizationError(
            "cannot compute working set of an empty trace"
        )
    data = _block_page_counts(
        trace.mem_addr[trace.memory_mask], block_bytes, page_bytes
    )
    instructions = _block_page_counts(trace.pc, block_bytes, page_bytes)
    return np.concatenate(data + instructions).astype(float)

"""Segmented (per-interval) MICA characterization engine.

:func:`segmented_characterize` computes Table II characteristic
*sections* for every fixed-length interval of a trace in one pass over
the full column arrays — the within-run analogue of
:func:`repro.mica.characterize`, which summarizes a whole program.  Row
``i`` of the result is bit-identical to
``characterize(trace[i * interval : (i + 1) * interval], config).values``
for every requested section, without ever slicing the trace: the
per-chunk loop that used to back :func:`repro.phases.mica_timeline` is
retained there as ``mica_timeline_reference``, the executable
specification this engine is pinned against.

The per-chunk semantics that must be reproduced exactly are *state
restarts* at interval boundaries: producer tracking, PPM count tables
and branch histories, stride adjacency, unique-count sets and window
partitions all start cold at the first instruction of each chunk.  Each
analyzer family gets there differently:

* **mix / working set / strides** — pure segmented unique/group counts:
  opclass and address streams are keyed by interval id and reduced with
  ``bincount`` / lexsorted group-boundary counting; stride adjacency
  masks drop pairs that straddle an interval boundary.
* **ILP / register traffic** — :func:`segmented_producer_indices` packs
  the interval id *above* the architected register number in the
  producer key stream, so a write in one interval is invisible to reads
  in the next (exactly a per-chunk producer restart); ILP windows are
  generated per interval (including the short trailing window of each
  chunk when ``interval % W != 0``) and walked offset-major once for
  all intervals and window sizes together.
* **PPM** — the interval id is packed above the existing
  (PC rank, context) keys of the vectorized predictor and the
  global/local history streams are grouped by (interval) and
  (interval, PC), so tables *and* shift registers restart per chunk;
  the escape cascade then runs once over the whole branch stream.

All per-interval values end as exact integer-count ratios divided in
IEEE double precision, which is why bit-for-bit equality with the
per-chunk loop is achievable and asserted
(``tests/test_phases_segmented_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import CharacterizationError
from ..isa import NO_REG, OpClass
from ..isa.registers import FP_ZERO_REG, INT_ZERO_REG, TOTAL_REGS
from ..trace import Trace
from .characteristics import (
    NUM_CHARACTERISTICS,
    category_slices,
    resolve_wanted,
)
from .ilp import NO_PRODUCER
from .ppm import (
    MAX_VECTOR_ORDER,
    VARIANTS,
    _grouped_history,
    _prior_outcome_counts,
    _variant_predictions,
    ppm_predictabilities,
)


def _full_interval_count(trace: Trace, interval: int) -> int:
    """Number of full ``interval``-sized chunks in ``trace``.

    MICA-layer validation for the segmented entry points: the interval
    must be positive and cover the trace at least once.  Distinct from
    :func:`repro.phases.interval_count`, the phase layer's shared
    helper, which raises :class:`~repro.errors.AnalysisError` and
    additionally requires two intervals.

    Raises:
        CharacterizationError: on ``interval <= 0`` or a trace shorter
            than one interval.
    """
    if interval <= 0:
        raise CharacterizationError(
            f"interval must be positive, got {interval}"
        )
    count = len(trace) // interval
    if count < 1:
        raise CharacterizationError(
            f"trace too short: {len(trace)} instructions give no full "
            f"interval of {interval}"
        )
    return count


class _SegmentedContext:
    """Shared per-call state: sliced columns, interval ids, producers.

    Everything here is derived from the leading ``count * interval``
    instructions of the trace (the trailing partial interval is dropped,
    as in :func:`repro.phases.split_intervals`) and computed lazily so
    that a call requesting only cheap sections never pays for producer
    recovery.
    """

    def __init__(self, trace: Trace, interval: int, count: int):
        self.trace = trace
        self.interval = interval
        self.count = count
        self.n = count * interval
        self._cache: Dict[str, object] = {}

    def _cached(self, key: str, compute):
        value = self._cache.get(key)
        if value is None:
            value = compute()
            self._cache[key] = value
        return value

    def column(self, field: str) -> np.ndarray:
        return self._cached(
            f"col:{field}", lambda: getattr(self.trace, field)[: self.n]
        )

    @property
    def interval_index(self) -> np.ndarray:
        """Interval id of every instruction, shape ``(n,)`` int64."""
        return self._cached(
            "interval_index",
            lambda: np.repeat(
                np.arange(self.count, dtype=np.int64), self.interval
            ),
        )

    @property
    def interval_starts(self) -> np.ndarray:
        return self._cached(
            "interval_starts",
            lambda: np.arange(self.count, dtype=np.int64) * self.interval,
        )

    @property
    def producers(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._cached(
            "producers", lambda: segmented_producer_indices(
                self.trace, self.interval, self.count
            )
        )


#: Register liveness lookup: absent slots and the hardwired-zero
#: registers never have a producer.
_LIVE_SOURCE = np.ones(1 << 8, dtype=bool)
_LIVE_SOURCE[[NO_REG, INT_ZERO_REG, FP_ZERO_REG]] = False


def _grouped_order(group_ids: np.ndarray, domain: int) -> np.ndarray:
    """Stable sort order by group id.

    Narrow domains take one radix pass (numpy's stable sort is a radix
    sort for <= 16-bit integers — an order of magnitude faster than the
    64-bit merge sort); wide domains fall back to the merge sort.
    """
    if domain <= (1 << 16):
        return np.argsort(group_ids.astype(np.uint16), kind="stable")
    return np.argsort(group_ids, kind="stable")


def segmented_producer_indices(
    trace: Trace, interval: int, count: "int | None" = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-chunk producer recovery over the whole trace in one pass.

    Equivalent to running :func:`repro.mica.producer_indices` on every
    ``interval``-sized chunk independently, except that the returned
    producer positions are *global* trace indices (a producer and its
    consumer always share an interval, so consumer-minus-producer
    distances match the per-chunk values exactly).  A read whose most
    recent writer lives in an earlier interval has
    :data:`~repro.mica.ilp.NO_PRODUCER`, reproducing the cold register
    state each chunk starts with.

    Both event streams are grouped by the segmented register —
    ``interval_id * TOTAL_REGS + register``, one radix pass over the
    narrow combined domain, never a 64-bit comparison sort — and the
    writes become an ascending ``group * (n + 1) + position`` key
    array.  Each read then finds its producer with one vectorized
    binary search (monotone on both sides, since the reads are grouped
    identically): the write immediately preceding the read's own key,
    provided it belongs to the same group.  An instruction's
    same-register write has exactly the read's key, so
    ``side="right"`` — inserting equal write keys *after* the read —
    keeps it invisible to its own reads.
    """
    if count is None:
        count = _full_interval_count(trace, interval)
    n = count * interval
    src1 = trace.src1[:n]
    src2 = trace.src2[:n]
    dst = trace.dst[:n]
    producer1 = np.full(n, NO_PRODUCER, dtype=np.int64)
    producer2 = np.full(n, NO_PRODUCER, dtype=np.int64)

    writers = np.flatnonzero(dst != NO_REG)
    if len(writers) == 0:
        return producer1, producer2  # No writes: nothing has a producer.
    domain = count * TOTAL_REGS

    write_groups = (writers // interval) * TOTAL_REGS + dst[
        writers
    ].astype(np.int64)
    write_order = _grouped_order(write_groups, domain)
    sorted_writers = writers[write_order]
    sorted_write_groups = write_groups[write_order]
    sorted_keys = sorted_write_groups * (n + 1) + sorted_writers

    for source, producer in ((src1, producer1), (src2, producer2)):
        readers = np.flatnonzero(_LIVE_SOURCE[source])
        if len(readers) == 0:
            continue
        read_groups = (readers // interval) * TOTAL_REGS + source[
            readers
        ].astype(np.int64)
        read_order = _grouped_order(read_groups, domain)
        sorted_readers = readers[read_order]
        sorted_read_groups = read_groups[read_order]
        # One slot's grouped reads are fully key-ascending (the stable
        # sort keeps positions ascending within each group), so the
        # (fewer) writes can be merged into the read stream with one
        # sorted-query binary search, recovering each read's
        # preceding-write slot from the insertion histogram.  An
        # instruction's same-register write shares its own read's key;
        # ``side="right"`` inserts it after, keeping it invisible.
        insertions = np.searchsorted(
            sorted_read_groups * (n + 1) + sorted_readers,
            sorted_keys,
            side="right",
        )
        slot = np.cumsum(
            np.bincount(insertions, minlength=len(readers) + 1)[:-1]
        ) - 1
        valid = slot >= 0
        valid &= (
            sorted_write_groups[np.maximum(slot, 0)] == sorted_read_groups
        )
        found = np.where(
            valid, sorted_writers[np.maximum(slot, 0)], NO_PRODUCER
        )
        producer[sorted_readers] = found
    return producer1, producer2


# -- section engines ------------------------------------------------------


def _segmented_mix(ctx: _SegmentedContext) -> np.ndarray:
    """Per-interval instruction-mix fractions, shape ``(count, 6)``."""
    classes = ctx.column("opclass").astype(np.int64)
    keys = ctx.interval_index * len(OpClass) + classes
    counts = np.bincount(
        keys, minlength=ctx.count * len(OpClass)
    ).reshape(ctx.count, len(OpClass))
    order = [
        int(OpClass.LOAD),
        int(OpClass.STORE),
        int(OpClass.BRANCH),
        int(OpClass.INT_ALU),
        int(OpClass.INT_MUL),
        int(OpClass.FP),
    ]
    return counts[:, order] / float(ctx.interval)


def _segmented_window_cycles(
    producer1: np.ndarray,
    producer2: np.ndarray,
    count: int,
    interval: int,
    window_sizes: Sequence[int],
) -> Dict[int, np.ndarray]:
    """Per-interval summed critical-path cycles for every window size.

    Windows partition each interval from its own start (so every
    interval ends with a short window when ``interval % W != 0``),
    reproducing the window alignment a per-chunk run would see.  One
    offset-major traversal updates all intervals and all window sizes
    at once; per-window critical paths fall out of a segmented max and
    are then summed within each interval.
    """
    n = count * interval
    unique_sizes = sorted({int(window) for window in window_sizes})
    for window in unique_sizes:
        if window < 1:
            raise CharacterizationError(f"invalid window size: {window}")
    interval_base = np.arange(count, dtype=np.int64) * interval

    # All window sizes share one *flat* level space of ``S`` size-lanes
    # of ``n`` entries each, so every offset updates every size in one
    # set of array operations (the per-(offset, size) loop of the
    # whole-trace engine pays ~2x its work in numpy call overhead).
    # Lane ``j`` owns [j*n, (j+1)*n); a producer outside its consumer's
    # window (including NO_PRODUCER and cross-interval producers, which
    # the segmented producer arrays already exclude) is redirected to a
    # sentinel cell pinned at level 0, so the hot loop is pure
    # gather/max/scatter with no per-offset window-membership test.
    lanes = len(unique_sizes)
    sentinel = lanes * n
    level_flat = np.ones(lanes * n + 1, dtype=np.int64)
    level_flat[sentinel] = 0
    offset_in_interval = np.arange(n, dtype=np.int64) % interval
    positions = np.arange(n, dtype=np.int64)

    starts_all: Dict[int, np.ndarray] = {}
    pieces = []  # (flat window starts, first inactive offset)
    producer_lanes = []
    for lane, window in enumerate(unique_sizes):
        full = interval // window
        trailing = interval % window
        per_interval = full + (1 if trailing else 0)
        within = np.arange(per_interval, dtype=np.int64) * window
        starts = (interval_base[:, None] + within[None, :]).ravel()
        starts_all[window] = starts
        base = lane * n
        if trailing:
            grid = starts.reshape(count, per_interval)
            if full:
                # Full-width windows: an instruction exists at every
                # offset below the window size.
                pieces.append((grid[:, :full].ravel() + base, window))
            # Trailing short windows: each interval's last window runs
            # out of instructions at the remainder offset.
            pieces.append((grid[:, full:].ravel() + base, trailing))
        else:
            pieces.append((starts + base, window))
        if window & (window - 1) == 0:
            # Power-of-two window: the remainder is one bitwise AND.
            remainder = offset_in_interval & (window - 1)
        else:
            remainder = offset_in_interval % window
        window_starts = positions - remainder
        producer_lanes.append(tuple(
            np.where(producer >= window_starts, producer + base, sentinel)
            for producer in (producer1, producer2)
        ))
    producer1_flat = np.concatenate([lane[0] for lane in producer_lanes])
    producer2_flat = np.concatenate([lane[1] for lane in producer_lanes])

    last_offset = min(max(unique_sizes, default=1), interval)
    boundaries = sorted({limit for _, limit in pieces if limit < last_offset})
    segment_edges = [1] + boundaries + [last_offset]
    for segment_start, segment_end in zip(
        segment_edges[:-1], segment_edges[1:]
    ):
        if segment_end <= segment_start:
            continue
        indices = np.concatenate(
            [flat for flat, limit in pieces if limit > segment_start]
        ) + segment_start
        for _ in range(segment_start, segment_end):
            depth = np.maximum(
                level_flat[producer1_flat[indices]],
                level_flat[producer2_flat[indices]],
            )
            depth += 1
            level_flat[indices] = depth
            indices += 1

    cycles: Dict[int, np.ndarray] = {}
    for lane, window in enumerate(unique_sizes):
        starts = starts_all[window]
        per_window = np.maximum.reduceat(
            level_flat[lane * n : (lane + 1) * n], starts
        )
        cycles[window] = per_window.reshape(
            count, len(starts) // count
        ).sum(axis=1)
    return cycles


def _segmented_ilp(
    ctx: _SegmentedContext,
    window_sizes: Sequence[int],
    wanted: np.ndarray,
) -> np.ndarray:
    """Per-interval idealized IPC, shape ``(count, len(window_sizes))``.

    Window sizes are mutually independent, so only the requested ones
    are walked (``ilp_w32`` alone costs one 32-offset sweep, not four);
    unrequested columns stay ``NaN``.
    """
    producer1, producer2 = ctx.producers
    needed = [
        int(window)
        for position, window in enumerate(window_sizes)
        if wanted[position]
    ]
    cycles = _segmented_window_cycles(
        producer1, producer2, ctx.count, ctx.interval, needed
    )
    result = np.full((ctx.count, len(window_sizes)), np.nan)
    for position, window in enumerate(window_sizes):
        if not wanted[position]:
            continue
        window_cycles = cycles[int(window)]
        result[:, position] = np.divide(
            ctx.interval,
            window_cycles,
            out=np.zeros(ctx.count),
            where=window_cycles > 0,
        )
    return result


def _cumulative_threshold_counts(
    values: np.ndarray,
    interval_ids: np.ndarray,
    count: int,
    thresholds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Per interval: total values, and how many are ``<= t`` per ``t``.

    For ascending thresholds (the paper's, and every config default)
    each value is bucketed once with a tiny binary search and the whole
    cumulative table falls out of one ``bincount`` plus a row cumsum —
    instead of one full-array mask and ``bincount`` per threshold.
    Unsorted thresholds fall back to the per-threshold masks.

    Returns:
        ``(totals, below)`` int64 arrays of shapes ``(count,)`` and
        ``(count, len(thresholds))``.
    """
    bounds = np.asarray(thresholds, dtype=np.int64)
    if len(values) == 0:
        return (
            np.zeros(count, dtype=np.int64),
            np.zeros((count, len(bounds)), dtype=np.int64),
        )
    if len(bounds) and np.all(np.diff(bounds) > 0):
        buckets = np.searchsorted(bounds, values, side="left")
        table = np.bincount(
            interval_ids * (len(bounds) + 1) + buckets,
            minlength=count * (len(bounds) + 1),
        ).reshape(count, len(bounds) + 1)
        cumulative = np.cumsum(table, axis=1)
        return cumulative[:, -1], cumulative[:, :-1]
    totals = np.bincount(interval_ids, minlength=count)
    below = np.empty((count, len(bounds)), dtype=np.int64)
    for position, bound in enumerate(bounds):
        below[:, position] = np.bincount(
            interval_ids[values <= bound], minlength=count
        )
    return totals, below


def _segmented_register_traffic(
    ctx: _SegmentedContext, thresholds: Sequence[int]
) -> np.ndarray:
    """Per-interval register traffic, shape ``(count, 2 + thresholds)``."""
    count, interval = ctx.count, ctx.interval
    src1 = ctx.column("src1")
    src2 = ctx.column("src2")
    dst = ctx.column("dst")
    interval_index = ctx.interval_index

    operand_count = (src1 != NO_REG).astype(np.int64) + (
        src2 != NO_REG
    ).astype(np.int64)
    result = np.zeros((count, 2 + len(thresholds)))
    result[:, 0] = (
        np.add.reduceat(operand_count, ctx.interval_starts)
        / float(interval)
    )

    total_writes = np.bincount(
        interval_index[dst != NO_REG], minlength=count
    )
    producer1, producer2 = ctx.producers
    distances: List[np.ndarray] = []
    distance_intervals: List[np.ndarray] = []
    for producer in (producer1, producer2):
        consumers = np.flatnonzero(producer != NO_PRODUCER)
        distances.append(consumers - producer[consumers])
        distance_intervals.append(interval_index[consumers])
    all_distances = np.concatenate(distances)
    all_intervals = np.concatenate(distance_intervals)

    total_pairs, below = _cumulative_threshold_counts(
        all_distances, all_intervals, count, thresholds
    )
    # A (write, read) pair exists exactly when a read has a producer,
    # so the consumed-read counts are the distance totals.
    result[:, 1] = np.divide(
        total_pairs,
        total_writes,
        out=np.zeros(count),
        where=total_writes > 0,
    )
    result[:, 2:] = np.divide(
        below,
        total_pairs[:, None],
        out=np.zeros((count, len(thresholds))),
        where=total_pairs[:, None] > 0,
    )
    return result


def _granularity_shift(granularity: int) -> np.uint64:
    shift = int(granularity).bit_length() - 1
    if granularity != (1 << shift):
        raise CharacterizationError(
            f"granularity must be a power of two, got {granularity}"
        )
    return np.uint64(shift)


#: Presence-table budget for the dense unique-count path (cells).
_DENSE_UNIQUE_CELLS = 1 << 22


def _segmented_unique_counts(
    values: np.ndarray, interval_ids: np.ndarray, count: int
) -> np.ndarray:
    """Unique ``values`` per interval id (segmented ``len(np.unique)``).

    Three strategies, cheapest applicable first: a dense
    (interval x value) presence table for narrow value domains (one
    ``bincount``, no sorting — working-set block/page ids are usually
    tiny), one packed-key ``np.sort`` when ``(interval, value)`` fits
    63 bits (values only — no permutation needed just to count), and a
    two-key ``lexsort`` for arbitrary 64-bit values.
    """
    if len(values) == 0:
        return np.zeros(count)
    peak = int(values.max())
    if (peak + 1) * count <= _DENSE_UNIQUE_CELLS:
        table = np.bincount(
            interval_ids * (peak + 1) + values.astype(np.int64),
            minlength=count * (peak + 1),
        ).reshape(count, peak + 1)
        return (table > 0).sum(axis=1).astype(float)
    value_bits = peak.bit_length()
    interval_bits = max(1, (count - 1).bit_length())
    if value_bits + interval_bits <= 63:
        packed = np.sort(
            (interval_ids << np.int64(value_bits))
            | values.astype(np.int64)
        )
        first = np.ones(len(packed), dtype=bool)
        first[1:] = packed[1:] != packed[:-1]
        return np.bincount(
            (packed >> np.int64(value_bits))[first], minlength=count
        ).astype(float)
    order = np.lexsort((values, interval_ids))
    sorted_values = values[order]
    sorted_ids = interval_ids[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = (sorted_ids[1:] != sorted_ids[:-1]) | (
        sorted_values[1:] != sorted_values[:-1]
    )
    return np.bincount(sorted_ids[first], minlength=count).astype(float)


def _segmented_working_set(
    ctx: _SegmentedContext,
    block_bytes: int,
    page_bytes: int,
    wanted: np.ndarray,
) -> np.ndarray:
    """Per-interval working-set counts, shape ``(count, 4)``.

    Each of the four columns is an independent unique count; only the
    requested ones are computed (and the data stream is only gathered
    when a data column needs it).  Unrequested columns stay ``NaN``.
    """
    # Table II order: D blocks, D pages, I blocks, I pages.
    result = np.full((ctx.count, 4), np.nan)
    if wanted[0] or wanted[1]:
        memory_mask = ctx.trace.memory_mask[: ctx.n]
        data_addresses = ctx.column("mem_addr")[memory_mask]
        data_intervals = ctx.interval_index[memory_mask]
    for column, (is_data, granularity) in enumerate(
        ((True, block_bytes), (True, page_bytes),
         (False, block_bytes), (False, page_bytes))
    ):
        if not wanted[column]:
            continue
        shift = _granularity_shift(granularity)
        addresses = data_addresses if is_data else ctx.column("pc")
        interval_ids = (
            data_intervals if is_data else ctx.interval_index
        )
        result[:, column] = _segmented_unique_counts(
            addresses >> shift, interval_ids, ctx.count
        )
    return result


def _segmented_cumulative_profile(
    strides: np.ndarray,
    interval_ids: np.ndarray,
    count: int,
    thresholds: Sequence[int],
) -> np.ndarray:
    """Per-interval ``P(|stride| <= t)`` profile, zeros where empty."""
    if len(strides) == 0:
        return np.zeros((count, len(thresholds)))
    totals, below = _cumulative_threshold_counts(
        np.abs(strides), interval_ids, count, thresholds
    )
    return np.divide(
        below,
        totals[:, None],
        out=np.zeros((count, len(thresholds))),
        where=totals[:, None] > 0,
    )


def _segmented_strides(
    ctx: _SegmentedContext,
    thresholds: Sequence[int],
    wanted: np.ndarray,
) -> np.ndarray:
    """Per-interval stride profiles, shape ``(count, 4 * thresholds)``.

    The four (scope, op) distributions are independent; only the
    requested ones are built — ``stride_local_load_*`` alone costs one
    load-stream grouping, no store work and no global diffs.
    Unrequested columns stay ``NaN``.
    """
    width = len(thresholds)
    # Table II order: local load, global load, local store, global store.
    result = np.full((ctx.count, 4 * width), np.nan)
    for stream, mask_name in enumerate(("load_mask", "store_mask")):
        local_slice = slice(2 * stream * width, (2 * stream + 1) * width)
        global_slice = slice(
            (2 * stream + 1) * width, (2 * stream + 2) * width
        )
        need_local = wanted[local_slice].any()
        need_global = wanted[global_slice].any()
        if not (need_local or need_global):
            continue
        mask = getattr(ctx.trace, mask_name)[: ctx.n]
        addresses = ctx.column("mem_addr")[mask].astype(np.int64)
        interval_ids = ctx.interval_index[mask]
        empty = np.empty(0, dtype=np.int64)

        if need_local:
            if len(addresses) < 2:
                local, local_ids = empty, empty
            else:
                # Local strides: stable (interval, PC) grouping keeps
                # time order within each static instruction per chunk.
                pcs = ctx.column("pc")[mask]
                order = np.lexsort((pcs, interval_ids))
                sorted_pcs = pcs[order]
                sorted_ids = interval_ids[order]
                deltas = np.diff(addresses[order])
                same_pc = (sorted_pcs[1:] == sorted_pcs[:-1]) & (
                    sorted_ids[1:] == sorted_ids[:-1]
                )
                local = deltas[same_pc]
                local_ids = sorted_ids[1:][same_pc]
            result[:, local_slice] = _segmented_cumulative_profile(
                local, local_ids, ctx.count, thresholds
            )
        if need_global:
            if len(addresses) < 2:
                global_, global_ids = empty, empty
            else:
                # Global strides: temporally adjacent same-kind accesses
                # that do not straddle an interval boundary.
                same_interval = interval_ids[1:] == interval_ids[:-1]
                global_ = np.diff(addresses)[same_interval]
                global_ids = interval_ids[1:][same_interval]
            result[:, global_slice] = _segmented_cumulative_profile(
                global_, global_ids, ctx.count, thresholds
            )
    return result


def _segmented_ppm_reference(
    ctx: _SegmentedContext, max_order: int
) -> np.ndarray:
    """Per-chunk fallback for key widths the packed engine cannot hold."""
    rows = [
        ppm_predictabilities(
            ctx.trace[start : start + ctx.interval], max_order
        )
        for start in ctx.interval_starts
    ]
    return np.vstack(rows)


def _segmented_ppm(
    ctx: _SegmentedContext, max_order: int, wanted: np.ndarray
) -> np.ndarray:
    """Per-interval PPM accuracies, shape ``(count, 4)``.

    The four variants are independent predictors; only the requested
    ones run — ``ppm_GAg`` alone needs neither the per-PC machinery
    (dense ranks, local histories) nor the other variants' count
    recoveries.  Unrequested columns stay ``NaN``.
    """
    if max_order < 1:
        raise CharacterizationError("max_order must be >= 1")
    if max_order > MAX_VECTOR_ORDER:
        result = np.full((ctx.count, len(VARIANTS)), np.nan)
        reference = _segmented_ppm_reference(ctx, max_order)
        result[:, wanted] = reference[:, wanted]
        return result

    branch_mask = ctx.trace.branch_mask[: ctx.n]
    branch_positions = np.flatnonzero(branch_mask)
    result = np.full((ctx.count, len(VARIANTS)), np.nan)
    result[:, wanted] = 0.0
    n_branches = len(branch_positions)
    if n_branches == 0:
        return result

    outcomes = ctx.column("taken")[branch_positions].astype(bool)
    interval_ids = ctx.interval_index[branch_positions]
    branch_counts = np.bincount(interval_ids, minlength=ctx.count)
    bits = outcomes.astype(np.uint64)
    interval64 = interval_ids.astype(np.uint64)

    need_global = any(
        wanted[position] and use_global
        for position, (_, use_global, _shared) in enumerate(VARIANTS)
    )
    need_pairs = any(
        wanted[position] and not (use_global and shared)
        for position, (_, use_global, shared) in enumerate(VARIANTS)
    )

    # Segmented histories: shift registers restart per interval (and,
    # for the local stream, are private to each (interval, PC) pair).
    global_history = (
        _grouped_history(bits, interval_ids, max_order)
        if need_global
        else None
    )
    pair_keys = local_history = None
    if need_pairs:
        # A per-chunk per-PC table (or local shift register) is
        # identified by the (interval, PC) *pair*; dense pair ranks
        # keep every packed key domain as narrow as possible (so the
        # radix fast path of the count recovery stays reachable).
        pcs = ctx.column("pc")[branch_positions]
        _, pc_ids = np.unique(pcs, return_inverse=True)
        num_pcs = int(pc_ids.max()) + 1
        _, pair_ranks = np.unique(
            interval_ids * np.int64(num_pcs) + pc_ids,
            return_inverse=True,
        )
        local_history = _grouped_history(bits, pair_ranks, max_order)
        pair_keys = (
            pair_ranks.astype(np.uint64) + np.uint64(1)
        ) << np.uint64(max_order)

    segment_shared = interval64 << np.uint64(max_order)
    order0_cache: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}

    def order0_counts(shared_table: bool):
        counts = order0_cache.get(shared_table)
        if counts is None:
            keys = interval64 if shared_table else pair_ranks
            counts = _prior_outcome_counts(keys, outcomes)
            order0_cache[shared_table] = counts
        return counts

    for position, (_, use_global, shared_table) in enumerate(VARIANTS):
        if not wanted[position]:
            continue
        history = global_history if use_global else local_history
        prediction = _variant_predictions(
            history,
            None if shared_table else pair_keys,
            outcomes,
            max_order,
            lambda shared=shared_table: order0_counts(shared),
            segment_keys=segment_shared if shared_table else None,
        )
        correct = np.bincount(
            interval_ids[prediction == outcomes], minlength=ctx.count
        )
        result[:, position] = np.divide(
            correct,
            branch_counts,
            out=np.zeros(ctx.count),
            where=branch_counts > 0,
        )
    return result


# -- driver ---------------------------------------------------------------


def segmented_characterize(
    trace: Trace,
    interval: int,
    config: ReproConfig = DEFAULT_CONFIG,
    categories: "Optional[Iterable[str]]" = None,
    indices: "Optional[Iterable[int]]" = None,
) -> np.ndarray:
    """Per-interval Table II characteristics in one pass over the trace.

    Args:
        trace: the dynamic instruction trace (the trailing partial
            interval, if any, is dropped).
        interval: instructions per interval.
        config: characterization parameters (window sizes, thresholds,
            granularities, PPM order).
        categories: Table II category names to compute.
        indices: 0-based characteristic indices (Table II order) to
            compute — finer than ``categories``: independent columns of
            a section (ILP window sizes, PPM variants, stride streams,
            working-set columns) are only computed when requested, so a
            single-key timeline pays for one window sweep or one
            predictor variant, not four.  Merged with ``categories``
            when both are given; everything is computed when neither
            is.

    Returns:
        ``(intervals x 47)`` matrix.  Requested entries are
        bit-identical to characterizing each chunk separately;
        unrequested entries are ``NaN``, except within a requested
        section where computing a sibling column costs nothing extra
        (mix fractions, register traffic) — those carry their exact
        values too.

    Raises:
        CharacterizationError: on ``interval <= 0``, a trace shorter
            than one interval, an unknown category name, or an
            out-of-range index.
    """
    count = _full_interval_count(trace, interval)
    wanted = resolve_wanted(categories, indices)
    slices = category_slices()

    values = np.full((count, NUM_CHARACTERISTICS), np.nan)
    ctx = _SegmentedContext(trace, interval, count)
    mix_slice = slices["instruction mix"]
    if wanted[mix_slice].any():
        values[:, mix_slice] = _segmented_mix(ctx)
    ilp_slice = slices["ILP"]
    if wanted[ilp_slice].any():
        values[:, ilp_slice] = _segmented_ilp(
            ctx, config.ilp_window_sizes, wanted[ilp_slice]
        )
    reg_slice = slices["register traffic"]
    if wanted[reg_slice].any():
        values[:, reg_slice] = _segmented_register_traffic(
            ctx, config.reg_dep_thresholds
        )
    ws_slice = slices["working set size"]
    if wanted[ws_slice].any():
        values[:, ws_slice] = _segmented_working_set(
            ctx, config.block_bytes, config.page_bytes, wanted[ws_slice]
        )
    stride_slice = slices["data stream strides"]
    if wanted[stride_slice].any():
        values[:, stride_slice] = _segmented_strides(
            ctx, config.stride_thresholds, wanted[stride_slice]
        )
    ppm_slice = slices["branch predictability"]
    if wanted[ppm_slice].any():
        values[:, ppm_slice] = _segmented_ppm(
            ctx, config.ppm_max_order, wanted[ppm_slice]
        )
    return values

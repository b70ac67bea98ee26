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
  ``bincount`` / group-boundary counting (working sets run the one-shot
  unique kernel of :mod:`repro.mica.working_set` with interval ids);
  stride adjacency masks drop pairs that straddle an interval boundary.
* **ILP / register traffic** — :func:`segmented_producer_indices` runs
  the one-shot grouped-radix producer kernel with the interval id
  *above* the architected register number in the group, so a write in
  one interval is invisible to reads in the next (exactly a per-chunk
  producer restart); ILP runs the one-shot nested window walk of
  :mod:`repro.mica.ilp` with windows restarting at every interval
  start (each chunk's short trailing window is a padded row).
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

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import CharacterizationError
from ..isa import NO_REG, OpClass
from ..trace import Trace
from .characteristics import (
    NUM_CHARACTERISTICS,
    category_slices,
    resolve_wanted,
)
from .ilp import _grouped_producer_indices, _window_depths
from .ppm import (
    MAX_VECTOR_ORDER,
    VARIANTS,
    _grouped_history,
    _prior_outcome_counts,
    _variant_predictions,
    ppm_predictabilities,
)
from .working_set import _block_page_counts, _unique_counts


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
    state each chunk starts with.  The one-shot path's grouped-radix
    kernel, with ``interval_id * TOTAL_REGS + register`` as the group.
    """
    if count is None:
        count = _full_interval_count(trace, interval)
    n = count * interval
    return _grouped_producer_indices(
        trace.src1[:n], trace.src2[:n], trace.dst[:n], interval
    )


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
    for window in needed:
        if window < 1:
            raise CharacterizationError(f"invalid window size: {window}")
    depths = _window_depths(
        producer1, producer2, needed, interval=ctx.interval
    )
    result = np.full((ctx.count, len(window_sizes)), np.nan)
    for position, window in enumerate(window_sizes):
        if not wanted[position]:
            continue
        window_cycles = depths[int(window)].reshape(ctx.count, -1).sum(
            axis=1
        )
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
    """Per-interval register traffic, shape ``(count, 2 + thresholds)``.

    Every count is a per-interval row count of a position-aligned mask
    over both source slots, so no operand is gathered or keyed by
    interval: a slot's dependency distance is ``position - producer``,
    and ``NO_PRODUCER`` gives ``position + 1``, above any real one.
    """
    count, interval = ctx.count, ctx.interval

    def per_interval(mask: np.ndarray) -> np.ndarray:
        return np.count_nonzero(
            mask.reshape(-1, count, interval), axis=(0, 2)
        )

    operands = per_interval(
        np.stack([ctx.column("src1"), ctx.column("src2")]) != NO_REG
    )
    total_writes = per_interval(ctx.column("dst") != NO_REG)
    positions = np.arange(ctx.n, dtype=np.int64)
    distances = positions - np.stack(ctx.producers)
    consumed = distances <= positions
    # A (write, read) pair exists exactly when a read has a producer.
    total_pairs = per_interval(consumed)
    below = np.array(
        [
            per_interval(consumed & (distances <= bound))
            for bound in thresholds
        ],
        dtype=np.int64,
    ).reshape(len(thresholds), count).T
    result = np.zeros((count, 2 + len(thresholds)))
    result[:, 0] = operands / float(interval)
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


def _segmented_working_set(
    ctx: _SegmentedContext,
    block_bytes: int,
    page_bytes: int,
    wanted: np.ndarray,
) -> np.ndarray:
    """Per-interval working-set counts, shape ``(count, 4)``.

    One interval-keyed pass of the one-shot unique kernel per stream
    counts the requested columns (both, or only the one asked for); a
    stream with neither is never gathered.  Unrequested columns stay NaN.
    """
    # Table II order: D blocks, D pages, I blocks, I pages.
    result = np.full((ctx.count, 4), np.nan)
    for column in (0, 2):
        if not (wanted[column] or wanted[column + 1]):
            continue
        if column == 0:
            memory_mask = ctx.trace.memory_mask[: ctx.n]
            addresses = ctx.column("mem_addr")[memory_mask]
            interval_ids = ctx.interval_index[memory_mask]
        else:
            addresses = ctx.column("pc")
            interval_ids = ctx.interval_index
        if wanted[column] and wanted[column + 1]:
            counts = _block_page_counts(
                addresses, block_bytes, page_bytes, interval_ids, ctx.count
            )
        else:
            granularity = block_bytes if wanted[column] else page_bytes
            unique = _unique_counts(
                addresses, granularity, interval_ids, ctx.count
            )
            counts = (unique, unique)
        for offset, unique in enumerate(counts):
            if wanted[column + offset]:
                result[:, column + offset] = unique
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

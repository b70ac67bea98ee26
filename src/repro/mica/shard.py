"""Shard-mergeable characterization state (the shard engine core).

Every Table II section's partial state over a contiguous trace range
``[start, end)`` is made explicit, serializable, and *mergeable*:
:func:`shard_state` characterizes one chunk in isolation,
:func:`merge_states` combines the states of two adjacent ranges, and
:func:`finalize_state` turns a rooted (``start == 0``) state into the
47-dim vector — **bit-for-bit** identical to one-shot
:func:`repro.mica.characterize` for every shard geometry, because every
characteristic is an exact integer-count ratio divided once in IEEE
doubles and integer sums below 2**53 are exact in any order.

Per-section carry design (what crosses a shard boundary):

* **instruction mix** — per-opclass counts; merge adds.
* **working set** — sorted unique block/page id arrays; merge unions.
* **strides** — per-stream threshold counts plus a global first/last
  address carry and per-PC first/last tables; merging emits exactly the
  boundary deltas (global: one per stream; local: one per PC present on
  both sides), so pair counts telescope to the one-shot totals.
* **register traffic** — additive counts, a per-register last-writer
  table (absolute positions), and an *orphan* list of live reads with
  no in-range producer; merging resolves the right side's orphans
  against the left's last writers.  In-range dependency distances are
  translation invariant, so in-shard work reuses
  :func:`~repro.mica.ilp.producer_indices` unchanged.
* **ILP** — windows are aligned to absolute multiples of each window
  size, so a shard closes every full window it contains (the one-shot
  walk, :func:`~repro.mica.ilp._window_depths`, at the shard's
  absolute origin) and carries just
  the raw first/last ``max(W) - 1`` operand rows; a merge closes at
  most one straddling window per size with a tiny scalar walk, and
  finalization closes the trailing partial window the one-shot engine
  counts.
* **PPM** — the one section with a sequential dependence.  The *cold*
  mergeable state holds the global/per-PC history shift registers,
  per-(variant, order) count tables over branches whose full ``m``-bit
  history is known inside the range, and bounded deferred lists (the
  first ``< m`` branches globally / per PC) resolved when a merge
  supplies the missing history (or the merged range becomes rooted —
  histories start at zero, so rooted states zero-pad).  The
  carry-dependent *predictions* are a second pass per shard
  (:func:`ppm_shard_correct`) that seeds the in-shard history streams
  from a rooted incoming prefix state and adds its count tables to the
  in-shard prior counts — reusing the one-shot vectorized kernels.

The shard fold in :mod:`repro.perf.sharding` is a thin composition of
these operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..isa import NO_REG, OpClass
from ..isa.registers import FP_ZERO_REG, INT_ZERO_REG, TOTAL_REGS
from ..trace import Trace
from .characteristics import (
    NUM_CHARACTERISTICS,
    category_slices,
    resolve_wanted,
    wanted_sections,
)
from .ilp import NO_PRODUCER, _window_depths, producer_indices
from .ppm import (
    MAX_VECTOR_ORDER,
    VARIANTS,
    _history_streams,
    _prior_outcome_counts,
)
from .working_set import _granularity_shift

#: Table II categories in vector order; a state's ``sections`` tuple is
#: a subset of these (the sections it actually carries).
SECTION_ORDER: Tuple[str, ...] = tuple(category_slices())

_SLICES = category_slices()
_MIX_SLICE = _SLICES["instruction mix"]
_ILP_SLICE = _SLICES["ILP"]
_REG_SLICE = _SLICES["register traffic"]
_WS_SLICE = _SLICES["working set size"]
_STRIDE_SLICE = _SLICES["data stream strides"]
_PPM_SLICE = _SLICES["branch predictability"]

_U64_ONE = np.uint64(1)


# -- small shared helpers -------------------------------------------------


def _sorted_lookup(
    sorted_keys: np.ndarray, queries: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(clamped positions, found mask)`` in a sorted unique array."""
    count = len(queries)
    if len(sorted_keys) == 0:
        return (
            np.zeros(count, dtype=np.int64),
            np.zeros(count, dtype=bool),
        )
    positions = np.searchsorted(sorted_keys, queries)
    safe = np.minimum(positions, len(sorted_keys) - 1)
    found = (positions < len(sorted_keys)) & (
        sorted_keys[safe] == queries
    )
    return safe, found


def _masked_gather(
    values: np.ndarray,
    positions: np.ndarray,
    mask: np.ndarray,
    fill,
    dtype,
) -> np.ndarray:
    """``values[positions]`` where ``mask``, else ``fill`` (empty-safe)."""
    result = np.full(len(positions), fill, dtype=dtype)
    if len(values) and mask.any():
        result[mask] = values[positions[mask]]
    return result


def _group_positions(keys: np.ndarray) -> np.ndarray:
    """In-group occurrence index (0-based, time order) per entry."""
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = sorted_keys[1:] != sorted_keys[:-1]
    positions = np.arange(n, dtype=np.int64)
    group_start = np.maximum.accumulate(
        np.where(new_group, positions, 0)
    )
    in_group = positions - group_start
    result = np.empty(n, dtype=np.int64)
    result[order] = in_group
    return result


# -- instruction mix ------------------------------------------------------


@dataclass
class MixState:
    """Per-opclass dynamic instruction counts."""

    counts: np.ndarray  # (len(OpClass),) int64

    @staticmethod
    def cold(chunk: Trace) -> "MixState":
        return MixState(
            np.bincount(
                chunk.opclass, minlength=len(OpClass)
            ).astype(np.int64)
        )

    @staticmethod
    def merge(a: "MixState", b: "MixState") -> "MixState":
        return MixState(a.counts + b.counts)

    def finalize(self, n: int) -> np.ndarray:
        total = float(n)
        counts = self.counts
        return np.array(
            [
                counts[int(OpClass.LOAD)] / total,
                counts[int(OpClass.STORE)] / total,
                counts[int(OpClass.BRANCH)] / total,
                counts[int(OpClass.INT_ALU)] / total,
                counts[int(OpClass.INT_MUL)] / total,
                counts[int(OpClass.FP)] / total,
            ]
        )


# -- working set ----------------------------------------------------------


@dataclass
class WorkingSetState:
    """Sorted unique block/page ids touched in the range."""

    data_blocks: np.ndarray
    data_pages: np.ndarray
    instr_blocks: np.ndarray
    instr_pages: np.ndarray

    @staticmethod
    def cold(
        chunk: Trace, block_bytes: int, page_bytes: int
    ) -> "WorkingSetState":
        block_shift = _granularity_shift(block_bytes)
        page_shift = _granularity_shift(page_bytes)
        data = chunk.mem_addr[chunk.memory_mask]
        instr = chunk.pc
        return WorkingSetState(
            np.unique(data >> block_shift),
            np.unique(data >> page_shift),
            np.unique(instr >> block_shift),
            np.unique(instr >> page_shift),
        )

    @staticmethod
    def merge(
        a: "WorkingSetState", b: "WorkingSetState"
    ) -> "WorkingSetState":
        return WorkingSetState(
            np.union1d(a.data_blocks, b.data_blocks),
            np.union1d(a.data_pages, b.data_pages),
            np.union1d(a.instr_blocks, b.instr_blocks),
            np.union1d(a.instr_pages, b.instr_pages),
        )

    def finalize(self) -> np.ndarray:
        return np.array(
            [
                len(self.data_blocks),
                len(self.data_pages),
                len(self.instr_blocks),
                len(self.instr_pages),
            ],
            dtype=float,
        )


# -- data stream strides --------------------------------------------------

#: Stream order inside the stride section (Table II order).
_STRIDE_STREAMS = (
    "local_load", "global_load", "local_store", "global_store"
)


def _stride_threshold_counts(
    deltas: np.ndarray, thresholds: Sequence[int]
) -> np.ndarray:
    """``count(|delta| <= t)`` per threshold (t = 0 is an equality)."""
    counts = np.zeros(len(thresholds), dtype=np.int64)
    if len(deltas) == 0:
        return counts
    magnitudes = np.abs(deltas.astype(np.int64))
    for position, threshold in enumerate(thresholds):
        counts[position] = int((magnitudes <= threshold).sum())
    return counts


def _pc_first_last(
    pcs: np.ndarray, addresses: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-PC (sorted) first and last in-range access addresses."""
    n = len(pcs)
    if n == 0:
        empty64 = np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=np.uint64), empty64, empty64
    order = np.argsort(pcs, kind="stable")
    sorted_pcs = pcs[order]
    sorted_addresses = addresses[order].astype(np.int64)
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = sorted_pcs[1:] != sorted_pcs[:-1]
    last_of_group = np.ones(n, dtype=bool)
    last_of_group[:-1] = new_group[1:]
    return (
        sorted_pcs[new_group],
        sorted_addresses[new_group],
        sorted_addresses[last_of_group],
    )


def _in_shard_local_strides(
    pcs: np.ndarray, addresses: np.ndarray
) -> np.ndarray:
    """Same-PC consecutive deltas inside one shard (int64)."""
    if len(addresses) < 2:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(pcs, kind="stable")
    sorted_pcs = pcs[order]
    sorted_addresses = addresses[order].astype(np.int64)
    deltas = np.diff(sorted_addresses)
    return deltas[sorted_pcs[1:] == sorted_pcs[:-1]]


@dataclass
class StrideState:
    """Stride threshold counts plus boundary carries per access kind.

    ``counts``/``pairs`` are indexed by :data:`_STRIDE_STREAMS`;
    ``global_*`` carries are per kind (0 = load, 1 = store), addresses
    stored int64-cast so boundary deltas wrap exactly like the
    one-shot ``np.diff(addresses.astype(np.int64))``.
    """

    counts: np.ndarray  # (4, thresholds) int64
    pairs: np.ndarray  # (4,) int64
    global_n: np.ndarray  # (2,) int64 accesses per kind
    global_first: np.ndarray  # (2,) int64
    global_last: np.ndarray  # (2,) int64
    local_pcs: "List[np.ndarray]"  # per kind, sorted uint64
    local_first: "List[np.ndarray]"  # per kind, int64
    local_last: "List[np.ndarray]"  # per kind, int64

    @staticmethod
    def cold(
        chunk: Trace, thresholds: Sequence[int]
    ) -> "StrideState":
        load_mask = chunk.load_mask
        store_mask = chunk.store_mask
        streams = (
            (chunk.pc[load_mask], chunk.mem_addr[load_mask]),
            (chunk.pc[store_mask], chunk.mem_addr[store_mask]),
        )
        counts = np.zeros((4, len(thresholds)), dtype=np.int64)
        pairs = np.zeros(4, dtype=np.int64)
        global_n = np.zeros(2, dtype=np.int64)
        global_first = np.zeros(2, dtype=np.int64)
        global_last = np.zeros(2, dtype=np.int64)
        local_pcs: "List[np.ndarray]" = []
        local_first: "List[np.ndarray]" = []
        local_last: "List[np.ndarray]" = []
        for kind, (pcs, addresses) in enumerate(streams):
            local_deltas = _in_shard_local_strides(pcs, addresses)
            counts[2 * kind] = _stride_threshold_counts(
                local_deltas, thresholds
            )
            pairs[2 * kind] = len(local_deltas)
            if len(addresses) >= 2:
                global_deltas = np.diff(addresses.astype(np.int64))
            else:
                global_deltas = np.empty(0, dtype=np.int64)
            counts[2 * kind + 1] = _stride_threshold_counts(
                global_deltas, thresholds
            )
            pairs[2 * kind + 1] = len(global_deltas)
            global_n[kind] = len(addresses)
            if len(addresses):
                cast = addresses.astype(np.int64)
                global_first[kind] = cast[0]
                global_last[kind] = cast[-1]
            pc_table, first, last = _pc_first_last(pcs, addresses)
            local_pcs.append(pc_table)
            local_first.append(first)
            local_last.append(last)
        return StrideState(
            counts, pairs, global_n, global_first, global_last,
            local_pcs, local_first, local_last,
        )

    @staticmethod
    def merge(
        a: "StrideState",
        b: "StrideState",
        thresholds: Sequence[int],
    ) -> "StrideState":
        counts = a.counts + b.counts
        pairs = a.pairs + b.pairs
        global_n = a.global_n + b.global_n
        global_first = np.where(
            a.global_n > 0, a.global_first, b.global_first
        )
        global_last = np.where(
            b.global_n > 0, b.global_last, a.global_last
        )
        local_pcs: "List[np.ndarray]" = []
        local_first: "List[np.ndarray]" = []
        local_last: "List[np.ndarray]" = []
        for kind in range(2):
            # Boundary global delta: last access of a to first of b.
            if a.global_n[kind] > 0 and b.global_n[kind] > 0:
                delta = (
                    b.global_first[kind:kind + 1]
                    - a.global_last[kind:kind + 1]
                )
                counts[2 * kind + 1] += _stride_threshold_counts(
                    delta, thresholds
                )
                pairs[2 * kind + 1] += 1
            # Boundary local deltas: one per PC present on both sides.
            a_pcs = a.local_pcs[kind]
            b_pcs = b.local_pcs[kind]
            positions, found = _sorted_lookup(a_pcs, b_pcs)
            if found.any():
                deltas = (
                    b.local_first[kind][found]
                    - a.local_last[kind][positions[found]]
                )
                counts[2 * kind] += _stride_threshold_counts(
                    deltas, thresholds
                )
                pairs[2 * kind] += int(found.sum())
            merged_pcs = np.union1d(a_pcs, b_pcs)
            a_pos, in_a = _sorted_lookup(a_pcs, merged_pcs)
            b_pos, in_b = _sorted_lookup(b_pcs, merged_pcs)
            first = np.zeros(len(merged_pcs), dtype=np.int64)
            last = np.zeros(len(merged_pcs), dtype=np.int64)
            if len(a_pcs):
                first[in_a] = a.local_first[kind][a_pos[in_a]]
                last[in_a] = a.local_last[kind][a_pos[in_a]]
            if len(b_pcs):
                only_b = in_b & ~in_a
                first[only_b] = b.local_first[kind][b_pos[only_b]]
                last[in_b] = b.local_last[kind][b_pos[in_b]]
            local_pcs.append(merged_pcs)
            local_first.append(first)
            local_last.append(last)
        return StrideState(
            counts, pairs, global_n, global_first, global_last,
            local_pcs, local_first, local_last,
        )

    def finalize(self) -> np.ndarray:
        values = np.zeros(self.counts.size, dtype=float)
        width = self.counts.shape[1]
        for stream in range(4):
            total = float(self.pairs[stream])
            if total == 0.0:
                continue
            for position in range(width):
                values[stream * width + position] = (
                    float(self.counts[stream, position]) / total
                )
        return values


# -- register traffic -----------------------------------------------------


@dataclass
class RegisterState:
    """Additive traffic counts plus producer carry tables.

    ``last_writer`` holds absolute trace positions (-1 = none);
    ``orphan_*`` lists live reads whose producer lies before the range.
    """

    operand_sum: int
    total_writes: int
    consumed_reads: int
    dist_counts: np.ndarray  # (thresholds,) int64
    last_writer: np.ndarray  # (TOTAL_REGS,) int64
    orphan_pos: np.ndarray  # (k,) int64 absolute positions
    orphan_reg: np.ndarray  # (k,) int64

    @staticmethod
    def cold(
        chunk: Trace,
        start: int,
        thresholds: Sequence[int],
        producers: Tuple[np.ndarray, np.ndarray],
    ) -> "RegisterState":
        n = len(chunk)
        operand_sum = int(
            ((chunk.src1 != NO_REG).astype(np.int64)
             + (chunk.src2 != NO_REG).astype(np.int64)).sum()
        )
        total_writes = int((chunk.dst != NO_REG).sum())
        positions = np.arange(n, dtype=np.int64)
        consumed = 0
        dist_counts = np.zeros(len(thresholds), dtype=np.int64)
        orphan_pos_parts: "List[np.ndarray]" = []
        orphan_reg_parts: "List[np.ndarray]" = []
        for source, producer in zip(
            (chunk.src1, chunk.src2), producers
        ):
            has_producer = producer != NO_PRODUCER
            consumed += int(has_producer.sum())
            distances = (
                positions[has_producer] - producer[has_producer]
            )
            for position, bound in enumerate(thresholds):
                dist_counts[position] += int(
                    (distances <= bound).sum()
                )
            live = (
                (source != NO_REG)
                & (source != INT_ZERO_REG)
                & (source != FP_ZERO_REG)
            )
            orphan = live & ~has_producer
            orphan_pos_parts.append(
                positions[orphan] + np.int64(start)
            )
            orphan_reg_parts.append(source[orphan].astype(np.int64))
        last_writer = np.full(TOTAL_REGS, -1, dtype=np.int64)
        writers = np.flatnonzero(chunk.dst != NO_REG)
        if len(writers):
            np.maximum.at(
                last_writer,
                chunk.dst[writers].astype(np.int64),
                writers.astype(np.int64) + np.int64(start),
            )
        return RegisterState(
            operand_sum,
            total_writes,
            consumed,
            dist_counts,
            last_writer,
            np.concatenate(orphan_pos_parts),
            np.concatenate(orphan_reg_parts),
        )

    @staticmethod
    def merge(
        a: "RegisterState",
        b: "RegisterState",
        thresholds: Sequence[int],
    ) -> "RegisterState":
        dist_counts = a.dist_counts + b.dist_counts
        consumed = a.consumed_reads + b.consumed_reads
        writer = (
            a.last_writer[b.orphan_reg]
            if len(b.orphan_reg)
            else np.zeros(0, dtype=np.int64)
        )
        resolved = writer >= 0
        if resolved.any():
            distances = b.orphan_pos[resolved] - writer[resolved]
            for position, bound in enumerate(thresholds):
                dist_counts[position] += int(
                    (distances <= bound).sum()
                )
            consumed += int(resolved.sum())
        keep = ~resolved
        return RegisterState(
            a.operand_sum + b.operand_sum,
            a.total_writes + b.total_writes,
            consumed,
            dist_counts,
            np.where(b.last_writer >= 0, b.last_writer, a.last_writer),
            np.concatenate([a.orphan_pos, b.orphan_pos[keep]]),
            np.concatenate([a.orphan_reg, b.orphan_reg[keep]]),
        )

    def finalize(self, n: int) -> np.ndarray:
        values = np.zeros(2 + len(self.dist_counts), dtype=float)
        values[0] = self.operand_sum / n
        values[1] = (
            self.consumed_reads / self.total_writes
            if self.total_writes
            else 0.0
        )
        if self.consumed_reads:
            total = float(self.consumed_reads)
            values[2:] = (
                np.asarray(self.dist_counts, dtype=float) / total
            )
        return values


# -- ILP ------------------------------------------------------------------

_ROW_FIELDS = 3  # (src1, src2, dst) per carried operand row


def _operand_rows(chunk: Trace) -> np.ndarray:
    return np.stack(
        [chunk.src1, chunk.src2, chunk.dst], axis=1
    ).astype(np.uint8)


def _rows_critical_path(rows: np.ndarray) -> int:
    """Dataflow critical path of one window's operand rows.

    Matches the scalar reference: a read's producer is the most recent
    earlier in-window write of that register (looked up *before* the
    row records its own write), zero registers never depend.
    """
    depth = 1
    writer_level: Dict[int, int] = {}
    for row in rows:
        best = 0
        for source in (int(row[0]), int(row[1])):
            if source in (NO_REG, INT_ZERO_REG, FP_ZERO_REG):
                continue
            level = writer_level.get(source, 0)
            if level > best:
                best = level
        level = best + 1
        dst = int(row[2])
        if dst != NO_REG:
            writer_level[dst] = level
        if level > depth:
            depth = level
    return depth


@dataclass
class IlpState:
    """Closed-window cycle sums plus raw boundary operand rows.

    Windows are aligned at absolute multiples of each size, so a state
    closes every full window inside its range; ``head``/``tail`` carry
    the first/last ``max(W) - 1`` operand rows so a merge can close the
    (at most one per size) straddling window and finalization the
    trailing partial one.
    """

    sizes: Tuple[int, ...]  # sorted unique window sizes
    cycles: np.ndarray  # (len(sizes),) int64
    head: np.ndarray  # (h, 3) uint8
    tail: np.ndarray  # (t, 3) uint8

    @staticmethod
    def cold(
        chunk: Trace,
        start: int,
        window_sizes: Sequence[int],
        producers: Tuple[np.ndarray, np.ndarray],
    ) -> "IlpState":
        for window in window_sizes:
            if window < 1:
                raise CharacterizationError(
                    f"invalid window size: {window}"
                )
        sizes = tuple(sorted({int(w) for w in window_sizes}))
        n = len(chunk)
        depths = _window_depths(
            producers[0], producers[1], sizes, origin=start
        )
        # Only windows wholly inside the chunk close here: the first
        # row is partial when ``start`` is unaligned, and rows from
        # ``(n + pad) // window`` on run past the chunk's end.
        cycles = np.array(
            [
                depths[window][
                    (1 if start % window else 0)
                    : (n + start % window) // window
                ].sum()
                for window in sizes
            ],
            dtype=np.int64,
        )
        carry = min(n, max(sizes) - 1)
        rows = _operand_rows(chunk)
        head = rows[:carry].copy()
        tail = rows[n - carry:].copy()
        return IlpState(sizes, cycles, head, tail)

    @staticmethod
    def merge(
        a: "IlpState", b: "IlpState", a_start: int, boundary: int,
        b_end: int,
    ) -> "IlpState":
        if a.sizes != b.sizes:
            raise CharacterizationError(
                "cannot merge ILP states with different window sizes"
            )
        cycles = a.cycles + b.cycles
        for position, window in enumerate(a.sizes):
            window_start = (boundary // window) * window
            if window_start == boundary:
                continue  # Boundary aligned: no straddling window.
            if (
                window_start < a_start
                or window_start + window > b_end
            ):
                continue  # Not yet fully inside the merged range.
            left_rows = boundary - window_start
            right_rows = window_start + window - boundary
            rows = np.concatenate(
                [
                    a.tail[len(a.tail) - left_rows:],
                    b.head[:right_rows],
                ]
            )
            cycles[position] += _rows_critical_path(rows)
        carry = max(a.sizes) - 1
        head = np.concatenate([a.head, b.head])[:carry]
        tail = np.concatenate([a.tail, b.tail])
        tail = tail[len(tail) - min(len(tail), carry):]
        return IlpState(a.sizes, cycles, head, tail)

    def finalize(
        self, n: int, window_sizes: Sequence[int]
    ) -> np.ndarray:
        totals: Dict[int, int] = {}
        for position, window in enumerate(self.sizes):
            total = int(self.cycles[position])
            remainder = n % window
            if remainder:
                rows = self.tail[len(self.tail) - remainder:]
                total += _rows_critical_path(rows)
            totals[window] = total
        values = np.empty(len(window_sizes), dtype=float)
        for position, window in enumerate(window_sizes):
            cycles = totals[int(window)]
            values[position] = n / cycles if cycles else 0.0
        return values


# -- PPM ------------------------------------------------------------------

#: A count table for one (variant, order): lex-sorted (pc, ctx) keys
#: with per-outcome counts.  Shared-table variants store pc = 0.
CountTable = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _empty_table() -> CountTable:
    zero64 = np.zeros(0, dtype=np.int64)
    return (
        np.zeros(0, dtype=np.uint64),
        np.zeros(0, dtype=np.uint64),
        zero64,
        zero64,
    )


def _aggregate_table(
    ranked_pcs: Tuple[np.ndarray, np.ndarray],
    ctxs: np.ndarray,
    outcomes: np.ndarray,
    max_order: int,
) -> CountTable:
    """Count-table rows for one batch of (pc, ctx, outcome) updates.

    ``ranked_pcs`` is ``np.unique(pcs, return_inverse=True)`` of the
    batch's PCs, ranked once and shared by every order's table.
    """
    count = len(outcomes)
    if count == 0:
        return _empty_table()
    unique_pcs, ids = ranked_pcs
    packed = (
        ids.astype(np.uint64) << np.uint64(max_order)
    ) | ctxs.astype(np.uint64)
    # Integer sums per key do not depend on the order within a key.
    order = np.argsort(packed)
    sorted_packed = packed[order]
    sorted_outcomes = outcomes[order].astype(np.int64)
    new_group = np.ones(count, dtype=bool)
    new_group[1:] = sorted_packed[1:] != sorted_packed[:-1]
    group_starts = np.flatnonzero(new_group)
    taken = np.add.reduceat(sorted_outcomes, group_starts)
    totals = np.diff(np.append(group_starts, count))
    keys = sorted_packed[group_starts]
    return (
        unique_pcs[
            (keys >> np.uint64(max_order)).astype(np.int64)
        ],
        keys & np.uint64((1 << max_order) - 1),
        totals - taken,
        taken,
    )


def _merge_tables(a: CountTable, b: CountTable) -> CountTable:
    """Union-sum of two lex-sorted count tables."""
    if len(a[2]) == 0:
        return b
    if len(b[2]) == 0:
        return a
    pcs = np.concatenate([a[0], b[0]])
    ctxs = np.concatenate([a[1], b[1]])
    not_taken = np.concatenate([a[2], b[2]])
    taken = np.concatenate([a[3], b[3]])
    order = np.lexsort((ctxs, pcs))
    pcs = pcs[order]
    ctxs = ctxs[order]
    not_taken = not_taken[order]
    taken = taken[order]
    new_group = np.ones(len(pcs), dtype=bool)
    new_group[1:] = (pcs[1:] != pcs[:-1]) | (ctxs[1:] != ctxs[:-1])
    group_starts = np.flatnonzero(new_group)
    return (
        pcs[group_starts],
        ctxs[group_starts],
        np.add.reduceat(not_taken, group_starts),
        np.add.reduceat(taken, group_starts),
    )


def _table_lookup(
    table: CountTable,
    query_pcs: np.ndarray,
    query_ctxs: np.ndarray,
    max_order: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(not_taken, taken)`` counts for each query key (0 if absent)."""
    count = len(query_ctxs)
    zeros = np.zeros(count, dtype=np.int64)
    if len(table[2]) == 0:
        return zeros, zeros.copy()
    # Table rows are (pc, ctx)-sorted: PC ranks are run counts.
    first = np.ones(len(table[0]), dtype=bool)
    first[1:] = table[0][1:] != table[0][:-1]
    unique_pcs = table[0][first]
    ranks = np.cumsum(first) - 1
    packed = (
        ranks.astype(np.uint64) << np.uint64(max_order)
    ) | table[1]
    query_ranks, pc_found = _sorted_lookup(unique_pcs, query_pcs)
    query_packed = (
        query_ranks.astype(np.uint64) << np.uint64(max_order)
    ) | query_ctxs.astype(np.uint64)
    positions, found = _sorted_lookup(packed, query_packed)
    found &= pc_found
    return (
        np.where(found, table[2][positions], 0),
        np.where(found, table[3][positions], 0),
    )


@dataclass
class PpmState:
    """Mergeable cold PPM state for one contiguous branch range.

    Branches whose full ``max_order``-bit history (global for the
    GAg/GAs family, per-PC local for PAg/PAs) is not known inside the
    range contribute nothing to the count tables; they sit in the
    deferred lists (at most ``max_order`` globally and per PC) until a
    merge supplies the missing left context or the range roots at
    trace start (histories start at zero, so rooted states zero-pad
    and resolve everything).
    """

    max_order: int
    total: int = 0
    taken_total: int = 0
    global_bits: int = 0
    global_nbits: int = 0
    local_pcs: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.uint64)
    )
    local_bits: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.uint64)
    )
    local_nbits: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    local_occ: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    tables: "Dict[Tuple[str, int], CountTable]" = field(
        default_factory=dict
    )
    # Deferred branches: (pc, prior-count, known history bits, outcome).
    deferred_global: Tuple[np.ndarray, ...] = ()
    deferred_local: Tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        if not self.tables:
            self.tables = {
                (name, order): _empty_table()
                for name, _, _ in VARIANTS
                for order in range(self.max_order + 1)
            }
        if not self.deferred_global:
            self.deferred_global = _empty_deferred()
        if not self.deferred_local:
            self.deferred_local = _empty_deferred()


def _empty_deferred() -> Tuple[np.ndarray, ...]:
    return (
        np.zeros(0, dtype=np.uint64),  # pc
        np.zeros(0, dtype=np.int64),  # prior count
        np.zeros(0, dtype=np.uint64),  # known history bits
        np.zeros(0, dtype=np.int64),  # outcome
    )


def ppm_empty_state(max_order: int) -> PpmState:
    """The identity PPM state (also the rooted empty prefix carry)."""
    return PpmState(max_order=max_order)


def _check_shard_max_order(max_order: int) -> None:
    if max_order < 1:
        raise CharacterizationError("max_order must be >= 1")
    if max_order > MAX_VECTOR_ORDER:
        raise CharacterizationError(
            "sharded characterization requires "
            f"ppm_max_order <= {MAX_VECTOR_ORDER}, got {max_order}"
        )


def _ppm_cold(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    start: int,
    max_order: int,
) -> PpmState:
    """Cold PPM state for one shard's branch stream."""
    state = ppm_empty_state(max_order)
    count = len(outcomes)
    state.total = count
    state.taken_total = int(outcomes.sum())
    if count == 0:
        return state
    mask = np.uint64((1 << max_order) - 1)
    bits = outcomes.astype(np.uint64)
    global_history, local_history = _history_streams(
        pcs, outcomes, max_order
    )
    # Outgoing shift registers are the post-update histories of the
    # last branch (globally) / last occurrence (per PC).
    after_global = ((global_history << _U64_ONE) | bits) & mask
    after_local = ((local_history << _U64_ONE) | bits) & mask
    state.global_bits = int(after_global[-1])
    state.global_nbits = min(count, max_order)
    order = np.argsort(pcs, kind="stable")
    sorted_pcs = pcs[order]
    new_group = np.ones(count, dtype=bool)
    new_group[1:] = sorted_pcs[1:] != sorted_pcs[:-1]
    last_of_group = np.ones(count, dtype=bool)
    last_of_group[:-1] = new_group[1:]
    group_starts = np.flatnonzero(new_group)
    occurrences = np.diff(np.append(group_starts, count))
    state.local_pcs = sorted_pcs[new_group]
    state.local_bits = after_local[order[last_of_group]]
    state.local_occ = occurrences
    state.local_nbits = np.minimum(occurrences, max_order)

    position = np.arange(count, dtype=np.int64)
    occurrence_index = _group_positions(pcs)
    resolved_global = position >= max_order
    resolved_local = occurrence_index >= max_order
    deferred_global_mask = ~resolved_global
    deferred_local_mask = ~resolved_local
    state.deferred_global = (
        pcs[deferred_global_mask].astype(np.uint64),
        position[deferred_global_mask],
        global_history[deferred_global_mask],
        outcomes[deferred_global_mask].astype(np.int64),
    )
    state.deferred_local = (
        pcs[deferred_local_mask].astype(np.uint64),
        occurrence_index[deferred_local_mask],
        local_history[deferred_local_mask],
        outcomes[deferred_local_mask].astype(np.int64),
    )
    for name, use_global, shared in VARIANTS:
        history = global_history if use_global else local_history
        resolved = resolved_global if use_global else resolved_local
        selected_history = history[resolved]
        selected_outcomes = outcomes[resolved]
        selected_pcs = (
            np.zeros(int(resolved.sum()), dtype=np.uint64)
            if shared
            else pcs[resolved].astype(np.uint64)
        )
        ranked_pcs = np.unique(selected_pcs, return_inverse=True)
        for order_length in range(max_order + 1):
            context = selected_history & np.uint64(
                (1 << order_length) - 1
            )
            state.tables[(name, order_length)] = _aggregate_table(
                ranked_pcs, context, selected_outcomes, max_order
            )
    if start == 0:
        _root_resolve(state)
    return state


def _add_resolved(
    state: PpmState,
    use_global: bool,
    pcs: np.ndarray,
    histories: np.ndarray,
    outcomes: np.ndarray,
) -> None:
    """Fold newly history-complete branches into a family's tables."""
    if len(outcomes) == 0:
        return
    max_order = state.max_order
    family = [
        name
        for name, variant_global, _ in VARIANTS
        if variant_global == use_global
    ]
    shared_by_name = {
        name: shared
        for name, variant_global, shared in VARIANTS
        if variant_global == use_global
    }
    zeros = np.zeros(len(outcomes), dtype=np.uint64)
    for name in family:
        ranked_pcs = np.unique(
            zeros if shared_by_name[name] else pcs, return_inverse=True
        )
        for order_length in range(max_order + 1):
            context = histories & np.uint64((1 << order_length) - 1)
            contribution = _aggregate_table(
                ranked_pcs, context, outcomes, max_order
            )
            state.tables[(name, order_length)] = _merge_tables(
                state.tables[(name, order_length)], contribution
            )


def _root_resolve(state: PpmState) -> None:
    """Resolve all deferred branches of a range rooted at trace start.

    Histories start at zero, so the known bits *are* the full history
    (zero-padded above); every deferred branch joins the tables.
    """
    dg_pc, _, dg_bits, dg_out = state.deferred_global
    _add_resolved(state, True, dg_pc, dg_bits, dg_out)
    dl_pc, _, dl_bits, dl_out = state.deferred_local
    _add_resolved(state, False, dl_pc, dl_bits, dl_out)
    state.deferred_global = _empty_deferred()
    state.deferred_local = _empty_deferred()


def _ppm_merge(
    a: PpmState, b: PpmState, left_rooted: bool
) -> PpmState:
    """Merge adjacent cold PPM states (a immediately precedes b)."""
    max_order = a.max_order
    mask = np.uint64((1 << max_order) - 1)
    merged = ppm_empty_state(max_order)
    merged.total = a.total + b.total
    merged.taken_total = a.taken_total + b.taken_total
    merged.global_nbits = min(
        max_order, a.global_nbits + b.global_nbits
    )
    merged.global_bits = int(
        (
            (np.uint64(a.global_bits) << np.uint64(b.global_nbits))
            | np.uint64(b.global_bits)
        )
        & mask
    )

    # Per-PC register composition over the union of PC sets.
    union_pcs = np.union1d(a.local_pcs, b.local_pcs)
    a_pos, in_a = _sorted_lookup(a.local_pcs, union_pcs)
    b_pos, in_b = _sorted_lookup(b.local_pcs, union_pcs)
    a_bits = _masked_gather(a.local_bits, a_pos, in_a, 0, np.uint64)
    a_nbits = _masked_gather(a.local_nbits, a_pos, in_a, 0, np.int64)
    a_occ = _masked_gather(a.local_occ, a_pos, in_a, 0, np.int64)
    b_bits = _masked_gather(b.local_bits, b_pos, in_b, 0, np.uint64)
    b_nbits = _masked_gather(b.local_nbits, b_pos, in_b, 0, np.int64)
    b_occ = _masked_gather(b.local_occ, b_pos, in_b, 0, np.int64)
    merged.local_pcs = union_pcs
    merged.local_bits = (
        (a_bits << b_nbits.astype(np.uint64)) | b_bits
    ) & mask
    merged.local_nbits = np.minimum(max_order, a_nbits + b_nbits)
    merged.local_occ = a_occ + b_occ

    # Union-sum count tables before folding in resolutions.
    for key in a.tables:
        merged.tables[key] = _merge_tables(a.tables[key], b.tables[key])

    # Resolve b's deferred-global branches against a's register.
    dg_pc, dg_prior, dg_bits, dg_out = b.deferred_global
    if len(dg_out):
        known = a.global_nbits + dg_prior
        resolvable = (
            np.full(len(dg_out), left_rooted) | (known >= max_order)
        )
        composed = (
            (np.uint64(a.global_bits) << dg_prior.astype(np.uint64))
            | dg_bits
        ) & mask
        _add_resolved(
            merged,
            True,
            dg_pc[resolvable],
            composed[resolvable],
            dg_out[resolvable],
        )
        keep = ~resolvable
        new_global = (
            dg_pc[keep],
            dg_prior[keep] + a.total,
            composed[keep],
            dg_out[keep],
        )
    else:
        new_global = _empty_deferred()

    # Resolve b's deferred-local branches against a's per-PC registers.
    dl_pc, dl_prior, dl_bits, dl_out = b.deferred_local
    if len(dl_out):
        positions, found = _sorted_lookup(a.local_pcs, dl_pc)
        left_bits = _masked_gather(
            a.local_bits, positions, found, 0, np.uint64
        )
        left_nbits = _masked_gather(
            a.local_nbits, positions, found, 0, np.int64
        )
        left_occ = _masked_gather(
            a.local_occ, positions, found, 0, np.int64
        )
        known = left_nbits + dl_prior
        resolvable = (
            np.full(len(dl_out), left_rooted) | (known >= max_order)
        )
        composed = (
            (left_bits << dl_prior.astype(np.uint64)) | dl_bits
        ) & mask
        _add_resolved(
            merged,
            False,
            dl_pc[resolvable],
            composed[resolvable],
            dl_out[resolvable],
        )
        keep = ~resolvable
        new_local = (
            dl_pc[keep],
            dl_prior[keep] + left_occ[keep],
            composed[keep],
            dl_out[keep],
        )
    else:
        new_local = _empty_deferred()

    merged.deferred_global = tuple(
        np.concatenate([old, new])
        for old, new in zip(a.deferred_global, new_global)
    )
    merged.deferred_local = tuple(
        np.concatenate([old, new])
        for old, new in zip(a.deferred_local, new_local)
    )
    return merged


def ppm_shard_correct(
    chunk: Trace, carry: PpmState, max_order: int
) -> np.ndarray:
    """Per-variant correct-prediction counts for one shard.

    ``carry`` must be the cold PPM state of the *rooted* prefix
    ``[0, start)`` (fully resolved: no deferred branches).  The
    in-shard history streams are seeded from its shift registers, and
    its count tables supply the prior counts of prefix branches, so
    each branch sees exactly the table state of the one-shot predictor.
    """
    if len(carry.deferred_global[1]) or len(carry.deferred_local[1]):
        raise CharacterizationError(
            "PPM carry state must be rooted (fully resolved)"
        )
    pcs = chunk.branch_pcs
    outcomes = chunk.branch_outcomes
    count = len(outcomes)
    correct = np.zeros(len(VARIANTS), dtype=np.int64)
    if count == 0:
        return correct
    mask = np.uint64((1 << max_order) - 1)
    global_history, local_history = _history_streams(
        pcs, outcomes, max_order
    )
    # Seed the global stream: branch t's bits t..m-1 come from the
    # prefix register shifted past its t in-shard bits.
    seed_count = min(max_order, count)
    if carry.global_bits and seed_count:
        shifts = np.arange(seed_count, dtype=np.uint64)
        global_history[:seed_count] |= (
            np.uint64(carry.global_bits) << shifts
        ) & mask
    # Seed the local streams the same way per PC occurrence index.
    occurrence_index = _group_positions(pcs)
    if len(carry.local_pcs):
        positions, found = _sorted_lookup(carry.local_pcs, pcs)
        registers = np.where(
            found, carry.local_bits[positions], np.uint64(0)
        )
        seedable = occurrence_index < max_order
        local_history[seedable] |= (
            registers[seedable]
            << occurrence_index[seedable].astype(np.uint64)
        ) & mask

    _, pc_ids = np.unique(pcs, return_inverse=True)
    pc_keys = (
        pc_ids.astype(np.uint64) + _U64_ONE
    ) << np.uint64(max_order)
    zero_pcs = np.zeros(count, dtype=np.uint64)
    zero_ctx = np.zeros(count, dtype=np.uint64)
    branch_pcs_u64 = pcs.astype(np.uint64)

    shared_taken = (
        np.cumsum(outcomes) - outcomes + carry.taken_total
    )
    shared_not_taken = (
        np.arange(count, dtype=np.int64)
        - (np.cumsum(outcomes) - outcomes)
        + (carry.total - carry.taken_total)
    )
    per_pc_order0: "Optional[Tuple[np.ndarray, np.ndarray]]" = None

    for variant_index, (name, use_global, shared) in enumerate(
        VARIANTS
    ):
        history = global_history if use_global else local_history
        prediction = np.ones(count, dtype=bool)
        undecided = np.ones(count, dtype=bool)
        for order_length in range(max_order, -1, -1):
            if not undecided.any():
                break
            if order_length == 0:
                if shared:
                    taken_before = shared_taken
                    not_taken_before = shared_not_taken
                else:
                    if per_pc_order0 is None:
                        in_taken, in_not = _prior_outcome_counts(
                            pc_keys, outcomes
                        )
                        inc_not, inc_taken = _table_lookup(
                            carry.tables[(name, 0)],
                            branch_pcs_u64,
                            zero_ctx,
                            max_order,
                        )
                        per_pc_order0 = (
                            in_taken + inc_taken,
                            in_not + inc_not,
                        )
                    taken_before, not_taken_before = per_pc_order0
            else:
                context = history & np.uint64(
                    (1 << order_length) - 1
                )
                keys = context if shared else context | pc_keys
                taken_before, not_taken_before = (
                    _prior_outcome_counts(keys, outcomes)
                )
                inc_not, inc_taken = _table_lookup(
                    carry.tables[(name, order_length)],
                    zero_pcs if shared else branch_pcs_u64,
                    context,
                    max_order,
                )
                taken_before = taken_before + inc_taken
                not_taken_before = not_taken_before + inc_not
            informative = undecided & (
                taken_before != not_taken_before
            )
            prediction[informative] = (
                taken_before[informative]
                > not_taken_before[informative]
            )
            undecided &= ~informative
        correct[variant_index] = int(
            (prediction == outcomes).sum()
        )
    return correct


# -- the combined shard state ---------------------------------------------


@dataclass
class ShardState:
    """All requested sections' mergeable state for ``[start, end)``."""

    start: int
    end: int
    sections: Tuple[str, ...]
    mix: "Optional[MixState]" = None
    ilp: "Optional[IlpState]" = None
    reg: "Optional[RegisterState]" = None
    ws: "Optional[WorkingSetState]" = None
    stride: "Optional[StrideState]" = None
    ppm: "Optional[PpmState]" = None

    @property
    def rooted(self) -> bool:
        return self.start == 0


def shard_state(
    chunk: Trace,
    start: int,
    config,
    wanted: "Optional[np.ndarray]" = None,
) -> ShardState:
    """Cold (carry-free) shard state for one contiguous chunk.

    Args:
        chunk: the rows of ``[start, start + len(chunk))``.
        start: the chunk's absolute position in the full trace.
        config: the :class:`~repro.config.ReproConfig` in effect.
        wanted: optional 47-entry mask (:func:`resolve_wanted`);
            unrequested sections are skipped entirely.

    Raises:
        CharacterizationError: empty chunk, or a PPM order beyond the
            packed-key engine (the scalar fallback cannot shard).
    """
    if len(chunk) == 0:
        raise CharacterizationError(
            "cannot characterize an empty shard"
        )
    if wanted is None:
        wanted = resolve_wanted()
    sections = wanted_sections(wanted)
    state = ShardState(start, start + len(chunk), sections)
    producers: "Optional[Tuple[np.ndarray, np.ndarray]]" = None
    if "ILP" in sections or "register traffic" in sections:
        producers = producer_indices(chunk)
    if "instruction mix" in sections:
        state.mix = MixState.cold(chunk)
    if "ILP" in sections:
        state.ilp = IlpState.cold(
            chunk, start, config.ilp_window_sizes, producers
        )
    if "register traffic" in sections:
        state.reg = RegisterState.cold(
            chunk, start, config.reg_dep_thresholds, producers
        )
    if "working set size" in sections:
        state.ws = WorkingSetState.cold(
            chunk, config.block_bytes, config.page_bytes
        )
    if "data stream strides" in sections:
        state.stride = StrideState.cold(
            chunk, config.stride_thresholds
        )
    if "branch predictability" in sections:
        _check_shard_max_order(config.ppm_max_order)
        state.ppm = _ppm_cold(
            chunk.branch_pcs,
            chunk.branch_outcomes,
            start,
            config.ppm_max_order,
        )
    return state


def merge_states(a: ShardState, b: ShardState, config) -> ShardState:
    """Merge the states of two adjacent ranges (``a`` before ``b``).

    Associative by construction, so shards can be folded left-to-right
    or combined as a tree; rooted left sides resolve every deferred
    PPM branch, keeping prefix states prediction-ready.

    Raises:
        CharacterizationError: non-adjacent ranges or mismatched
            section sets.
    """
    if a.end != b.start:
        raise CharacterizationError(
            f"cannot merge non-adjacent shard states "
            f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
        )
    if a.sections != b.sections:
        raise CharacterizationError(
            "cannot merge shard states with different sections"
        )
    merged = ShardState(a.start, b.end, a.sections)
    if a.mix is not None:
        merged.mix = MixState.merge(a.mix, b.mix)
    if a.ilp is not None:
        merged.ilp = IlpState.merge(
            a.ilp, b.ilp, a.start, a.end, b.end
        )
    if a.reg is not None:
        merged.reg = RegisterState.merge(
            a.reg, b.reg, config.reg_dep_thresholds
        )
    if a.ws is not None:
        merged.ws = WorkingSetState.merge(a.ws, b.ws)
    if a.stride is not None:
        merged.stride = StrideState.merge(
            a.stride, b.stride, config.stride_thresholds
        )
    if a.ppm is not None:
        merged.ppm = _ppm_merge(a.ppm, b.ppm, a.rooted)
    return merged


def finalize_state(
    state: ShardState,
    ppm_correct: "Optional[np.ndarray]",
    config,
    wanted: "Optional[np.ndarray]" = None,
) -> np.ndarray:
    """The 47-dim vector of a rooted, fully merged state.

    ``ppm_correct`` is the summed per-variant correct-prediction count
    from :func:`ppm_shard_correct` (None when the PPM section was not
    requested).  Unrequested entries are NaN; requested entries are
    bit-identical to one-shot :func:`~repro.mica.characterize`.
    """
    if not state.rooted:
        raise CharacterizationError(
            "cannot finalize an unrooted shard state "
            f"(starts at {state.start})"
        )
    if wanted is None:
        wanted = resolve_wanted()
    n = state.end - state.start
    values = np.full(NUM_CHARACTERISTICS, np.nan)
    if state.mix is not None:
        values[_MIX_SLICE] = state.mix.finalize(n)
    if state.ilp is not None:
        values[_ILP_SLICE] = state.ilp.finalize(
            n, config.ilp_window_sizes
        )
    if state.reg is not None:
        values[_REG_SLICE] = state.reg.finalize(n)
    if state.ws is not None:
        values[_WS_SLICE] = state.ws.finalize()
    if state.stride is not None:
        values[_STRIDE_SLICE] = state.stride.finalize()
    if state.ppm is not None:
        if ppm_correct is None:
            raise CharacterizationError(
                "PPM section requires the per-shard prediction pass"
            )
        total = state.ppm.total
        if total:
            values[_PPM_SLICE] = ppm_correct.astype(np.int64) / total
        else:
            values[_PPM_SLICE] = np.zeros(len(VARIANTS))
    values[~wanted] = np.nan
    return values


# -- serialization (shard cache entries, worker transport) ----------------


def sections_mask(sections: "Sequence[str]") -> int:
    """Bit ``i`` set for each of ``sections`` at ``SECTION_ORDER[i]``."""
    return sum(
        1 << position
        for position, name in enumerate(SECTION_ORDER)
        if name in sections
    )


def state_to_arrays(state: ShardState) -> "Dict[str, np.ndarray]":
    """Flatten a shard state into named arrays (one ``.npz`` entry)."""
    mask = sections_mask(state.sections)
    max_order = state.ppm.max_order if state.ppm is not None else -1
    arrays: "Dict[str, np.ndarray]" = {
        "meta": np.array(
            [state.start, state.end, mask, max_order], dtype=np.int64
        )
    }
    if state.mix is not None:
        arrays["mix_counts"] = state.mix.counts
    if state.ws is not None:
        arrays["ws_data_blocks"] = state.ws.data_blocks
        arrays["ws_data_pages"] = state.ws.data_pages
        arrays["ws_instr_blocks"] = state.ws.instr_blocks
        arrays["ws_instr_pages"] = state.ws.instr_pages
    if state.stride is not None:
        stride = state.stride
        arrays["st_counts"] = stride.counts
        arrays["st_pairs"] = stride.pairs
        arrays["st_global_n"] = stride.global_n
        arrays["st_global_first"] = stride.global_first
        arrays["st_global_last"] = stride.global_last
        for kind in range(2):
            arrays[f"st_pcs_{kind}"] = stride.local_pcs[kind]
            arrays[f"st_first_{kind}"] = stride.local_first[kind]
            arrays[f"st_last_{kind}"] = stride.local_last[kind]
    if state.reg is not None:
        reg = state.reg
        arrays["rg_scalars"] = np.array(
            [reg.operand_sum, reg.total_writes, reg.consumed_reads],
            dtype=np.int64,
        )
        arrays["rg_counts"] = reg.dist_counts
        arrays["rg_last_writer"] = reg.last_writer
        arrays["rg_orphan_pos"] = reg.orphan_pos
        arrays["rg_orphan_reg"] = reg.orphan_reg
    if state.ilp is not None:
        ilp = state.ilp
        arrays["ilp_sizes"] = np.array(ilp.sizes, dtype=np.int64)
        arrays["ilp_cycles"] = ilp.cycles
        arrays["ilp_head"] = ilp.head.reshape(-1, _ROW_FIELDS)
        arrays["ilp_tail"] = ilp.tail.reshape(-1, _ROW_FIELDS)
    if state.ppm is not None:
        ppm = state.ppm
        arrays["ppm_scalars"] = np.array(
            [ppm.total, ppm.taken_total, ppm.global_nbits],
            dtype=np.int64,
        )
        arrays["ppm_global_bits"] = np.array(
            [ppm.global_bits], dtype=np.uint64
        )
        arrays["ppm_local_pcs"] = ppm.local_pcs
        arrays["ppm_local_bits"] = ppm.local_bits
        arrays["ppm_local_nbits"] = ppm.local_nbits
        arrays["ppm_local_occ"] = ppm.local_occ
        for (name, order_length), table in ppm.tables.items():
            prefix = f"ppm_t_{name}_{order_length}"
            arrays[f"{prefix}_pc"] = table[0]
            arrays[f"{prefix}_cx"] = table[1]
            arrays[f"{prefix}_nt"] = table[2]
            arrays[f"{prefix}_tk"] = table[3]
        for label, deferred in (
            ("dg", ppm.deferred_global),
            ("dl", ppm.deferred_local),
        ):
            arrays[f"ppm_{label}_pc"] = deferred[0]
            arrays[f"ppm_{label}_prior"] = deferred[1]
            arrays[f"ppm_{label}_bits"] = deferred[2]
            arrays[f"ppm_{label}_out"] = deferred[3]
    return arrays


def state_from_arrays(
    arrays: "Dict[str, np.ndarray]",
) -> ShardState:
    """Rebuild a shard state flattened by :func:`state_to_arrays`."""
    meta = arrays["meta"]
    start, end, mask, max_order = (int(value) for value in meta)
    sections = tuple(
        name
        for position, name in enumerate(SECTION_ORDER)
        if mask & (1 << position)
    )
    state = ShardState(start, end, sections)
    if "mix_counts" in arrays:
        state.mix = MixState(
            np.asarray(arrays["mix_counts"], dtype=np.int64)
        )
    if "ws_data_blocks" in arrays:
        state.ws = WorkingSetState(
            np.asarray(arrays["ws_data_blocks"]),
            np.asarray(arrays["ws_data_pages"]),
            np.asarray(arrays["ws_instr_blocks"]),
            np.asarray(arrays["ws_instr_pages"]),
        )
    if "st_counts" in arrays:
        state.stride = StrideState(
            np.asarray(arrays["st_counts"], dtype=np.int64),
            np.asarray(arrays["st_pairs"], dtype=np.int64),
            np.asarray(arrays["st_global_n"], dtype=np.int64),
            np.asarray(arrays["st_global_first"], dtype=np.int64),
            np.asarray(arrays["st_global_last"], dtype=np.int64),
            [np.asarray(arrays[f"st_pcs_{kind}"]) for kind in range(2)],
            [
                np.asarray(arrays[f"st_first_{kind}"], dtype=np.int64)
                for kind in range(2)
            ],
            [
                np.asarray(arrays[f"st_last_{kind}"], dtype=np.int64)
                for kind in range(2)
            ],
        )
    if "rg_scalars" in arrays:
        scalars = arrays["rg_scalars"]
        state.reg = RegisterState(
            int(scalars[0]),
            int(scalars[1]),
            int(scalars[2]),
            np.asarray(arrays["rg_counts"], dtype=np.int64),
            np.asarray(arrays["rg_last_writer"], dtype=np.int64),
            np.asarray(arrays["rg_orphan_pos"], dtype=np.int64),
            np.asarray(arrays["rg_orphan_reg"], dtype=np.int64),
        )
    if "ilp_sizes" in arrays:
        state.ilp = IlpState(
            tuple(int(size) for size in arrays["ilp_sizes"]),
            np.asarray(arrays["ilp_cycles"], dtype=np.int64),
            np.asarray(arrays["ilp_head"], dtype=np.uint8).reshape(
                -1, _ROW_FIELDS
            ),
            np.asarray(arrays["ilp_tail"], dtype=np.uint8).reshape(
                -1, _ROW_FIELDS
            ),
        )
    if "ppm_scalars" in arrays:
        scalars = arrays["ppm_scalars"]
        ppm = ppm_empty_state(max_order)
        ppm.total = int(scalars[0])
        ppm.taken_total = int(scalars[1])
        ppm.global_nbits = int(scalars[2])
        ppm.global_bits = int(arrays["ppm_global_bits"][0])
        ppm.local_pcs = np.asarray(arrays["ppm_local_pcs"])
        ppm.local_bits = np.asarray(arrays["ppm_local_bits"])
        ppm.local_nbits = np.asarray(
            arrays["ppm_local_nbits"], dtype=np.int64
        )
        ppm.local_occ = np.asarray(
            arrays["ppm_local_occ"], dtype=np.int64
        )
        for name, _, _ in VARIANTS:
            for order_length in range(max_order + 1):
                prefix = f"ppm_t_{name}_{order_length}"
                ppm.tables[(name, order_length)] = (
                    np.asarray(arrays[f"{prefix}_pc"]),
                    np.asarray(arrays[f"{prefix}_cx"]),
                    np.asarray(arrays[f"{prefix}_nt"], dtype=np.int64),
                    np.asarray(arrays[f"{prefix}_tk"], dtype=np.int64),
                )
        ppm.deferred_global = tuple(
            np.asarray(arrays[f"ppm_dg_{part}"])
            for part in ("pc", "prior", "bits", "out")
        )
        ppm.deferred_local = tuple(
            np.asarray(arrays[f"ppm_dl_{part}"])
            for part in ("pc", "prior", "bits", "out")
        )
        state.ppm = ppm
    return state

"""Inherent instruction-level parallelism (Table II, characteristics 7-10).

The paper measures the IPC achievable on an idealized out-of-order
processor: perfect caches, perfect branch prediction, unlimited
functional units, unit execution latency — the *only* constraints are
true register data dependencies and the instruction window.  We model
the window exactly as the MICA tool does: the trace is partitioned into
consecutive non-overlapping windows of W instructions; each window
executes in as many cycles as its dataflow critical path; IPC is the
instruction count divided by the summed critical-path lengths.

Register dataflow is recovered with :func:`producer_indices`, which
maps every source operand to the dynamic index of the instruction that
produced the value (the most recent writer of that architected
register).  One grouped-radix kernel serves it and the segmented
engine: the writes and both slots' reads (one stream) are
stable-sorted by a narrow group id (the register here, interval x
register there) in one 8- or 16-bit radix pass each, and the grouped
writes merge into the grouped reads with one binary search.  The
retained per-register :func:`producer_indices_reference` is its
executable specification.

Two critical-path implementations are provided:

* :func:`window_cycle_counts` — the production path.  Windows of one
  size are mutually independent, so each size walks window-relative
  *offsets* and, at each offset, updates the dataflow depth of that
  position in every window with array gathers; a producer always
  precedes its consumer, so by the time offset ``j`` is processed
  every in-window producer already has its final depth.  Window
  prefixes nest: a size starts from the depths of the largest walked
  size dividing it and walks only the offsets that size does not
  cover.  The segmented engine runs the same walk, with windows
  restarting at every interval start.
* :func:`ilp_ipc_reference` — the original per-instruction scalar loop,
  retained as the executable specification for the equivalence tests.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..isa import NO_REG
from ..isa.registers import FP_ZERO_REG, INT_ZERO_REG, TOTAL_REGS
from ..trace import Trace

#: Producer index used when a source has no producer in the trace.
NO_PRODUCER = -1


#: Register liveness lookup: absent slots and the hardwired-zero
#: registers never have a producer.
_LIVE_SOURCE = np.ones(1 << 8, dtype=bool)
_LIVE_SOURCE[[NO_REG, INT_ZERO_REG, FP_ZERO_REG]] = False


def _radix_dtype(domain: int) -> type:
    """Narrowest group-id dtype for ``domain`` ids: numpy's stable sort
    is one radix pass for 8- and 16-bit integers, an order of magnitude
    faster than the 64-bit merge sort it falls back to."""
    if domain <= (1 << 8):
        return np.uint8
    if domain <= (1 << 16):
        return np.uint16
    return np.int64


def _grouped_producer_indices(
    src1: np.ndarray, src2: np.ndarray, dst: np.ndarray, interval: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Producer recovery with register state restarting every
    ``interval`` instructions (``interval >= len(dst)``: never).

    The writes and the reads (both slots in one position-ascending
    stream, event ``2 * position + slot``) are grouped by the segmented
    register — ``(position // interval) * TOTAL_REGS + register``, a
    bare register number with one interval — in one radix pass each
    over the narrow group domain, never a 64-bit comparison sort, and
    become ascending ``group * (n + 1) + position`` key arrays (the
    stable sort keeps positions ascending within each group).  The
    writes merge into the reads with one sorted-query binary search,
    and each read's preceding-write slot falls out of the insertion
    histogram.  The producer is that write, provided it belongs to the
    read's group.  An instruction's same-register write has exactly
    its read's key; ``side="right"`` inserts it after, keeping it
    invisible.
    """
    n = len(dst)
    operands = np.stack([src1, src2], axis=1).ravel()
    events = np.flatnonzero(_LIVE_SOURCE[operands])
    writers = np.flatnonzero(dst != NO_REG)
    producers = np.full(2 * n, NO_PRODUCER, dtype=np.int64)
    if len(writers) and len(events):
        count = -(-n // interval)
        dtype = _radix_dtype(count * TOTAL_REGS)
        # Live registers stay below TOTAL_REGS, so a group never wraps
        # the narrow dtype.
        offsets = np.repeat(
            np.arange(count, dtype=dtype) * dtype(TOTAL_REGS), interval
        )

        # In-place steps and early ``del``s keep the peak small, so the
        # allocator reuses its pages instead of faulting in fresh ones
        # on every call (a third of this kernel's time at 20k).
        def grouped(positions: np.ndarray, registers: np.ndarray):
            groups = registers.astype(dtype)
            groups += offsets[positions]
            order = np.argsort(groups, kind="stable")
            sorted_groups = groups[order]
            keys = sorted_groups.astype(np.int64)
            keys *= n + 1
            keys += positions[order]
            return sorted_groups, order, keys

        write_groups, order, write_keys = grouped(writers, dst[writers])
        sorted_writers = writers[order]
        read_groups, order, read_keys = grouped(
            events >> 1, operands[events]
        )
        insertions = np.searchsorted(read_keys, write_keys, side="right")
        del read_keys, write_keys
        slot = np.bincount(insertions, minlength=len(events) + 1)[:-1]
        del insertions
        np.cumsum(slot, out=slot)
        slot -= 1
        valid = slot >= 0
        np.maximum(slot, 0, out=slot)
        valid &= write_groups[slot] == read_groups
        found = sorted_writers[slot]
        del slot
        np.copyto(found, NO_PRODUCER, where=~valid)
        producers[events[order]] = found
    return producers[0::2].copy(), producers[1::2].copy()


def producer_indices(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """Dynamic producer index for each instruction's two source slots.

    For every instruction ``i`` and source slot, the result holds the
    index of the most recent earlier instruction that wrote that source
    register, or :data:`NO_PRODUCER` when the slot is empty, reads a
    hardwired-zero register, or reads a register not yet written.
    One interval of the grouped-radix kernel the segmented engine
    shares, so each group is one architected register.

    Returns:
        ``(producer1, producer2)`` int64 arrays of the trace length.
    """
    return _grouped_producer_indices(
        trace.src1, trace.src2, trace.dst, max(len(trace), 1)
    )


def producer_indices_reference(
    trace: Trace,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-register producer recovery — the executable specification.

    Walks one register at a time with a ``searchsorted`` lookup per
    (slot, register) pair; retained for the equivalence tests and the
    perf harness.  Produces exactly the arrays of
    :func:`producer_indices`.
    """
    n = len(trace)
    dst = trace.dst
    producers = []
    # Writer positions per register, for searchsorted-based lookup.
    writer_positions: Dict[int, np.ndarray] = {}
    has_dst = dst != NO_REG
    written_registers = np.unique(dst[has_dst])
    positions = np.arange(n, dtype=np.int64)
    for register in written_registers:
        writer_positions[int(register)] = positions[dst == register]

    for source in (trace.src1, trace.src2):
        producer = np.full(n, NO_PRODUCER, dtype=np.int64)
        live = (source != NO_REG) & (source != INT_ZERO_REG) & (
            source != FP_ZERO_REG
        )
        for register in np.unique(source[live]):
            register = int(register)
            writers = writer_positions.get(register)
            if writers is None:
                continue
            readers = positions[live & (source == register)]
            slot = np.searchsorted(writers, readers, side="left") - 1
            valid = slot >= 0
            producer[readers[valid]] = writers[slot[valid]]
        producers.append(producer)
    return producers[0], producers[1]


def _window_critical_paths_reference(
    producer1: np.ndarray, producer2: np.ndarray, window: int
) -> int:
    """Scalar critical-path walk — the executable specification.

    Total cycles: sum of dataflow critical paths over W-sized windows.
    """
    n = len(producer1)
    level = np.ones(n, dtype=np.int32)
    p1 = producer1
    p2 = producer2
    total_cycles = 0
    for window_start in range(0, n, window):
        window_end = min(window_start + window, n)
        depth = 1
        for i in range(window_start, window_end):
            best = 0
            p = p1[i]
            if p >= window_start:
                best = level[p]
            p = p2[i]
            if p >= window_start and level[p] > best:
                best = level[p]
            lvl = best + 1
            level[i] = lvl
            if lvl > depth:
                depth = lvl
        total_cycles += depth
    return total_cycles


def _window_depths(
    producer1: np.ndarray,
    producer2: np.ndarray,
    window_sizes: Sequence[int],
    interval: "int | None" = None,
) -> Dict[int, np.ndarray]:
    """Dataflow critical path of every window of every size.

    Windows restart every ``interval`` instructions (default: never;
    ``interval`` must divide the trace length) and tile each interval
    from its start: row ``k`` of size ``W`` covers positions
    ``[k * W, (k + 1) * W)`` clipped to the interval, so the last row
    is a partial window when the interval ends inside one.  Producers
    must lie in their consumer's interval.

    Each size lays its rows out as a ``(rows, W)`` grid, every row
    padded to ``W`` cells, and walks window-relative offsets: at offset
    ``j`` the instructions at ``j`` of every window (one grid column)
    gather their producers' already-final depths.  Depths are stored
    *based*, as ``window start position + depth``: a producer in an
    earlier window then holds at most the consumer's window start, so
    ``max(based producers, window start) + 1`` is the consumer's based
    depth with no membership test (``NO_PRODUCER`` reads a trailing
    cell below every start).  Padding cells have no producer, and
    their depth 1 never raises a window max.

    Windows are aligned, so when ``V`` divides ``W`` the ``V``-window at
    each ``W``-window start is its prefix and offsets below ``V`` have
    equal based depths in both: each size starts from the depths of the
    largest already-walked size dividing it and walks only offsets
    ``V..W-1`` (32/64/128/256 take 255 offset steps, not 476).  A size
    with no walked divisor walks from offset 1.

    Returns:
        ``{size: per-row critical paths}`` for each distinct size, rows
        interval-major.
    """
    n = len(producer1)
    interval = max(n, 1) if interval is None else interval
    count = n // interval
    bases = np.arange(count, dtype=np.int64) * interval
    producer_rows = [
        producer.reshape(count, interval)
        for producer in (producer1, producer2)
    ]
    live_rows = [rows >= 0 for rows in producer_rows]
    walked: Dict[int, np.ndarray] = {}
    depths: Dict[int, np.ndarray] = {}
    for window in sorted({int(window) for window in window_sizes}):
        per = -(-interval // window)  # Rows per interval.
        block = per * window
        cells = count * block
        starts = (
            bases[:, None] + np.arange(0, block, window)
        ).ravel()
        based = np.empty(cells + 1, dtype=np.int64)
        grid = based[:cells].reshape(count * per, window)
        grid[:] = starts[:, None] + 1  # Depth 1 throughout.
        based[cells] = -window  # Read by NO_PRODUCER (index -1).
        # Position ``i * interval + o`` sits in cell ``i * block + o``.
        at_positions = based[:cells].reshape(count, block)[:, :interval]
        first = max(
            (size for size in walked if window % size == 0), default=1
        )
        if first > 1:
            at_positions[:] = walked[first]
        shift = np.arange(count, dtype=np.int64) * (block - interval)
        columns = []
        for rows, live in zip(producer_rows, live_rows):
            column = np.full(cells, NO_PRODUCER, dtype=np.int64)
            # A producer moves to its cell; NO_PRODUCER stays put.
            at = column.reshape(count, block)[:, :interval]
            np.multiply(live, shift[:, None], out=at)
            at += rows
            columns.append(column.reshape(count * per, window))
        depth = np.empty(count * per, dtype=np.int64)
        for offset in range(first, min(window, interval)):
            np.maximum(
                based[columns[0][:, offset]],
                based[columns[1][:, offset]],
                out=depth,
            )
            np.maximum(depth, starts, out=depth)
            depth += 1
            grid[:, offset] = depth
        walked[window] = at_positions
        depths[window] = grid.max(axis=1) - starts
    return depths


def window_cycle_counts(
    producer1: np.ndarray,
    producer2: np.ndarray,
    window_sizes: Sequence[int],
) -> List[int]:
    """Summed per-window critical-path cycles for every window size.

    Windows tile the trace from its first instruction (see
    :func:`_window_depths` for the walk).

    Returns:
        Total cycles per entry of ``window_sizes`` (same order).
    """
    depths = _window_depths(producer1, producer2, window_sizes)
    return [int(depths[int(window)].sum()) for window in window_sizes]


def _validate_ilp_inputs(trace: Trace, window_sizes: Sequence[int]) -> None:
    if len(trace) == 0:
        raise CharacterizationError("cannot compute ILP of an empty trace")
    for window in window_sizes:
        if window < 1:
            raise CharacterizationError(f"invalid window size: {window}")


def ilp_ipc(
    trace: Trace,
    window_sizes: Sequence[int] = (32, 64, 128, 256),
    producers: "Tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """Idealized-processor IPC for each window size.

    Vectorized: window sizes are walked offset-major, each from the
    depths of the largest size dividing it (see
    :func:`window_cycle_counts`), producing exactly the same cycle
    counts as :func:`ilp_ipc_reference`.

    Args:
        trace: the dynamic instruction trace.
        window_sizes: instruction-window sizes (paper: 32/64/128/256).
        producers: precomputed :func:`producer_indices` result (shared
            with register-traffic analysis to avoid recomputation).

    Returns:
        IPC value per window size, same order as ``window_sizes``.

    Raises:
        CharacterizationError: for an empty trace or bad window size.
    """
    _validate_ilp_inputs(trace, window_sizes)
    if producers is None:
        producers = producer_indices(trace)
    producer1, producer2 = producers
    n = len(trace)
    cycle_counts = window_cycle_counts(producer1, producer2, window_sizes)
    result = np.empty(len(window_sizes), dtype=float)
    for position, cycles in enumerate(cycle_counts):
        result[position] = n / cycles if cycles else 0.0
    return result


def ilp_ipc_reference(
    trace: Trace,
    window_sizes: Sequence[int] = (32, 64, 128, 256),
    producers: "Tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """Scalar ILP — re-walks the trace once per window size.

    The executable specification the vectorized :func:`ilp_ipc` is
    tested against; produces identical values.
    """
    _validate_ilp_inputs(trace, window_sizes)
    if producers is None:
        producers = producer_indices(trace)
    producer1, producer2 = producers
    n = len(trace)
    result = np.empty(len(window_sizes), dtype=float)
    for position, window in enumerate(window_sizes):
        cycles = _window_critical_paths_reference(producer1, producer2, window)
        result[position] = n / cycles if cycles else 0.0
    return result

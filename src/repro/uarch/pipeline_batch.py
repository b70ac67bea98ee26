"""Production walks for the two pipeline models.

:func:`inorder_walk` and :func:`ooo_walk` compute the total cycles that
:meth:`repro.uarch.inorder.InOrderModel.run_reference` and
:meth:`repro.uarch.ooo.OutOfOrderModel.run_reference` compute, bit for
bit, with less work per instruction.  Every per-instruction stall term
is precomputed as an array by vectorized passes: folded chain weights
(fetch stalls, mispredict redirects, the memory-port conflict of
consecutive memory operations), result latencies per opclass, and
register slots (``NO_REG`` reads a slot that stays zero and writes a
sink).  The remaining reduced recurrence is walked with no opclass
branching, no front-end state machine and no register-validity checks.

The in-order recurrence forgets its start within a few instructions,
so :func:`inorder_walk` runs chunks of one trace as verified lockstep
lanes (:func:`_lockstep_walk`).  The out-of-order window couples chunks
only after a hundred or more instructions, so :func:`ooo_walk` stays
one scalar loop; it iterates its six per-instruction inputs as
``bytes`` whenever every value fits in 0..255 (every production
machine), which skips building lists of int objects, and as lists
otherwise.  ``tests/test_uarch_pipeline_equivalence.py`` pins
each walk to its reference on IPC.
"""

from __future__ import annotations

import numpy as np

from ..isa import NO_REG, OpClass
from ..isa.registers import TOTAL_REGS
from ..trace import Trace
from .configs import MachineConfig
from .events import MachineEvents

#: Register slots: the architectural registers, a slot ``NO_REG`` reads
#: (never written) and a slot ``NO_REG`` writes (never read).
_SLOTS = TOTAL_REGS + 2

#: In-order lockstep geometry: lane ``j`` starts cold at ``j * _LANE``,
#: warms up over ``_WARMUP`` instructions and then owns the ``_LANE``
#: instructions after them.  Traces with fewer than ``_MIN_LANES`` lanes
#: run the scalar loop alone.
_LANE = 192
_WARMUP = 64
_MIN_LANES = 64


def result_latencies(
    trace: Trace, machine: MachineConfig, events: MachineEvents
) -> np.ndarray:
    """Per-instruction result latency (the scalar loops' ``result_latency``)."""
    latencies = machine.latencies
    by_class = np.ones(256, dtype=np.int64)
    by_class[OpClass.INT_MUL] = latencies.int_mul
    by_class[OpClass.FP] = latencies.fp_op
    opclass = trace.opclass
    is_load = opclass == int(OpClass.LOAD)
    return np.where(is_load, events.memory_latency, by_class.take(opclass))


def _register_slots(trace: Trace):
    """Source and destination slots of every instruction (int64 arrays)."""
    reads = np.arange(256, dtype=np.int64)
    writes = reads.copy()
    reads[NO_REG] = TOTAL_REGS
    writes[NO_REG] = TOTAL_REGS + 1
    return (
        reads.take(trace.src1), reads.take(trace.src2), writes.take(trace.dst)
    )


def _walk_input(values: np.ndarray):
    """``values`` (never negative) as ``bytes`` when every value fits in
    0..255, else as a list: iterating either yields the same ints, and
    ``bytes`` skips building a list of int objects."""
    if len(values) and values.max() > 255:
        return values.tolist()
    return values.astype(np.uint8).tobytes()


def _span_walk(terms, lo: int, hi: int, x: int, row: np.ndarray):
    """Walk positions ``[lo, hi)`` of the in-order recurrence.

    Starts from ``x[lo-1] = x`` and the canonical state ``row`` (see
    :func:`_relative_state`); returns ``x[hi-1]`` and the row at ``hi``.
    """
    c, rl, s1, s2, dd = (column[lo:hi].tolist() for column in terms)
    previous, pair = x, x + int(row[0])
    ready = (row[1:] + x).tolist() + [x, x]
    for ci, a, b, d, rli in zip(c, s1, s2, dd, rl):
        value = previous + ci
        if pair > value:
            value = pair
        r = ready[a]
        if r > value:
            value = r
        r = ready[b]
        if r > value:
            value = r
        ready[d] = value + rli
        pair = previous + 1
        previous = value
    state = (np.array([part]) for part in (previous, pair, ready))
    return previous, _relative_state(*state)[0]


def _relative_state(previous, pair, ready) -> np.ndarray:
    """Canonical in-order states: ``(pair, ready) - x[i-1]``, clamped at 0.

    Every term of the next step is compared against a value of at least
    ``x[i-1]``, and the recurrence commutes with adding a constant, so
    two runs with equal rows stay equal up to a shift from then on.
    """
    absolute = np.column_stack((pair, ready[:, :TOTAL_REGS]))
    return np.maximum(absolute - previous[:, None], 0)


def _lockstep_walk(terms, n: int) -> int:
    """``x[n-1]`` of the in-order recurrence, as verified lockstep lanes.

    Lane ``j`` walks ``[j*L, (j+1)*L + P)``, one numpy step per position
    across all lanes, and is exact if its state at ``j*L + P`` equals
    lane ``j-1``'s end state.  A failed seam is re-walked scalar from the
    true state, on into the next lane while the end states differ; the
    tail after the last lane is walked scalar too.
    """
    L, P = _LANE, _WARMUP
    lanes = (n - P) // L
    if lanes < _MIN_LANES:
        # x[-1] = -1, x[-2] + 1 = -1 and every register ready at 0.
        start = np.r_[0, np.ones(TOTAL_REGS, dtype=np.int64)]
        return _span_walk(terms, 0, n, -1, start)[0]
    c, rl, s1, s2, dd = terms
    base = np.arange(lanes, dtype=np.int64) * _SLOTS
    ready = np.zeros((lanes, _SLOTS), dtype=np.int64)
    flat = ready.ravel()
    previous = np.zeros(lanes, dtype=np.int64)
    pair = np.zeros(lanes, dtype=np.int64)
    previous[0] = pair[0] = -1  # lane 0 starts from the true state
    stop = lanes * L
    for step in range(P + L):
        if step == P:
            snapshot = previous.copy(), pair.copy(), ready.copy()
        column = slice(step, step + stop, L)
        value = previous + c[column]
        np.maximum(value, pair, out=value)
        np.maximum(value, flat.take(base + s1[column]), out=value)
        np.maximum(value, flat.take(base + s2[column]), out=value)
        flat.put(base + dd[column], value + rl[column])
        np.add(previous, 1, out=pair)
        previous = value
    end = _relative_state(previous, pair, ready)
    coupled = (_relative_state(*snapshot)[1:] == end[:-1]).all(axis=1)
    gains = (previous - snapshot[0]).tolist()
    x = int(previous[0])
    row = None  # None: the true state is the previous lane's end row
    for lane, verified in enumerate(coupled.tolist(), start=1):
        if row is None:
            if verified:
                x += gains[lane]
                continue
            row = end[lane - 1]
        lo = lane * L + P
        x, row = _span_walk(terms, lo, lo + L, x, row)
        if np.array_equal(row, end[lane]):
            row = None
    if row is None:
        row = end[-1]
    return _span_walk(terms, stop + P, n, x, row)[0]


def inorder_walk(
    trace: Trace, machine: MachineConfig, events: MachineEvents
) -> int:
    """Total cycles of the in-order model via the reduced recurrence.

    Requires ``machine.issue_width <= 2`` (every production machine):
    there the scalar state machine collapses to ``x[i] = max(x[i-1] +
    c[i], x[i-2] + 1, ready[src])`` with all chain terms folded into
    ``c`` up front.  Wider in-order machines carry memory-port edges
    the fold cannot express; :meth:`InOrderModel.run` sends them to
    the reference loop instead.
    """
    n = len(trace)
    if n == 0:
        return 1
    width = machine.issue_width
    latencies = machine.latencies
    opclass = trace.opclass
    is_mem = trace.memory_mask
    rl = result_latencies(trace, machine, events)
    c = events.fetch_latency.astype(np.int64).copy()
    mispredicted = (opclass == int(OpClass.BRANCH)) & events.mispredict
    c[1:] += np.int64(latencies.mispredict_penalty) * mispredicted[:-1]
    if width > 1:
        consecutive_mem = np.zeros(n, dtype=bool)
        consecutive_mem[1:] = is_mem[1:] & is_mem[:-1]
        np.maximum(c, consecutive_mem.astype(np.int64), out=c)
    else:  # one issue per cycle: the pairing floor never binds
        c[1:] = np.maximum(c[1:], 1)
    # The reference pairs neither position 0 nor 1 with its predecessor:
    # the walk starts from x[-1] = -1, x[-2] = -2, and x[0] = c[0].
    c[0] += 1
    xm1 = _lockstep_walk((c, rl) + _register_slots(trace), n)
    # The fold shifts each redirect penalty into the next instruction's
    # chain weight; a mispredicted final branch has no next instruction,
    # but the reference still advances the cycle past its redirect.
    if mispredicted[n - 1]:
        xm1 += latencies.mispredict_penalty
    return max(xm1 + 1, 1)


def ooo_walk(
    trace: Trace, machine: MachineConfig, events: MachineEvents
) -> int:
    """Total cycles of the out-of-order model via the reduced walk.

    Keeps the reference's fetch bookkeeping (width bump, I-miss stall,
    window stall, mispredict resume) but reads precomputed latencies and
    register slots, dropping all per-instruction opclass and validity
    branching.
    """
    if len(trace) == 0:
        return 1
    width = machine.issue_width
    window = machine.window_size
    pen = machine.latencies.mispredict_penalty
    mispredicted = (trace.opclass == int(OpClass.BRANCH)) & events.mispredict
    rl, wrongs, s1, s2, dd, fetch = map(_walk_input, (
        result_latencies(trace, machine, events), mispredicted,
        *_register_slots(trace), events.fetch_latency,
    ))
    ready = [0] * _SLOTS
    # finish[i] is the finish cycle of instruction i - window (0 before
    # the window fills); the zip reads it as the list grows.
    finish = [0] * window
    fetch_cycle = 0
    fetched = 0
    for a, b, d, rli, extra, wrong, oldest in zip(
        s1, s2, dd, rl, fetch, wrongs, finish
    ):
        if fetched >= width:
            fetch_cycle += 1
            fetched = 0
        stall_until = fetch_cycle + extra
        if oldest > stall_until:
            stall_until = oldest
        if stall_until > fetch_cycle:
            fetch_cycle = stall_until
            fetched = 0
        fetched += 1
        value = fetch_cycle
        r = ready[a]
        if r > value:
            value = r
        r = ready[b]
        if r > value:
            value = r
        done = value + rli
        finish.append(done)
        ready[d] = done
        if wrong:
            resume = done + pen
            if resume > fetch_cycle:
                fetch_cycle = resume
                fetched = 0
    # Instruction i + window is not fetched before instruction i is
    # done, so finish cycles grow along every stride of ``window``.
    return max(max(finish[-window:]), 1)

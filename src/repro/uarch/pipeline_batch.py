"""Production walks for the two pipeline models.

:func:`inorder_walk` and :func:`ooo_walk` compute the total cycles that
:meth:`repro.uarch.inorder.InOrderModel.run_reference` and
:meth:`repro.uarch.ooo.OutOfOrderModel.run_reference` compute, bit for
bit, with less work per instruction.  Every per-instruction stall term
is precomputed as an array by vectorized passes: folded chain weights
(fetch stalls, mispredict redirects, the memory-port conflict of
consecutive memory operations), result latencies per opclass, and
``NO_REG``-free source/destination indices via a scratch register that
absorbs dead reads and writes.  The remaining reduced recurrence is
walked with no opclass branching, no front-end state machine and no
register-validity checks.

Both models are serial max-plus recurrences whose binding chain covers
most of the trace, so the walk is where the remaining time goes;
``tests/test_uarch_pipeline_equivalence.py`` pins each walk to its
reference on IPC.
"""

from __future__ import annotations

import numpy as np

from ..isa import NO_REG, OpClass
from ..isa.registers import TOTAL_REGS
from ..trace import Trace
from .configs import MachineConfig
from .events import MachineEvents


def result_latencies(
    trace: Trace, machine: MachineConfig, events: MachineEvents
) -> np.ndarray:
    """Per-instruction result latency (the scalar loops' ``result_latency``)."""
    n = len(trace)
    opclass = trace.opclass
    latencies = machine.latencies
    rl = np.ones(n, dtype=np.int64)
    is_load = opclass == int(OpClass.LOAD)
    rl[is_load] = events.memory_latency[is_load]
    rl[opclass == int(OpClass.INT_MUL)] = latencies.int_mul
    rl[opclass == int(OpClass.FP)] = latencies.fp_op
    return rl


def _scratch_register_streams(trace: Trace):
    """Source/dest index lists with NO_REG mapped to a scratch slot."""
    scratch = TOTAL_REGS + 1
    s1 = np.where(trace.src1 == NO_REG, scratch, trace.src1).tolist()
    s2 = np.where(trace.src2 == NO_REG, scratch, trace.src2).tolist()
    dd = np.where(trace.dst == NO_REG, scratch, trace.dst).tolist()
    return s1, s2, dd, scratch


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
    else:
        c[1:] = np.maximum(c[1:], 1)
    s1, s2, dd, scratch = _scratch_register_streams(trace)
    c_l = c.tolist()
    rl_l = rl.tolist()
    ready = [0] * (TOTAL_REGS + 2)

    xm1 = 0  # x[i-1]; virtual source 0 makes x[0] >= c[0] the base floor
    xm2 = 0  # x[i-2]; only read from i >= width, patched below
    skip = width == 2
    position = 0
    for ci, a, b, d, rli in zip(c_l, s1, s2, dd, rl_l):
        value = xm1 + ci
        if skip and position >= 2:
            other = xm2 + 1
            if other > value:
                value = other
        r = ready[a]
        if r > value:
            value = r
        r = ready[b]
        if r > value:
            value = r
        ready[d] = value + rli
        ready[scratch] = 0
        xm2 = xm1
        xm1 = value
        position += 1
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
    scratch-mapped registers, dropping all per-instruction opclass and
    validity branching.
    """
    n = len(trace)
    if n == 0:
        return 1
    width = machine.issue_width
    window = machine.window_size
    pen = machine.latencies.mispredict_penalty
    rl = result_latencies(trace, machine, events)
    mispredicted = (
        (trace.opclass == int(OpClass.BRANCH)) & events.mispredict
    ).tolist()
    s1, s2, dd, scratch = _scratch_register_streams(trace)
    rl_l = rl.tolist()
    fetch_l = events.fetch_latency.tolist()
    ready = [0] * (TOTAL_REGS + 2)
    finish = [0] * n
    fetch_cycle = 0
    fetched = 0
    last = 0
    index = 0
    for a, b, d, rli, extra, wrong in zip(
        s1, s2, dd, rl_l, fetch_l, mispredicted
    ):
        if fetched >= width:
            fetch_cycle += 1
            fetched = 0
        stall_until = fetch_cycle + extra
        if index >= window:
            oldest = finish[index - window]
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
        finish[index] = done
        if done > last:
            last = done
        ready[d] = done
        ready[scratch] = 0
        if wrong:
            resume = done + pen
            if resume > fetch_cycle:
                fetch_cycle = resume
                fetched = 0
        index += 1
    return max(last, 1)

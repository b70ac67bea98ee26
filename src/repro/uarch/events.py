"""Shared memory-hierarchy and predictor event simulation.

Both pipeline models and the HPC collector need the same per-instruction
events: instruction-fetch misses, data-access latencies (L1/L2/memory +
TLB), and branch mispredictions.  :func:`simulate_events` runs the cache
hierarchy, D-TLB and branch predictor of one machine over a trace once
and returns everything, so the expensive simulations are never repeated.

The default ``engine="batch"`` drives the vectorized cache/TLB and
predictor engines, so assembling the event arrays involves no per-access
Python loops.  Those engines skip the work whose outcome is already
known: repeated fetches of one line and reuses closer than the
associativity are hits without simulation, and runs of identical
counter updates compose in closed form (see :mod:`repro.uarch.cache`
and :mod:`repro.uarch.branch_predictors`).  ``engine="reference"``
drives the retained scalar specifications instead (bit-identical
results, used by the equivalence tests and the perf harness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..trace import Trace
from .branch_predictors import (
    PredictorStats,
    simulate_predictor,
    simulate_predictor_reference,
)
from .cache import CacheStats, SetAssociativeCache
from .configs import MachineConfig
from .tlb import TLB


@dataclass
class MachineEvents:
    """Per-instruction events of one machine run over one trace.

    Attributes:
        fetch_latency: extra fetch cycles per instruction (I-miss).
        memory_latency: data-access cycles per instruction (0 for
            non-memory instructions; includes TLB penalties).
        mispredict: per-instruction misprediction flags (False for
            non-branches).
        l1i / l1d / l2: cache counters.
        tlb: D-TLB counters.
        predictor: branch predictor counters.
    """

    fetch_latency: np.ndarray
    memory_latency: np.ndarray
    mispredict: np.ndarray
    l1i: CacheStats
    l1d: CacheStats
    l2: CacheStats
    tlb: CacheStats
    predictor: PredictorStats


def simulate_events(
    trace: Trace, machine: MachineConfig, engine: str = "batch"
) -> MachineEvents:
    """Simulate caches, TLB and branch predictor for one machine.

    Args:
        trace: dynamic instruction trace.
        machine: the machine to simulate.
        engine: ``"batch"`` (vectorized engines, the default) or
            ``"reference"`` (retained scalar specifications); both
            produce bit-identical events.
    """
    if engine not in ("batch", "reference"):
        raise SimulationError(f"unknown event engine: {engine!r}")
    batch = engine == "batch"
    n = len(trace)
    latencies = machine.latencies

    l1i = SetAssociativeCache(machine.l1i)
    l1d = SetAssociativeCache(machine.l1d)
    l2 = SetAssociativeCache(machine.l2)
    tlb = TLB(machine.tlb_entries, machine.tlb_page_bytes)

    def run_cache(cache, addresses):
        if batch:
            return cache.simulate(addresses)
        return cache.simulate_reference(addresses)

    # Instruction fetch stream.
    l1i_miss = run_cache(l1i, trace.pc)

    # Data stream.
    memory_mask = trace.memory_mask
    memory_positions = np.flatnonzero(memory_mask)
    data_addresses = trace.mem_addr[memory_positions]
    l1d_miss = run_cache(l1d, data_addresses)
    tlb_miss = run_cache(tlb, data_addresses)

    # Unified L2 sees L1I and L1D misses in program order.
    l1i_miss_positions = np.flatnonzero(l1i_miss)
    l1d_miss_positions = memory_positions[l1d_miss]
    l2_positions = np.concatenate([l1i_miss_positions, l1d_miss_positions])
    l2_addresses = np.concatenate(
        [
            trace.pc[l1i_miss_positions],
            trace.mem_addr[l1d_miss_positions],
        ]
    )
    order = np.argsort(l2_positions, kind="stable")
    l2_miss = run_cache(l2, l2_addresses[order])

    # Scatter L2 results back to the I- and D-streams.
    l2_miss_by_position = np.zeros(n, dtype=bool)
    l2_miss_by_position[l2_positions[order]] = l2_miss

    # Fetch latency: 0 on L1I hit, L2 or memory latency on miss.
    fetch_latency = np.zeros(n, dtype=np.int64)
    fetch_latency[l1i_miss_positions] = np.where(
        l2_miss_by_position[l1i_miss_positions],
        latencies.memory,
        latencies.l2_hit,
    )

    # Data latency per memory instruction.
    memory_latency = np.zeros(n, dtype=np.int64)
    data_latency = np.full(len(memory_positions), latencies.l1_hit, np.int64)
    data_latency[l1d_miss] = np.where(
        l2_miss_by_position[l1d_miss_positions],
        latencies.memory,
        latencies.l2_hit,
    )
    data_latency[tlb_miss] += latencies.tlb_miss
    memory_latency[memory_positions] = data_latency

    # Branch predictions.
    predictor = machine.make_predictor()
    branch_positions = np.flatnonzero(trace.branch_mask)
    run_predictor = simulate_predictor if batch else (
        simulate_predictor_reference
    )
    predictor_stats, mispredict_branches = run_predictor(
        predictor,
        trace.pc[branch_positions],
        trace.taken[branch_positions].astype(bool),
        return_mask=True,
    )
    mispredict = np.zeros(n, dtype=bool)
    mispredict[branch_positions] = mispredict_branches

    return MachineEvents(
        fetch_latency=fetch_latency,
        memory_latency=memory_latency,
        mispredict=mispredict,
        l1i=l1i.stats,
        l1d=l1d.stats,
        l2=l2.stats,
        tlb=tlb.stats,
        predictor=predictor_stats,
    )

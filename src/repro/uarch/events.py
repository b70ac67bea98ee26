"""Shared memory-hierarchy and predictor event simulation.

Both pipeline models and the HPC collector need the same per-instruction
events: instruction-fetch misses, data-access latencies (L1/L2/memory +
TLB), and branch mispredictions.  :func:`simulate_events` runs the cache
hierarchy, D-TLB and branch predictor of one machine over a trace once
and returns everything, so the expensive simulations are never repeated.
Its machine-independent inputs live in one :class:`EventStreams` per
trace: memory positions and data addresses, and per stream and line
size the run heads and previous-occurrence links
(:class:`~repro.uarch.cache.LineRuns`); branch PCs and outcomes are
memoized on the trace.  Machines handed the same object share that
work: both Alpha machines run their TLBs over 8 KB pages, so one
stack-distance pass resolves the 64- and the 128-entry TLB (LRU
inclusion), and each TLB still ends in its own recency stack.

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

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..trace import Trace
from .branch_predictors import (
    PredictorStats,
    simulate_predictor,
    simulate_predictor_reference,
)
from .cache import CacheStats, LineRuns, SetAssociativeCache
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


class EventStreams:
    """The machine-independent inputs of :func:`simulate_events` for
    one trace, shared by the ``machines`` it will be handed to.

    Run heads and previous-occurrence links are cut per stream
    (``"fetch"``: the PCs, ``"data"``: the data addresses) and line
    size on first use.  A cut that more than one of ``machines`` reads
    (the 8 KB-page data stream of both Alpha TLBs) is kept until the
    last of them has read it; every other cut is dropped after its one
    use, so no cut outlives the events that need it.
    """

    def __init__(
        self, trace: Trace, machines: "tuple[MachineConfig, ...]" = ()
    ):
        self.trace = trace
        self.memory_positions = np.flatnonzero(trace.memory_mask)
        self.data_addresses = trace.mem_addr[self.memory_positions]
        self._uses = Counter(
            key for machine in machines for key in _run_keys(machine)
        )
        self._runs: "dict[tuple[str, int], LineRuns]" = {}

    def addresses(self, stream: str) -> np.ndarray:
        """The ``"fetch"`` or ``"data"`` address stream."""
        return self.trace.pc if stream == "fetch" else self.data_addresses

    def runs(self, stream: str, line_bytes: int) -> LineRuns:
        """The ``stream`` cut into runs of ``line_bytes``-byte lines."""
        key = stream, line_bytes
        runs = self._runs.pop(key, None)
        if runs is None:
            runs = LineRuns(self.addresses(stream), line_bytes)
        self._uses[key] -= 1
        if self._uses[key] > 0:
            self._runs[key] = runs
        return runs


def _run_keys(machine: MachineConfig) -> "tuple[tuple[str, int], ...]":
    """The (stream, line size) cuts one machine's events read."""
    return (
        ("fetch", machine.l1i.line_bytes),
        ("data", machine.l1d.line_bytes),
        ("data", machine.tlb_page_bytes),
    )


def simulate_events(
    trace: Trace,
    machine: MachineConfig,
    engine: str = "batch",
    streams: "EventStreams | None" = None,
) -> MachineEvents:
    """Simulate caches, TLB and branch predictor for one machine.

    Args:
        trace: dynamic instruction trace.
        machine: the machine to simulate.
        engine: ``"batch"`` (vectorized engines, the default) or
            ``"reference"`` (retained scalar specifications); both
            produce bit-identical events.
        streams: the trace's :class:`EventStreams`, shared with other
            machines' calls (built for this call otherwise).
    """
    if engine not in ("batch", "reference"):
        raise SimulationError(f"unknown event engine: {engine!r}")
    if streams is None:
        streams = EventStreams(trace)
    elif streams.trace is not trace:
        raise SimulationError("event streams belong to another trace")
    batch = engine == "batch"
    n = len(trace)
    latencies = machine.latencies

    l1i = SetAssociativeCache(machine.l1i)
    l1d = SetAssociativeCache(machine.l1d)
    l2 = SetAssociativeCache(machine.l2)
    tlb = TLB(machine.tlb_entries, machine.tlb_page_bytes)

    def run_cache(cache, stream, line_bytes):
        if batch:
            return cache.simulate_runs(streams.runs(stream, line_bytes))
        return cache.simulate_reference(streams.addresses(stream))

    run_l2 = l2.simulate if batch else l2.simulate_reference

    # Instruction fetch stream.
    l1i_miss = run_cache(l1i, "fetch", machine.l1i.line_bytes)

    # Data stream.
    memory_positions = streams.memory_positions
    l1d_miss = run_cache(l1d, "data", machine.l1d.line_bytes)
    tlb_miss = run_cache(tlb, "data", machine.tlb_page_bytes)

    # Unified L2 sees L1I and L1D misses in program order.
    l1i_miss_positions = np.flatnonzero(l1i_miss)
    l1d_miss_positions = memory_positions[l1d_miss]
    l2_positions = np.concatenate([l1i_miss_positions, l1d_miss_positions])
    l2_addresses = np.concatenate(
        [
            trace.pc[l1i_miss_positions],
            streams.data_addresses[l1d_miss],
        ]
    )
    order = np.argsort(l2_positions, kind="stable")
    l2_miss = run_l2(l2_addresses[order])

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
    run_predictor = simulate_predictor if batch else (
        simulate_predictor_reference
    )
    predictor_stats, mispredict_branches = run_predictor(
        predictor, trace.branch_pcs, trace.branch_outcomes, return_mask=True
    )
    mispredict = np.zeros(n, dtype=bool)
    mispredict[trace.branch_mask] = mispredict_branches

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

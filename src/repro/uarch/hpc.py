"""Hardware-performance-counter collection (section III-B of the paper).

The microarchitecture-dependent data set: per benchmark, the seven
metrics the paper reads from DCPI on the Alpha 21164A plus the 21264A
IPC:

1. IPC on the 21164A (EV56, in-order dual-issue),
2. branch misprediction rate,
3. L1 D-cache miss rate,
4. L1 I-cache miss rate,
5. L2 cache miss rate,
6. D-TLB miss rate,
7. IPC on the 21264A (EV67, out-of-order four-wide).

The paper's Figure 2 appends the instruction mix to these metrics; that
case study (:mod:`repro.experiments.fig23_case_study`) takes the mix
from the data set's MICA matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..trace import Trace
from .configs import EV56_CONFIG, EV67_CONFIG, MachineConfig
from .events import EventStreams, MachineEvents
from .inorder import InOrderModel
from .ooo import OutOfOrderModel

#: Version of the HPC simulation semantics.  Part of the on-disk HPC
#: cache key in :mod:`repro.perf`; bump whenever :func:`collect_hpc`
#: would produce different metrics for the same trace and machines
#: (latency models, pipeline behavior, predictor/cache semantics).
HPC_SIM_VERSION = 1

_hpc_calls = 0


def hpc_call_count() -> int:
    """Number of :func:`collect_hpc` invocations in this process.

    The perf HPC cache sits *in front of* the pipeline models; tests
    assert warm dataset builds leave this counter untouched (the
    analogue of :func:`repro.synth.generation_call_count` for the
    trace cache).
    """
    return _hpc_calls


#: Metric names, in vector order.
HPC_METRIC_NAMES: Tuple[str, ...] = (
    "ipc_ev56",
    "branch_mispredict_rate",
    "l1d_miss_rate",
    "l1i_miss_rate",
    "l2_miss_rate",
    "dtlb_miss_rate",
    "ipc_ev67",
)


@dataclass(frozen=True)
class HpcVector:
    """One benchmark's hardware-performance-counter metrics."""

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(HPC_METRIC_NAMES),):
            raise ValueError(
                f"expected {len(HPC_METRIC_NAMES)} metrics, "
                f"got shape {self.values.shape}"
            )

    def __getitem__(self, key: str) -> float:
        return float(self.values[HPC_METRIC_NAMES.index(key)])

    def as_dict(self) -> "dict[str, float]":
        """Metric name -> value, in vector order."""
        return {
            name: float(value)
            for name, value in zip(HPC_METRIC_NAMES, self.values)
        }

    def format(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [f"hardware counters of {self.name or '<unnamed>'}"]
        for name, value in zip(HPC_METRIC_NAMES, self.values):
            lines.append(f"  {name:<24} {value:>10.4f}")
        return "\n".join(lines)


def collect_hpc(
    trace: Trace,
    inorder_machine: MachineConfig = EV56_CONFIG,
    ooo_machine: MachineConfig = EV67_CONFIG,
    inorder_events: "MachineEvents | None" = None,
    ooo_events: "MachineEvents | None" = None,
) -> HpcVector:
    """Collect the seven HPC metrics for a trace.

    The rate metrics (branch misprediction, cache and TLB miss rates)
    come from the in-order machine's run, mirroring the paper's use of
    DCPI on the 21164A; the out-of-order machine contributes its IPC
    only.

    Args:
        trace: dynamic instruction trace.
        inorder_machine / ooo_machine: the two simulated machines.
        inorder_events / ooo_events: precomputed
            :func:`~repro.uarch.events.simulate_events` results for the
            matching machine, so callers holding them (the perf harness,
            experiment pipelines) never re-simulate caches, TLB and
            predictors; simulated on demand otherwise, each machine in
            its own :func:`~repro.uarch.events.simulate_events` call
            over one shared :class:`~repro.uarch.events.EventStreams`.
    """
    global _hpc_calls
    _hpc_calls += 1
    streams = EventStreams(trace, (inorder_machine, ooo_machine))
    inorder = InOrderModel(inorder_machine)
    ipc_ev56, events = inorder.run(
        trace, events=inorder_events, streams=streams
    )
    ooo = OutOfOrderModel(ooo_machine)
    ipc_ev67, _ = ooo.run(trace, events=ooo_events, streams=streams)

    values = np.array(
        [
            ipc_ev56,
            events.predictor.misprediction_rate,
            events.l1d.miss_rate,
            events.l1i.miss_rate,
            events.l2.miss_rate,
            events.tlb.miss_rate,
            ipc_ev67,
        ]
    )
    return HpcVector(name=trace.name, values=values)

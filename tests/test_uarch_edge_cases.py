"""Edge-case and failure-injection tests for the simulators.

The pipeline models and event simulation must behave sensibly on
degenerate traces: no branches, no memory operations, single
instructions, all-NOP streams, pathological conflict patterns.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.isa import NO_REG, OpClass
from repro.trace import TraceBuilder
from repro.uarch import (
    EV56_CONFIG,
    EV67_CONFIG,
    InOrderModel,
    OutOfOrderModel,
    collect_hpc,
)
from repro.uarch.configs import LatencyModel
from repro.uarch.events import simulate_events


def branchless_trace(n=500):
    builder = TraceBuilder(name="branchless")
    for index in range(n):
        if index % 3 == 0:
            builder.load(0x1000 + 4 * (index % 40), dst=1, addr_reg=2,
                         mem_addr=0x2000 + 8 * (index % 64))
        else:
            builder.alu(0x1000 + 4 * (index % 40), dst=1 + index % 4,
                        src1=1)
    return builder.build()


def memoryless_trace(n=500):
    builder = TraceBuilder(name="memoryless")
    for index in range(n):
        if index % 10 == 9:
            builder.branch(0x1000 + 4 * (index % 40), cond_reg=1,
                           taken=index % 20 == 9, target=0x1000)
        else:
            builder.alu(0x1000 + 4 * (index % 40), dst=1 + index % 4)
    return builder.build()


def nop_trace(n=100):
    builder = TraceBuilder(name="nops")
    for index in range(n):
        builder.nop(0x1000 + 4 * (index % 16))
    return builder.build()


class TestDegenerateTraces:
    def test_branchless_trace_runs(self):
        trace = branchless_trace()
        hpc = collect_hpc(trace)
        assert hpc["branch_mispredict_rate"] == 0.0
        assert hpc["ipc_ev56"] > 0.0

    def test_memoryless_trace_runs(self):
        trace = memoryless_trace()
        hpc = collect_hpc(trace)
        assert hpc["l1d_miss_rate"] == 0.0
        assert hpc["dtlb_miss_rate"] == 0.0
        assert hpc["ipc_ev67"] > 0.0

    def test_nop_trace_runs(self):
        trace = nop_trace()
        ipc, events = InOrderModel(EV56_CONFIG).run(trace)
        assert 0.0 < ipc <= 2.0
        assert events.l1d.accesses == 0

    def test_single_instruction_trace(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=1)
        trace = builder.build()
        ipc, _ = InOrderModel(EV56_CONFIG).run(trace)
        assert ipc > 0.0
        ipc, _ = OutOfOrderModel(EV67_CONFIG).run(trace)
        assert ipc > 0.0

    def test_all_taken_branches(self):
        builder = TraceBuilder()
        for index in range(300):
            builder.jump(0x1000 + 4 * (index % 16), target=0x1000)
        trace = builder.build()
        events = simulate_events(trace, EV56_CONFIG)
        # Unconditional always-taken branches become predictable.
        assert events.predictor.misprediction_rate < 0.2

    def test_characterize_degenerate_traces(self):
        from repro.mica import characterize

        for trace in (branchless_trace(), memoryless_trace(), nop_trace()):
            vector = characterize(trace)
            assert np.isfinite(vector.values).all()


class TestConflictPatterns:
    def test_cache_thrash_pattern(self):
        """Two addresses conflicting in every level still simulate."""
        builder = TraceBuilder()
        stride = EV56_CONFIG.l1d.size_bytes  # Same set in L1D.
        for index in range(400):
            builder.load(0x1000 + 4 * (index % 16), dst=1, addr_reg=2,
                         mem_addr=0x10_0000 + (index % 2) * stride)
        trace = builder.build()
        events = simulate_events(trace, EV56_CONFIG)
        assert events.l1d.miss_rate > 0.9  # Direct-mapped ping-pong.

    def test_tlb_thrash_pattern(self):
        builder = TraceBuilder()
        pages = EV56_CONFIG.tlb_entries + 1
        page = EV56_CONFIG.tlb_page_bytes
        for index in range(pages * 3):
            builder.load(0x1000, dst=1, addr_reg=2,
                         mem_addr=0x10_0000 + (index % pages) * page)
        trace = builder.build()
        events = simulate_events(trace, EV56_CONFIG)
        # Round-robin over entries+1 pages defeats LRU completely.
        assert events.tlb.miss_rate > 0.9

    def test_alternating_branch_defeats_bimodal_not_tournament(self):
        builder = TraceBuilder()
        for index in range(2000):
            builder.branch(0x1000, cond_reg=1, taken=index % 2 == 0,
                           target=0x2000)
        trace = builder.build()
        ev56 = simulate_events(trace, EV56_CONFIG)
        ev67 = simulate_events(trace, EV67_CONFIG)
        assert ev56.predictor.misprediction_rate > 0.3
        assert ev67.predictor.misprediction_rate < 0.1


class TestEventConsistency:
    def test_ipc_decreases_with_memory_latency(self):
        """Injecting a slower memory must not speed anything up."""
        trace = branchless_trace(2000)
        slow_machine = replace(
            EV56_CONFIG,
            latencies=replace(EV56_CONFIG.latencies, memory=300),
        )
        fast_ipc, _ = InOrderModel(EV56_CONFIG).run(trace)
        slow_ipc, _ = InOrderModel(slow_machine).run(trace)
        assert slow_ipc <= fast_ipc

    def test_wider_machine_not_slower(self):
        trace = branchless_trace(2000)
        narrow = replace(EV67_CONFIG, issue_width=1)
        wide_ipc, _ = OutOfOrderModel(EV67_CONFIG).run(trace)
        narrow_ipc, _ = OutOfOrderModel(narrow).run(trace)
        assert wide_ipc >= narrow_ipc - 1e-9

    def test_larger_window_not_slower(self):
        trace = branchless_trace(2000)
        small = replace(EV67_CONFIG, window_size=4)
        big_ipc, _ = OutOfOrderModel(EV67_CONFIG).run(trace)
        small_ipc, _ = OutOfOrderModel(small).run(trace)
        assert big_ipc >= small_ipc - 1e-9


class TestMachineValidation:
    @pytest.mark.parametrize("width", [0, -1])
    def test_issue_width_below_one_rejected(self, width):
        with pytest.raises(ConfigurationError, match="issue_width"):
            replace(EV56_CONFIG, issue_width=width)

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigurationError, match="window_size"):
            replace(EV67_CONFIG, window_size=-1)

    @pytest.mark.parametrize(
        "field", ["l1_hit", "memory", "mispredict_penalty", "fp_op"]
    )
    def test_negative_latency_rejected(self, field):
        """The walks assume every stall term is >= 0."""
        with pytest.raises(ConfigurationError, match=field):
            replace(EV56_CONFIG.latencies, **{field: -3})

    def test_zero_latencies_accepted(self):
        zero = LatencyModel(0, 0, 0, 0, 0, int_mul=0, fp_op=0)
        assert zero.mispredict_penalty == 0

    def test_fingerprints_unchanged(self):
        """Validation leaves ``repr``, and so the HPC cache keys, alone."""
        assert EV56_CONFIG.fingerprint() == "2ee2c9bc02d2710c"
        assert EV67_CONFIG.fingerprint() == "1c8ba49dd782221e"

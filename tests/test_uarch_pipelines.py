"""Tests for the pipeline models and HPC collection."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_alu_chain, make_independent_alu
from repro.errors import SimulationError
from repro.synth import MemorySpec, WorkloadProfile, generate_trace
from repro.uarch import (
    EV56_CONFIG,
    EV67_CONFIG,
    HPC_METRIC_NAMES,
    HpcVector,
    InOrderModel,
    OutOfOrderModel,
    collect_hpc,
)
from repro.uarch.events import simulate_events


class TestEvents:
    def test_event_shapes(self, small_trace):
        events = simulate_events(small_trace, EV56_CONFIG)
        n = len(small_trace)
        assert events.fetch_latency.shape == (n,)
        assert events.memory_latency.shape == (n,)
        assert events.mispredict.shape == (n,)

    def test_memory_latency_only_on_memory_ops(self, small_trace):
        events = simulate_events(small_trace, EV56_CONFIG)
        non_memory = ~small_trace.memory_mask
        assert (events.memory_latency[non_memory] == 0).all()
        memory = small_trace.memory_mask
        assert (events.memory_latency[memory] >= (
            EV56_CONFIG.latencies.l1_hit
        )).all()

    def test_mispredicts_only_on_branches(self, small_trace):
        events = simulate_events(small_trace, EV56_CONFIG)
        assert not events.mispredict[~small_trace.branch_mask].any()

    def test_l2_sees_only_l1_misses(self, small_trace):
        events = simulate_events(small_trace, EV56_CONFIG)
        assert events.l2.accesses == (
            events.l1i.misses + events.l1d.misses
        )

    def test_bigger_caches_miss_less(self, small_trace):
        small_machine = simulate_events(small_trace, EV56_CONFIG)
        big_machine = simulate_events(small_trace, EV67_CONFIG)
        assert big_machine.l1d.miss_rate <= small_machine.l1d.miss_rate


class TestInOrderModel:
    def test_dual_issue_upper_bound(self):
        trace = make_independent_alu(2000)
        ipc, _ = InOrderModel(EV56_CONFIG).run(trace)
        assert ipc <= 2.0 + 1e-9
        assert ipc > 1.5  # Independent ALU should nearly saturate.

    def test_serial_chain_is_issue_limited(self):
        trace = make_alu_chain(2000)
        ipc, _ = InOrderModel(EV56_CONFIG).run(trace)
        assert ipc <= 1.05

    def test_rejects_ooo_config(self):
        with pytest.raises(SimulationError):
            InOrderModel(EV67_CONFIG)

    def test_memory_behavior_lowers_ipc(self):
        fits = WorkloadProfile(
            name="t/ipc/fits", memory=MemorySpec(footprint_bytes=4 << 10)
        )
        thrashes = WorkloadProfile(
            name="t/ipc/thrash",
            memory=MemorySpec(
                footprint_bytes=64 << 20,
                load_mix={"random": 0.8, "pointer": 0.2},
            ),
        )
        ipc_fits, _ = InOrderModel(EV56_CONFIG).run(
            generate_trace(fits, 10_000)
        )
        ipc_thrash, _ = InOrderModel(EV56_CONFIG).run(
            generate_trace(thrashes, 10_000)
        )
        assert ipc_fits > 2.0 * ipc_thrash

    def test_rejects_empty_trace(self):
        from repro.trace import Trace

        with pytest.raises(SimulationError):
            InOrderModel(EV56_CONFIG).run(Trace.empty())


class TestOutOfOrderModel:
    def test_width_upper_bound(self):
        # Long enough to amortize the cold-start I-cache misses.
        trace = make_independent_alu(20_000)
        ipc, _ = OutOfOrderModel(EV67_CONFIG).run(trace)
        assert ipc <= 4.0 + 1e-9
        assert ipc > 3.0

    def test_serial_chain_near_one(self):
        trace = make_alu_chain(2000)
        ipc, _ = OutOfOrderModel(EV67_CONFIG).run(trace)
        assert ipc <= 1.1

    def test_rejects_inorder_config(self):
        with pytest.raises(SimulationError):
            OutOfOrderModel(EV56_CONFIG)

    def test_ooo_beats_inorder(self, small_trace):
        inorder_ipc, _ = InOrderModel(EV56_CONFIG).run(small_trace)
        ooo_ipc, _ = OutOfOrderModel(EV67_CONFIG).run(small_trace)
        assert ooo_ipc > inorder_ipc

    def test_window_limits_ilp(self):
        # Independent instructions but a window-1 machine cannot overlap
        # long latencies... compare small vs large windows instead.
        trace = make_independent_alu(2000)
        small_window = replace(EV67_CONFIG, window_size=8)
        ipc_small, _ = OutOfOrderModel(small_window).run(trace)
        ipc_large, _ = OutOfOrderModel(EV67_CONFIG).run(trace)
        assert ipc_large >= ipc_small


class TestCollectHpc:
    def test_vector_shape_and_names(self, small_trace):
        hpc = collect_hpc(small_trace)
        assert hpc.values.shape == (len(HPC_METRIC_NAMES),)
        assert list(hpc.as_dict().keys()) == list(HPC_METRIC_NAMES)

    def test_rates_are_probabilities(self, small_trace):
        hpc = collect_hpc(small_trace)
        for name in HPC_METRIC_NAMES:
            if name.endswith("_rate"):
                assert 0.0 <= hpc[name] <= 1.0

    def test_ipcs_positive_and_bounded(self, small_trace):
        hpc = collect_hpc(small_trace)
        assert 0.0 < hpc["ipc_ev56"] <= 2.0
        assert 0.0 < hpc["ipc_ev67"] <= 4.0

    def test_deterministic(self, small_trace):
        a = collect_hpc(small_trace).values
        b = collect_hpc(small_trace).values
        assert np.array_equal(a, b)

    def test_format_renders(self, small_trace):
        text = collect_hpc(small_trace).format()
        assert "ipc_ev56" in text

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            HpcVector(name="x", values=np.zeros(3))

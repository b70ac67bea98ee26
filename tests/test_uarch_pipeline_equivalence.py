"""Batch pipeline walks vs the retained scalar references.

Both implementations of each pipeline model must agree bit-for-bit on
IPC: the production batch walk (``run``) and the retained scalar loop
(``run_reference``).  Coverage spans the eight-benchmark test
population, hypothesis-drawn traces and machines, and hand-built
adversarial traces exercising window-full stalls, memory-port
conflicts at full issue width, back-to-back mispredicted branches,
fetch-latency/dependence ties, length-1 traces and ``issue_width=1``
machines.  The in-order walk's lockstep lanes also run at tiny
geometries, so seams fail and the scalar fix-up chain runs.
"""

from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_alu_chain, make_independent_alu
from repro.isa import INT_ZERO_REG, NO_REG, OpClass
from repro.synth import generate_trace
from repro.trace import TraceBuilder
from repro.uarch import (
    EV56_CONFIG,
    EV67_CONFIG,
    InOrderModel,
    MachineConfig,
    OutOfOrderModel,
)
from repro.uarch import pipeline_batch
from repro.uarch.configs import LatencyModel
from repro.uarch.events import simulate_events
from repro.workloads import all_benchmarks


def assert_all_engines_agree(trace, inorder=EV56_CONFIG, ooo=EV67_CONFIG):
    """Pin walk == reference, bit for bit, both models."""
    if inorder is not None:
        events = simulate_events(trace, inorder)
        model = InOrderModel(inorder)
        ipc_walk, _ = model.run(trace, events=events)
        ipc_ref, _ = model.run_reference(trace, events=events)
        assert ipc_walk == ipc_ref, "in-order walk != reference"
    if ooo is not None:
        events = simulate_events(trace, ooo)
        model = OutOfOrderModel(ooo)
        ipc_walk, _ = model.run(trace, events=events)
        ipc_ref, _ = model.run_reference(trace, events=events)
        assert ipc_walk == ipc_ref, "out-of-order walk != reference"


def narrow_inorder(width: int, penalty: int = 5) -> MachineConfig:
    """An in-order config with a chosen issue width."""
    return MachineConfig(
        name=f"inorder-w{width}",
        issue_width=width,
        l1i=EV56_CONFIG.l1i,
        l1d=EV56_CONFIG.l1d,
        l2=EV56_CONFIG.l2,
        tlb_entries=EV56_CONFIG.tlb_entries,
        tlb_page_bytes=EV56_CONFIG.tlb_page_bytes,
        latencies=LatencyModel(
            l1_hit=2, l2_hit=8, memory=60, tlb_miss=40,
            mispredict_penalty=penalty,
        ),
        predictor_kind="bimodal",
    )


def tiny_window_ooo(window: int, width: int = 4) -> MachineConfig:
    """An out-of-order config with a chosen (small) window."""
    return MachineConfig(
        name=f"ooo-win{window}",
        issue_width=width,
        l1i=EV67_CONFIG.l1i,
        l1d=EV67_CONFIG.l1d,
        l2=EV67_CONFIG.l2,
        tlb_entries=EV67_CONFIG.tlb_entries,
        tlb_page_bytes=EV67_CONFIG.tlb_page_bytes,
        latencies=EV67_CONFIG.latencies,
        predictor_kind="tournament",
        window_size=window,
    )


class TestPopulationEquivalence:
    @pytest.mark.parametrize(
        "bench", list(all_benchmarks())[:8],
        ids=lambda b: b.short_name,
    )
    def test_population_bit_identical(self, bench):
        trace = generate_trace(bench.profile, 3_000)
        assert_all_engines_agree(trace)


#: Per-instruction choices, one list per field.  Registers are mostly
#: ``NO_REG``, a few live registers so dependences chain, and the
#: hardwired zero register.  A few PCs make single-PC loops occur;
#: 0x3000 evicts 0x1000 from the EV56's direct-mapped 8 KB L1I, and
#: 0x1000/0x9000/0x11000 overflow one set of the EV67's 2-way 64 KB
#: L1I, so I-misses recur.  8-byte memory blocks span L1 hits, L1
#: conflicts, L2 hits, memory misses and TLB misses (mem_addr >= 8).
_REGISTERS = [NO_REG, NO_REG, NO_REG, NO_REG, 1, 2, 3, 4, INT_ZERO_REG, 40]
_FIELDS = (
    list(OpClass),
    [0x1000, 0x1004, 0x1040, 0x3000, 0x9000, 0x11000],
    _REGISTERS,
    _REGISTERS,
    _REGISTERS,
    [1, 2, 5, 300, 1025, 4097, 1 << 16, 1 << 20],
    [False, True],
)


@st.composite
def traces(draw):
    """Traces of 1-300 instructions, every opclass, over a few PCs.

    Each instruction is one byte per field, taken modulo the field's
    choice count; one ``binary`` draw per trace is far cheaper than a
    draw per field, and still shrinks toward a short all-zero trace.
    """
    length = draw(st.integers(1, 300))
    size = length * len(_FIELDS)
    raw = draw(st.binary(min_size=size, max_size=size))
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(length, -1)
    builder = TraceBuilder(name="property")
    for row in rows.tolist():
        op, pc, src1, src2, dst, block, taken = (
            field[byte % len(field)] for field, byte in zip(_FIELDS, row)
        )
        branch = op == OpClass.BRANCH
        builder.append(
            pc, op, src1=src1, src2=src2, dst=dst,
            mem_addr=8 * block if op.is_memory else 0,
            taken=taken and branch,
            target=0x2000 if branch else 0,
        )
    return builder.build()


_inorder_machines = st.one_of(
    st.just(EV56_CONFIG),
    st.builds(narrow_inorder, st.integers(1, 2), st.integers(0, 6)),
)
_ooo_machines = st.one_of(
    st.just(EV67_CONFIG),
    st.builds(
        lambda window, width: tiny_window_ooo(window, width=width),
        st.integers(1, 12), st.integers(1, 4),
    ),
)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_traces(self, seed):
        rng = np.random.default_rng(seed)
        builder = TraceBuilder(name=f"random/{seed}")
        length = int(rng.integers(200, 1_500))
        for index in range(length):
            kind = rng.random()
            pc = 0x1000 + 4 * int(rng.integers(0, 512))
            dst = int(rng.integers(1, 30))
            src1 = int(rng.integers(1, 30))
            src2 = int(rng.integers(1, 30))
            if kind < 0.25:
                builder.append(pc, OpClass.LOAD, src1=src1, dst=dst,
                               mem_addr=int(rng.integers(1, 1 << 20)) * 8)
            elif kind < 0.35:
                builder.append(pc, OpClass.STORE, src1=src1, src2=src2,
                               mem_addr=int(rng.integers(1, 1 << 20)) * 8)
            elif kind < 0.5:
                builder.append(pc, OpClass.BRANCH, src1=src1,
                               taken=bool(rng.random() < 0.5),
                               target=0x1000 + 4 * int(rng.integers(0, 512)))
            elif kind < 0.6:
                builder.append(pc, OpClass.INT_MUL, src1=src1, src2=src2,
                               dst=dst)
            elif kind < 0.7:
                builder.append(pc, OpClass.FP, src1=src1, src2=src2, dst=dst)
            else:
                builder.append(pc, OpClass.INT_ALU, src1=src1, src2=src2,
                               dst=dst)
        trace = builder.build()
        assert_all_engines_agree(trace)
        assert_all_engines_agree(
            trace, inorder=narrow_inorder(1), ooo=tiny_window_ooo(4)
        )
        assert_all_engines_agree(
            trace,
            inorder=narrow_inorder(3),
            ooo=tiny_window_ooo(7, width=2),
        )

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(traces(), _inorder_machines, _ooo_machines)
    def test_walk_matches_reference(self, trace, inorder, ooo):
        assert_all_engines_agree(trace, inorder=inorder, ooo=ooo)


class TestAdversarialEquivalence:
    def test_window_full_stalls(self):
        """Serial chains much deeper than a tiny window stall fetch."""
        trace = make_alu_chain(600)
        assert_all_engines_agree(trace, inorder=None, ooo=tiny_window_ooo(2))
        assert_all_engines_agree(trace, inorder=None, ooo=tiny_window_ooo(8))

    def test_memory_port_conflicts_at_full_width(self):
        """Back-to-back independent loads fight over the memory port."""
        builder = TraceBuilder(name="memport")
        for index in range(500):
            builder.append(0x1000 + 4 * (index % 32), OpClass.LOAD,
                           src1=1, dst=2 + (index % 8),
                           mem_addr=0x10000 + 8 * (index % 64))
        trace = builder.build()
        assert_all_engines_agree(trace)
        assert_all_engines_agree(trace, inorder=narrow_inorder(4), ooo=None)

    def test_back_to_back_mispredicted_branches(self):
        """Alternating-direction branches mispredict in bursts."""
        builder = TraceBuilder(name="branchy")
        for index in range(600):
            builder.append(0x1000 + 4 * (index % 7), OpClass.BRANCH,
                           src1=1, taken=bool((index * 7) % 3 == 0),
                           target=0x2000)
        trace = builder.build()
        assert_all_engines_agree(trace)

    def test_fetch_latency_dependence_ties(self):
        """Cold PCs (I-misses) racing register dependences of equal age."""
        builder = TraceBuilder(name="ties")
        for index in range(400):
            # Fresh PC every instruction: every fetch misses the L1I.
            pc = 0x1000 + 64 * index
            if index % 3 == 0:
                builder.append(pc, OpClass.LOAD, src1=1 + (index % 4),
                               dst=1 + ((index + 1) % 4),
                               mem_addr=0x100000 + 8 * index)
            else:
                builder.append(pc, OpClass.INT_ALU, src1=1 + (index % 4),
                               src2=1 + ((index + 2) % 4),
                               dst=1 + ((index + 1) % 4))
        trace = builder.build()
        assert_all_engines_agree(trace)

    def test_length_one_trace(self):
        builder = TraceBuilder(name="one")
        builder.append(0x1000, OpClass.LOAD, src1=1, dst=2, mem_addr=0x8000)
        trace = builder.build()
        assert_all_engines_agree(trace)

    def test_issue_width_one(self):
        trace = make_independent_alu(400)
        assert_all_engines_agree(
            trace, inorder=narrow_inorder(1), ooo=tiny_window_ooo(8, width=1)
        )
        chain = make_alu_chain(400)
        assert_all_engines_agree(
            chain, inorder=narrow_inorder(1), ooo=tiny_window_ooo(8, width=1)
        )

    def test_narrow_ooo_widths(self):
        """Width-1/2 out-of-order machines exercise the fetch-bump fold
        and the run-straddling skip eligibility the production width
        never hits."""
        trace = make_independent_alu(300)
        for width in (1, 2):
            for window in (2, 7, 80):
                assert_all_engines_agree(
                    trace, inorder=None,
                    ooo=tiny_window_ooo(window, width=width),
                )

    def test_trailing_mispredicted_branch(self):
        """A mispredicted final branch still pays its redirect: the
        reference advances the cycle after the last instruction."""
        builder = TraceBuilder(name="trailing-mp")
        builder.append(0x1000, OpClass.INT_ALU, src1=1, dst=2)
        # One PC: the bimodal counter saturates taken, then the final
        # not-taken branch mispredicts.
        for index in range(5):
            builder.append(0x2000, OpClass.BRANCH, src1=2,
                           taken=index < 4, target=0x3000)
        trace = builder.build()
        events = simulate_events(trace, EV56_CONFIG)
        assert events.mispredict[-1], "fixture must end mispredicted"
        assert_all_engines_agree(trace)

    def test_zero_penalty_mispredicts(self):
        """A zero redirect penalty exercises the no-bump corner."""
        builder = TraceBuilder(name="zero-pen")
        for index in range(300):
            builder.append(0x1000 + 4 * (index % 5), OpClass.BRANCH,
                           src1=1, taken=bool(index % 2), target=0x2000)
        trace = builder.build()
        assert_all_engines_agree(
            trace, inorder=narrow_inorder(2, penalty=0), ooo=None
        )

    def test_pointer_chase_serialization(self):
        """Loads feeding the next load's address: maximal serialization."""
        builder = TraceBuilder(name="chase")
        for index in range(500):
            builder.append(0x1000 + 4 * (index % 16), OpClass.LOAD,
                           src1=1, dst=1,
                           mem_addr=0x10000 + 8 * ((index * 7919) % 4096))
        trace = builder.build()
        assert_all_engines_agree(trace)


class TestGeneratedProfiles:
    def test_serial_and_parallel_profiles(
        self, serial_profile, parallel_profile
    ):
        for profile in (serial_profile, parallel_profile):
            trace = generate_trace(profile, 2_000)
            assert_all_engines_agree(trace)

    def test_collect_hpc_threads_events(self, small_trace):
        """Threaded events reproduce the on-demand result exactly."""
        from repro.uarch import collect_hpc

        plain = collect_hpc(small_trace)
        threaded = collect_hpc(
            small_trace,
            inorder_events=simulate_events(small_trace, EV56_CONFIG),
            ooo_events=simulate_events(small_trace, EV67_CONFIG),
        )
        assert np.array_equal(plain.values, threaded.values)


def lane_geometry(lane, warmup, min_lanes=1):
    """Run the in-order walk's lockstep lanes at a chosen geometry."""
    return mock.patch.multiple(
        pipeline_batch, _LANE=lane, _WARMUP=warmup, _MIN_LANES=min_lanes
    )


def assert_inorder_agrees(trace, machine=EV56_CONFIG, events=None):
    if events is None:
        events = simulate_events(trace, machine)
    model = InOrderModel(machine)
    ipc_walk, _ = model.run(trace, events=events)
    ipc_ref, _ = model.run_reference(trace, events=events)
    assert ipc_walk == ipc_ref, "in-order walk != reference"
    return ipc_walk


class span_spy:
    """Records the ``[lo, hi)`` spans the scalar loop walks."""

    def __enter__(self):
        self.spans = []
        original = pipeline_batch._span_walk

        def spy(terms, lo, hi, *state):
            self.spans.append((lo, hi))
            return original(terms, lo, hi, *state)

        self._patch = mock.patch.object(pipeline_batch, "_span_walk", spy)
        self._patch.__enter__()
        return self.spans

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)


class TestLockstepLanes:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        traces(),
        st.integers(1, 8),
        st.sampled_from([0, 1, 4]),
        st.integers(1, 2),
        st.integers(0, 6),
    )
    def test_tiny_geometry_matches_reference(
        self, trace, lane, warmup, width, penalty
    ):
        with lane_geometry(lane, warmup):
            assert_inorder_agrees(trace, narrow_inorder(width, penalty))

    def test_pending_load_at_every_seam(self):
        """Every seam fails and the fix-up chain reaches the tail.

        Each lane of four ends with a 60-cycle load into a fresh
        register that nothing reads, so the true state at every seam
        holds loads a cold lane has never seen, and every re-walked end
        state still differs from its lane's own.
        """
        lane, lanes = 4, 12
        builder = TraceBuilder(name="pending-loads")
        for index in range(lane * lanes + 3):
            pc = 0x1000 + 4 * (index % 16)
            if index % lane == lane - 1:
                builder.append(pc, OpClass.LOAD, src1=NO_REG,
                               dst=1 + (index // lane) % 20,
                               mem_addr=0x100000 + 8 * index)
            else:
                builder.append(pc, OpClass.INT_ALU, src1=NO_REG,
                               dst=30)
        trace = builder.build()
        events = simulate_events(trace, EV56_CONFIG)
        loads = trace.opclass == int(OpClass.LOAD)
        events = replace(
            events,
            fetch_latency=np.zeros(len(trace), dtype=np.int64),
            memory_latency=np.where(loads, 60, 0).astype(np.int64),
        )
        with lane_geometry(lane, 0), span_spy() as spans:
            assert_inorder_agrees(trace, events=events)
        assert spans == [
            (j * lane, (j + 1) * lane) for j in range(1, lanes)
        ] + [(lanes * lane, len(trace))]


def two_issue_trace(length):
    """Independent ALU instructions, so any two may issue together."""
    builder = TraceBuilder(name="two-issue")
    for index in range(length):
        builder.append(0x1000 + 4 * (index % 16), OpClass.INT_ALU,
                       src1=NO_REG, dst=1 + index % 8)
    return builder.build()


def with_events(trace, machine, **columns):
    """``simulate_events`` with some per-instruction columns replaced."""
    events = simulate_events(trace, machine)
    return replace(events, **{
        name: np.asarray(column) for name, column in columns.items()
    })


class TestLockstepEdges:
    @pytest.mark.parametrize("geometry", [None, (1, 0), (2, 1)])
    def test_positions_zero_and_one_issue_together(self, geometry):
        """With no fetch stall, the first two instructions share cycle 0:
        a walk seeded with x[-1] = 0 would push the second to cycle 1."""
        trace = two_issue_trace(2 if geometry is None else 9)
        events = with_events(
            trace, EV56_CONFIG,
            fetch_latency=np.zeros(len(trace), dtype=np.int64),
        )
        scalar = geometry is None  # two instructions never fill a lane
        with nullcontext() if scalar else lane_geometry(*geometry):
            ipc = assert_inorder_agrees(trace, events=events)
        assert ipc == len(trace) / ((len(trace) + 1) // 2)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_lane_threshold(self, offset, serial_profile):
        """Traces just below, at and above the production lane minimum."""
        threshold = (
            pipeline_batch._MIN_LANES * pipeline_batch._LANE
            + pipeline_batch._WARMUP
        )
        trace = generate_trace(serial_profile, threshold + offset)
        with span_spy() as spans:
            assert_inorder_agrees(trace)
        scalar_only = spans == [(0, len(trace))]
        assert scalar_only == (offset < 0)

    def test_mispredicted_final_branch_in_the_tail(self):
        trace = TraceBuilder(name="tail-branch")
        for index in range(40):
            trace.append(0x1000 + 4 * (index % 16), OpClass.INT_ALU,
                         src1=1 + index % 3, dst=1 + (index + 1) % 3)
        trace.append(0x2000, OpClass.BRANCH, src1=1, taken=True,
                     target=0x1000)
        trace = trace.build()
        mispredict = np.zeros(len(trace), dtype=bool)
        mispredict[-1] = True
        events = with_events(trace, EV56_CONFIG, mispredict=mispredict)
        with lane_geometry(8, 2), span_spy() as spans:
            assert_inorder_agrees(trace, events=events)
        lanes = (len(trace) - 2) // 8
        assert spans[-1] == (lanes * 8 + 2, len(trace))

    def test_issue_width_one_lockstep(self, serial_profile):
        """Production geometry, a width-1 machine, on the lockstep path."""
        trace = generate_trace(serial_profile, 15_000)
        with span_spy() as spans:
            assert_inorder_agrees(trace, narrow_inorder(1))
        assert spans[0][0] > 0, "the walk must run lanes"


def slow_memory_ooo(memory: int) -> MachineConfig:
    """EV67 with a chosen memory latency."""
    return replace(
        EV67_CONFIG, name=f"ooo-mem{memory}",
        latencies=replace(EV67_CONFIG.latencies, memory=memory),
    )


class TestOooWalkInputs:
    @pytest.mark.parametrize("machine,containers", [
        (EV67_CONFIG, {bytes}),
        (slow_memory_ooo(300), {bytes, list}),
    ], ids=["byte-inputs", "list-fallback"])
    def test_walk_matches_reference(self, machine, containers, serial_profile):
        """Latencies past 255 cannot ride in ``bytes``: the result and
        fetch latencies fall back to lists, with the same cycles."""
        trace = generate_trace(serial_profile, 3_000)
        events = simulate_events(trace, machine)
        original = pipeline_batch._walk_input
        seen = []

        def spy(values):
            converted = original(values)
            seen.append(type(converted))
            return converted

        model = OutOfOrderModel(machine)
        with mock.patch.object(pipeline_batch, "_walk_input", spy):
            ipc_walk, _ = model.run(trace, events=events)
        assert set(seen) == containers
        assert ipc_walk == model.run_reference(trace, events=events)[0]

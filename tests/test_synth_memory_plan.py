"""The static image's memory plan against its per-slot specification.

:func:`repro.synth.code._assign_memory_behaviors` draws every memory
instruction's behavior in bulk into the arrays of a
:class:`~repro.synth.code.MemoryPlan`.  It must draw exactly what the
per-slot loop :func:`~repro.synth.code._assign_memory_behaviors_reference`
draws: the same kinds, regions, dwell repeats and pointer-chase orders,
the same allocated bytes, and the same final generator state.  Checked
on hypothesis-built blocks and specs (including a pending uint32 half,
zero-weight kinds, single-kind mixes, no stores and footprints at the
64-byte region floor) and on every registry profile.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProfileError
from repro.isa import OpClass
from repro.synth import (
    BEHAVIOR_KINDS,
    BranchSpec,
    CodeSpec,
    MemorySpec,
    MixSpec,
    PointerChase,
    RandomStream,
    ScalarStream,
    SequentialStream,
    StridedStream,
    WorkloadProfile,
    build_code,
    make_rng,
)
from repro.synth import code as synth_code
from repro.synth import generator
from repro.synth.code import BasicBlock
from repro.workloads import all_benchmarks

KIND_OF = {
    ScalarStream: "scalar",
    SequentialStream: "sequential",
    StridedStream: "strided",
    RandomStream: "random",
    PointerChase: "pointer",
}


def behavior_state(behavior) -> dict:
    """Type and every attribute of a behavior, arrays as lists."""
    return {
        "type": type(behavior).__name__,
        **{
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in vars(behavior).items()
        },
    }


def assert_plan_matches(plan, entries):
    """``plan`` holds, entry for entry, the reference's behaviors."""
    entries = sorted(entries, key=lambda entry: entry[:2])
    behaviors = [behavior for _, _, behavior in entries]
    assert plan.block.tolist() == [block for block, _, _ in entries]
    assert plan.slot.tolist() == [slot for _, slot, _ in entries]
    assert plan.kind.tolist() == [
        BEHAVIOR_KINDS.index(KIND_OF[type(b)]) for b in behaviors
    ]
    assert plan.base.tolist() == [b.base for b in behaviors]
    assert plan.span.tolist() == [b._slots for b in behaviors]
    linear = [isinstance(b, SequentialStream) for b in behaviors]
    assert plan.repeats[linear].tolist() == [
        b.repeats for b in behaviors if isinstance(b, SequentialStream)
    ]
    assert (plan.step[linear] * 8).tolist() == [
        b.stride for b in behaviors if isinstance(b, SequentialStream)
    ]
    pointers = plan.members["pointer"]
    orders = plan.pointer_orders(pointers)
    for entry, behavior in zip(pointers.tolist(), (
        b for b in behaviors if isinstance(b, PointerChase)
    )):
        start = plan.order_start[entry]
        assert np.array_equal(
            orders[start : start + plan.span[entry]], behavior._order
        )


def random_blocks(seed: int, n_blocks: int, load: float, store: float):
    """Blocks of random length whose bodies mix loads, stores and ALU."""
    rng = np.random.default_rng(seed)
    weights = np.array([load, store, 1.0])
    classes = [int(OpClass.LOAD), int(OpClass.STORE), int(OpClass.INT_ALU)]
    blocks = []
    for block_id in range(n_blocks):
        body = rng.choice(
            classes, size=int(rng.integers(1, 12)), p=weights / weights.sum()
        )
        blocks.append(BasicBlock(
            block_id=block_id, function=0, pc_base=0x1000 + 64 * block_id,
            opclasses=np.append(body, int(OpClass.BRANCH)).astype(np.uint8),
        ))
    return blocks


weights = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
behavior_mixes = st.one_of(
    st.just({"pointer": 1.0}),
    st.just({"scalar": 1.0}),
    st.dictionaries(
        st.sampled_from(BEHAVIOR_KINDS), weights, min_size=1
    ).filter(lambda mix: sum(mix.values()) > 0.0),
)


class TestBulkMatchesPerSlotLoop:

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_blocks=st.integers(1, 24),
        store=st.sampled_from([0.0, 0.3, 1.0]),
        load_mix=behavior_mixes,
        store_mix=behavior_mixes,
        footprint=st.one_of(
            st.sampled_from([64, 72, 1000]), st.integers(64, 1 << 22)
        ),
        stride=st.sampled_from([8, 64, 4096]),
        pending=st.booleans(),
    )
    @example(  # sequential and pointer draw runs interleave
        seed=7, n_blocks=24, store=0.3,
        load_mix={"sequential": 0.5, "pointer": 0.5},
        store_mix={"pointer": 0.5, "sequential": 0.5, "scalar": 0.2},
        footprint=1 << 16, stride=64, pending=True,
    )
    def test_plan_behaviors_and_generator_state(
        self, seed, n_blocks, store, load_mix, store_mix, footprint, stride,
        pending,
    ):
        blocks = random_blocks(seed, n_blocks, 1.0, store)
        spec = MemorySpec(
            footprint_bytes=footprint, load_mix=load_mix,
            store_mix=store_mix, stride_bytes=stride,
        )
        bulk_rng = np.random.default_rng(seed)
        if pending:
            bulk_rng.integers(2**31)  # leave a uint32 half buffered
        loop_rng = copy.deepcopy(bulk_rng)

        plan, allocated = synth_code._assign_memory_behaviors(
            bulk_rng, blocks, spec
        )
        entries, expected = synth_code._assign_memory_behaviors_reference(
            loop_rng, blocks, spec
        )
        assert allocated == expected
        assert bulk_rng.bit_generator.state == loop_rng.bit_generator.state
        assert_plan_matches(plan, entries)
        assert [behavior_state(b) for b in plan.behaviors()] == [
            behavior_state(b)
            for _, _, b in sorted(entries, key=lambda entry: entry[:2])
        ]

    def test_every_registry_profile(self, monkeypatch):
        checked = []
        bulk = synth_code._assign_memory_behaviors

        def both(rng, blocks, spec):
            loop_rng = copy.deepcopy(rng)
            plan, allocated = bulk(rng, blocks, spec)
            entries, expected = (
                synth_code._assign_memory_behaviors_reference(
                    loop_rng, blocks, spec
                )
            )
            assert allocated == expected
            assert rng.bit_generator.state == loop_rng.bit_generator.state
            assert_plan_matches(plan, entries)
            checked.append(len(entries))
            return plan, allocated

        monkeypatch.setattr(synth_code, "_assign_memory_behaviors", both)
        for benchmark in all_benchmarks():
            profile = benchmark.profile
            build_code(
                make_rng("code", profile.name, profile.seed), profile.code,
                profile.mix, profile.memory, profile.branches,
            )
        assert len(checked) == 122 and min(checked) > 0


class TestPointerOrders:

    def test_a_short_trace_builds_no_order_for_an_unvisited_chase(self):
        profile = WorkloadProfile(
            name="memplan/pointers",
            memory=MemorySpec(
                load_mix={"pointer": 1.0}, store_mix={"pointer": 1.0}
            ),
        )
        code = build_code(
            make_rng("code", profile.name, profile.seed), profile.code,
            profile.mix, profile.memory, profile.branches,
        )
        rng = make_rng("trace", profile.name)
        visits, outcomes = generator._interpret(rng, code, profile, 40)
        generator._expand(rng, code, visits, outcomes, 40)
        plan = code.memory
        pointers = plan.members["pointer"]
        visited = np.isin(plan.block[pointers], visits)
        assert visited.any() and not visited.all()
        assert np.array_equal(plan.order_built[pointers], visited)


def duck_spec(**changes):
    """A memory spec that skips :class:`MemorySpec` validation."""
    spec = dict(
        footprint_bytes=1 << 16,
        load_mix={"scalar": 0.5, "strided": 0.5},
        store_mix={"sequential": 1.0},
        stride_bytes=64,
    )
    spec.update(changes)
    return SimpleNamespace(**spec)


class TestInvalidSpecs:

    @pytest.mark.parametrize("spec", [
        duck_spec(load_mix={"zigzag": 1.0}),
        duck_spec(store_mix={"sequential": 0.5, "zigzag": 0.5}),
        duck_spec(stride_bytes=12),
        duck_spec(stride_bytes=0),
    ], ids=["unknown-load", "unknown-store", "stride-12", "stride-0"])
    def test_building_the_image_raises(self, spec):
        with pytest.raises(ProfileError):
            build_code(
                make_rng("code", "invalid"), CodeSpec(), MixSpec(), spec,
                BranchSpec(),
            )
        blocks = random_blocks(5, 40, 1.0, 1.0)
        with pytest.raises(ProfileError):
            synth_code._assign_memory_behaviors_reference(
                make_rng("code", "invalid"), blocks, spec
            )

    def test_a_kind_never_drawn_is_not_checked(self):
        # Like the per-slot loop, only behaviors that exist are built.
        spec = duck_spec(
            load_mix={"scalar": 1.0, "strided": 0.0, "zigzag": 0.0},
            stride_bytes=12,
        )
        blocks = random_blocks(5, 40, 1.0, 1.0)
        plan, _ = synth_code._assign_memory_behaviors(
            make_rng("code", "valid"), blocks, spec
        )
        synth_code._assign_memory_behaviors_reference(
            make_rng("code", "valid"), blocks, spec
        )
        assert len(plan.kind) > 0

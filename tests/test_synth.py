"""Tests for the repro.synth package (program model and generator)."""

import numpy as np
import pytest

from repro.errors import ProfileError
from repro.isa import OpClass
from repro.synth import (
    BEHAVIOR_KINDS,
    BiasedBranch,
    BranchSpec,
    CodeSpec,
    MemorySpec,
    MixSpec,
    PatternBranch,
    PointerChase,
    RandomStream,
    RegisterSpec,
    ScalarStream,
    SequentialStream,
    StridedStream,
    WorkloadProfile,
    build_code,
    generate_trace,
    make_behavior,
    make_branch_model,
    make_rng,
    stable_seed,
)
from repro.trace import validate_trace


class TestRng:
    def test_stable_seed_is_deterministic(self):
        assert stable_seed("a", "b", 1) == stable_seed("a", "b", 1)

    def test_stable_seed_distinguishes_inputs(self):
        assert stable_seed("a", "b") != stable_seed("a", "c")
        assert stable_seed("ab") != stable_seed("a", "b")

    def test_make_rng_reproducible(self):
        a = make_rng("x").random(5)
        b = make_rng("x").random(5)
        assert np.array_equal(a, b)


class TestMemoryBehaviors:
    def test_scalar_always_same_address(self):
        stream = ScalarStream(base=0x1000, footprint=8)
        rng = make_rng("t")
        addrs = stream.generate(rng, 50)
        assert (addrs == 0x1000).all()

    def test_sequential_strides(self):
        stream = SequentialStream(base=0x1000, footprint=1024, stride=8)
        addrs = stream.generate(make_rng("t"), 10)
        assert list(np.diff(addrs.astype(np.int64))) == [8] * 9

    def test_sequential_wraps_at_footprint(self):
        stream = SequentialStream(base=0x1000, footprint=64, stride=8)
        addrs = stream.generate(make_rng("t"), 20)
        assert addrs.max() < 0x1000 + 64
        assert addrs.min() >= 0x1000

    def test_sequential_repeats_dwell(self):
        stream = SequentialStream(base=0x1000, footprint=1024, repeats=3)
        addrs = stream.generate(make_rng("t"), 9)
        assert list(addrs[:3]) == [0x1000] * 3
        assert list(addrs[3:6]) == [0x1008] * 3

    def test_sequential_state_persists_across_calls(self):
        stream = SequentialStream(base=0x1000, footprint=1 << 20)
        first = stream.generate(make_rng("t"), 4)
        second = stream.generate(make_rng("t"), 4)
        assert second[0] == first[-1] + 8

    def test_strided_large_stride(self):
        stream = StridedStream(base=0x1000, footprint=1 << 16, stride=256)
        addrs = stream.generate(make_rng("t"), 5)
        assert list(np.diff(addrs.astype(np.int64))) == [256] * 4

    def test_random_within_region(self):
        stream = RandomStream(base=0x1000, footprint=4096)
        addrs = stream.generate(make_rng("t"), 500)
        assert addrs.min() >= 0x1000
        assert addrs.max() < 0x1000 + 4096
        assert (addrs % 8 == 0).all()

    def test_random_hot_subset_concentrates(self):
        stream = RandomStream(
            base=0x1000, footprint=1 << 20,
            hot_probability=0.9, hot_divisor=16,
        )
        addrs = stream.generate(make_rng("t"), 2000)
        hot_limit = 0x1000 + (1 << 20) // 16
        assert (addrs < hot_limit).mean() > 0.8

    def test_pointer_chase_covers_region_without_repeats(self):
        stream = PointerChase(base=0x1000, footprint=256, seed=1)
        addrs = stream.generate(make_rng("t"), 32)
        assert len(set(addrs.tolist())) == 32  # 256/8 slots, full cycle.

    def test_pointer_chase_is_deterministic_walk(self):
        a = PointerChase(base=0x1000, footprint=1024, seed=5)
        b = PointerChase(base=0x1000, footprint=1024, seed=5)
        assert np.array_equal(
            a.generate(make_rng("x"), 20), b.generate(make_rng("y"), 20)
        )

    def test_make_behavior_kinds(self):
        rng = make_rng("t")
        for kind, cls in [
            ("scalar", ScalarStream),
            ("sequential", SequentialStream),
            ("strided", StridedStream),
            ("random", RandomStream),
            ("pointer", PointerChase),
        ]:
            behavior = make_behavior(kind, 0x1000, 4096, rng)
            assert isinstance(behavior, cls)

    def test_make_behavior_unknown_kind(self):
        with pytest.raises(ProfileError):
            make_behavior("zigzag", 0x1000, 4096, make_rng("t"))

    def test_invalid_parameters(self):
        with pytest.raises(ProfileError):
            SequentialStream(base=0, footprint=64)
        with pytest.raises(ProfileError):
            SequentialStream(base=0x1000, footprint=64, stride=7)
        with pytest.raises(ProfileError):
            SequentialStream(base=0x1000, footprint=64, repeats=0)
        with pytest.raises(ProfileError):
            ScalarStream(base=0x1000, footprint=2)


class TestBranchModels:
    def test_pattern_branch_repeats(self):
        model = PatternBranch([True, False, False])
        rng = make_rng("t")
        outcomes = [model.next_outcome(rng) for _ in range(9)]
        assert outcomes == [True, False, False] * 3

    def test_pattern_branch_rejects_empty(self):
        with pytest.raises(ProfileError):
            PatternBranch([])

    def test_biased_branch_respects_bias(self):
        model = BiasedBranch(0.9)
        rng = make_rng("t")
        outcomes = [model.next_outcome(rng) for _ in range(2000)]
        assert 0.85 < np.mean(outcomes) < 0.95

    def test_biased_branch_bounds(self):
        with pytest.raises(ProfileError):
            BiasedBranch(1.5)

    def test_make_branch_model_pattern_fraction(self):
        rng = make_rng("models")
        kinds = [
            type(make_branch_model(rng, pattern_fraction=1.0, taken_bias=0.5))
            for _ in range(10)
        ]
        assert all(kind is PatternBranch for kind in kinds)
        kinds = [
            type(make_branch_model(rng, pattern_fraction=0.0, taken_bias=0.5))
            for _ in range(10)
        ]
        assert all(kind is BiasedBranch for kind in kinds)


class TestSpecs:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ProfileError):
            MixSpec(load=0.9, store=0.9, branch=0.1,
                    int_alu=0.1, int_mul=0.0, fp=0.0)

    def test_mix_normalized_helper(self):
        mix = MixSpec.normalized(load=2, store=1, branch=1,
                                 int_alu=5, int_mul=0, fp=1)
        total = sum(mix.as_dict().values())
        assert total == pytest.approx(1.0)
        assert mix.load == pytest.approx(0.2)

    def test_mix_requires_branches(self):
        with pytest.raises(ProfileError):
            MixSpec(load=0.5, store=0.1, branch=0.0,
                    int_alu=0.4, int_mul=0.0, fp=0.0)

    def test_body_distribution_excludes_branch(self):
        classes, weights = MixSpec().body_distribution()
        assert int(OpClass.BRANCH) not in classes.tolist()
        assert weights.sum() == pytest.approx(1.0)

    def test_memory_spec_validates_behavior_kinds(self):
        with pytest.raises(ProfileError):
            MemorySpec(load_mix={"teleport": 1.0})

    def test_memory_spec_validates_stride(self):
        with pytest.raises(ProfileError):
            MemorySpec(stride_bytes=10)

    def test_register_spec_bounds(self):
        with pytest.raises(ProfileError):
            RegisterSpec(int_pool=31)
        with pytest.raises(ProfileError):
            RegisterSpec(dep_mean=0.5)
        with pytest.raises(ProfileError):
            RegisterSpec(two_op_fraction=1.5)

    def test_geometric_p(self):
        assert RegisterSpec(dep_mean=4.0).geometric_p == pytest.approx(0.25)
        assert RegisterSpec(dep_mean=1.0).geometric_p == 1.0

    def test_branch_spec_bounds(self):
        with pytest.raises(ProfileError):
            BranchSpec(pattern_fraction=-0.1)
        with pytest.raises(ProfileError):
            BranchSpec(max_pattern_period=1)

    def test_code_spec_bounds(self):
        with pytest.raises(ProfileError):
            CodeSpec(num_functions=0)
        with pytest.raises(ProfileError):
            CodeSpec(loop_iter_mean=0.5)
        with pytest.raises(ProfileError):
            CodeSpec(hot_function_fraction=0.0)

    def test_profile_requires_name(self):
        with pytest.raises(ProfileError):
            WorkloadProfile(name="")

    def test_profile_with_overrides(self):
        profile = WorkloadProfile(name="x")
        other = profile.with_overrides(seed=9)
        assert other.seed == 9
        assert profile.seed == 0


class TestStaticCode:
    def test_build_code_structure(self):
        profile = WorkloadProfile(name="t/code/1")
        rng = make_rng("code-test")
        code = build_code(rng, profile.code, profile.mix, profile.memory,
                          profile.branches)
        spec = profile.code
        assert len(code.functions) == spec.num_functions
        assert len(code.blocks) == spec.num_functions * spec.blocks_per_function
        assert len(code.hot_functions) + len(code.cold_functions) == (
            spec.num_functions
        )

    def test_every_block_ends_in_branch(self):
        profile = WorkloadProfile(name="t/code/2")
        rng = make_rng("code-test-2")
        code = build_code(rng, profile.code, profile.mix, profile.memory,
                          profile.branches)
        for block in code.blocks:
            assert block.opclasses[-1] == int(OpClass.BRANCH)
            assert len(block) >= 2

    def test_block_pcs_are_contiguous(self):
        profile = WorkloadProfile(name="t/code/3")
        rng = make_rng("code-test-3")
        code = build_code(rng, profile.code, profile.mix, profile.memory,
                          profile.branches)
        block = code.blocks[0]
        pcs = block.pcs
        assert list(np.diff(pcs.astype(np.int64))) == [4] * (len(block) - 1)

    def test_memory_slots_have_behaviors(self):
        profile = WorkloadProfile(name="t/code/4")
        rng = make_rng("code-test-4")
        code = build_code(rng, profile.code, profile.mix, profile.memory,
                          profile.branches)
        plan = code.memory
        expected = [
            (b.block_id, slot)
            for b in code.blocks
            for slot in np.flatnonzero(
                (b.opclasses == int(OpClass.LOAD))
                | (b.opclasses == int(OpClass.STORE))
            ).tolist()
        ]
        # One plan entry per memory instruction, in (block, slot) order,
        # each with a known kind and a region of at least one slot.
        assert list(zip(plan.block.tolist(), plan.slot.tolist())) == expected
        assert set(plan.kind.tolist()) <= set(range(len(BEHAVIOR_KINDS)))
        assert (plan.span >= 1).all()


class TestGenerateTrace:
    def test_exact_length(self, default_profile):
        for length in (100, 5_000):
            assert len(generate_trace(default_profile, length)) == length

    def test_rejects_bad_length(self, default_profile):
        with pytest.raises(ProfileError):
            generate_trace(default_profile, 0)

    def test_deterministic(self, default_profile):
        a = generate_trace(default_profile, 3_000)
        b = generate_trace(default_profile, 3_000)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_trace(self, default_profile):
        a = generate_trace(default_profile, 3_000, seed=0)
        b = generate_trace(default_profile, 3_000, seed=1)
        assert not np.array_equal(a.data, b.data)

    def test_generated_trace_validates(self, default_profile):
        validate_trace(generate_trace(default_profile, 5_000))

    def test_mix_approximately_matches(self, default_profile):
        trace = generate_trace(default_profile, 20_000)
        counts = trace.class_counts()
        mix = default_profile.mix
        assert counts[OpClass.LOAD] / len(trace) == pytest.approx(
            mix.load, abs=0.06
        )
        assert counts[OpClass.STORE] / len(trace) == pytest.approx(
            mix.store, abs=0.04
        )
        assert counts[OpClass.FP] / len(trace) == pytest.approx(
            mix.fp, abs=0.04
        )

    def test_fp_profile_has_fp_registers(self, fp_heavy_profile):
        trace = generate_trace(fp_heavy_profile, 5_000)
        fp_mask = trace.mask(OpClass.FP)
        assert fp_mask.sum() > 500
        fp_dsts = trace.dst[fp_mask]
        assert (fp_dsts >= 32).all()

    def test_branch_outcomes_consistent_with_flow(self, default_profile):
        """Not-taken terminators must fall through: the next PC is
        pc + 4."""
        trace = generate_trace(default_profile, 5_000)
        branch_positions = np.flatnonzero(trace.branch_mask)[:-1]
        not_taken = branch_positions[
            trace.taken[branch_positions] == 0
        ]
        next_pcs = trace.pc[not_taken + 1]
        assert (next_pcs == trace.pc[not_taken] + 4).all()

    def test_taken_branches_jump(self, default_profile):
        trace = generate_trace(default_profile, 5_000)
        positions = np.flatnonzero(
            trace.branch_mask & (trace.taken == 1)
        )[:-1]
        # Exclude the very last instruction; each taken branch's target
        # matches the next executed PC.
        positions = positions[positions < len(trace) - 1]
        assert (trace.target[positions] == trace.pc[positions + 1]).all()

    def test_footprint_monotone_in_knob(self):
        small = WorkloadProfile(
            name="t/foot/small", memory=MemorySpec(footprint_bytes=16 << 10)
        )
        large = WorkloadProfile(
            name="t/foot/large", memory=MemorySpec(footprint_bytes=16 << 20)
        )
        trace_small = generate_trace(small, 20_000)
        trace_large = generate_trace(large, 20_000)
        unique_small = len(np.unique(
            trace_small.mem_addr[trace_small.memory_mask] >> np.uint64(5)))
        unique_large = len(np.unique(
            trace_large.mem_addr[trace_large.memory_mask] >> np.uint64(5)))
        assert unique_large > unique_small * 2

    def test_code_footprint_monotone_in_functions(self):
        small = WorkloadProfile(
            name="t/code/small", code=CodeSpec(num_functions=3)
        )
        large = WorkloadProfile(
            name="t/code/large",
            code=CodeSpec(num_functions=60, cold_visit_rate=0.3),
        )
        trace_small = generate_trace(small, 20_000)
        trace_large = generate_trace(large, 20_000)
        assert len(np.unique(trace_large.pc)) > len(
            np.unique(trace_small.pc)
        )

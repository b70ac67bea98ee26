"""Invariants of the generator's register assignment.

``tests/data/trace_digests.json`` pins the bytes of every registry
trace; these properties pin what the assignment means, over register
specs and class mixes the registry never uses: pools of two, no FP
work, compute-only streams, one-instruction traces and dependency
means far beyond any pool.

* Producers (loads and integer compute into the integer pool, FP
  compute into the FP pool) write their pool's registers in strict
  rotation; every other instruction writes ``NO_REG``.
* A source slot the class carries is ``NO_REG`` exactly when its pool
  has no earlier producer; otherwise it names one of the registers the
  last ``min(producers so far, pool size)`` producers wrote.
* Each class carries the right slots: loads src1; stores src1 and src2;
  branches src1; FP src1 always; integer compute src2 only with src1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import NO_REG, OpClass
from repro.synth import MixSpec, RegisterSpec, generate_trace
from repro.synth.generator import (
    FP_POOL_BASE,
    INT_POOL_BASE,
    _assign_registers,
)
from repro.workloads import get_benchmark

_SETTINGS = settings(max_examples=80, deadline=None)

INT_PRODUCERS = (OpClass.LOAD, OpClass.INT_ALU, OpClass.INT_MUL)
INT_COMPUTE = (OpClass.INT_ALU, OpClass.INT_MUL)

#: Class alphabets: everything, no FP, compute only (plus branches,
#: which every real block ends in), FP only.
ALPHABETS = [
    list(OpClass),
    [op for op in OpClass if op != OpClass.FP],
    [OpClass.INT_ALU, OpClass.INT_MUL, OpClass.FP, OpClass.BRANCH],
    [OpClass.FP],
]

register_specs = st.builds(
    RegisterSpec,
    int_pool=st.sampled_from([2, 3, 20, 30]),
    fp_pool=st.sampled_from([2, 5, 16, 31]),
    dep_mean=st.sampled_from([1.0, 1.5, 4.0, 1e3, 1e9]),
    two_op_fraction=st.sampled_from([0.0, 0.6, 1.0]),
    imm_fraction=st.sampled_from([0.0, 0.2, 1.0]),
)


@st.composite
def opclass_streams(draw):
    alphabet = draw(st.sampled_from(ALPHABETS))
    classes = draw(st.lists(st.sampled_from(alphabet), min_size=1,
                            max_size=300))
    return np.array([int(op) for op in classes], dtype=np.uint8)


def assign(opclass: np.ndarray, spec: RegisterSpec, seed: int) -> dict:
    """Run the assignment over bare columns, as the generator does."""
    columns = {
        "opclass": opclass,
        "src1": np.full(len(opclass), NO_REG, dtype=np.uint8),
        "src2": np.full(len(opclass), NO_REG, dtype=np.uint8),
        "dst": np.full(len(opclass), NO_REG, dtype=np.uint8),
    }
    _assign_registers(np.random.default_rng(seed), columns, spec)
    return columns


def check_invariants(opclass, src1, src2, dst, spec: RegisterSpec) -> None:
    opclass = np.asarray(opclass)
    is_int_producer = np.isin(opclass, [int(op) for op in INT_PRODUCERS])
    is_fp = opclass == int(OpClass.FP)
    pools = {
        "int": (is_int_producer, INT_POOL_BASE, spec.int_pool),
        "fp": (is_fp, FP_POOL_BASE, spec.fp_pool),
    }
    before = {}
    for pool, (producer, base, size) in pools.items():
        ordinal = np.cumsum(producer) - producer
        assert np.array_equal(
            dst[producer], base + ordinal[producer] % size
        ), f"{pool} producers do not rotate through the pool"
        before[pool] = ordinal
    assert (dst[~(is_int_producer | is_fp)] == NO_REG).all()

    def check_source(slot, positions, pool):
        _, base, size = pools[pool]
        values = slot[positions].astype(np.int64)
        available = before[pool][positions]
        carried_empty = available == 0
        assert (values[carried_empty] == NO_REG).all(), (
            f"a {pool} source reads a register before any producer"
        )
        held = np.minimum(available, size)
        live = ~carried_empty
        offset = values[live] - base
        assert ((offset >= 0) & (offset < held[live])).all(), (
            f"a {pool} source names a register no recent producer wrote"
        )

    def where(*classes):
        return np.flatnonzero(np.isin(opclass, [int(op) for op in classes]))

    loads, stores = where(OpClass.LOAD), where(OpClass.STORE)
    branches, fp = where(OpClass.BRANCH), where(OpClass.FP)
    compute, nops = where(*INT_COMPUTE), where(OpClass.NOP)

    # Slots the class always carries.
    for slot, positions in ((src1, loads), (src1, stores), (src2, stores),
                            (src1, branches)):
        check_source(slot, positions, "int")
    check_source(src1, fp, "fp")
    # Slots the class never carries.
    for slot, positions in ((src2, loads), (src2, branches), (src1, nops),
                            (src2, nops)):
        assert (slot[positions] == NO_REG).all()
    # Optional slots: NO_REG or a live register of the right pool.
    fp_src2 = fp[src2[fp] != NO_REG]
    check_source(src2, fp_src2, "fp")
    compute_src1 = compute[src1[compute] != NO_REG]
    compute_src2 = compute[src2[compute] != NO_REG]
    check_source(src1, compute_src1, "int")
    check_source(src2, compute_src2, "int")
    assert np.isin(compute_src2, compute_src1).all(), (
        "an integer compute op carries src2 without src1"
    )
    # The extreme fractions fix which optional slots are carried.
    has_producer = before["int"][compute] > 0
    if spec.imm_fraction == 0.0:
        assert (src1[compute][has_producer] != NO_REG).all()
    if spec.imm_fraction == 1.0:
        assert (src1[compute] == NO_REG).all()
    if spec.two_op_fraction == 0.0:
        assert (src2[compute] == NO_REG).all()
        assert (src2[fp] == NO_REG).all()
    if spec.two_op_fraction == 1.0:
        assert np.array_equal(compute_src2, compute_src1)
        assert (src2[fp][before["fp"][fp] > 0] != NO_REG).all()


class TestAssignedRegisters:

    @_SETTINGS
    @given(
        opclass=opclass_streams(),
        spec=register_specs,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invariants_hold_for_any_stream(self, opclass, spec, seed):
        columns = assign(opclass, spec, seed)
        check_invariants(
            opclass, columns["src1"], columns["src2"], columns["dst"], spec
        )

    @pytest.mark.parametrize("length", [1, 2, 5000])
    @pytest.mark.parametrize(
        "mix",
        [
            MixSpec(load=0.3, store=0.1, branch=0.1, int_alu=0.5,
                    int_mul=0.0, fp=0.0),
            MixSpec(load=0.0, store=0.0, branch=0.1, int_alu=0.6,
                    int_mul=0.1, fp=0.2),
        ],
        ids=["no-fp", "compute-only"],
    )
    @pytest.mark.parametrize(
        "registers",
        [
            RegisterSpec(int_pool=2, fp_pool=2, dep_mean=1.0),
            RegisterSpec(int_pool=2, fp_pool=2, dep_mean=1e9,
                         two_op_fraction=1.0, imm_fraction=0.0),
        ],
        ids=["pools-of-2", "huge-dep-mean"],
    )
    def test_invariants_hold_in_generated_traces(
        self, length, mix, registers
    ):
        base = get_benchmark("spec2000/gzip/graphic").profile
        profile = base.with_overrides(
            name=f"{base.name}-degenerate", mix=mix, registers=registers
        )
        trace = generate_trace(profile, length)
        assert len(trace) == length
        check_invariants(
            trace.opclass, trace.src1, trace.src2, trace.dst, registers
        )

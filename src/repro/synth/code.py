"""Static code model: functions, basic blocks, loops.

A synthetic program's static shape is built once per benchmark: functions
laid out at fixed addresses, each a sequence of loops, each loop a run of
basic blocks.  Every block ends in a control transfer (so the dynamic
branch fraction equals the inverse of the mean block length, which is
derived from the profile's instruction mix).  The static image also owns
the per-instruction data-access behaviors and per-branch outcome models,
so executing the same code twice with the same seeds replays the same
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ProfileError
from ..isa import OpClass
from ..isa.instruction import INSTRUCTION_BYTES
from .branches import BranchModel, make_branch_model
from .memory import (
    AccessBehavior,
    PointerChase,
    RandomStream,
    ScalarStream,
    SequentialStream,
    make_behavior,
)
from .rng import choice_cdf, choice_indices

#: Base address of the code segment.
CODE_BASE = 0x0012_0000

#: Base address of the data segment.
DATA_BASE = 0x1000_0000

#: Padding between consecutive data regions, in bytes.
REGION_PADDING = 64


@dataclass(frozen=True)
class CodeSpec:
    """Static-code shape knobs.

    Attributes:
        num_functions: number of functions in the program image.
        blocks_per_function: basic blocks per function.
        hot_function_fraction: fraction of functions that form the hot
            set (the interpreter spends most time there); controls the
            instruction working set.
        cold_visit_rate: probability that the next function pass detours
            through a cold function.
        loop_blocks: mean basic blocks per loop body.
        loop_iter_mean: mean iterations per loop visit; large values
            produce highly predictable back-edges and long streaming
            memory bursts.
        diamond_rate: fraction of in-loop blocks whose terminator is a
            data-dependent conditional (an if/else diamond).
        function_gap_bytes: address distance between function starts;
            with ~4 KB gaps each visited function touches its own page.
    """

    num_functions: int = 16
    blocks_per_function: int = 12
    hot_function_fraction: float = 0.5
    cold_visit_rate: float = 0.05
    loop_blocks: int = 3
    loop_iter_mean: float = 12.0
    diamond_rate: float = 0.3
    function_gap_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.num_functions < 1:
            raise ProfileError("num_functions must be >= 1")
        if self.blocks_per_function < 1:
            raise ProfileError("blocks_per_function must be >= 1")
        if not 0.0 < self.hot_function_fraction <= 1.0:
            raise ProfileError("hot_function_fraction must be in (0, 1]")
        if not 0.0 <= self.cold_visit_rate <= 1.0:
            raise ProfileError("cold_visit_rate must be in [0, 1]")
        if self.loop_blocks < 1:
            raise ProfileError("loop_blocks must be >= 1")
        if self.loop_iter_mean < 1.0:
            raise ProfileError("loop_iter_mean must be >= 1")
        if not 0.0 <= self.diamond_rate <= 1.0:
            raise ProfileError("diamond_rate must be in [0, 1]")
        if self.function_gap_bytes < 64:
            raise ProfileError("function_gap_bytes must be >= 64")


@dataclass
class BasicBlock:
    """One static basic block.

    Attributes:
        block_id: global block index.
        function: owning function index.
        pc_base: address of the first instruction.
        opclasses: per-slot instruction classes; the final slot is always
            :attr:`OpClass.BRANCH`.
        diamond: outcome model when the terminator is data-dependent,
            else None (terminator outcome follows control flow).
        memory_slots: (slot index, behavior) pairs for the block's
            memory instructions.
    """

    block_id: int
    function: int
    pc_base: int
    opclasses: np.ndarray
    diamond: Optional[BranchModel] = None
    memory_slots: List[Tuple[int, AccessBehavior]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.opclasses)

    @property
    def pcs(self) -> np.ndarray:
        """Per-slot instruction addresses."""
        return (
            np.uint64(self.pc_base)
            + np.arange(len(self.opclasses), dtype=np.uint64)
            * np.uint64(INSTRUCTION_BYTES)
        )


@dataclass
class Loop:
    """A contiguous run of blocks executed as a loop body."""

    first_block: int
    last_block: int

    @property
    def block_ids(self) -> range:
        return range(self.first_block, self.last_block + 1)


@dataclass
class Function:
    """A function: an ordered list of loops over contiguous blocks."""

    index: int
    loops: List[Loop]

    @property
    def first_block(self) -> int:
        return self.loops[0].first_block

    @property
    def last_block(self) -> int:
        return self.loops[-1].last_block


@dataclass
class ControlTables:
    """Flat structural arrays the batch interpreter walks.

    Everything here is a pure function of the static image: loops are
    numbered function-major (all of function 0's loops, then function
    1's, ...), matching the order the interpreter executes them.

    Attributes:
        loop_first / loop_last: block-id range of every loop body.
        loop_is_last: whether the loop is the final loop of its
            function (its final back-edge is a taken function exit).
        func_loop_start: offsets into the loop arrays per function
            (``n_functions + 1`` entries).
        loop_of_block: owning loop index per block id.
        skip_diamond: per block, True when its terminator is a
            data-dependent diamond *that can skip the next block*
            (``block + 2 <= loop_last``); diamonds too close to the
            loop tail degenerate to fall-through.
        skip_blocks_by_loop: skip-diamond block ids per loop, ascending.
        skip_block_ids: all skip-diamond block ids, ascending — the
            canonical draw order of the outcome protocol.
        skip_count_by_loop: number of skip-diamond blocks per loop.
        loop_has_skip: ``skip_count_by_loop > 0`` (precomputed mask).
        skip_cols_concat: body-position (column) of every skip-diamond
            block, loop-major ascending — the flat companion of
            ``skip_blocks_by_loop`` used by the batch scatter.
        skip_col_start: per-loop offsets into ``skip_cols_concat``.
        hot / cold: hot- and cold-function index arrays.
        block_lengths: instruction count per block id.
        mean_block_length: average block length (chunk sizing).
    """

    loop_first: np.ndarray
    loop_last: np.ndarray
    loop_is_last: np.ndarray
    func_loop_start: np.ndarray
    loop_of_block: np.ndarray
    skip_diamond: np.ndarray
    skip_blocks_by_loop: List[np.ndarray]
    skip_block_ids: np.ndarray
    skip_count_by_loop: np.ndarray
    loop_has_skip: np.ndarray
    skip_cols_concat: np.ndarray
    skip_col_start: np.ndarray
    hot: np.ndarray
    cold: np.ndarray
    block_lengths: np.ndarray
    mean_block_length: float


@dataclass
class MemoryPlan:
    """Class-grouped view of every static memory instruction.

    The batch expansion fuses each behavior class into single array
    operations; this plan holds the per-instance parameters in flat
    arrays, ordered by (block id, slot) — the same order the scalar
    reference iterates, which is what keeps the random-stream RNG
    consumption identical between the two engines.

    ``scalar`` / ``linear`` (sequential + strided) / ``pointer``
    behaviors consume no randomness, so fusing them is a pure
    arithmetic rewrite.  ``random`` instances draw one splittable
    uniform block per call (see
    :meth:`repro.synth.memory.RandomStream.generate`), so one batched
    ``rng.random`` over all instances reproduces the per-instance
    stream bit-for-bit.
    """

    scalar_blocks: np.ndarray
    scalar_slots: np.ndarray
    scalar_bases: np.ndarray

    linear_behaviors: List[SequentialStream]
    linear_blocks: np.ndarray
    linear_slots: np.ndarray
    linear_bases: np.ndarray
    linear_steps: np.ndarray
    linear_repeats: np.ndarray
    linear_span: np.ndarray

    pointer_behaviors: List[PointerChase]
    pointer_blocks: np.ndarray
    pointer_slots: np.ndarray
    pointer_bases: np.ndarray
    pointer_span: np.ndarray
    pointer_order_start: np.ndarray
    pointer_orders: np.ndarray

    random_behaviors: List[RandomStream]
    random_blocks: np.ndarray
    random_slots: np.ndarray
    random_bases: np.ndarray
    random_span: np.ndarray
    random_hot_span: np.ndarray
    random_bias: np.ndarray

    #: True when an unknown behavior class is present and the expansion
    #: must fall back to per-instance ``generate`` calls.
    fallback: bool


@dataclass
class StaticCode:
    """The complete static image of a synthetic program."""

    blocks: List[BasicBlock]
    functions: List[Function]
    hot_functions: List[int]
    cold_functions: List[int]
    data_bytes_allocated: int

    def block_lengths(self) -> np.ndarray:
        """Length of every block, indexed by block id."""
        lengths = getattr(self, "_block_lengths", None)
        if lengths is None:
            lengths = np.array(
                [len(block) for block in self.blocks], dtype=np.int64
            )
            self._block_lengths = lengths
        return lengths

    def slot_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat slot tables ``(opclasses, slot_starts, pc_bases)``.

        ``opclasses`` concatenates every block's per-slot classes;
        ``slot_starts[b]`` is block ``b``'s offset into it, so
        expanding a visit sequence into per-instruction columns is a
        single flat gather instead of one ``np.concatenate`` piece per
        visit.  ``pc_bases[b]`` is the block's first-instruction
        address (slot PCs are ``pc_base + 4 * slot``).  Built lazily,
        cached for the lifetime of the image.
        """
        tables = getattr(self, "_slot_tables", None)
        if tables is None:
            lengths = self.block_lengths()
            slot_starts = np.zeros(len(self.blocks), dtype=np.int64)
            np.cumsum(lengths[:-1], out=slot_starts[1:])
            opclasses = np.concatenate(
                [block.opclasses for block in self.blocks]
            )
            pc_bases = np.array(
                [block.pc_base for block in self.blocks], dtype=np.uint64
            )
            tables = (opclasses, slot_starts, pc_bases)
            self._slot_tables = tables
        return tables

    def control_tables(self) -> ControlTables:
        """The flat :class:`ControlTables` view (built lazily, cached)."""
        tables = getattr(self, "_control_tables", None)
        if tables is None:
            tables = self._build_control_tables()
            self._control_tables = tables
        return tables

    def _build_control_tables(self) -> ControlTables:
        loops = [loop for function in self.functions for loop in function.loops]
        loop_first = np.array([loop.first_block for loop in loops], np.int64)
        loop_last = np.array([loop.last_block for loop in loops], np.int64)
        func_loop_start = np.zeros(len(self.functions) + 1, dtype=np.int64)
        np.cumsum(
            [len(function.loops) for function in self.functions],
            out=func_loop_start[1:],
        )
        loop_is_last = np.zeros(len(loops), dtype=bool)
        loop_is_last[func_loop_start[1:] - 1] = True

        loop_of_block = np.empty(len(self.blocks), dtype=np.int64)
        skip_diamond = np.zeros(len(self.blocks), dtype=bool)
        skip_blocks_by_loop: List[np.ndarray] = []
        for loop_id, loop in enumerate(loops):
            loop_of_block[loop.first_block : loop.last_block + 1] = loop_id
            skips = [
                block_id
                for block_id in loop.block_ids
                if self.blocks[block_id].diamond is not None
                and block_id + 2 <= loop.last_block
            ]
            skip_diamond[skips] = True
            skip_blocks_by_loop.append(np.array(skips, dtype=np.int64))

        skip_count_by_loop = np.array(
            [len(skips) for skips in skip_blocks_by_loop], dtype=np.int64
        )
        skip_col_start = np.zeros(len(loops) + 1, dtype=np.int64)
        np.cumsum(skip_count_by_loop, out=skip_col_start[1:])
        skip_cols_concat = (
            np.concatenate(skip_blocks_by_loop)
            if skip_count_by_loop.sum()
            else np.empty(0, dtype=np.int64)
        ) - np.repeat(loop_first, skip_count_by_loop)

        lengths = self.block_lengths()
        return ControlTables(
            loop_first=loop_first,
            loop_last=loop_last,
            loop_is_last=loop_is_last,
            func_loop_start=func_loop_start,
            loop_of_block=loop_of_block,
            skip_diamond=skip_diamond,
            skip_blocks_by_loop=skip_blocks_by_loop,
            skip_block_ids=np.flatnonzero(skip_diamond),
            skip_count_by_loop=skip_count_by_loop,
            loop_has_skip=skip_count_by_loop > 0,
            skip_cols_concat=skip_cols_concat,
            skip_col_start=skip_col_start,
            hot=np.array(self.hot_functions, dtype=np.int64),
            cold=np.array(self.cold_functions, dtype=np.int64),
            block_lengths=lengths,
            mean_block_length=float(lengths.mean()),
        )

    def memory_blocks(self) -> List[BasicBlock]:
        """Blocks owning at least one memory instruction (cached)."""
        blocks = getattr(self, "_memory_blocks", None)
        if blocks is None:
            blocks = [block for block in self.blocks if block.memory_slots]
            self._memory_blocks = blocks
        return blocks

    def memory_plan(self) -> MemoryPlan:
        """The class-grouped :class:`MemoryPlan` (built lazily, cached)."""
        plan = getattr(self, "_memory_plan", None)
        if plan is None:
            plan = self._build_memory_plan()
            self._memory_plan = plan
        return plan

    def _build_memory_plan(self) -> MemoryPlan:
        from .memory import ACCESS_BYTES

        groups: Dict[str, list] = {
            "scalar": [],
            "linear": [],
            "pointer": [],
            "random": [],
        }
        fallback = False
        for block in self.memory_blocks():
            for slot, behavior in block.memory_slots:
                if isinstance(behavior, ScalarStream):
                    groups["scalar"].append((block.block_id, slot, behavior))
                elif isinstance(behavior, SequentialStream):
                    groups["linear"].append((block.block_id, slot, behavior))
                elif isinstance(behavior, PointerChase):
                    groups["pointer"].append((block.block_id, slot, behavior))
                elif isinstance(behavior, RandomStream):
                    groups["random"].append((block.block_id, slot, behavior))
                else:
                    fallback = True

        def ids(kind: str, index: int) -> np.ndarray:
            return np.array(
                [item[index] for item in groups[kind]], dtype=np.int64
            )

        def bases(kind: str) -> np.ndarray:
            return np.array(
                [item[2].base for item in groups[kind]], dtype=np.uint64
            )

        linear = [item[2] for item in groups["linear"]]
        pointer = [item[2] for item in groups["pointer"]]
        random = [item[2] for item in groups["random"]]
        pointer_counts = np.array(
            [behavior._slots for behavior in pointer], dtype=np.int64
        )
        pointer_order_start = np.zeros(len(pointer) + 1, dtype=np.int64)
        np.cumsum(pointer_counts, out=pointer_order_start[1:])
        return MemoryPlan(
            scalar_blocks=ids("scalar", 0),
            scalar_slots=ids("scalar", 1),
            scalar_bases=bases("scalar"),
            linear_behaviors=linear,
            linear_blocks=ids("linear", 0),
            linear_slots=ids("linear", 1),
            linear_bases=bases("linear"),
            linear_steps=np.array(
                [b.stride // ACCESS_BYTES for b in linear], dtype=np.int64
            ),
            linear_repeats=np.array(
                [b.repeats for b in linear], dtype=np.int64
            ),
            linear_span=np.array([b._slots for b in linear], dtype=np.int64),
            pointer_behaviors=pointer,
            pointer_blocks=ids("pointer", 0),
            pointer_slots=ids("pointer", 1),
            pointer_bases=bases("pointer"),
            pointer_span=pointer_counts,
            pointer_order_start=pointer_order_start,
            pointer_orders=(
                np.concatenate([b._order for b in pointer])
                if pointer
                else np.empty(0, dtype=np.int64)
            ),
            random_behaviors=random,
            random_blocks=ids("random", 0),
            random_slots=ids("random", 1),
            random_bases=bases("random"),
            random_span=np.array([b._slots for b in random], dtype=np.int64),
            random_hot_span=np.array(
                [b._hot_slots for b in random], dtype=np.int64
            ),
            random_bias=np.array(
                [b.hot_probability for b in random], dtype=np.float64
            ),
            fallback=fallback,
        )

    def reset_state(self) -> None:
        """Rewind every stateful behavior/branch model in the image.

        The image is memoized and shared across :func:`generate_trace`
        calls; resetting makes each generation start from the same
        initial cursors, keeping traces deterministic.
        """
        for block in self.blocks:
            if block.diamond is not None:
                block.diamond.reset()
            for _, behavior in block.memory_slots:
                behavior.reset()

    @property
    def code_bytes(self) -> int:
        """Static code size from first to last instruction."""
        last = self.blocks[-1]
        first = self.blocks[0]
        return (last.pc_base + len(last) * INSTRUCTION_BYTES) - first.pc_base


def _sample_block_length(
    rng: np.random.Generator, mean_length: float
) -> int:
    """Geometric block length with the given mean, minimum 2 slots."""
    if mean_length <= 2.0:
        return 2
    # Shifted geometric: 2 + G where E[G] = mean_length - 2.
    p = 1.0 / (mean_length - 1.0)
    return 2 + int(rng.geometric(min(max(p, 1e-6), 1.0))) - 1


def build_code(
    rng: np.random.Generator,
    spec: CodeSpec,
    mix,
    memory_spec,
    branch_spec,
) -> StaticCode:
    """Build the static program image for a profile.

    Args:
        rng: the benchmark's seeded generator.
        spec: static-code shape (:class:`CodeSpec`).
        mix: instruction-mix fractions (:class:`repro.synth.MixSpec`).
        memory_spec: data-behavior knobs (:class:`repro.synth.MemorySpec`).
        branch_spec: branch-model knobs (:class:`repro.synth.BranchSpec`).

    Returns:
        A fully populated :class:`StaticCode`.
    """
    branch_fraction = max(mix.branch, 1e-3)
    mean_block_length = max(2.0, 1.0 / branch_fraction)

    body_classes, body_weights = mix.body_distribution()
    body_cdf = choice_cdf(body_weights)

    blocks: List[BasicBlock] = []
    functions: List[Function] = []
    block_id = 0
    for function_index in range(spec.num_functions):
        function_base = CODE_BASE + function_index * spec.function_gap_bytes
        pc_cursor = function_base
        loops: List[Loop] = []
        blocks_remaining = spec.blocks_per_function
        while blocks_remaining > 0:
            body_size = min(
                blocks_remaining,
                max(1, int(rng.poisson(spec.loop_blocks)) or 1),
            )
            first = block_id
            for position in range(body_size):
                length = _sample_block_length(rng, mean_block_length)
                opclasses = np.empty(length, dtype=np.uint8)
                opclasses[:-1] = body_classes[
                    choice_indices(rng, body_cdf, length - 1)
                ]
                opclasses[-1] = int(OpClass.BRANCH)
                in_body = position < body_size - 1
                diamond = None
                if in_body and rng.random() < spec.diamond_rate:
                    diamond = make_branch_model(
                        rng,
                        pattern_fraction=branch_spec.pattern_fraction,
                        taken_bias=branch_spec.taken_bias,
                        max_period=branch_spec.max_pattern_period,
                    )
                blocks.append(
                    BasicBlock(
                        block_id=block_id,
                        function=function_index,
                        pc_base=pc_cursor,
                        opclasses=opclasses,
                        diamond=diamond,
                    )
                )
                pc_cursor += length * INSTRUCTION_BYTES
                block_id += 1
            loops.append(Loop(first_block=first, last_block=block_id - 1))
            blocks_remaining -= body_size
        functions.append(Function(index=function_index, loops=loops))

    hot_count = max(1, round(spec.num_functions * spec.hot_function_fraction))
    order = list(rng.permutation(spec.num_functions))
    hot_functions = sorted(int(f) for f in order[:hot_count])
    cold_functions = sorted(int(f) for f in order[hot_count:])

    data_allocated = _assign_memory_behaviors(rng, blocks, memory_spec)

    return StaticCode(
        blocks=blocks,
        functions=functions,
        hot_functions=hot_functions,
        cold_functions=cold_functions,
        data_bytes_allocated=data_allocated,
    )


def _assign_memory_behaviors(
    rng: np.random.Generator,
    blocks: List[BasicBlock],
    memory_spec,
) -> int:
    """Give every static memory instruction an access behavior.

    The data footprint is divided evenly among the non-scalar behaviors;
    scalar behaviors get a single slot each.  Returns the total number of
    data bytes allocated.
    """
    # Every slot of every block, block-major: the order the loads (then
    # the stores) draw their behavior kinds in.
    lengths = np.array([len(block) for block in blocks], dtype=np.int64)
    opclasses = np.concatenate([block.opclasses for block in blocks])
    owners = np.repeat(np.arange(len(blocks)), lengths)
    slots = np.arange(len(opclasses)) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )

    plan: List[Tuple[BasicBlock, int, str]] = []
    for opclass, mix in (
        (OpClass.LOAD, memory_spec.load_mix),
        (OpClass.STORE, memory_spec.store_mix),
    ):
        positions = np.flatnonzero(opclasses == int(opclass))
        kinds = list(mix.keys())
        weights = np.array([mix[kind] for kind in kinds], dtype=float)
        weights = weights / weights.sum()
        drawn = choice_indices(rng, choice_cdf(weights), len(positions))
        plan.extend(
            (blocks[owner], slot, kinds[index])
            for owner, slot, index in zip(
                owners[positions].tolist(),
                slots[positions].tolist(),
                drawn.tolist(),
            )
        )

    non_scalar = sum(1 for _, _, kind in plan if kind != "scalar")
    region_bytes = memory_spec.footprint_bytes // max(non_scalar, 1)
    region_bytes = max(region_bytes, 64)

    cursor = DATA_BASE
    for block, slot, kind in plan:
        footprint = 8 if kind == "scalar" else region_bytes
        behavior = make_behavior(
            kind,
            base=cursor,
            footprint=footprint,
            rng=rng,
            stride=memory_spec.stride_bytes,
        )
        block.memory_slots.append((slot, behavior))
        cursor += footprint + REGION_PADDING
    for block in blocks:
        block.memory_slots.sort(key=lambda pair: pair[0])
    return cursor - DATA_BASE

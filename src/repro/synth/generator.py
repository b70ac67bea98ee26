"""Trace generation: execute a :class:`WorkloadProfile`.

Generation proceeds in four phases:

1. **Build** the static code image (:func:`repro.synth.code.build_code`).
   The image depends only on the profile knobs — never on trace length
   or the per-trace seed — so it is memoized per profile fingerprint
   (:func:`code_for_profile`) and shared across calls.
2. **Interpret** control flow: walk functions/loops/diamonds, producing
   the basic-block visit sequence and, for every visit, the terminator
   branch outcome (consistent with the visit that follows).
3. **Expand** the visit sequence into per-instruction columns (PC and
   opclass come from padded static slot tables via one 2-D gather;
   branch outcome/target land in terminator slots; every static memory
   instruction's behavior emits its whole vectorized address sequence,
   which is scattered into the positions where that instruction
   executes).
4. **Assign registers** with a vectorized recent-producer scheme whose
   geometric age distribution shapes dependency distances and ILP.
   Classes are addressed by position arrays, and each pool keeps one
   ``int32`` producers-before count.  The finished columns become the
   trace's storage as they are (:meth:`~repro.trace.Trace.from_columns`).

Phases 2 and 3 are batch engines with no per-visit Python loops; the
scalar originals are retained as :func:`_interpret_reference` and
:func:`_expand_reference` — executable specifications that the
equivalence tests pin the batch engines against, following the
``ppm_predictabilities_reference`` pattern.

**The stochastic draw protocol.**  Control flow is drawn in *episode
chunks* so the batch interpreter and the scalar reference consume the
generator stream identically.  One episode is one function pass; for a
chunk of ``K`` episodes the draws are, in order:

1. ``rng.random(K)`` — cold-detour uniforms; an episode visits a cold
   function iff the program has cold functions and its uniform is below
   ``cold_visit_rate``.
2. ``rng.random(K)`` — function-pick uniforms; the episode's function
   is ``pool[floor(u * len(pool))]`` of the chosen hot/cold pool.
3. ``1 + rng.geometric(1 / loop_iter_mean, size=total_loops)`` —
   iteration counts for every loop visit of the chunk, episode-major.
4. For every *skip-capable* diamond block (ascending block id) with a
   positive execution count in the chunk: ``model.outcomes(rng, n)``
   where ``n`` is the total iteration count of the owning loop across
   the chunk.  One outcome is consumed per loop iteration whether or
   not the diamond block is actually visited that iteration (a
   preceding diamond may have skipped it).

:data:`TRACE_GEN_VERSION` names the generation semantics; it is folded
into the :mod:`repro.perf` trace-cache key and must be bumped whenever
the protocol (and hence the trace bytes of a given profile/length/seed)
changes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ProfileError
from ..isa import NO_REG, OpClass
from ..isa.instruction import INSTRUCTION_BYTES
from ..isa.registers import NUM_INT_REGS
from ..trace import Trace
from .branches import BiasedBranch
from .code import ControlTables, StaticCode, build_code
from .memory import (
    ACCESS_BYTES,
    RANDOM_HOT_DIVISOR,
    RANDOM_HOT_PROBABILITY,
    random_slots_from_uniforms,
)
from .profiles import WorkloadProfile
from .rng import make_rng

#: Generation-semantics version.  Bump whenever the draw protocol or the
#: expansion rules change the bytes produced for the same
#: (profile, length, seed); the perf trace cache keys on it.
TRACE_GEN_VERSION = 2


@dataclass(frozen=True)
class TraceRecipe:
    """What a generated trace is a pure function of.

    :func:`generate_trace` maps (profile knobs, length, seed) to the
    same bytes under one :data:`TRACE_GEN_VERSION`, and
    ``tests/data/trace_digests.json`` pins those bytes for the whole
    registry, so a recipe names a generated trace as tightly as a hash
    of its contents does.  The :mod:`repro.perf` char and HPC caches key
    by :attr:`key` when a trace carries a recipe, so a warm lookup
    needs no trace bytes at all.

    Attributes:
        profile_fingerprint: :meth:`WorkloadProfile.fingerprint`.
        length: the trace length in instructions.
        seed: the per-trace seed passed to :func:`generate_trace`.
    """

    profile_fingerprint: str
    length: int
    seed: int = 0

    @classmethod
    def of(
        cls, profile: WorkloadProfile, length: int, seed: int = 0
    ) -> "TraceRecipe":
        """The recipe :func:`generate_trace` follows for these arguments."""
        return cls(profile.fingerprint(), int(length), int(seed))

    @property
    def key(self) -> str:
        """Stable identity of the generated bytes, version included."""
        return (f"gen-v{TRACE_GEN_VERSION}/{self.profile_fingerprint}/"
                f"{self.length}/{self.seed}")


#: Namespace of the dynamic-stream rng, derived from the protocol
#: version: bumping :data:`TRACE_GEN_VERSION` re-rolls every trace
#: realization coherently.
_TRACE_STREAM = f"gen-v{TRACE_GEN_VERSION}"

#: First rotation register of the integer pool ($1.. — $0 is kept live as
#: a long-lived value, $31 is the zero register).
INT_POOL_BASE = 1

#: First rotation register of the FP pool ($f0.. ; $f31 is the zero reg).
FP_POOL_BASE = NUM_INT_REGS

#: Upper bound on episodes drawn per chunk (bounds peak matrix memory).
_MAX_CHUNK_EPISODES = 1 << 15

#: Memoized static code images, keyed by profile fingerprint.
_CODE_CACHE: "OrderedDict[str, StaticCode]" = OrderedDict()
_CODE_CACHE_LIMIT = 256

_generation_calls = 0


def generation_call_count() -> int:
    """Number of :func:`generate_trace` invocations in this process.

    The perf trace cache sits *in front of* the generator; tests assert
    warm dataset builds leave this counter untouched.
    """
    return _generation_calls


def clear_code_cache() -> None:
    """Drop all memoized static code images."""
    _CODE_CACHE.clear()


def code_for_profile(profile: WorkloadProfile) -> StaticCode:
    """The profile's static code image, memoized per fingerprint.

    The image is identical across trace lengths and per-trace seeds of
    the same profile draw, so it is built once (from an rng keyed only
    by the profile's name and own seed) and shared.  Stateful behaviors
    and branch models are reset before every use, keeping generation
    deterministic.

    The memoized image is shared mutable state: generation is
    single-threaded per process (parallel dataset builds use
    *processes*, each with its own memo).  Callers holding a returned
    image should expect its cursors to be rewound by the next
    ``generate_trace`` call for the same profile.
    """
    key = profile.fingerprint()
    code = _CODE_CACHE.get(key)
    if code is None:
        rng = make_rng("code", profile.name, profile.seed)
        code = build_code(
            rng, profile.code, profile.mix, profile.memory, profile.branches
        )
        _CODE_CACHE[key] = code
        while len(_CODE_CACHE) > _CODE_CACHE_LIMIT:
            _CODE_CACHE.popitem(last=False)
    else:
        _CODE_CACHE.move_to_end(key)
    code.reset_state()
    return code


def generate_trace(
    profile: WorkloadProfile,
    length: int,
    seed: int = 0,
) -> Trace:
    """Generate a dynamic instruction trace for a workload profile.

    Args:
        profile: the synthetic benchmark description.
        length: exact number of dynamic instructions to produce.
        seed: extra seed component (combined with the profile's own
            name/seed, so different runs can draw different instances).

    Returns:
        A validated-by-construction :class:`~repro.trace.Trace` of
        exactly ``length`` instructions named after the profile, carrying
        its :class:`TraceRecipe`.

    Raises:
        ProfileError: if ``length`` is not positive.
    """
    global _generation_calls
    if length <= 0:
        raise ProfileError("trace length must be positive")
    _generation_calls += 1

    code = code_for_profile(profile)
    rng = make_rng("trace", _TRACE_STREAM, profile.name, profile.seed, seed)
    visits, outcomes = _interpret(rng, code, profile, length)
    columns = _expand(rng, code, visits, outcomes, length)
    _assign_registers(rng, columns, profile.registers)

    return Trace.from_columns(
        {field: column[:length] for field, column in columns.items()},
        name=profile.name, recipe=TraceRecipe.of(profile, length, seed),
    )


# ---------------------------------------------------------------------------
# Phase 2: control-flow interpretation
# ---------------------------------------------------------------------------


@dataclass
class _EpisodeChunk:
    """One chunk of pre-drawn control-flow randomness.

    Attributes:
        lv_loop: static loop index per loop visit, chronological
            (episode-major, loops in function order).
        iters: iteration count per loop visit.
        loop_iterations: total iteration count per static loop across
            the chunk (zero for unvisited loops).
        outcomes: skip-capable diamond block id -> drawn outcome array,
            consumed one entry per iteration of the owning loop.
    """

    lv_loop: np.ndarray
    iters: np.ndarray
    loop_iterations: np.ndarray
    outcomes: Dict[int, np.ndarray]


def _chunk_episodes(tables: ControlTables, spec, remaining: int) -> int:
    """How many episodes to draw to cover ``remaining`` instructions.

    One episode covers roughly ``mean_block_length * blocks_per_function
    * (1 + loop_iter_mean)`` instructions (each loop body runs once plus
    a geometric number of re-entries); the 0.85 factor absorbs diamond
    skips so a single chunk usually suffices.  Both interpreters use
    this estimate, keeping their draw streams identical.
    """
    per_episode = (
        tables.mean_block_length
        * spec.blocks_per_function
        * (1.0 + spec.loop_iter_mean)
        * 0.85
    )
    need = int(remaining / max(per_episode, 1.0)) + 1
    return max(1, min(need, _MAX_CHUNK_EPISODES))


def _draw_episode_chunk(
    rng: np.random.Generator,
    code: StaticCode,
    spec,
    episodes: int,
) -> _EpisodeChunk:
    """Draw one chunk of episodes per the module's stochastic protocol."""
    tables = code.control_tables()
    u_cold = rng.random(episodes)
    u_func = rng.random(episodes)

    hot_pick = tables.hot[
        np.minimum(
            (u_func * len(tables.hot)).astype(np.int64), len(tables.hot) - 1
        )
    ]
    if tables.cold.size:
        cold_pick = tables.cold[
            np.minimum(
                (u_func * len(tables.cold)).astype(np.int64),
                len(tables.cold) - 1,
            )
        ]
        functions = np.where(u_cold < spec.cold_visit_rate, cold_pick, hot_pick)
    else:
        functions = hot_pick

    starts = tables.func_loop_start[functions]
    counts = tables.func_loop_start[functions + 1] - starts
    total = int(counts.sum())
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    lv_loop = np.repeat(starts, counts) + offsets

    iters = 1 + rng.geometric(
        1.0 / spec.loop_iter_mean, size=total
    ).astype(np.int64)

    loop_iterations = np.bincount(
        lv_loop, weights=iters, minlength=len(tables.loop_first)
    ).astype(np.int64)

    # Outcome draws, ascending block id.  Biased branches draw one
    # uniform per execution from the shared stream; since pattern
    # branches consume no randomness, the biased draws are consecutive
    # and can be batched into a single ``rng.random`` call whose slices
    # are bit-identical to per-branch draws.  The fast path applies to
    # exactly :class:`BiasedBranch` — a subclass could override
    # ``outcomes`` and must go through it.
    outcomes: Dict[int, np.ndarray] = {}
    biased: List[Tuple[int, int, float]] = []  # (block id, count, bias)
    for block_id in tables.skip_block_ids:
        count = int(loop_iterations[tables.loop_of_block[block_id]])
        if not count:
            continue
        model = code.blocks[int(block_id)].diamond
        if type(model) is BiasedBranch:
            biased.append((int(block_id), count, model.taken_probability))
        else:
            outcomes[int(block_id)] = model.outcomes(rng, count)
    if biased:
        counts = np.array([count for _, count, _ in biased], dtype=np.int64)
        draws = rng.random(int(counts.sum())) < np.repeat(
            np.array([bias for _, _, bias in biased]), counts
        )
        offsets = np.cumsum(counts) - counts
        for (block_id, count, _), offset in zip(biased, offsets):
            outcomes[block_id] = draws[offset : offset + count]
    return _EpisodeChunk(
        lv_loop=lv_loop,
        iters=iters,
        loop_iterations=loop_iterations,
        outcomes=outcomes,
    )


def _expand_chunk(
    tables: ControlTables, chunk: _EpisodeChunk
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand one pre-drawn chunk into (visit ids, visit outcomes).

    Iteration *rows* flatten every iteration of every loop visit
    chronologically.  Rows of loops without skip-capable diamonds have a
    deterministic walk (every body block, in order), so they expand with
    flat repeat/cumsum arithmetic; only rows of diamond-bearing loops go
    through the (row x body position) work grid, where skips are a
    first-order recurrence along the body — a loop over the (static,
    small) body width vectorized over all iterations at once, the same
    offset-major shape as the ILP engine.  Both streams are scattered
    into one output array by per-row emit offsets, preserving
    chronological order.
    """
    lv_loop = chunk.lv_loop
    iters = chunk.iters
    lv_first = tables.loop_first[lv_loop]
    lv_width = tables.loop_last[lv_loop] - lv_first + 1

    rows = int(iters.sum())
    lv_row_start = np.cumsum(iters) - iters
    row_lv = np.repeat(np.arange(len(lv_loop), dtype=np.int64), iters)
    row_t = np.arange(rows, dtype=np.int64) - lv_row_start[row_lv]
    row_first = lv_first[row_lv]
    row_width = lv_width[row_lv]
    row_loop = lv_loop[row_lv]
    # Back-edge outcome of each row's tail visit: taken on every
    # iteration but the last; the final back-edge of a function's last
    # loop is the taken function-exit jump.
    row_tail_taken = (row_t < iters[row_lv] - 1) | tables.loop_is_last[row_loop]

    diamond_row = tables.loop_has_skip[row_loop]
    plain_rows = np.flatnonzero(~diamond_row)
    matrix_rows = np.flatnonzero(diamond_row)

    emit = row_width.copy()

    # -- diamond-loop rows: masked work grid --------------------------
    if matrix_rows.size:
        m_first = row_first[matrix_rows]
        m_width = row_width[matrix_rows]
        max_body = int(m_width.max())
        cols = np.arange(max_body, dtype=np.int64)
        valid = cols[None, :] < m_width[:, None]
        block_m = m_first[:, None] + cols[None, :]
        safe_blocks = np.minimum(block_m, len(tables.loop_of_block) - 1)
        skip_m = tables.skip_diamond[safe_blocks] & valid

        # Scatter every diamond's pre-drawn outcome stream onto its
        # (row, column) cells in one flat fancy assignment.  Streams
        # concatenate in draw order (ascending block id = loop-major,
        # column-minor); the matching cell list walks present loops
        # ascending, columns within a loop ascending, and each column's
        # rows chronologically (a stable sort of the matrix rows by
        # loop keeps segments in row order).
        outcome_m = np.zeros((len(matrix_rows), max_body), dtype=bool)
        m_loop = row_loop[matrix_rows]
        order = np.argsort(m_loop, kind="stable")
        loop_rows = np.where(tables.loop_has_skip, chunk.loop_iterations, 0)
        seg_start = np.cumsum(loop_rows) - loop_rows
        cell_counts = loop_rows * tables.skip_count_by_loop
        present = np.flatnonzero(cell_counts)
        counts = cell_counts[present]
        total_cells = int(counts.sum())
        group = np.repeat(np.arange(len(present)), counts)
        within = np.arange(total_cells, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        cell_loop = present[group]
        cell_loop_rows = loop_rows[cell_loop]
        column_ordinal = within // cell_loop_rows
        row_ordinal = within - column_ordinal * cell_loop_rows
        cell_rows = order[seg_start[cell_loop] + row_ordinal]
        cell_cols = tables.skip_cols_concat[
            tables.skip_col_start[cell_loop] + column_ordinal
        ]
        streams = np.concatenate(
            [
                chunk.outcomes[int(block_id)]
                for block_id in tables.skip_block_ids
                if int(block_id) in chunk.outcomes
            ]
        )
        outcome_m[cell_rows, cell_cols] = streams

        # Visitation recurrence: a block is skipped iff its predecessor
        # was visited, is a skip-capable diamond, and drew "taken".
        visited = np.empty((len(matrix_rows), max_body), dtype=bool)
        visited[:, 0] = valid[:, 0]
        for position in range(1, max_body):
            skipped = (
                visited[:, position - 1]
                & skip_m[:, position - 1]
                & outcome_m[:, position - 1]
            )
            visited[:, position] = valid[:, position] & ~skipped

        taken_m = outcome_m & skip_m
        taken_m[np.arange(len(matrix_rows)), m_width - 1] = row_tail_taken[
            matrix_rows
        ]

        emit[matrix_rows] = visited.sum(axis=1)

    # -- merge both streams by per-row output offsets ------------------
    out_start = np.cumsum(emit) - emit
    total_visits = int(out_start[-1] + emit[-1]) if rows else 0
    visits = np.empty(total_visits, dtype=np.int64)
    taken = np.zeros(total_visits, dtype=bool)

    if plain_rows.size:
        widths = row_width[plain_rows]
        n_plain = int(widths.sum())
        offsets = np.arange(n_plain, dtype=np.int64) - np.repeat(
            np.cumsum(widths) - widths, widths
        )
        positions = np.repeat(out_start[plain_rows], widths) + offsets
        visits[positions] = np.repeat(row_first[plain_rows], widths) + offsets
        tail_positions = out_start[plain_rows] + widths - 1
        taken[tail_positions] = row_tail_taken[plain_rows]

    if matrix_rows.size:
        flat = np.flatnonzero(visited)
        emitted = emit[matrix_rows]
        offsets = np.arange(len(flat), dtype=np.int64) - np.repeat(
            np.cumsum(emitted) - emitted, emitted
        )
        positions = np.repeat(out_start[matrix_rows], emitted) + offsets
        visits[positions] = block_m.ravel()[flat]
        taken[positions] = taken_m.ravel()[flat]

    return visits, taken


def _interpret(
    rng: np.random.Generator,
    code: StaticCode,
    profile: WorkloadProfile,
    length: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Produce the block-visit sequence and per-visit branch outcomes.

    A visit's outcome is True (taken) when control does *not* continue to
    the static fall-through block: loop back-edges, diamond skips, and
    function exits are taken; sequential flow is not taken.

    Batch engine: draws episode chunks per the module protocol and
    expands each with :func:`_expand_chunk`; the stream is truncated at
    the first visit whose cumulative instruction count reaches
    ``length``.  Must stay bit-identical to
    :func:`_interpret_reference`.
    """
    spec = profile.code
    tables = code.control_tables()
    visit_parts: List[np.ndarray] = []
    taken_parts: List[np.ndarray] = []
    produced = 0
    while produced < length:
        chunk = _draw_episode_chunk(
            rng, code, spec, _chunk_episodes(tables, spec, length - produced)
        )
        visits, taken = _expand_chunk(tables, chunk)
        cumulative = np.cumsum(tables.block_lengths[visits])
        if produced + int(cumulative[-1]) >= length:
            cut = int(
                np.searchsorted(cumulative, length - produced, side="left")
            )
            visits = visits[: cut + 1]
            taken = taken[: cut + 1]
            produced += int(cumulative[cut])
        else:
            produced += int(cumulative[-1])
        visit_parts.append(visits)
        taken_parts.append(taken)
    if len(visit_parts) == 1:
        return visit_parts[0], taken_parts[0]
    return np.concatenate(visit_parts), np.concatenate(taken_parts)


def _interpret_reference(
    rng: np.random.Generator,
    code: StaticCode,
    profile: WorkloadProfile,
    length: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar reference interpreter — the executable specification.

    Consumes the same pre-drawn episode chunks as :func:`_interpret`
    (the draw protocol is shared) but expands them one visit at a time
    with the obvious walk, so the batch engine's index arithmetic can be
    pinned against it bit-for-bit.
    """
    spec = profile.code
    tables = code.control_tables()
    block_lengths = tables.block_lengths
    visit_ids: List[int] = []
    visit_taken: List[bool] = []
    budget = length

    while budget > 0:
        chunk = _draw_episode_chunk(
            rng, code, spec, _chunk_episodes(tables, spec, budget)
        )
        cursors = {block_id: 0 for block_id in chunk.outcomes}
        for lv in range(len(chunk.lv_loop)):
            loop_id = int(chunk.lv_loop[lv])
            first = int(tables.loop_first[loop_id])
            last = int(tables.loop_last[loop_id])
            is_last_loop = bool(tables.loop_is_last[loop_id])
            iterations = int(chunk.iters[lv])
            for iteration in range(iterations):
                # One outcome per skip-capable diamond per iteration,
                # consumed whether or not the block ends up visited.
                drawn = {}
                for block_id in tables.skip_blocks_by_loop[loop_id]:
                    key = int(block_id)
                    drawn[key] = bool(chunk.outcomes[key][cursors[key]])
                    cursors[key] += 1
                block_index = first
                while block_index <= last:
                    if block_index == last:
                        taken = iteration < iterations - 1 or is_last_loop
                        next_index = block_index + 1
                    elif block_index in drawn:
                        taken = drawn[block_index]
                        next_index = (
                            block_index + 2 if taken else block_index + 1
                        )
                    else:
                        taken = False
                        next_index = block_index + 1
                    visit_ids.append(block_index)
                    visit_taken.append(taken)
                    budget -= int(block_lengths[block_index])
                    if budget <= 0:
                        return (
                            np.array(visit_ids, dtype=np.int64),
                            np.array(visit_taken, dtype=bool),
                        )
                    block_index = next_index

    return np.array(visit_ids, dtype=np.int64), np.array(visit_taken, dtype=bool)


# ---------------------------------------------------------------------------
# Phase 3: expansion into per-instruction columns
# ---------------------------------------------------------------------------


def _expand(
    rng: np.random.Generator,
    code: StaticCode,
    visits: np.ndarray,
    outcomes: np.ndarray,
    length: int,
) -> dict:
    """Expand visits into columnar per-instruction arrays.

    Batch engine: opclass/PC columns are one 2-D gather from the padded
    static slot tables; memory behaviors are grouped with a single
    stable sort of the visit stream, so each behavior generates all its
    occurrences in one call ordered by visit index.  Must stay
    bit-identical to :func:`_expand_reference` (and draw from ``rng``
    in the same order: blocks ascending, slots ascending).

    The returned arrays may be slightly longer than ``length`` (the last
    visited block may overrun the budget); the caller trims.
    """
    slot_opclasses, slot_starts, pc_bases = code.slot_tables()
    block_lengths = code.block_lengths()
    visit_lengths = block_lengths[visits]
    starts = np.zeros(len(visits) + 1, dtype=np.int64)
    np.cumsum(visit_lengths, out=starts[1:])
    total = int(starts[-1])
    visit_starts = starts[:-1]

    slot_offsets = np.arange(total, dtype=np.int64) - np.repeat(
        visit_starts, visit_lengths
    )
    opclass = slot_opclasses[
        np.repeat(slot_starts[visits], visit_lengths) + slot_offsets
    ]
    pc = np.repeat(pc_bases[visits], visit_lengths) + slot_offsets.astype(
        np.uint64
    ) * np.uint64(INSTRUCTION_BYTES)

    taken = np.zeros(total, dtype=np.uint8)
    target = np.zeros(total, dtype=np.uint64)
    terminator_positions = starts[1:] - 1
    taken[terminator_positions] = outcomes.astype(np.uint8)

    # A taken terminator targets the next visited block; the final visit
    # targets the first block (wrap) to keep targets nonzero.
    block_bases = pc_bases
    next_base = np.empty(len(visits), dtype=np.uint64)
    next_base[:-1] = block_bases[visits[1:]]
    next_base[-1] = block_bases[visits[0]]
    target[terminator_positions] = np.where(outcomes, next_base, 0)

    mem_addr = np.zeros(total, dtype=np.uint64)
    _scatter_memory(rng, code, visits, visit_starts, mem_addr)

    return {
        "pc": pc,
        "opclass": opclass,
        "src1": np.full(total, NO_REG, dtype=np.uint8),
        "src2": np.full(total, NO_REG, dtype=np.uint8),
        "dst": np.full(total, NO_REG, dtype=np.uint8),
        "mem_addr": mem_addr,
        "taken": taken,
        "target": target,
    }


def _scatter_memory(
    rng: np.random.Generator,
    code: StaticCode,
    visits: np.ndarray,
    visit_starts: np.ndarray,
    mem_addr: np.ndarray,
) -> None:
    """Fill every memory instruction's effective address in place.

    Behaviors are fused per class via the static :class:`MemoryPlan`:
    the non-random classes consume no randomness, so replacing their
    per-instance ``generate`` calls with flat array arithmetic is a
    pure rewrite; random streams draw splittable uniform blocks, so one
    batched ``rng.random`` over all instances (in block/slot order,
    zero-occurrence instances excluded) reproduces the reference's
    per-instance draw stream bit-for-bit.
    """
    plan = code.memory
    counts_all = np.bincount(visits, minlength=len(code.blocks))
    order = np.argsort(visits, kind="stable")
    seg = np.cumsum(counts_all) - counts_all

    def occurrences(kind: str):
        """(members, per-member counts, positions, entry, occurrence
        idx) for one class, occurrences ordered by visit index."""
        members = plan.members[kind]
        blocks = plan.block[members]
        counts = counts_all[blocks]
        total = int(counts.sum())
        if not total:
            return None
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        entry = np.repeat(members, counts)
        visit_rows = order[np.repeat(seg[blocks], counts) + offsets]
        positions = visit_starts[visit_rows] + plan.slot[entry]
        return members, counts, positions, entry, offsets

    def addresses(entry: np.ndarray, slots: np.ndarray) -> np.ndarray:
        return plan.base[entry] + slots.astype(np.uint64) * np.uint64(
            ACCESS_BYTES
        )

    found = occurrences("scalar")
    if found:
        _, _, positions, entry, _ = found
        mem_addr[positions] = plan.base[entry]

    found = occurrences("linear")
    if found:
        members, counts, positions, entry, offsets = found
        ticks = plan.cursor[entry] + offsets
        slots = (
            ticks // plan.repeats[entry] * plan.step[entry]
        ) % plan.span[entry]
        mem_addr[positions] = addresses(entry, slots)
        plan.cursor[members] += counts

    found = occurrences("pointer")
    if found:
        members, counts, positions, entry, offsets = found
        cycle_pos = (plan.cursor[entry] + offsets) % plan.span[entry]
        orders = plan.pointer_orders(members[counts > 0])
        mem_addr[positions] = addresses(
            entry, orders[plan.order_start[entry] + cycle_pos]
        )
        plan.cursor[members] = (
            plan.cursor[members] + counts
        ) % plan.span[members]

    found = occurrences("random")
    if found:
        _, counts, positions, entry, offsets = found
        draws = np.repeat(np.cumsum(2 * counts) - 2 * counts, counts) + offsets
        uniforms = rng.random(int(2 * counts.sum()))
        span = plan.span[entry]
        slots = random_slots_from_uniforms(
            uniforms[draws],
            uniforms[draws + np.repeat(counts, counts)],
            np.maximum(span // RANDOM_HOT_DIVISOR, 1),
            span,
            RANDOM_HOT_PROBABILITY,
        )
        mem_addr[positions] = addresses(entry, slots)


def _expand_reference(
    rng: np.random.Generator,
    code: StaticCode,
    visits: np.ndarray,
    outcomes: np.ndarray,
    length: int,
) -> dict:
    """Scalar reference expansion — the executable specification.

    One concatenate piece per visit and one occurrence scan per static
    block, exactly the pre-batch engine; retained so the grouped
    expansion can be pinned against it bit-for-bit.
    """
    block_lengths = code.block_lengths()
    visit_lengths = block_lengths[visits]
    starts = np.zeros(len(visits) + 1, dtype=np.int64)
    np.cumsum(visit_lengths, out=starts[1:])
    total = int(starts[-1])

    opclass = np.concatenate(
        [code.blocks[block_id].opclasses for block_id in visits]
    )
    pc = np.concatenate([code.blocks[block_id].pcs for block_id in visits])

    taken = np.zeros(total, dtype=np.uint8)
    target = np.zeros(total, dtype=np.uint64)
    terminator_positions = starts[1:] - 1
    taken[terminator_positions] = outcomes.astype(np.uint8)

    next_base = np.empty(len(visits), dtype=np.uint64)
    block_bases = np.array(
        [block.pc_base for block in code.blocks], dtype=np.uint64
    )
    next_base[:-1] = block_bases[visits[1:]]
    next_base[-1] = block_bases[visits[0]]
    target[terminator_positions] = np.where(outcomes, next_base, 0)

    mem_addr = np.zeros(total, dtype=np.uint64)
    visit_starts = starts[:-1]
    for block_id, memory_slots in enumerate(code.memory_behaviors()):
        if not memory_slots:
            continue
        visit_indices = np.flatnonzero(visits == block_id)
        if len(visit_indices) == 0:
            continue
        base_positions = visit_starts[visit_indices]
        for slot, behavior in memory_slots:
            addresses = behavior.generate(rng, len(visit_indices))
            mem_addr[base_positions + slot] = addresses

    return {
        "pc": pc,
        "opclass": opclass,
        "src1": np.full(total, NO_REG, dtype=np.uint8),
        "src2": np.full(total, NO_REG, dtype=np.uint8),
        "dst": np.full(total, NO_REG, dtype=np.uint8),
        "mem_addr": mem_addr,
        "taken": taken,
        "target": target,
    }


# ---------------------------------------------------------------------------
# Phase 4: register assignment
# ---------------------------------------------------------------------------


def _assign_registers(
    rng: np.random.Generator, columns: dict, spec
) -> None:
    """Assign destination and source registers in place.

    Producers rotate through a register pool; consumers read the value
    written ``k`` producers ago with ``k`` geometric (mean
    ``spec.dep_mean``), clipped so the named register still holds that
    value.  Integer and FP dataflow use disjoint pools.  Every class is
    addressed by its ascending position array, so each draw lines up
    with its instructions in program order.
    """
    opclass = columns["opclass"]
    src1 = columns["src1"]
    src2 = columns["src2"]

    def is_class(op: OpClass) -> np.ndarray:
        return opclass == int(op)

    is_int_compute = is_class(OpClass.INT_ALU) | is_class(OpClass.INT_MUL)
    int_pool = _PoolState(
        is_int_compute | is_class(OpClass.LOAD), INT_POOL_BASE, spec.int_pool
    )
    fp_pool = _PoolState(is_class(OpClass.FP), FP_POOL_BASE, spec.fp_pool)
    for pool in (int_pool, fp_pool):
        columns["dst"][pool.positions] = pool.destinations

    def int_source(at: np.ndarray) -> np.ndarray:
        return int_pool.sample_sources(rng, at, spec.geometric_p)

    def fp_source(at: np.ndarray) -> np.ndarray:
        return fp_pool.sample_sources(rng, at, spec.geometric_p)

    # Loads: src1 is the address register.
    loads = np.flatnonzero(is_class(OpClass.LOAD))
    src1[loads] = int_source(loads)
    # Stores: src1 is the value, src2 the address register.
    stores = np.flatnonzero(is_class(OpClass.STORE))
    src1[stores] = int_source(stores)
    src2[stores] = int_source(stores)
    # Branches: src1 is the condition register.
    branches = np.flatnonzero(is_class(OpClass.BRANCH))
    src1[branches] = int_source(branches)

    # Integer compute: immediate forms skip src1; two-operand forms add src2.
    compute = np.flatnonzero(is_int_compute)
    has_src1 = rng.random(len(compute)) >= spec.imm_fraction
    src1_at = compute[has_src1]
    src1[src1_at] = int_source(src1_at)
    has_src2 = has_src1 & (rng.random(len(compute)) < spec.two_op_fraction)
    src2_at = compute[has_src2]
    src2[src2_at] = int_source(src2_at)

    # FP compute: src1 always, src2 with the two-operand probability.
    fp = fp_pool.positions
    src1[fp] = fp_source(fp)
    fp_two = rng.random(len(fp)) < spec.two_op_fraction
    fp_src2_at = fp[fp_two]
    src2[fp_src2_at] = fp_source(fp_src2_at)


class _PoolState:
    """Vectorized bookkeeping for one register rotation pool."""

    def __init__(self, producer_mask: np.ndarray, pool_base: int, pool_size: int):
        self.pool_size = pool_size
        self.positions = np.flatnonzero(producer_mask)
        # Number of producers strictly before each instruction.
        self.producers_before = np.cumsum(producer_mask, dtype=np.int32)
        self.producers_before -= producer_mask
        # The register each producer writes, by ordinal, then NO_REG at
        # ordinal -1 (read by sources with no earlier producer).
        count = len(self.positions)
        rotation = np.arange(pool_base, pool_base + pool_size, dtype=np.uint8)
        self._written = np.append(
            np.tile(rotation, -(-count // pool_size))[:count], np.uint8(NO_REG)
        )
        self.destinations = self._written[:-1]

    def sample_sources(
        self,
        rng: np.random.Generator,
        at: np.ndarray,
        geometric_p: float,
    ) -> np.ndarray:
        """Registers read by the instructions at positions ``at``
        (NO_REG where the pool has produced nothing yet)."""
        if len(at) == 0:
            return np.empty(0, dtype=np.uint8)
        ages = rng.geometric(geometric_p, size=len(at))
        available = self.producers_before[at]
        ages = np.minimum(ages, np.minimum(available, self.pool_size))
        producer_ordinal = available - ages
        producer_ordinal[ages == 0] = -1
        return self._written[producer_ordinal]

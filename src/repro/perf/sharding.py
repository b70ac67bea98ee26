"""Shard scheduler: stream or fan one trace's shards across workers.

This is the driver layer over the shard-mergeable engine
(:mod:`repro.mica.shard`).  :func:`sharded_characterize` splits one
trace into contiguous shards and characterizes it either

* **sequentially** (``jobs <= 1``): a streaming fold that keeps one
  shard's rows resident at a time — the out-of-core path for traces
  much larger than RAM (pair with a
  :class:`~repro.trace.MappedTraceSource`); or
* **in parallel** (``jobs > 1``): a two-round fan-out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` — the intra-trace
  parallelism axis alongside the per-benchmark axis of
  :func:`repro.experiments.build_dataset`.

The two-round structure mirrors the engine's split between cold and
carry-dependent state: round 1 computes every shard's *cold* mergeable
state independently (embarrassingly parallel, shard-cacheable); the
parent then runs the cheap sequential prefix merge, which yields each
shard's rooted incoming PPM carry; round 2 runs the carry-dependent
PPM prediction pass per shard in parallel.  Everything else about the
result comes from :func:`~repro.mica.shard.finalize_state`, so the
output is bit-for-bit identical to one-shot
:func:`repro.mica.characterize` for every shard geometry and worker
count.

Cold states go through the per-shard cache level
(:class:`~repro.perf.cache.ShardCache`) when a cache directory is
given: entries key by shard content hash x absolute offset x
characterization fingerprint, so re-characterizing an extended trace
reuses every warm shard whose byte range lines up.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import CharacterizationError
from ..mica import CharacteristicVector
from ..mica.characteristics import resolve_wanted, wanted_sections
from ..mica.shard import (
    SECTION_ORDER,
    ShardState,
    finalize_state,
    merge_states,
    ppm_empty_state,
    ppm_shard_correct,
    shard_state,
    state_from_arrays,
    state_to_arrays,
)
from ..trace import (
    MappedTraceSource,
    Trace,
    TraceSource,
    as_trace_source,
    shard_bounds,
)
from . import integrity
from .cache import ShardCache, shard_entry_key, trace_fingerprint

# -- instrumentation seam ---------------------------------------------------
#
# Counts cold shard-state computations in this process, so tests can
# assert that a warm shard cache skips the engine entirely (mirroring
# repro.uarch.hpc_call_count for the HPC cache).

_COLD_STATE_CALLS = 0


def cold_state_call_count() -> int:
    """Cold shard-state computations performed by this process."""
    return _COLD_STATE_CALLS


def reset_cold_state_call_count() -> None:
    """Zero the counter (for tests)."""
    global _COLD_STATE_CALLS
    _COLD_STATE_CALLS = 0


def _sections_mask(sections: "Sequence[str]") -> int:
    return sum(
        1 << position
        for position, name in enumerate(SECTION_ORDER)
        if name in sections
    )


def _cold_state(
    chunk: Trace,
    start: int,
    config: ReproConfig,
    wanted: np.ndarray,
    cache_dir,
) -> ShardState:
    """One shard's cold state, through the shard cache when enabled."""
    global _COLD_STATE_CALLS
    cache = None if cache_dir is None else ShardCache(cache_dir)
    if cache is not None:
        key = shard_entry_key(
            trace_fingerprint(chunk), start, config,
            _sections_mask(wanted_sections(wanted)),
        )
        arrays = cache.load(key)
        if arrays is not None:
            return state_from_arrays(arrays)
    _COLD_STATE_CALLS += 1
    state = shard_state(chunk, start, config, wanted)
    if cache is not None:
        cache.store_or_degrade(key, state_to_arrays(state))
    return state


# -- worker-side shard transport --------------------------------------------
#
# A shard *spec* is a small picklable description of how a worker
# process re-materializes its chunk: mapped sources ship (path, start,
# end) so only the worker touches the rows; in-memory sources ship the
# rows themselves (copy-on-write under fork, one pickled slice under
# spawn — still bounded by shard size per in-flight task).


def _shard_spec(source: TraceSource, start: int, end: int):
    if isinstance(source, MappedTraceSource):
        return ("file", source.path, source.name, start, end)
    return ("mem", source.shard(start, end).data, source.name, start)


def _load_chunk(spec) -> "Tuple[Trace, int]":
    if spec[0] == "mem":
        _, rows, name, start = spec
        return Trace(rows, name=name), start
    _, path, name, start, end = spec
    return MappedTraceSource(path, name=name).shard(start, end), start


def _round1_worker(args):
    """Worker: one shard's cold mergeable state (serialized)."""
    spec, config, wanted, cache_dir = args
    integrity.drain_quarantine_log()  # discard events of earlier jobs
    chunk, start = _load_chunk(spec)
    state = _cold_state(chunk, start, config, wanted, cache_dir)
    return state_to_arrays(state)


def _round2_worker(args):
    """Worker: one shard's PPM correct counts given its rooted carry."""
    spec, max_order, carry = args
    chunk, _ = _load_chunk(spec)
    return ppm_shard_correct(chunk, carry, max_order)


# -- drivers ----------------------------------------------------------------


def _prefix_carries(
    states: "List[ShardState]",
    config: ReproConfig,
    want_ppm: bool,
) -> "Tuple[ShardState, list]":
    """Sequential prefix merge: (full merged state, per-shard carries)."""
    carries = []
    merged: "Optional[ShardState]" = None
    for state in states:
        if want_ppm:
            carries.append(
                merged.ppm if merged is not None
                else ppm_empty_state(config.ppm_max_order)
            )
        merged = (
            state if merged is None
            else merge_states(merged, state, config)
        )
    return merged, carries


def _stream_characterize(
    source: TraceSource,
    bounds: "Sequence[Tuple[int, int]]",
    config: ReproConfig,
    wanted: np.ndarray,
    cache_dir,
) -> np.ndarray:
    """Sequential fold: one shard resident at a time, cache-aware."""
    want_ppm = "branch predictability" in wanted_sections(wanted)
    correct = np.zeros(4, dtype=np.int64)
    prefix: "Optional[ShardState]" = None
    for start, end in bounds:
        chunk = source.shard(start, end)
        if want_ppm:
            carry = (
                prefix.ppm if prefix is not None
                else ppm_empty_state(config.ppm_max_order)
            )
            correct += ppm_shard_correct(chunk, carry, config.ppm_max_order)
        state = _cold_state(chunk, start, config, wanted, cache_dir)
        prefix = (
            state if prefix is None
            else merge_states(prefix, state, config)
        )
    return finalize_state(prefix, correct, config, wanted)


def _parallel_characterize(
    source: TraceSource,
    bounds: "Sequence[Tuple[int, int]]",
    config: ReproConfig,
    wanted: np.ndarray,
    jobs: int,
    cache_dir,
) -> np.ndarray:
    """Two-round fan-out over a process pool; bit-identical reduce."""
    want_ppm = "branch predictability" in wanted_sections(wanted)
    specs = [_shard_spec(source, start, end) for start, end in bounds]
    cache_arg = None if cache_dir is None else str(cache_dir)
    worker_count = min(jobs, len(bounds))
    with ProcessPoolExecutor(max_workers=worker_count) as pool:
        # Round 1: cold states, embarrassingly parallel (map preserves
        # shard order, so the reduce below stays deterministic).
        serialized = list(pool.map(
            _round1_worker,
            [(spec, config, wanted, cache_arg) for spec in specs],
        ))
        states = [state_from_arrays(arrays) for arrays in serialized]
        merged, carries = _prefix_carries(states, config, want_ppm)
        # Round 2: carry-dependent PPM predictions, parallel again now
        # that the prefix merge has rooted every shard's incoming state.
        correct = np.zeros(4, dtype=np.int64)
        if want_ppm:
            for partial in pool.map(
                _round2_worker,
                [
                    (spec, config.ppm_max_order, carry)
                    for spec, carry in zip(specs, carries)
                ],
            ):
                correct += partial
    return finalize_state(merged, correct, config, wanted)


def sharded_characterize(
    trace_or_source: "Trace | TraceSource",
    config: ReproConfig = DEFAULT_CONFIG,
    *,
    shards: "Optional[int]" = None,
    shard_size: "Optional[int]" = None,
    jobs: "Optional[int]" = None,
    cache_dir=None,
    categories: "Optional[Sequence[str]]" = None,
    indices: "Optional[Sequence[int]]" = None,
) -> CharacteristicVector:
    """Characterize a trace shard-by-shard; bit-identical to one-shot.

    Args:
        trace_or_source: an in-memory :class:`~repro.trace.Trace` or a
            chunked :class:`~repro.trace.TraceSource` (use
            :func:`~repro.trace.open_trace_source` for traces larger
            than RAM).
        config: reproduction configuration.
        shards: split into this many near-equal contiguous shards.
        shard_size: or split into fixed-size shards of this many rows
            (exactly one of ``shards``/``shard_size`` is required).
        jobs: worker processes for the intra-trace fan-out; ``None`` or
            ``<= 1`` streams sequentially in-process (the out-of-core
            path).
        cache_dir: when given, every shard's cold state goes through
            the content-keyed :class:`~repro.perf.cache.ShardCache`.
        categories: optional Table II category names to compute
            (others come back NaN), as in segmented characterization.
        indices: optional characteristic indices to compute.

    Returns:
        The trace's :class:`~repro.mica.CharacteristicVector` —
        bit-for-bit identical to :func:`repro.mica.characterize` where
        computed, NaN where not requested.

    Raises:
        CharacterizationError: empty trace, unknown category or
            out-of-range index.
        TraceError: invalid shard geometry.
    """
    source = as_trace_source(trace_or_source)
    n = len(source)
    if n == 0:
        raise CharacterizationError("cannot characterize an empty trace")
    bounds = shard_bounds(n, shards=shards, shard_size=shard_size)
    wanted = resolve_wanted(categories, indices)
    if jobs is None or jobs <= 1 or len(bounds) == 1:
        values = _stream_characterize(
            source, bounds, config, wanted, cache_dir
        )
    else:
        values = _parallel_characterize(
            source, bounds, config, wanted, int(jobs), cache_dir
        )
    return CharacteristicVector(name=source.name, values=values)

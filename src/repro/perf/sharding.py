"""Shard fold: one pass over a trace's shards, for any worker count.

The layer over the shard-mergeable engine (:mod:`repro.mica.shard`),
for traces too large for RAM (pair it with a
:class:`~repro.trace.MappedTraceSource`).  :func:`fold_shards` has
workers compute each shard's *cold* state (carry-free, so cacheable)
and merges the states into the prefix in shard order as they arrive
from a bounded window; once the prefix reaches a shard, the shard's
PPM prediction pass is submitted with the prefix's rooted PPM state as
its carry.  The result is bit-for-bit identical to one-shot
:func:`repro.mica.characterize` for every shard geometry and ``jobs``.

Only the executor depends on ``jobs`` (:mod:`repro.perf.pool`):
``jobs <= 1`` runs each call in-process with a window of one, so one
shard's rows are resident at a time; ``jobs > 1`` feeds a process pool.
Cold states go through the :class:`~repro.perf.cache.ShardCache` when
a cache directory is given (keyed by shard content hash x absolute
offset x characterization fingerprint, so an extended trace reuses
every warm shard whose byte range lines up), and entries a worker
quarantines reach the caller's quarantine log for every ``jobs``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import CharacterizationError
from ..mica import CharacteristicVector
from ..mica.characteristics import resolve_wanted, wanted_sections
from ..mica.shard import (
    ShardState,
    finalize_state,
    merge_states,
    ppm_empty_state,
    ppm_shard_correct,
    sections_mask,
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
from .pool import in_flight_window, new_executor

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


# -- worker-side shard transport --------------------------------------------
#
# A shard *spec* is a small picklable description of how a worker
# re-materializes its chunk: mapped sources ship (path, start, end) so
# only the worker touches the rows; in-memory sources ship the rows
# themselves (a view in-process, one pickled slice per in-flight call
# in a pool — bounded by shard size either way).


def _shard_spec(source: TraceSource, start: int, end: int):
    if isinstance(source, MappedTraceSource):
        return (source.path, source.name, start, end)
    return (source.shard(start, end).data, source.name, start, end)


def _load_chunk(spec) -> "Tuple[Trace, int]":
    where, name, start, end = spec
    if isinstance(where, str):
        return MappedTraceSource(where, name=name).shard(start, end), start
    return Trace(where, name=name), start


def _cold_worker(args):
    """Worker: one shard's serialized cold state and its quarantines.

    The state comes through the shard cache when one is given.
    """
    global _COLD_STATE_CALLS
    spec, config, wanted, cache_dir = args
    integrity.drain_quarantine_log()  # discard events of earlier jobs
    chunk, start = _load_chunk(spec)
    cache = None if cache_dir is None else ShardCache(cache_dir)
    arrays = None
    if cache is not None:
        key = shard_entry_key(
            trace_fingerprint(chunk), start, config,
            sections_mask(wanted_sections(wanted)),
        )
        arrays = cache.load(key)
    if arrays is None:
        _COLD_STATE_CALLS += 1
        arrays = state_to_arrays(shard_state(chunk, start, config, wanted))
        if cache is not None:
            cache.store_or_degrade(key, arrays)
    return arrays, integrity.drain_quarantine_log()


def _ppm_worker(args):
    """Worker: one shard's PPM correct counts given its rooted carry."""
    spec, max_order, carry = args
    chunk, _ = _load_chunk(spec)
    return ppm_shard_correct(chunk, carry, max_order)


# -- the fold ---------------------------------------------------------------


def fold_shards(
    source: TraceSource,
    bounds: "Sequence[Tuple[int, int]]",
    config: ReproConfig = DEFAULT_CONFIG,
    wanted: "Optional[np.ndarray]" = None,
    *,
    jobs: "Optional[int]" = None,
    cache_dir=None,
) -> np.ndarray:
    """Fold ``source``'s contiguous ``bounds`` into the 47-dim values.

    ``bounds`` partition ``[0, len(source))`` in order; ``wanted`` is
    an optional 47-entry mask (unrequested entries come back NaN);
    ``jobs`` and ``cache_dir`` are as for :func:`sharded_characterize`.

    Raises:
        CharacterizationError: no shards, an empty shard, or a PPM
            order the shard engine cannot carry.
    """
    if wanted is None:
        wanted = resolve_wanted()
    want_ppm = "branch predictability" in wanted_sections(wanted)
    specs = [_shard_spec(source, start, end) for start, end in bounds]
    cache_arg = None if cache_dir is None else str(cache_dir)
    cold_args = [(spec, config, wanted, cache_arg) for spec in specs]
    worker_count = max(1, min(int(jobs or 1), len(specs)))
    window = in_flight_window(worker_count)
    # The caller's quarantine events survive; workers' join them.
    events = list(integrity.drain_quarantine_log())
    prefix: "Optional[ShardState]" = None
    correct = np.zeros(4, dtype=np.int64)
    ppm: deque = deque()
    try:
        with new_executor(worker_count) as executor:
            cold = deque(
                executor.submit(_cold_worker, args)
                for args in cold_args[:window]
            )
            for index, spec in enumerate(specs):
                if want_ppm:
                    if len(ppm) == window:
                        correct += ppm.popleft().result()
                    carry = (
                        prefix.ppm if prefix is not None
                        else ppm_empty_state(config.ppm_max_order)
                    )
                    ppm.append(executor.submit(
                        _ppm_worker, (spec, config.ppm_max_order, carry)
                    ))
                arrays, raised = cold.popleft().result()
                events.extend(raised)
                state = state_from_arrays(arrays)
                prefix = (
                    state if prefix is None
                    else merge_states(prefix, state, config)
                )
                if index + window < len(specs):
                    cold.append(executor.submit(
                        _cold_worker, cold_args[index + window]
                    ))
            for future in ppm:
                correct += future.result()
    finally:
        integrity.record_quarantines(events)
    if prefix is None:
        raise CharacterizationError(
            "cannot characterize an empty shard stream"
        )
    return finalize_state(
        prefix, correct if want_ppm else None, config, wanted
    )


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
        trace_or_source: a :class:`~repro.trace.Trace` or a chunked
            :class:`~repro.trace.TraceSource` (use
            :func:`~repro.trace.open_trace_source` for traces larger
            than RAM).
        config: reproduction configuration.
        shards: split into this many near-equal contiguous shards, or
        shard_size: into fixed-size shards of this many rows (give
            exactly one).
        jobs: worker processes; ``None`` or ``<= 1`` folds in-process
            with one shard resident at a time (the out-of-core path).
        cache_dir: when given, every shard's cold state goes through
            the content-keyed :class:`~repro.perf.cache.ShardCache`.
        categories / indices: optional Table II categories or
            characteristic indices to compute (others come back NaN).

    Returns:
        The trace's :class:`~repro.mica.CharacteristicVector`,
        bit-for-bit :func:`repro.mica.characterize` where computed.

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
    values = fold_shards(
        source, bounds, config, wanted, jobs=jobs, cache_dir=cache_dir
    )
    return CharacteristicVector(name=source.name, values=values)

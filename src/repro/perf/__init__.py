"""Performance subsystem: characterization caching and benchmarking.

The ROADMAP north star is "as fast as the hardware allows".  This
package holds the two pieces that are about *speed* rather than paper
semantics:

* :mod:`repro.perf.cache` — the on-disk cache hierarchy, five levels
  (``CACHE_LEVELS``): a characterization cache keyed by the trace's
  **recipe** (profile fingerprint + length + seed + TRACE_GEN_VERSION)
  when it was generated, or its **content** hash when it was read from
  a file, plus the configuration fingerprint (a benchmark whose trace
  has not changed is never re-analyzed); an HPC cache keyed by the same
  trace identity plus the **machine fingerprints + HPC_SIM_VERSION**
  (never re-simulated); a trace cache keyed by the recipe's parts (never
  re-generated; only char/HPC misses, phase detection and a build's
  integrity re-check read it, since recipe-keyed hits need no trace
  bytes — see ``cached_vectors``); a
  per-shard cold-state cache; and on top the dataset-level population
  matrices.
* :mod:`repro.perf.integrity` — the trust layer under every cache
  level: checksum + schema metadata embedded in each ``.npz``, verified
  loads that quarantine (never re-serve) corrupt entries, and atomic
  writes that clean up after themselves.
* :mod:`repro.perf.journal` — the crash-safe write-ahead journal
  (checksummed append-only JSONL, fsync'd appends, torn-tail repair,
  atomic rotation) under resumable dataset builds and the service's
  durable job registry.
* :mod:`repro.perf.faults` — the deterministic fault-injection harness
  (entry corruption modes, IO errors at store/load/rename time, worker
  crashes/errors/timeouts, SIGKILL at journal/writer seams, and the
  seeded chaos scheduler) that the robustness tests drive.
* :mod:`repro.perf.timing` — the engine bench: one registry of
  engine/reference rows (every vectorized engine against its retained
  scalar ``*_reference`` specification), timed on one shared trace by
  one best-of-N loop, serialized to ``BENCH_mica.json``.
* :mod:`repro.perf.history` — one-line JSONL history rows (the
  per-group speedups of a bench run) for ``BENCH_history.jsonl`` and
  the floor check behind the CI perf gate
  (``benchmarks/perf/bench_gate.py`` + ``floors.json``).

The caches are consumed by :func:`repro.experiments.build_dataset`
(per-trace cache under parallel workers) and the CLI (``--jobs``,
``--cache-dir``); the bench by ``python -m repro bench``.
"""

from . import faults, history, integrity, journal
from .cache import (
    CacheVerifyReport,
    CharacterizationCache,
    HpcCache,
    SHARD_CACHE_VERSION,
    ShardCache,
    TraceCache,
    cached_characterize,
    cached_collect_hpc,
    cached_generate_trace,
    cached_vectors,
    is_cache_degraded,
    reset_cache_degradation,
    shard_entry_key,
    sweep_temporaries,
    trace_fingerprint,
    verify_cache,
)
from .sharding import (
    cold_state_call_count,
    reset_cold_state_call_count,
    sharded_characterize,
)
from .history import (
    append_bench_history,
    bench_history_row,
    check_bench_floors,
    load_bench_history,
)
from .integrity import QuarantineEvent
from .journal import (
    JournalReplay,
    JournalTruncation,
    WriteAheadJournal,
    replay_journal,
    rotate_journal,
)
from .timing import BenchResult, run_bench, write_bench_json

__all__ = [
    "CacheVerifyReport",
    "CharacterizationCache",
    "HpcCache",
    "QuarantineEvent",
    "SHARD_CACHE_VERSION",
    "ShardCache",
    "TraceCache",
    "cached_characterize",
    "cold_state_call_count",
    "reset_cold_state_call_count",
    "shard_entry_key",
    "sharded_characterize",
    "cached_collect_hpc",
    "cached_generate_trace",
    "cached_vectors",
    "faults",
    "history",
    "append_bench_history",
    "bench_history_row",
    "check_bench_floors",
    "load_bench_history",
    "integrity",
    "is_cache_degraded",
    "journal",
    "JournalReplay",
    "JournalTruncation",
    "WriteAheadJournal",
    "replay_journal",
    "rotate_journal",
    "reset_cache_degradation",
    "sweep_temporaries",
    "trace_fingerprint",
    "verify_cache",
    "BenchResult",
    "run_bench",
    "write_bench_json",
]

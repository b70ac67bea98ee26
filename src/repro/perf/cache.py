"""On-disk caches: the five levels of the characterization hierarchy.

Five cache levels live here, one class each, listed (in scan order) by
:data:`CACHE_LEVELS`.  Each names its entries with a public
``entry_path(...)`` taking the same key arguments as its ``load``:

* **Characterization cache** (``char``).  Characterizing one trace is
  pure: the 47-dimensional MICA vector depends only on the trace
  contents and the characterization fields of
  :class:`~repro.config.ReproConfig`.  Entries key by::

      sha256(trace bytes) + config.characterization_fingerprint() + version

  and store one small ``.npz`` per trace.

* **HPC cache** (``hpc``, beside it).  The seven-metric
  hardware-performance-counter vector is equally pure — a function of
  the trace contents and the two simulated machines — so entries key
  by::

      sha256(trace bytes) + inorder.fingerprint() + ooo.fingerprint()
          + HPC_SIM_VERSION

  and a warm :func:`cached_collect_hpc` performs zero pipeline-model
  runs (asserted via :func:`repro.uarch.hpc_call_count`).

* **Trace cache** (``trace``, below them).  Generating a trace is also
  pure — a function of the profile knobs, the length and the per-trace
  seed — but the content-keyed caches cannot skip *generation* (hashing
  the content requires the bytes).  The trace cache closes that gap: it
  keys by::

      profile.fingerprint() + length + seed + TRACE_GEN_VERSION

  (no content hash needed) and stores the full instruction array,
  uncompressed, so a warm :func:`cached_generate_trace` never runs the
  generator at all.  Entries are ~6x larger than deflated ones (2.90 MB
  against 0.48 MB at 100k instructions) but write in ~13 ms instead of
  ~97 ms, which was the largest single tax on a cold build (see
  :mod:`repro.perf.integrity`).
  :data:`~repro.synth.TRACE_GEN_VERSION` is part of the key because the
  bytes a (profile, length, seed) triple produces may legitimately
  change when the generation engine's draw protocol changes.

* **Shard cache** (``shard``, finest grain).  The shard-mergeable
  engine (:mod:`repro.mica.shard`) characterizes contiguous chunks into
  cold mergeable states; each state is pure in the chunk's bytes and the
  characterization config, so entries key by::

      sha256(shard bytes) + config.characterization_fingerprint()
          + sections mask + SHARD_CACHE_VERSION

  and re-characterizing an extended or overlapping trace reuses every
  warm shard whose byte range lines up.

* **Dataset cache** (``dataset``, top).  The ``mica``/``hpc`` matrices
  of a whole benchmark population, keyed by
  :func:`repro.experiments.build_dataset` on the configuration and the
  full benchmark name list.  Unlike the levels below it, an entry does
  not survive a population change.

Bump :data:`CHAR_CACHE_VERSION` whenever analyzer semantics change and
:data:`repro.uarch.HPC_SIM_VERSION` whenever simulation semantics do.

Every entry is integrity-stamped via :mod:`repro.perf.integrity`
(level, semantic version, per-field shape/dtype, payload checksums);
loads verify and quarantine rather than serve corrupt bytes, stores
stay atomic and degrade to compute-without-cache — with one
:class:`~repro.errors.CacheDegradedWarning` per directory — when the
directory is unwritable (:meth:`~_NpzCacheDirectory.store_or_degrade`).
``verify_cache`` is the scan-and-quarantine entry point behind
``repro cache verify``.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from . import integrity
from . import journal as journal_module
from .integrity import QuarantineEvent
from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import CacheDegradedWarning, CacheIntegrityError
from ..isa import TRACE_DTYPE
from ..mica import NUM_CHARACTERISTICS, CharacteristicVector, characterize
from ..synth import TRACE_GEN_VERSION, WorkloadProfile, generate_trace
from ..trace import Trace
from ..uarch import (
    EV56_CONFIG,
    EV67_CONFIG,
    HPC_METRIC_NAMES,
    HPC_SIM_VERSION,
    HpcVector,
    MachineConfig,
    collect_hpc,
)

#: Bump when any analyzer changes its output for the same trace/config.
CHAR_CACHE_VERSION = 1

#: Bump when the shard-mergeable state layout or semantics change
#: (:mod:`repro.mica.shard`), independently of the final-vector cache.
SHARD_CACHE_VERSION = 1

#: Bump when the dataset-level matrices change for the same key (the
#: upstream versions above are already part of that key).
DATASET_CACHE_VERSION = 5

# -- graceful degradation ---------------------------------------------------
#
# A cache directory that cannot be written (read-only filesystem, disk
# full) must never turn a build into an exception: every store goes
# through ``store_or_degrade``, which computes on without the cache
# instead, warning once per directory per process.

_DEGRADED_DIRECTORIES: Set[str] = set()


def reset_cache_degradation() -> None:
    """Forget which directories have warned (for tests)."""
    _DEGRADED_DIRECTORIES.clear()


def is_cache_degraded(directory: "Path | str") -> bool:
    """Whether this process has degraded the directory's caches.

    True once any store against ``directory`` failed with an OSError
    (read-only filesystem, disk full) and the directory dropped to
    compute-without-cache mode.  The service layer polls this after
    each job to switch itself into degraded mode.
    """
    return os.path.abspath(str(directory)) in _DEGRADED_DIRECTORIES


def trace_fingerprint(trace: Trace) -> str:
    """Content hash of a trace (independent of its name).

    Two traces with identical instruction streams hash identically, so
    renamed or regenerated-but-equal traces share cache entries.  The
    hash is memoized on the trace (:meth:`repro.trace.Trace.fingerprint`).
    """
    return trace.fingerprint()


def _digest(*parts: object) -> str:
    """32-hex-digit entry key of ``':'``-joined key parts."""
    payload = ":".join(str(part) for part in parts)
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _unlink_quietly(path: Path) -> int:
    """Unlink tolerating a concurrent deletion; 1 when we removed it."""
    try:
        path.unlink()
    except FileNotFoundError:
        # A concurrent worker deleted the same entry first — the goal
        # (entry gone) is met either way.
        return 0
    return 1


class _NpzCacheDirectory:
    """Shared machinery of the on-disk cache levels.

    One ``.npz`` file per entry under a common directory (created
    lazily on first store), named ``{level}-{key}.npz``.  Entries are
    written atomically (temp file + rename) so concurrent workers
    producing the same entry cannot corrupt each other, and every entry
    embeds the :mod:`repro.perf.integrity` metadata: level, semantic
    version, per-field shape/dtype and payload checksums.  A file that
    fails verification — truncated, bit-flipped, wrong-shape,
    stale-version or foreign — is a *verified miss*: it is quarantined
    (renamed aside, never re-served), not raised and not silently
    returned.
    """

    #: File-name prefix and integrity level string of the entries.
    level = ""
    #: ``{field: (expected shape | None, expected dtype | None)}`` for
    #: verification scans, where the expectation is key-independent.
    _static_expected: "integrity.ExpectedFields" = {}

    def __init__(self, directory: "Path | str"):
        self.directory = Path(directory)

    def _schema_version(self) -> object:
        """The level's current semantic version (stamped into entries)."""
        raise NotImplementedError

    def _path(self, key: str) -> Path:
        return self.directory / f"{self.level}-{key}.npz"

    def _load(
        self, path: Path, expected: "integrity.ExpectedFields | None" = None
    ) -> "Optional[Dict[str, np.ndarray]]":
        """Verified arrays of one entry, or None on a (verified) miss.

        ``expected`` defaults to the static expectations; an entry
        lacking an expected field is a miss too.
        """
        if expected is None:
            expected = self._static_expected
        arrays = integrity.load_entry(
            path, level=self.level, version=self._schema_version(),
            expected=expected,
        )
        if arrays is None or not set(expected) <= set(arrays):
            return None
        return arrays

    def _store(self, path: Path, **fields: np.ndarray) -> Path:
        return integrity.write_entry(
            path, level=self.level, version=self._schema_version(),
            fields=fields,
        )

    def store_or_degrade(self, *args) -> "Optional[Path]":
        """``self.store(*args)``, degrading instead of raising OSError.

        An unwritable directory (read-only filesystem, disk full) drops
        to compute-without-cache mode, warning once per directory per
        process; returns the entry path, or None when degraded.
        """
        try:
            return self.store(*args)
        except OSError as error:
            key = os.path.abspath(str(self.directory))
            if key not in _DEGRADED_DIRECTORIES:
                _DEGRADED_DIRECTORIES.add(key)
                warnings.warn(
                    f"cache directory {self.directory} is not writable "
                    f"({error}); continuing without the cache",
                    CacheDegradedWarning,
                    stacklevel=3,
                )
            return None

    def is_valid_entry(self, path: "Path | str") -> bool:
        """Whether ``path`` is a healthy entry of this level.

        A verified load against the static expectations: a failing file
        is quarantined (and the event logged) like on any load.
        """
        return self._load(Path(path)) is not None

    def verify(self) -> "List[QuarantineEvent]":
        """Scan every entry of this level; quarantine the bad ones.

        Returns the quarantine events (empty when all entries passed).
        Healthy entries are left untouched.
        """
        if not self.directory.is_dir():
            return []
        events: "List[QuarantineEvent]" = []
        for path in sorted(self.directory.glob(f"{self.level}-*.npz")):
            try:
                integrity.verify_entry(
                    path,
                    level=self.level,
                    version=self._schema_version(),
                    expected=self._static_expected,
                )
            except CacheIntegrityError as error:
                quarantined = integrity.quarantine_entry(path)
                events.append(QuarantineEvent(
                    path=str(path),
                    quarantined_to=(
                        str(quarantined) if quarantined is not None else None
                    ),
                    reason=str(error),
                ))
            except OSError:
                continue
        return events

    def clear(self) -> int:
        """Delete all entries; returns the number removed.

        Also sweeps this level's quarantined entries and any stale
        ``tmp-*.npz`` files left behind by crashed writers.  Tolerates
        concurrent workers clearing the same directory (an entry
        deleted under our feet counts for whoever unlinked it).
        """
        if not self.directory.is_dir():
            return 0
        removed = 0
        for pattern in (
            f"{self.level}-*.npz",
            f"{self.level}-*.npz{integrity.QUARANTINE_SUFFIX}",
            f"tmp-{self.level}-*.npz",
        ):
            for path in self.directory.glob(pattern):
                removed += _unlink_quietly(path)
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob(f"{self.level}-*.npz"))


class CharacterizationCache(_NpzCacheDirectory):
    """Directory of per-trace characterization results.

    Args:
        directory: cache root; created lazily on first store.
    """

    level = "char"
    _static_expected = {"values": ((NUM_CHARACTERISTICS,), np.float64)}

    def _schema_version(self) -> object:
        return CHAR_CACHE_VERSION

    def entry_path(
        self, trace: Trace, config: ReproConfig = DEFAULT_CONFIG
    ) -> Path:
        """Where the entry for this trace content + config lives."""
        return self._path(_digest(
            CHAR_CACHE_VERSION, trace_fingerprint(trace),
            config.characterization_fingerprint(),
        ))

    def load(
        self, trace: Trace, config: ReproConfig = DEFAULT_CONFIG
    ) -> "Optional[np.ndarray]":
        """The cached 47-dimensional vector, or None on a miss.

        Wrong-shape or wrong-dtype entries are verified misses — they
        are quarantined and never flow into ``np.vstack``.
        """
        arrays = self._load(self.entry_path(trace, config))
        return None if arrays is None else arrays["values"]

    def store(
        self,
        trace: Trace,
        config: ReproConfig,
        values: np.ndarray,
    ) -> Path:
        """Persist one characterization result; returns the entry path."""
        return self._store(self.entry_path(trace, config), values=values)


def cached_characterize(
    trace: Trace,
    config: ReproConfig = DEFAULT_CONFIG,
    cache_dir: "Path | str | None" = None,
) -> CharacteristicVector:
    """:func:`repro.mica.characterize` behind the on-disk cache.

    With ``cache_dir=None`` this is exactly ``characterize``; otherwise
    hits skip every analyzer and misses populate the cache.  The trace
    is already in memory, so a miss runs the one-shot engine; the shard
    engine (:func:`repro.perf.sharding.sharded_characterize`) is for
    traces that are not.

    Returns:
        The trace's :class:`~repro.mica.CharacteristicVector` (cached
        values are re-wrapped with the trace's current name).
    """
    cache = None if cache_dir is None else CharacterizationCache(cache_dir)
    if cache is not None:
        values = cache.load(trace, config)
        if values is not None:
            return CharacteristicVector(name=trace.name, values=values)
    vector = characterize(trace, config)
    if cache is not None:
        cache.store_or_degrade(trace, config, vector.values)
    return vector


# ---------------------------------------------------------------------------
# HPC cache (beside the characterization cache)
# ---------------------------------------------------------------------------


class HpcCache(_NpzCacheDirectory):
    """Directory of per-trace hardware-performance-counter vectors.

    Args:
        directory: cache root; created lazily on first store.  Shares a
            directory with the other cache levels (distinct ``hpc-``
            file prefix).

    One small ``.npz`` per (trace content, machine pair,
    :data:`~repro.uarch.HPC_SIM_VERSION`) holds the seven-metric
    vector.
    """

    level = "hpc"
    _static_expected = {"values": ((len(HPC_METRIC_NAMES),), np.float64)}

    def _schema_version(self) -> object:
        return HPC_SIM_VERSION

    def entry_path(
        self,
        trace: Trace,
        inorder: MachineConfig = EV56_CONFIG,
        ooo: MachineConfig = EV67_CONFIG,
    ) -> Path:
        """Where the entry for this trace content + machine pair lives."""
        return self._path(_digest(
            HPC_SIM_VERSION, trace_fingerprint(trace),
            inorder.fingerprint(), ooo.fingerprint(),
        ))

    def load(
        self,
        trace: Trace,
        inorder: MachineConfig = EV56_CONFIG,
        ooo: MachineConfig = EV67_CONFIG,
    ) -> "Optional[np.ndarray]":
        """The cached 7-dimensional vector, or None on a miss.

        Wrong-shape or wrong-dtype entries are verified misses — they
        are quarantined and never flow into ``np.vstack``.
        """
        arrays = self._load(self.entry_path(trace, inorder, ooo))
        return None if arrays is None else arrays["values"]

    def store(
        self,
        trace: Trace,
        inorder: MachineConfig,
        ooo: MachineConfig,
        values: np.ndarray,
    ) -> Path:
        """Persist one HPC vector; returns the entry path."""
        return self._store(
            self.entry_path(trace, inorder, ooo), values=values
        )


def cached_collect_hpc(
    trace: Trace,
    inorder: MachineConfig = EV56_CONFIG,
    ooo: MachineConfig = EV67_CONFIG,
    cache_dir: "Path | str | None" = None,
) -> HpcVector:
    """:func:`repro.uarch.collect_hpc` behind the on-disk cache.

    With ``cache_dir=None`` this is exactly ``collect_hpc``; otherwise
    hits skip both pipeline models (and the whole event simulation) and
    misses populate the cache.

    Returns:
        The trace's :class:`~repro.uarch.HpcVector` (cached values are
        re-wrapped with the trace's current name).
    """
    if cache_dir is None:
        return collect_hpc(trace, inorder, ooo)
    cache = HpcCache(cache_dir)
    values = cache.load(trace, inorder, ooo)
    if values is not None:
        return HpcVector(name=trace.name, values=values)
    vector = collect_hpc(trace, inorder, ooo)
    cache.store_or_degrade(trace, inorder, ooo, vector.values)
    return vector


# ---------------------------------------------------------------------------
# Trace cache (below the characterization cache)
# ---------------------------------------------------------------------------


class TraceCache(_NpzCacheDirectory):
    """Directory of generated traces, keyed by (profile, length, seed).

    Args:
        directory: cache root; created lazily on first store.  Shares a
            directory with the other cache levels (distinct ``trace-``
            file prefix).
    """

    level = "trace"
    _static_expected = {"data": (None, TRACE_DTYPE)}

    def _schema_version(self) -> object:
        return TRACE_GEN_VERSION

    def entry_path(
        self, profile: WorkloadProfile, length: int, seed: int = 0
    ) -> Path:
        """Where the entry for this (profile, length, seed) lives."""
        return self._path(_digest(
            TRACE_GEN_VERSION, profile.fingerprint(), length, seed
        ))

    def load(
        self, profile: WorkloadProfile, length: int, seed: int = 0
    ) -> "Optional[Trace]":
        """The cached trace (renamed after the profile), or None.

        Wrong-dtype or wrong-length entries are verified misses (the
        file is quarantined, not re-served).
        """
        arrays = self._load(
            self.entry_path(profile, length, seed),
            {"data": ((length,), TRACE_DTYPE)},
        )
        return None if arrays is None else Trace(
            arrays["data"], name=profile.name
        )

    def store(
        self,
        profile: WorkloadProfile,
        length: int,
        seed: int,
        trace: Trace,
    ) -> Path:
        """Persist one generated trace; returns the entry path."""
        return self._store(
            self.entry_path(profile, length, seed), data=trace.data
        )


def cached_generate_trace(
    profile: WorkloadProfile,
    length: int,
    seed: int = 0,
    cache_dir: "Path | str | None" = None,
) -> Trace:
    """:func:`repro.synth.generate_trace` behind the on-disk cache.

    With ``cache_dir=None`` this is exactly ``generate_trace``;
    otherwise hits skip the generator entirely (bit-identical bytes are
    returned from disk) and misses populate the cache.
    """
    if cache_dir is None:
        return generate_trace(profile, length, seed=seed)
    cache = TraceCache(cache_dir)
    trace = cache.load(profile, length, seed)
    if trace is None:
        trace = generate_trace(profile, length, seed=seed)
        cache.store_or_degrade(profile, length, seed, trace)
    return trace


# ---------------------------------------------------------------------------
# Shard cache (per-shard mergeable states, below the characterization
# cache)
# ---------------------------------------------------------------------------


def shard_entry_key(
    shard_fingerprint: str,
    start: int,
    config: ReproConfig,
    sections_mask: int,
) -> str:
    """Cache key for one shard's cold mergeable state.

    Keys by the shard's *content* hash (so an extended or overlapping
    trace reuses warm shards wherever the byte ranges line up), its
    absolute start offset (ILP window alignment and register last-writer
    positions are absolute, so the same bytes at a different offset
    yield a different state), the characterization fingerprint, the
    wanted-sections mask, and :data:`SHARD_CACHE_VERSION`.
    """
    return _digest(
        SHARD_CACHE_VERSION, shard_fingerprint, start,
        config.characterization_fingerprint(), sections_mask,
    )


class ShardCache(_NpzCacheDirectory):
    """Directory of per-shard cold characterization states.

    Each entry holds one serialized :class:`repro.mica.shard.ShardState`
    (the *cold*, carry-independent round of the shard engine — the
    carry-dependent PPM prediction pass is recomputed per run, so it is
    never cached).  Entries are variable-field ``.npz`` files: the
    fields present depend on the sections requested, so verification
    relies on each entry's own recorded metadata and checksums rather
    than a static shape table.

    Args:
        directory: cache root; created lazily on first store.  Shares a
            directory with the other cache levels (distinct ``shard-``
            file prefix).
    """

    level = "shard"

    def _schema_version(self) -> object:
        return SHARD_CACHE_VERSION

    def entry_path(self, key: str) -> Path:
        """Where the entry for this :func:`shard_entry_key` lives."""
        return self._path(key)

    def load(self, key: str) -> "Optional[Dict[str, np.ndarray]]":
        """The entry's serialized state arrays, or None on a miss."""
        return self._load(self.entry_path(key))

    def store(self, key: str, arrays: "Dict[str, np.ndarray]") -> Path:
        """Persist one serialized shard state; returns the entry path."""
        return self._store(self.entry_path(key), **arrays)


# ---------------------------------------------------------------------------
# Dataset cache (whole-population matrices, the top of the hierarchy)
# ---------------------------------------------------------------------------


class DatasetCache(_NpzCacheDirectory):
    """Directory of dataset-level ``mica``/``hpc`` population matrices.

    Keys are opaque (built by :mod:`repro.experiments.dataset` from the
    configuration and the benchmark name list).  Shapes depend on the
    population, so scans check dtypes only and loads check both
    matrices against the expected row count.

    Args:
        directory: cache root; created lazily on first store.  Shares a
            directory with the other cache levels (distinct
            ``dataset-`` file prefix).
    """

    level = "dataset"
    _static_expected = {
        "mica": (None, np.float64), "hpc": (None, np.float64),
    }

    def _schema_version(self) -> object:
        return DATASET_CACHE_VERSION

    def entry_path(self, key: str) -> Path:
        """Where the entry for this dataset key lives."""
        return self._path(key)

    def load(
        self, key: str, rows: int
    ) -> "Optional[Tuple[np.ndarray, np.ndarray]]":
        """The ``(mica, hpc)`` matrices of ``rows`` benchmarks, or None."""
        arrays = self._load(self.entry_path(key), {
            "mica": ((rows, NUM_CHARACTERISTICS), np.float64),
            "hpc": ((rows, len(HPC_METRIC_NAMES)), np.float64),
        })
        return None if arrays is None else (arrays["mica"], arrays["hpc"])

    def store(self, key: str, mica: np.ndarray, hpc: np.ndarray) -> Path:
        """Persist one population's matrices; returns the entry path."""
        return self._store(self.entry_path(key), mica=mica, hpc=hpc)


#: Every cache level, in ``verify_cache`` scan order.
CACHE_LEVELS = (
    CharacterizationCache, HpcCache, TraceCache, ShardCache, DatasetCache,
)


# ---------------------------------------------------------------------------
# Whole-directory verification (``repro cache verify``)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheVerifyReport:
    """Result of one integrity scan over a cache directory.

    Attributes:
        directory: the scanned cache root.
        scanned: entries examined per level, in :data:`CACHE_LEVELS`
            order, then ``journal``.
        quarantined: one event per entry that failed verification.
        swept_temporaries: stale ``tmp-*.npz`` writer leftovers and
            ``tmp-journal-*.jsonl`` rotation leftovers removed.
        journal_truncations: one event per write-ahead journal whose
            torn tail (a crash mid-append) was repaired by truncating
            back to the longest valid record prefix.
    """

    directory: str
    scanned: Dict[str, int]
    quarantined: Tuple[QuarantineEvent, ...]
    swept_temporaries: int
    journal_truncations: Tuple["journal_module.JournalTruncation", ...] = ()

    @property
    def total_scanned(self) -> int:
        return sum(self.scanned.values())

    @property
    def ok(self) -> int:
        return self.total_scanned - len(self.quarantined)

    def format(self) -> str:
        lines = [
            f"cache verify: {self.directory}",
            "  scanned " + ", ".join(
                f"{count} {level}" for level, count in self.scanned.items()
            ) + f" ({self.ok} ok, {len(self.quarantined)} quarantined, "
                f"{self.swept_temporaries} stale temp files swept, "
                f"{len(self.journal_truncations)} torn journal tail(s) "
                "repaired)",
        ]
        for event in self.quarantined:
            target = event.quarantined_to or "<rename failed>"
            lines.append(f"  quarantined {event.path} -> {target}")
            lines.append(f"    reason: {event.reason}")
        for truncation in self.journal_truncations:
            lines.append(
                f"  repaired {truncation.path}: kept "
                f"{truncation.valid_records} record(s), dropped "
                f"{truncation.dropped_bytes} byte(s)"
            )
            lines.append(f"    reason: {truncation.reason}")
        return "\n".join(lines)


def sweep_temporaries(
    directory: "Path | str", older_than: float = 3600.0
) -> int:
    """Remove temp files left behind by crashed writers and rotations.

    Covers the atomic cache writers' ``tmp-*.npz`` files and the
    write-ahead journal rotation's ``tmp-journal-*.jsonl`` files.  Only
    files whose mtime is at least ``older_than`` seconds old are
    removed, so a live writer's in-flight temporary survives.  Returns
    the number removed.
    """
    import time

    root = Path(directory)
    if not root.is_dir():
        return 0
    removed = 0
    now = time.time()
    patterns = (
        "tmp-*.npz",
        f"tmp-{journal_module.JOURNAL_PREFIX}*{journal_module.JOURNAL_SUFFIX}",
    )
    for pattern in patterns:
        for path in root.glob(pattern):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age >= older_than:
                removed += _unlink_quietly(path)
    return removed


def verify_cache(
    directory: "Path | str",
    sweep_older_than: float = 3600.0,
) -> CacheVerifyReport:
    """Scan all five cache levels; quarantine entries that fail.

    Runs :meth:`~_NpzCacheDirectory.verify` for each of the
    :data:`CACHE_LEVELS`, replays every ``journal-*.jsonl`` write-ahead journal (repairing
    torn tails in place and reporting each repair), then sweeps stale
    writer and rotation temporaries.
    Healthy entries are untouched; the scan never raises on bad bytes.
    """
    root = Path(directory)
    scanned: "Dict[str, int]" = {}
    events: "List[QuarantineEvent]" = []
    for level in CACHE_LEVELS:
        cache = level(root)
        scanned[cache.level] = len(cache)
        events.extend(cache.verify())

    # Write-ahead journals (dataset builds, service jobs): replay with
    # repair, so a torn tail left by a crash is truncated back to the
    # longest valid prefix and reported.
    journal_paths = (
        sorted(root.glob(
            f"{journal_module.JOURNAL_PREFIX}*"
            f"{journal_module.JOURNAL_SUFFIX}"
        ))
        if root.is_dir() else []
    )
    scanned["journal"] = len(journal_paths)
    truncations: "List[journal_module.JournalTruncation]" = []
    for path in journal_paths:
        try:
            replay = journal_module.replay_journal(path, repair=True)
        except OSError:
            continue
        if replay.truncation is not None:
            truncations.append(replay.truncation)

    swept = sweep_temporaries(root, older_than=sweep_older_than)
    return CacheVerifyReport(
        directory=str(root),
        scanned=scanned,
        quarantined=tuple(events),
        swept_temporaries=swept,
        journal_truncations=tuple(truncations),
    )

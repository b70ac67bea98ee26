"""On-disk caches: the four levels of the characterization hierarchy.

Four cache levels live here, one class each, listed (in scan order) by
:data:`CACHE_LEVELS`.  Each names its entries with a public
``entry_path(...)`` taking the same key arguments as its ``load``:

* **Characterization cache** (``char``).  Characterizing one trace is
  pure: the 47-dimensional MICA vector depends only on the trace
  contents and the characterization fields of
  :class:`~repro.config.ReproConfig`.  Entries key by::

      trace identity + config.characterization_fingerprint() + version

  and store one small ``.npz`` per trace.

* **HPC cache** (``hpc``, beside it).  The seven-metric
  hardware-performance-counter vector is equally pure — a function of
  the trace contents and the two simulated machines — so entries key
  by::

      trace identity + inorder.fingerprint() + ooo.fingerprint()
          + HPC_SIM_VERSION

  and a warm :func:`cached_collect_hpc` performs zero pipeline-model
  runs (asserted via :func:`repro.uarch.hpc_call_count`).

  The *trace identity* of both levels is the trace's
  :class:`~repro.synth.TraceRecipe` key (profile fingerprint, length,
  seed and :data:`~repro.synth.TRACE_GEN_VERSION`) when it has one —
  every generated or trace-cached trace does — and its content hash
  ``sha256(trace bytes)`` otherwise (traces read from files or derived
  by slicing and filtering).  The two parts are tagged, so a recipe key
  and a content key never collide.  A recipe names the generated bytes
  as tightly as their hash (``tests/data/trace_digests.json`` pins them
  for the registry), and it is known before the trace exists: a warm
  service request is one ``load(recipe)``, and a warm build
  (:func:`cached_vectors`) builds, hashes and generates no trace.

* **Trace cache** (``trace``, below them).  Generating a trace is also
  pure — a function of the profile knobs, the length and the per-trace
  seed — so it keys by the recipe's parts::

      profile.fingerprint() + length + seed + TRACE_GEN_VERSION

  and stores the full instruction array, uncompressed, so a warm
  :func:`cached_generate_trace` never runs the generator at all.  Only
  a char/HPC miss and the phase detector still need trace bytes (a
  build also re-verifies the entry, see :func:`cached_vectors`).
  Entries are ~6x larger than deflated ones (2.90 MB against 0.48 MB at
  100k instructions) but write in ~13 ms instead of ~97 ms, which was
  the largest single tax on a cold build (see
  :mod:`repro.perf.integrity`).
  :data:`~repro.synth.TRACE_GEN_VERSION` is part of the key because the
  bytes a (profile, length, seed) triple produces may legitimately
  change when the generation engine's draw protocol changes.

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
One cache object verifies a small settled char/HPC entry once per file
version (:meth:`~_NpzCacheDirectory._load`).
``verify_cache`` is the scan-and-quarantine entry point behind
``repro cache verify``.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
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
from ..synth import (
    TRACE_GEN_VERSION,
    TraceRecipe,
    WorkloadProfile,
    generate_trace,
)
from ..trace import Trace
from ..trace.trace import DIGEST_LENGTH
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

#: Bump when the dataset-level matrices change for the same key (the
#: upstream versions above are already part of that key).
DATASET_CACHE_VERSION = 5

#: Verified entries one cache object remembers (oldest dropped first),
#: the largest entry file it remembers (a char/HPC entry is ~1.7 KB) and
#: how old the file's ctime must be first (git's racy-index rule).
MEMO_CAPACITY = 1024
MEMO_MAX_BYTES = 64 << 10
MEMO_SETTLE_NS = 1_000_000_000

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


def _trace_identity(trace: "Trace | TraceRecipe") -> str:
    """The tagged key part naming a trace's bytes.

    Its recipe key when it has a recipe (no byte is read), its content
    fingerprint otherwise; the tags keep the two schemes disjoint.
    """
    recipe = trace if isinstance(trace, TraceRecipe) else trace.recipe
    if recipe is not None:
        return f"recipe={recipe.key}"
    return f"content={trace_fingerprint(trace)}"


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
    _static_expected: "integrity.ExpectedFields"

    def __init__(self, directory: "Path | str"):
        self.directory = Path(directory)
        self._memo: "Dict[str, tuple]" = {}  # path -> (identity, arrays)
        self._memo_lock = threading.Lock()

    def _schema_version(self) -> object:
        """The level's current semantic version (stamped into entries)."""
        raise NotImplementedError

    def _path(self, key: str) -> Path:
        return self.directory / f"{self.level}-{key}.npz"

    def _load(
        self,
        path: Path,
        expected: "integrity.ExpectedFields | None" = None,
        columns: bool = False,
    ) -> "Optional[integrity.VerifiedFields]":
        """Verified arrays of one entry, or None on a (verified) miss.

        ``expected`` defaults to the static expectations; an entry
        lacking an expected field is a miss too.  ``columns`` is
        :func:`integrity.verify_entry`'s.

        A load against the static expectations (char/HPC) serves the
        arrays it verified while one ``stat`` shows the file's identity
        before that read (device, inode, size, mtime, ctime).  It keeps
        files of at most :data:`MEMO_MAX_BYTES` whose ctime is
        :data:`MEMO_SETTLE_NS` old: any later write changes the ctime.
        """
        remember = expected is None
        if remember:
            key = os.fspath(path)
            try:
                status = os.stat(key)
            except OSError:
                return None
            identity = (status.st_dev, status.st_ino, status.st_size,
                        status.st_mtime_ns, status.st_ctime_ns)
            held = self._memo.get(key, (None, None))
            if held[0] == identity:
                return held[1]
        if expected is None:
            expected = self._static_expected
        arrays = integrity.load_entry(
            path, level=self.level, version=self._schema_version(),
            expected=expected, columns=columns,
        )
        if arrays is None or not set(expected) <= set(arrays):
            return None
        if (
            remember and status.st_size <= MEMO_MAX_BYTES
            and time.time_ns() - status.st_ctime_ns >= MEMO_SETTLE_NS
        ):
            with self._memo_lock:
                if len(self._memo) >= MEMO_CAPACITY:
                    del self._memo[next(iter(self._memo))]
                self._memo[key] = (identity, arrays)
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
        self,
        trace: "Trace | TraceRecipe",
        config: ReproConfig = DEFAULT_CONFIG,
    ) -> Path:
        """Where the entry for this trace (or recipe) + config lives."""
        return self._path(_digest(
            CHAR_CACHE_VERSION, _trace_identity(trace),
            config.characterization_fingerprint(),
        ))

    def load(
        self,
        trace: "Trace | TraceRecipe",
        config: ReproConfig = DEFAULT_CONFIG,
    ) -> "Optional[np.ndarray]":
        """The cached 47-dimensional vector, or None on a miss.

        Wrong-shape or wrong-dtype entries are verified misses — they
        are quarantined and never flow into ``np.vstack``.
        """
        arrays = self._load(self.entry_path(trace, config))
        return None if arrays is None else arrays["values"]

    def store(
        self,
        trace: "Trace | TraceRecipe",
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
    hits skip every analyzer and misses populate the cache.

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

    One small ``.npz`` per (trace recipe or content, machine pair,
    :data:`~repro.uarch.HPC_SIM_VERSION`) holds the seven-metric
    vector.
    """

    level = "hpc"
    _static_expected = {"values": ((len(HPC_METRIC_NAMES),), np.float64)}

    def _schema_version(self) -> object:
        return HPC_SIM_VERSION

    def entry_path(
        self,
        trace: "Trace | TraceRecipe",
        inorder: MachineConfig = EV56_CONFIG,
        ooo: MachineConfig = EV67_CONFIG,
    ) -> Path:
        """Where the entry for this trace (or recipe) + machines lives."""
        return self._path(_digest(
            HPC_SIM_VERSION, _trace_identity(trace),
            inorder.fingerprint(), ooo.fingerprint(),
        ))

    def load(
        self,
        trace: "Trace | TraceRecipe",
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
        trace: "Trace | TraceRecipe",
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

        The trace carries its :class:`~repro.synth.TraceRecipe`, like
        the :func:`~repro.synth.generate_trace` output it stands for,
        holds columns split from the records as they stream in (the
        packed bytes are never held whole), and its content digest is
        the checksum its verification just matched (not a second
        hash).  Wrong-dtype or wrong-length entries are verified misses
        (the file is quarantined, not re-served).
        """
        arrays = self._verified(profile, length, seed, columns=True)
        if arrays is None:
            return None
        trace = Trace.from_columns(
            arrays["data"], name=profile.name,
            recipe=TraceRecipe.of(profile, length, seed),
        )
        trace._digest = arrays.checksums["data"][:DIGEST_LENGTH]
        return trace

    def holds(
        self, profile: WorkloadProfile, length: int, seed: int = 0
    ) -> bool:
        """Whether a healthy entry for (profile, length, seed) exists.

        Verified exactly like :meth:`load` (a failing file is
        quarantined), but no :class:`~repro.trace.Trace` is built.
        """
        return self._verified(profile, length, seed) is not None

    def _verified(
        self,
        profile: WorkloadProfile,
        length: int,
        seed: int,
        columns: bool = False,
    ) -> "Optional[integrity.VerifiedFields]":
        return self._load(
            self.entry_path(profile, length, seed),
            {"data": ((length,), TRACE_DTYPE)}, columns,
        )

    def store(
        self,
        profile: WorkloadProfile,
        length: int,
        seed: int,
        trace: Trace,
    ) -> Path:
        """Persist one generated trace (its packed records, assembled
        for the write); returns the entry path.

        The trace's content digest is seeded from the checksum the
        entry metadata records, as :meth:`load` seeds it from the
        checksum it verifies, so the records are hashed once.
        """
        fields = {"data": trace.data}
        metadata = integrity.build_metadata(
            self.level, self._schema_version(), fields
        )
        path = integrity.write_entry(
            self.entry_path(profile, length, seed), level=self.level,
            version=self._schema_version(), fields=fields, metadata=metadata,
        )
        trace._digest = metadata["fields"]["data"]["sha256"][:DIGEST_LENGTH]
        return path


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


def cached_vectors(
    profile: WorkloadProfile,
    length: int,
    seed: int = 0,
    config: ReproConfig = DEFAULT_CONFIG,
    cache_dir: "Path | str | None" = None,
) -> "Tuple[np.ndarray, np.ndarray]":
    """The ``(mica, hpc)`` vectors of one generated trace, probed by recipe.

    Both levels (the MICA vector under ``config``, the HPC vector of
    the default machine pair) are first looked up by the trace's
    :class:`~repro.synth.TraceRecipe`, so a full hit builds, hashes and
    generates no trace.  It still re-verifies the trace entry the
    vectors rest on (:meth:`TraceCache.holds`), the one a build journal
    records, so a corrupt trace entry is quarantined here rather than
    in a later phases job.  A char/HPC miss, or a trace entry that is
    missing or failed that check, loads or regenerates the trace
    (:func:`cached_generate_trace`, which re-stores it); what missed is
    computed through :func:`cached_characterize` /
    :func:`cached_collect_hpc`, which store it under the same recipe
    key.  With ``cache_dir=None`` this is plain generate + compute.
    """
    mica = hpc = None
    if cache_dir is not None:
        recipe = TraceRecipe.of(profile, length, seed)
        mica = CharacterizationCache(cache_dir).load(recipe, config)
        hpc = HpcCache(cache_dir).load(recipe)
        if (
            mica is not None and hpc is not None
            and TraceCache(cache_dir).holds(profile, length, seed)
        ):
            return mica, hpc
    trace = cached_generate_trace(profile, length, seed, cache_dir)
    if mica is None:
        mica = cached_characterize(trace, config, cache_dir).values
    if hpc is None:
        hpc = cached_collect_hpc(trace, cache_dir=cache_dir).values
    return mica, hpc


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
CACHE_LEVELS = (CharacterizationCache, HpcCache, TraceCache, DatasetCache)


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
    """Scan all four cache levels; quarantine entries that fail.

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

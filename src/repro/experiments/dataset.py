"""Workload data-set construction.

Builds, for every benchmark in the registry, the two vectors all
experiments consume:

* the 47-dimensional microarchitecture-independent (MICA) vector, and
* the 7-dimensional hardware-performance-counter (HPC) vector.

Characterizing 122 benchmarks takes minutes, so the builder
parallelizes across processes and caches the resulting matrices on disk
(keyed by configuration and benchmark population) and in memory.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import AnalysisError, DatasetBuildError
from ..analysis import pairwise_distances, zscore
from ..mica import characteristic_names
from ..perf import faults, integrity
from ..perf.cache import (
    CACHE_LEVELS,
    CHAR_CACHE_VERSION,
    DATASET_CACHE_VERSION,
    CharacterizationCache,
    DatasetCache,
    HpcCache,
    TraceCache,
    cached_vectors,
)
from ..perf.integrity import QuarantineEvent
from ..perf.pool import in_flight_window, new_executor
from ..synth import TRACE_GEN_VERSION, TraceRecipe
from ..uarch import HPC_METRIC_NAMES, HPC_SIM_VERSION
from ..workloads import Benchmark, all_benchmarks, get_benchmark

_MEMORY_CACHE: "Dict[str, WorkloadDataset]" = {}


@dataclass(frozen=True)
class BenchmarkBuildStatus:
    """Outcome of building one benchmark's vectors.

    Attributes:
        name: the benchmark's full name.
        ok: whether the vectors were produced.
        attempts: charged attempts (submissions whose failure — or
            success — is attributable to this benchmark; a worker lost
            to *another* benchmark's crash is not charged).
        seconds: wall time from first submission to final outcome.
        error: the final failure (``None`` when ok).
        quarantines: cache entries quarantined while building it.
    """

    name: str
    ok: bool
    attempts: int
    seconds: float
    error: Optional[str] = None
    quarantines: Tuple[QuarantineEvent, ...] = ()


@dataclass(frozen=True)
class DatasetBuildReport:
    """Per-benchmark accounting of one (possibly faulty) dataset build.

    Returned on every build via ``WorkloadDataset.report`` and carried
    by :class:`~repro.errors.DatasetBuildError` when ``strict=True``
    aborts, so a failure always names its benchmarks instead of dying
    as a bare ``BrokenProcessPoolError``.
    """

    statuses: Tuple[BenchmarkBuildStatus, ...]
    jobs: int
    pool_rebuilds: int = 0
    dataset_quarantines: Tuple[QuarantineEvent, ...] = ()

    @property
    def succeeded(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.statuses if s.ok)

    @property
    def failed(self) -> Tuple[BenchmarkBuildStatus, ...]:
        return tuple(s for s in self.statuses if not s.ok)

    @property
    def quarantines(self) -> Tuple[QuarantineEvent, ...]:
        events = list(self.dataset_quarantines)
        for status in self.statuses:
            events.extend(status.quarantines)
        return tuple(events)

    def format(self) -> str:
        """Human-readable multi-line summary (CLI failure output)."""
        failed = self.failed
        lines = [
            f"dataset build: {len(self.succeeded)}/{len(self.statuses)} "
            f"benchmarks ok, jobs={self.jobs}, "
            f"pool rebuilds={self.pool_rebuilds}, "
            f"quarantined entries={len(self.quarantines)}",
        ]
        for status in failed:
            lines.append(
                f"  FAILED {status.name} after {status.attempts} "
                f"attempt(s): {status.error}"
            )
        for event in self.quarantines:
            lines.append(
                f"  quarantined {event.path}: {event.reason}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class WorkloadDataset:
    """The two workload spaces for a benchmark population.

    Attributes:
        names: benchmark full names (rows of both matrices).
        suites: suite name per benchmark.
        mica: (n x 47) microarchitecture-independent matrix.
        hpc: (n x 7) hardware-performance-counter matrix.
        config: the configuration the data was produced under.
        report: per-benchmark build accounting (``None`` when the
            dataset came straight from the dataset-level cache).
    """

    names: Tuple[str, ...]
    suites: Tuple[str, ...]
    mica: np.ndarray
    hpc: np.ndarray
    config: ReproConfig
    report: Optional[DatasetBuildReport] = field(
        default=None, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        """Row index of a benchmark (exact or unique-suffix match).

        Raises:
            AnalysisError: when nothing or multiple benchmarks match.
        """
        if name in self.names:
            return self.names.index(name)
        matches = [
            i for i, full in enumerate(self.names)
            if full.endswith("/" + name) or f"/{name}/" in full
        ]
        if len(matches) != 1:
            raise AnalysisError(f"benchmark not found in dataset: {name!r}")
        return matches[0]

    # -- normalized views (computed on demand, cheap) -------------------

    def mica_normalized(self) -> np.ndarray:
        """Z-scored MICA matrix."""
        return zscore(self.mica)

    def hpc_normalized(self) -> np.ndarray:
        """Z-scored HPC matrix."""
        return zscore(self.hpc)

    def mica_distances(self) -> np.ndarray:
        """Condensed distances in the z-scored MICA space."""
        return pairwise_distances(self.mica_normalized())

    def hpc_distances(self) -> np.ndarray:
        """Condensed distances in the z-scored HPC space."""
        return pairwise_distances(self.hpc_normalized())

    @property
    def mica_columns(self) -> List[str]:
        return characteristic_names()

    @property
    def hpc_columns(self) -> List[str]:
        return list(HPC_METRIC_NAMES)


def _characterize_one(args: "Tuple[str, ReproConfig, str | None]"):
    """Worker: build one benchmark's MICA and HPC vectors.

    Runs in a separate process, so it re-resolves the benchmark from
    the registry by name (profiles are deterministic).  When a cache
    directory is given, :func:`repro.perf.cached_vectors` first looks
    the 47-dimensional and 7-metric vectors up by the trace's recipe (a
    warm benchmark builds, hashes and generates no trace; it only
    re-verifies the trace entry it rests on, regenerating it when that
    entry is gone or damaged); only a miss loads the trace from the
    trace cache or generates it, and computes what is missing — all
    shared across workers and runs.
    """
    name, config, cache_dir = args
    faults.maybe_fail_worker(name)
    integrity.drain_quarantine_log()  # discard events of earlier jobs
    profile = get_benchmark(name).profile
    mica_vector, hpc_vector = cached_vectors(
        profile, config.trace_length, config=config, cache_dir=cache_dir
    )
    entries: Dict[str, str] = {}
    if cache_dir is not None:
        # Name the cache entries this benchmark now rests on, so a
        # journaled build can re-verify them on resume.
        recipe = TraceRecipe.of(profile, config.trace_length)
        entries = {
            "trace": str(TraceCache(cache_dir).entry_path(
                profile, config.trace_length
            )),
            "char": str(CharacterizationCache(cache_dir).entry_path(
                recipe, config
            )),
            "hpc": str(HpcCache(cache_dir).entry_path(recipe)),
        }
    return (name, mica_vector, hpc_vector,
            integrity.drain_quarantine_log(), entries)


def _config_kwargs(config: ReproConfig) -> dict:
    """The configuration fields the dataset key covers."""
    return {
        "trace_length": config.trace_length,
        "seed": config.seed,
        "block_bytes": config.block_bytes,
        "page_bytes": config.page_bytes,
        "ilp_window_sizes": tuple(config.ilp_window_sizes),
        "reg_dep_thresholds": tuple(config.reg_dep_thresholds),
        "stride_thresholds": tuple(config.stride_thresholds),
        "ppm_max_order": config.ppm_max_order,
    }


def _cache_key(config: ReproConfig, names: Sequence[str]) -> str:
    # The upstream semantic versions are part of the key, so a
    # generation-protocol, analyzer or simulation bump invalidates
    # dataset matrices mechanically instead of relying on a manual
    # DATASET_CACHE_VERSION bump.
    payload = repr((DATASET_CACHE_VERSION, TRACE_GEN_VERSION,
                    CHAR_CACHE_VERSION, HPC_SIM_VERSION,
                    sorted(_config_kwargs(config).items()), tuple(names)))
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _population(
    config: ReproConfig, benchmarks: "Optional[Sequence[Benchmark]]"
) -> "Tuple[Tuple[str, ...], Tuple[str, ...], str]":
    """``(names, suites, dataset key)`` of a population (default: all)."""
    population = tuple(
        benchmarks if benchmarks is not None else all_benchmarks()
    )
    names = tuple(benchmark.full_name for benchmark in population)
    suites = tuple(benchmark.suite for benchmark in population)
    return names, suites, _cache_key(config, names)


def _journal_path(directory: Path, key: str) -> Path:
    return directory / f"journal-dataset-{key}.jsonl"


def default_cache_dir() -> Path:
    """Cache directory (override with ``REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".mica_cache"


def clear_dataset_cache(cache_dir: "Path | str | None" = None) -> int:
    """Delete cached datasets (in-memory and on disk).

    Clears every one of the :data:`~repro.perf.cache.CACHE_LEVELS`
    (entries, quarantined entries and stale writer temporaries).

    Returns:
        Number of disk cache files removed.
    """
    _MEMORY_CACHE.clear()
    directory = Path(cache_dir or default_cache_dir())
    return sum(level(directory).clear() for level in CACHE_LEVELS)


#: Ceiling on the exponential retry backoff (seconds).
_RETRY_BACKOFF_CAP = 2.0


class _JobOutcomes:
    """Mutable accounting of one :func:`_run_jobs` call.

    When a write-ahead ``journal`` is attached, every lifecycle change
    is appended *before* the build relies on it: attempts as they are
    charged, completions with the benchmark's vectors (exact float64
    bytes, hex) and the cache entries they rest on, failures with their
    final error.  Only the orchestrating process appends — workers stay
    journal-free — so the journal has a single writer.
    """

    def __init__(self, journal=None) -> None:
        self.results: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self.attempts: Dict[str, int] = {}
        self.errors: Dict[str, str] = {}
        self.quarantines: Dict[str, Tuple[QuarantineEvent, ...]] = {}
        self.started: Dict[str, float] = {}
        self.finished: Dict[str, float] = {}
        self.pool_rebuilds = 0
        self.journal = journal

    def _journal_event(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def record_attempt(self, name: str, attempt: int) -> None:
        self.attempts[name] = attempt
        self._journal_event({
            "event": "attempt-started",
            "benchmark": name,
            "attempt": attempt,
        })

    def record_ok(
        self, name, mica, hpc, events, progress, total, entries=None
    ) -> None:
        self.results[name] = (mica, hpc)
        self.quarantines[name] = tuple(events)
        self.finished[name] = time.perf_counter()
        self._journal_event({
            "event": "completed",
            "benchmark": name,
            "attempts": self.attempts.get(name, 0),
            "mica": np.ascontiguousarray(
                mica, dtype=np.float64
            ).tobytes().hex(),
            "hpc": np.ascontiguousarray(
                hpc, dtype=np.float64
            ).tobytes().hex(),
            "entries": dict(entries or {}),
        })
        if progress:
            print(f"  [{len(self.results):>3}/{total}] {name}")

    def record_failed(self, name: str, message: str) -> None:
        self.errors[name] = message
        self.finished[name] = time.perf_counter()
        self._journal_event({
            "event": "failed",
            "benchmark": name,
            "attempts": self.attempts.get(name, 0),
            "error": message,
        })

    def statuses(self, names: Sequence[str]) -> Tuple[
        BenchmarkBuildStatus, ...
    ]:
        rows = []
        for name in names:
            start = self.started.get(name, 0.0)
            end = self.finished.get(name, start)
            rows.append(BenchmarkBuildStatus(
                name=name,
                ok=name in self.results,
                attempts=self.attempts.get(name, 0),
                seconds=max(0.0, end - start),
                error=self.errors.get(name),
                quarantines=self.quarantines.get(name, ()),
            ))
        return tuple(rows)


def retry_delay(backoff: float, attempt: int, token: str) -> float:
    """Bounded exponential backoff with deterministic jitter.

    The delay after the ``attempt``-th (1-based) failed attempt is
    ``min(backoff * 2**(attempt - 1), _RETRY_BACKOFF_CAP)`` scaled into
    ``[delay/2, delay]`` by a factor derived from
    ``sha256(token, attempt)``: deterministic (the same token and
    attempt always sleep the same) and de-synchronizing (benchmarks or
    jobs retrying at the same attempt spread out instead of thundering
    back onto the cache in lockstep).  ``backoff <= 0`` never sleeps.
    """
    if backoff <= 0.0:
        return 0.0
    delay = min(backoff * (2 ** (attempt - 1)), _RETRY_BACKOFF_CAP)
    digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64  # [0, 1)
    return delay * (0.5 + 0.5 * unit)


def _run_jobs(
    jobs: "Dict[str, tuple]",
    order: Sequence[str],
    worker_count: int,
    max_attempts: int,
    retry_backoff: float,
    progress: bool,
    deadline_at: "float | None",
    journal,
    initial_attempts: "Dict[str, int]",
) -> _JobOutcomes:
    """Build every job through one executor and a bounded window.

    The executor and window come from :mod:`repro.perf.pool`:
    ``worker_count == 1`` runs attempts in-process with a window of one,
    so the journal reads attempt A, completed A, attempt B, ...;
    otherwise a process pool is kept fed with up to
    ``in_flight_window(worker_count)`` attempts.  Every submission
    first waits out the benchmark's retry backoff (charged failures
    only), then checks the deadline and the attempt budget, and
    journals the attempt before submitting it (attempts of a killed run
    stay charged).  When a worker process dies, every
    in-flight future fails with ``BrokenProcessPool``: a benchmark lost
    alone is charged the crash; when several are lost the culprit is
    indistinguishable, so none is charged.  Either way they re-run
    first, one at a time, against a rebuilt pool.  A benchmark is only
    declared failed after ``max_attempts`` charged attempts, or after a
    charged failure past the deadline, and the failure names it.
    """
    window = in_flight_window(worker_count)
    outcomes = _JobOutcomes(journal)
    outcomes.attempts.update(initial_attempts)
    pending = deque(order)
    retry_at: Dict[str, float] = {}  # charged failure -> earliest retry
    alone: "set[str]" = set()  # lost to a broken pool: run one at a time
    in_flight: "Dict[Future, str]" = {}
    executor = new_executor(worker_count)
    try:
        while pending or in_flight:
            broken = False
            while pending and len(in_flight) < (1 if alone else window):
                name = pending.popleft()
                outcomes.started.setdefault(name, time.perf_counter())
                _sleep_until(retry_at.pop(name, 0.0), deadline_at)
                attempts = outcomes.attempts.get(name, 0)
                if _deadline_passed(deadline_at):
                    outcomes.record_failed(name, "build deadline exceeded")
                    continue
                if attempts >= max_attempts:
                    outcomes.record_failed(
                        name,
                        f"interrupted after exhausting {max_attempts} "
                        "attempt(s)",
                    )
                    continue
                # Journal first: a run killed mid-attempt stays charged.
                outcomes.record_attempt(name, attempts + 1)
                try:
                    future = executor.submit(_characterize_one, jobs[name])
                except BrokenProcessPool:
                    # Nothing ran, so nothing is charged; the retry
                    # journals the same attempt number again.
                    outcomes.attempts[name] = attempts
                    pending.appendleft(name)
                    broken = True
                    break
                in_flight[future] = name
            if not broken:
                if not in_flight:
                    continue
                done = wait(in_flight, return_when=FIRST_COMPLETED).done
                broken = any(
                    isinstance(future.exception(), BrokenProcessPool)
                    for future in done
                )
            if broken:
                # A broken pool fails everything it still held.
                done = wait(in_flight).done
            lost = sum(
                isinstance(future.exception(), BrokenProcessPool)
                for future in done
            )
            reruns = []
            for future, name in list(in_flight.items()):
                if future not in done:
                    continue
                del in_flight[future]
                error = future.exception()
                if error is None:
                    alone.discard(name)
                    _, mica, hpc, events, entries = future.result()
                    outcomes.record_ok(
                        name, mica, hpc, events, progress, len(order),
                        entries=entries,
                    )
                    continue
                if isinstance(error, BrokenProcessPool):
                    alone.add(name)
                    if lost > 1:
                        outcomes.attempts[name] -= 1
                        reruns.append(name)
                        continue
                    message = (
                        f"worker process died while building {name!r}: "
                        f"{error}"
                    )
                else:
                    message = f"{type(error).__name__}: {error}"
                attempts = outcomes.attempts[name]
                if attempts >= max_attempts or _deadline_passed(deadline_at):
                    alone.discard(name)
                    outcomes.record_failed(name, message)
                else:
                    retry_at[name] = time.monotonic() + retry_delay(
                        retry_backoff, attempts, name
                    )
                    reruns.append(name)
            pending.extendleft(reversed(reruns))
            if broken:
                executor.shutdown(wait=False, cancel_futures=True)
                executor = new_executor(worker_count)
                outcomes.pool_rebuilds += 1
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return outcomes


def _sleep_until(at: float, deadline_at: "float | None") -> None:
    if deadline_at is not None:
        at = min(at, deadline_at)
    delay = at - time.monotonic()
    if delay > 0.0:
        time.sleep(delay)


def _deadline_passed(deadline_at: "float | None") -> bool:
    return deadline_at is not None and time.monotonic() >= deadline_at


def load_cached_dataset(
    config: ReproConfig = DEFAULT_CONFIG,
    benchmarks: "Optional[Sequence[Benchmark]]" = None,
    benchmark_names: "Optional[Sequence[str]]" = None,
    cache_dir: "Path | str | None" = None,
) -> "Optional[WorkloadDataset]":
    """Warm-probe the dataset-level cache without ever building.

    Returns the cached :class:`WorkloadDataset` for this config +
    population (from the in-memory cache or a verified disk entry), or
    ``None`` on any miss.  The service layer uses this to answer warm
    dataset requests with an immediate 200 while cold ones queue.

    Args:
        benchmarks: population as :class:`~repro.workloads.Benchmark`
            objects (default: all 122).
        benchmark_names: population as full names — an alternative to
            ``benchmarks`` for callers that only hold names.
    """
    if benchmark_names is not None:
        if benchmarks is not None:
            raise AnalysisError(
                "pass benchmarks or benchmark_names, not both"
            )
        benchmarks = [get_benchmark(name) for name in benchmark_names]
    names, suites, key = _population(config, benchmarks)
    return _load_dataset(
        config, names, suites, key, Path(cache_dir or default_cache_dir())
    )


def _load_dataset(
    config: ReproConfig,
    names: "Tuple[str, ...]",
    suites: "Tuple[str, ...]",
    key: str,
    directory: Path,
) -> "Optional[WorkloadDataset]":
    """The in-memory or verified on-disk dataset entry, or None."""
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]
    matrices = DatasetCache(directory).load(key, len(names))
    if matrices is None:
        return None
    dataset = _MEMORY_CACHE[key] = WorkloadDataset(
        names=names, suites=suites, mica=matrices[0], hpc=matrices[1],
        config=config,
    )
    return dataset


def dataset_journal_path(
    config: ReproConfig = DEFAULT_CONFIG,
    benchmarks: "Optional[Sequence[Benchmark]]" = None,
    cache_dir: "Path | str | None" = None,
) -> Path:
    """The default build-journal file for this config + population.

    Lives beside the cache entries as
    ``journal-dataset-<key>.jsonl``, keyed exactly like the
    dataset-level cache, so a resume can only ever replay a journal
    written for the same build.
    """
    _, _, key = _population(config, benchmarks)
    return _journal_path(Path(cache_dir or default_cache_dir()), key)


def _verify_recorded_entry(level: str, path: str) -> bool:
    """Re-verify one journaled cache entry; quarantines on failure."""
    entry = Path(path)
    for cache in CACHE_LEVELS:
        if cache.level == level:
            return cache(entry.parent).is_valid_entry(entry)
    return False


def _replay_build_journal(
    records: "Sequence[dict]", key: str, use_cache: bool
):
    """Digest a build journal into resumable state.

    Returns ``(preloaded, attempts, failures, quarantines)``:
    vectors of benchmarks whose completion records still verify
    (``name -> (mica, hpc, attempts)``), charged attempt counts of
    interrupted benchmarks, prior terminal failures
    (``name -> record``), and any
    quarantine events raised while re-verifying recorded cache entries.
    A completion whose entries no longer pass integrity is demoted to
    not-built (uncharged — its past attempts succeeded; the damage is
    environmental), so the benchmark is rebuilt from scratch.

    Raises:
        JournalError: the journal's header names a different build.
    """
    from ..errors import JournalError

    header = records[0]
    if header.get("event") != "build-started" or header.get("key") != key:
        raise JournalError(
            "journal does not belong to this build: recorded key "
            f"{header.get('key')!r}, expected {key!r}"
        )
    completions: Dict[str, dict] = {}
    attempts: Dict[str, int] = {}
    failures: Dict[str, dict] = {}
    for record in records[1:]:
        event = record.get("event")
        name = record.get("benchmark")
        if event == "attempt-started":
            attempts[name] = max(
                attempts.get(name, 0), int(record.get("attempt", 0))
            )
        elif event == "completed":
            completions[name] = record
            attempts.pop(name, None)
            failures.pop(name, None)
        elif event == "failed":
            failures[name] = record
            attempts.pop(name, None)
            completions.pop(name, None)
    integrity.drain_quarantine_log()
    preloaded: Dict[str, Tuple[np.ndarray, np.ndarray, int]] = {}
    for name, record in completions.items():
        entries = record.get("entries") or {}
        if use_cache and entries and not all(
            _verify_recorded_entry(level, path)
            for level, path in entries.items()
        ):
            continue
        preloaded[name] = (
            np.frombuffer(
                bytes.fromhex(record["mica"]), dtype=np.float64
            ).copy(),
            np.frombuffer(
                bytes.fromhex(record["hpc"]), dtype=np.float64
            ).copy(),
            int(record.get("attempts", 0)),
        )
    return preloaded, attempts, failures, integrity.drain_quarantine_log()


def build_dataset(
    config: ReproConfig = DEFAULT_CONFIG,
    benchmarks: "Optional[Sequence[Benchmark]]" = None,
    cache_dir: "Path | str | None" = None,
    use_cache: bool = True,
    jobs: "int | None" = None,
    progress: bool = False,
    strict: bool = True,
    max_attempts: int = 3,
    retry_backoff: float = 0.1,
    deadline: "float | None" = None,
    journal: "Path | str | None" = None,
) -> WorkloadDataset:
    """Build (or load) the workload data set.

    Args:
        config: trace length, seeds and characterization parameters.
        benchmarks: population to characterize (default: all 122).
        cache_dir: disk cache location (default: repo-local
            ``.mica_cache``; override with ``REPRO_CACHE_DIR``).  Holds
            both the dataset-level matrices and the per-trace
            :mod:`repro.perf` characterization entries.
        use_cache: consult/populate the caches.
        jobs: worker-process count (default: ``os.cpu_count()``, capped
            at the benchmark count; 1 runs serially in-process).  Pool
            workers exit by themselves if the building process dies.
        progress: print one line per completed benchmark.
        strict: when True (default), raise
            :class:`~repro.errors.DatasetBuildError` — carrying the
            full :class:`DatasetBuildReport` — if any benchmark still
            fails after its retries.  When False, salvage the surviving
            benchmarks: the returned dataset holds only their rows and
            ``dataset.report`` names the casualties.
        max_attempts: charged attempts per benchmark before it is
            declared failed (worker crashes, raises and timeouts all
            count; a worker lost to *another* benchmark's crash does
            not).
        retry_backoff: base of the bounded exponential sleep a
            benchmark waits out before each retry of a charged failure
            (seconds; 0 disables sleeping), jittered per benchmark by
            :func:`retry_delay`.  Uncharged re-runs never sleep.
        deadline: wall-clock budget in seconds for the whole build.
            Once it elapses, benchmarks not yet built are recorded as
            failed with ``"build deadline exceeded"`` (cooperatively —
            checked before every submission; attempts already running
            finish).  A charged failure that ends after the deadline is
            not retried and keeps its own error.  The usual
            strict/salvage semantics apply.
        journal: when given, a write-ahead journal file recording every
            benchmark's lifecycle (admission, charged attempts,
            completion with exact vectors and cache keys, failure) with
            fsync'd, checksummed appends.  A build killed at *any*
            instant leaves a replayable journal:
            :func:`resume_dataset` skips completed benchmarks, charges
            interrupted attempts against ``max_attempts``, and
            converges to the cold build's exact result.  Starting a
            build truncates any previous journal at this path
            atomically.

    The result is identical — bit-for-bit — whether built serially with
    cold caches or with ``jobs=N`` against warm caches; workers are pure
    functions of (benchmark name, config).  That equivalence extends to
    the failure paths: corrupted cache entries are quarantined and
    recomputed, crashed workers are retried in a rebuilt pool, and an
    unwritable cache degrades to compute-without-cache — a build that
    completes is bit-for-bit the cold serial result.

    Raises:
        DatasetBuildError: in strict mode when a benchmark exhausts its
            attempts, or (any mode) when *no* benchmark could be built.
    """
    return _build_or_resume(
        config=config, benchmarks=benchmarks, cache_dir=cache_dir,
        use_cache=use_cache, jobs=jobs, progress=progress, strict=strict,
        max_attempts=max_attempts, retry_backoff=retry_backoff,
        deadline=deadline, journal=journal, resume=False,
    )


def resume_dataset(
    config: ReproConfig = DEFAULT_CONFIG,
    benchmarks: "Optional[Sequence[Benchmark]]" = None,
    cache_dir: "Path | str | None" = None,
    use_cache: bool = True,
    jobs: "int | None" = None,
    progress: bool = False,
    strict: bool = True,
    max_attempts: int = 3,
    retry_backoff: float = 0.1,
    deadline: "float | None" = None,
    journal: "Path | str | None" = None,
) -> WorkloadDataset:
    """Resume a journaled build after the process died mid-way.

    Replays the write-ahead journal a previous
    ``build_dataset(journal=...)`` left behind (repairing a torn tail
    if the kill landed mid-append), re-verifies the cache entries each
    completed benchmark rests on, and finishes the build: completed
    benchmarks are skipped outright (their journaled vectors are the
    exact float64 bytes the worker produced), interrupted attempts stay
    charged against ``max_attempts``, prior terminal failures are
    carried over, and everything else runs through the normal
    build machinery.  The resumed dataset's matrices and report rows
    are bit-for-bit what an uninterrupted cold serial build produces.

    Args:
        journal: the journal file to replay (default: the
            :func:`dataset_journal_path` for this config +
            population).  An empty or missing journal degrades to a
            fresh journaled build.
        (all other arguments as for :func:`build_dataset`)

    Raises:
        JournalError: the journal belongs to a different build (config,
            population or cache versions changed since it was written).
        DatasetBuildError: as for :func:`build_dataset`.
    """
    return _build_or_resume(
        config=config, benchmarks=benchmarks, cache_dir=cache_dir,
        use_cache=use_cache, jobs=jobs, progress=progress, strict=strict,
        max_attempts=max_attempts, retry_backoff=retry_backoff,
        deadline=deadline, journal=journal, resume=True,
    )


def _build_or_resume(
    *,
    config: ReproConfig,
    benchmarks: "Optional[Sequence[Benchmark]]",
    cache_dir: "Path | str | None",
    use_cache: bool,
    jobs: "int | None",
    progress: bool,
    strict: bool,
    max_attempts: int,
    retry_backoff: float,
    deadline: "float | None",
    journal: "Path | str | None",
    resume: bool,
) -> WorkloadDataset:
    names, suites, key = _population(config, benchmarks)
    directory = Path(cache_dir or default_cache_dir())
    dataset_quarantines: Tuple[QuarantineEvent, ...] = ()
    if use_cache:
        integrity.drain_quarantine_log()
        dataset = _load_dataset(config, names, suites, key, directory)
        # A corrupted dataset-level entry is a verified miss: it was
        # quarantined and the matrices are rebuilt below.
        dataset_quarantines = integrity.drain_quarantine_log()
        if dataset is not None:
            return dataset

    trace_cache_dir = str(directory) if use_cache else None
    jobs_by_name = {name: (name, config, trace_cache_dir) for name in names}

    wal = None
    preloaded: Dict[str, Tuple[np.ndarray, np.ndarray, int]] = {}
    prior_attempts: Dict[str, int] = {}
    carried_failures: Dict[str, dict] = {}
    if journal is not None or resume:
        from ..perf.journal import WriteAheadJournal

        journal_path = Path(journal) if journal is not None else (
            _journal_path(directory, key)
        )
        wal = WriteAheadJournal(journal_path)
        wal.open()
        try:
            if resume and wal.records:
                (preloaded, prior_attempts, raw_failures,
                 resume_quarantines) = _replay_build_journal(
                    wal.records, key, use_cache
                )
                dataset_quarantines = (
                    dataset_quarantines + resume_quarantines
                )
                for name, record in raw_failures.items():
                    if int(record.get("attempts", 0)) >= max_attempts:
                        carried_failures[name] = record
                    else:
                        prior_attempts[name] = int(
                            record.get("attempts", 0)
                        )
            else:
                # A fresh journaled build owns the file: any previous
                # build's records vanish in one atomic rotation, then
                # the header and admissions go down before any work
                # starts.
                wal.rewrite([{
                    "event": "build-started",
                    "key": key,
                    "names": list(names),
                    "use_cache": bool(use_cache),
                }])
                for name in names:
                    wal.append({"event": "admitted", "benchmark": name})
        except BaseException:
            wal.close()
            raise

    try:
        remaining = tuple(
            name for name in names
            if name not in preloaded and name not in carried_failures
        )
        initial_attempts = {
            name: count for name, count in prior_attempts.items()
            if name in jobs_by_name and count > 0
        }
        deadline_at = (
            None if deadline is None else time.monotonic() + deadline
        )
        worker_count = min(
            jobs or os.cpu_count() or 1, max(1, len(remaining))
        )
        outcomes = _run_jobs(
            jobs_by_name, remaining, worker_count, max_attempts,
            retry_backoff, progress, deadline_at, wal, initial_attempts,
        )
        # Fold journal-recovered outcomes back in: completed rows keep
        # their journaled attempt counts, carried failures their final
        # error.  Neither is re-journaled — both are already terminal
        # in the journal.
        for name, (mica, hpc, attempts) in preloaded.items():
            outcomes.results[name] = (mica, hpc)
            outcomes.attempts[name] = attempts
        for name, record in carried_failures.items():
            outcomes.errors[name] = str(record.get("error"))
            outcomes.attempts[name] = int(record.get("attempts", 0))
    finally:
        if wal is not None:
            wal.close()

    report = DatasetBuildReport(
        statuses=outcomes.statuses(names),
        jobs=worker_count,
        pool_rebuilds=outcomes.pool_rebuilds,
        dataset_quarantines=dataset_quarantines,
    )
    failed = report.failed
    if failed and strict:
        raise DatasetBuildError(
            f"dataset build failed for {len(failed)} of {len(names)} "
            "benchmark(s): "
            + ", ".join(status.name for status in failed),
            report=report,
        )
    if len(failed) == len(names):
        raise DatasetBuildError(
            "dataset build failed for every benchmark", report=report
        )

    kept = tuple(name for name in names if name in outcomes.results)
    kept_suites = tuple(
        suite for name, suite in zip(names, suites) if name in
        outcomes.results
    )
    mica = np.vstack([outcomes.results[name][0] for name in kept])
    hpc = np.vstack([outcomes.results[name][1] for name in kept])
    dataset = WorkloadDataset(
        names=kept, suites=kept_suites, mica=mica, hpc=hpc,
        config=config, report=report,
    )
    if use_cache and not failed:
        DatasetCache(directory).store_or_degrade(key, mica, hpc)
        _MEMORY_CACHE[key] = dataset
    return dataset

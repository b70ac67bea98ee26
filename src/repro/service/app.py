"""The characterization service: request handling and job execution.

``CharacterizationService`` is the transport-independent core — it
validates requests, serves warm cache hits inline (200; characterize
and HPC hits are keyed by the trace's recipe and read no trace bytes),
admits cold work into the bounded queue (202 + job id), executes jobs
on worker threads with retry/backoff/jitter, and enforces the fixed
failure policies:

* **queue full** -> 429 + ``Retry-After`` (admission is bounded; the
  service never buffers unbounded work).
* **deadline overrun** -> 504; the watchdog expires overdue jobs and
  cooperative checkpoints between compute stages abandon the work.
* **worker casualty** -> retried with bounded backoff plus
  deterministic jitter; dataset jobs additionally delegate to the
  crash-isolated :func:`~repro.experiments.build_dataset` machinery.
* **repeated infrastructure failure** -> the circuit breaker opens and
  cold submissions get 503 + ``Retry-After`` until a half-open probe
  succeeds.
* **degraded cache directory** (:class:`~repro.errors.CacheDegradedWarning`)
  -> the service switches to compute-without-cache and keeps answering
  200/202; ``/readyz`` reports the degradation.
* **SIGTERM** -> graceful drain: stop admitting, finish or deadline-out
  in-flight jobs; all cache writes go through the atomic writers, so a
  drain never leaves torn entries.

Every response body is produced by the pure ``*_payload`` builders
below, so a faulted-then-recovered service returns bit-for-bit the same
JSON a cold serial computation would.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import (
    BadRequestError,
    CircuitOpenError,
    DatasetBuildError,
    DeadlineExceededError,
    NotFoundError,
    ReproError,
    ServiceError,
    UnknownBenchmarkError,
)
from .breaker import CircuitBreaker
from .jobs import EXPIRED, FAILED, Job, JobRegistry
from .queue import ServiceQueue

logger = logging.getLogger("repro.service")

#: Request kinds the service accepts.
KINDS = ("characterize", "hpc", "phases", "dataset")


@dataclass(frozen=True)
class ServiceSettings:
    """Operational knobs of the service (robustness policy included).

    Attributes:
        cache_dir: cache root (default: the repo-local directory of
            :func:`~repro.experiments.dataset.default_cache_dir`).
        use_cache: disable all cache levels when False.
        queue_capacity: bounded admission-queue size (429 beyond).
        workers: worker threads executing cold jobs.
        default_deadline: per-request deadline (seconds) when the
            request does not carry ``deadline_ms``.
        max_deadline: ceiling any requested deadline is clamped to.
        max_attempts: compute attempts per job before it fails.
        retry_backoff: base of the bounded exponential retry sleep
            (deterministically jittered per job id).
        breaker_failure_threshold / breaker_recovery: circuit-breaker
            trip threshold and open-state duration (seconds).
        watchdog_interval: seconds between deadline sweeps.
        ready_high_water: queue-depth fraction beyond which
            ``/readyz`` reports not-ready.
        max_finished_jobs: terminal jobs retained for polling.
        retry_after: ``Retry-After`` hint (seconds) on 429/503 bodies.
        dataset_jobs: worker *processes* a dataset job may use.
        drain_timeout: seconds granted to in-flight jobs on SIGTERM.
        max_trace_length: ceiling on requested trace lengths.
        max_body_bytes: largest accepted request body.
        state_dir: durable-state directory.  When set, admissions and
            terminal transitions are write-ahead journaled there
            (``journal-service-jobs.jsonl``): a restarted service
            serves previously-terminal jobs from the journal
            (byte-identical payloads) and re-admits interrupted ones
            through the normal queue.  ``None`` keeps jobs in memory
            only.
    """

    cache_dir: "Path | str | None" = None
    use_cache: bool = True
    queue_capacity: int = 64
    workers: int = 2
    default_deadline: float = 30.0
    max_deadline: float = 300.0
    max_attempts: int = 3
    retry_backoff: float = 0.05
    breaker_failure_threshold: int = 5
    breaker_recovery: float = 5.0
    watchdog_interval: float = 0.05
    ready_high_water: float = 0.8
    max_finished_jobs: int = 256
    retry_after: float = 1.0
    dataset_jobs: int = 1
    drain_timeout: float = 10.0
    max_trace_length: int = 1_000_000
    max_body_bytes: int = 1 << 20
    state_dir: "Path | str | None" = None


# ---------------------------------------------------------------------------
# Pure payload builders (shared by warm/cold paths and the tests, so
# "bit-for-bit identical to a cold serial run" is checkable on bytes).
# ---------------------------------------------------------------------------


def characterize_payload(
    benchmark: str, trace_length: int, seed: int, values
) -> dict:
    """The response body of one characterize request."""
    from ..mica import characteristic_names

    return {
        "kind": "characterize",
        "benchmark": benchmark,
        "trace_length": trace_length,
        "seed": seed,
        "names": list(characteristic_names()),
        "values": [float(value) for value in values],
    }


def hpc_payload(
    benchmark: str, trace_length: int, seed: int, values
) -> dict:
    """The response body of one HPC request."""
    from ..uarch import HPC_METRIC_NAMES

    return {
        "kind": "hpc",
        "benchmark": benchmark,
        "trace_length": trace_length,
        "seed": seed,
        "names": list(HPC_METRIC_NAMES),
        "values": [float(value) for value in values],
    }


def phases_payload(
    benchmark: str,
    trace_length: int,
    seed: int,
    interval: int,
    signature: str,
    result,
    points,
) -> dict:
    """The response body of one phases request."""
    return {
        "kind": "phases",
        "benchmark": benchmark,
        "trace_length": trace_length,
        "seed": seed,
        "interval": interval,
        "signature": signature,
        "k": int(result.k),
        "assignments": [int(label) for label in result.assignments],
        "phase_sizes": [int(size) for size in result.phase_sizes()],
        "simulation_points": [int(point) for point in points],
    }


def dataset_payload(dataset) -> dict:
    """The response body of one dataset request."""
    return {
        "kind": "dataset",
        "names": list(dataset.names),
        "suites": list(dataset.suites),
        "mica_columns": list(dataset.mica_columns),
        "hpc_columns": list(dataset.hpc_columns),
        "mica": [[float(v) for v in row] for row in dataset.mica],
        "hpc": [[float(v) for v in row] for row in dataset.hpc],
    }


class CharacterizationService:
    """Characterization-as-a-service over the five-level cache.

    Args:
        config: trace length, seeds and characterization parameters
            used for requests that do not override them.
        settings: operational/robustness knobs.
    """

    def __init__(
        self,
        config: ReproConfig = DEFAULT_CONFIG,
        settings: "ServiceSettings | None" = None,
    ):
        from ..experiments.dataset import default_cache_dir

        self.config = config
        self.settings = settings or ServiceSettings()
        if self.settings.use_cache:
            self.cache_dir = Path(
                self.settings.cache_dir or default_cache_dir()
            )
        else:
            self.cache_dir = None
        self._journal = None
        if self.settings.state_dir is not None:
            from ..perf.journal import WriteAheadJournal

            state = Path(self.settings.state_dir)
            state.mkdir(parents=True, exist_ok=True)
            self._journal = WriteAheadJournal(
                state / "journal-service-jobs.jsonl"
            )
            self._journal.open()
        self.registry = JobRegistry(
            max_finished=self.settings.max_finished_jobs,
            journal=self._journal,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.settings.breaker_failure_threshold,
            recovery_seconds=self.settings.breaker_recovery,
        )
        self.queue = ServiceQueue(
            capacity=self.settings.queue_capacity,
            workers=self.settings.workers,
            execute=self._run_job,
            registry=self.registry,
            watchdog_interval=self.settings.watchdog_interval,
            retry_after=self.settings.retry_after,
        )
        self._started_at = time.monotonic()
        self._degraded = False
        self._recovered = False
        self._recovery: "Dict[str, object]" = {
            "recovered_terminal": 0,
            "resubmitted": 0,
            "repaired_torn_tail": False,
        }
        self._stats_lock = threading.Lock()
        self._stats: "Dict[str, int]" = {
            "submitted": 0,
            "warm_hits": 0,
            "completed": 0,
            "failed": 0,
            "retries": 0,
            "quarantines": 0,
        }

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "CharacterizationService":
        """Recover journaled jobs, start worker and watchdog threads."""
        self._recover_jobs()
        self.queue.start()
        return self

    def begin_drain(self) -> None:
        """Stop admitting new work (SIGTERM step 1)."""
        self.queue.begin_drain()

    def drain(self, timeout: "float | None" = None) -> bool:
        """Finish or deadline-out in-flight jobs, stop the threads."""
        result = self.queue.drain(
            self.settings.drain_timeout if timeout is None else timeout
        )
        if self._journal is not None:
            # Cancelled/finished drain outcomes are already journaled;
            # release the append handle for the next incarnation.
            self._journal.close()
        return result

    def _recover_jobs(self) -> None:
        """Rebuild job state from the write-ahead journal (restart).

        Replays the journal a previous incarnation left behind (its
        torn tail, if the kill landed mid-append, was repaired when the
        journal was opened): terminal jobs are restored so their poll
        URLs answer exactly as before the crash; admitted-but-unfinished
        jobs are re-admitted through the normal bounded queue under
        their original ids with a fresh default deadline — re-running
        them is idempotent because all compute is keyed by recipes or
        content hashes, so recovered work reuses every warm cache entry.
        The journal is then compacted (one atomic rotation) to just the
        surviving jobs.
        """
        if self._journal is None or self._recovered:
            return
        self._recovered = True
        from ..errors import service_error_from_code

        records = self._journal.records
        truncation = self._journal.truncation
        admissions: "Dict[str, dict]" = {}
        terminals: "Dict[str, dict]" = {}
        floor = 0
        for record in records:
            job_id = record.get("job")
            if not isinstance(job_id, str):
                continue
            suffix = job_id.rsplit("-", 1)[-1]
            try:
                floor = max(floor, int(suffix, 16))
            except ValueError:
                pass
            if record.get("event") == "job-admitted":
                admissions[job_id] = record
            elif record.get("event") == "job-terminal":
                terminals[job_id] = record
        self.registry.resume_ids_above(floor)

        compacted = []
        interrupted = []
        for job_id, admission in admissions.items():
            terminal = terminals.get(job_id)
            if terminal is None:
                interrupted.append(admission)
                continue
            compacted.append(admission)
            compacted.append(terminal)
        compacted.extend(
            {"event": "job-admitted", "job": job_id,
             "kind": record.get("kind"), "params": {}}
            for job_id, record in terminals.items()
            if job_id not in admissions
        )
        compacted.extend(
            record for job_id, record in terminals.items()
            if job_id not in admissions
        )
        compacted.extend(interrupted)
        try:
            self._journal.rewrite(compacted)
        except OSError:
            logger.warning(
                "service journal compaction failed; continuing with "
                "the un-compacted journal", exc_info=True,
            )

        restored = 0
        for job_id, terminal in terminals.items():
            params = admissions.get(job_id, {}).get("params") or {}
            error = None
            if terminal.get("state") != "done":
                detail = terminal.get("error") or {}
                error = service_error_from_code(
                    str(detail.get("code", "internal")),
                    str(detail.get("message", "job failed")),
                    retry_after=detail.get("retry_after"),
                )
            self.registry.restore_terminal(
                job_id,
                str(terminal.get("kind", "characterize")),
                params,
                str(terminal.get("state", "failed")),
                result=terminal.get("result"),
                error=error,
            )
            restored += 1

        resubmitted = 0
        for admission in interrupted:
            job = self.registry.restore_queued(
                str(admission["job"]),
                str(admission.get("kind", "characterize")),
                admission.get("params") or {},
                time.monotonic() + self.settings.default_deadline,
            )
            try:
                self.queue.submit(job)
            except ServiceError as error:
                job.finish_error(error, state="cancelled")
                continue
            resubmitted += 1

        self._recovery = {
            "recovered_terminal": restored,
            "resubmitted": resubmitted,
            "repaired_torn_tail": truncation is not None,
        }
        if restored or resubmitted or truncation is not None:
            logger.info(
                "journal recovery: %d terminal job(s) restored, %d "
                "interrupted job(s) re-admitted%s",
                restored, resubmitted,
                ", torn journal tail repaired" if truncation else "",
            )

    @property
    def degraded(self) -> bool:
        """Whether the service is in compute-without-cache mode."""
        return self._degraded

    @property
    def draining(self) -> bool:
        return self.queue.draining

    # -- transport-facing entry point ----------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: "Dict[str, str] | None" = None,
        body: "dict | None" = None,
    ) -> "Tuple[int, dict, Dict[str, str]]":
        """Serve one request; returns (status, payload, headers).

        Never raises for request-level failures: every
        :class:`~repro.errors.ServiceError` becomes its documented
        (status, typed body) pair, with ``Retry-After`` attached for
        429/503 refusals.
        """
        query = query or {}
        try:
            return self._route(method, path, query, body)
        except ServiceError as error:
            headers = {}
            if error.retry_after is not None:
                headers["Retry-After"] = str(
                    max(1, int(round(error.retry_after)))
                )
            return error.status, error.body(), headers
        except ReproError as error:
            wrapped = ServiceError(f"{type(error).__name__}: {error}")
            return wrapped.status, wrapped.body(), {}

    def _route(
        self, method: str, path: str, query: dict, body: "dict | None"
    ) -> "Tuple[int, dict, Dict[str, str]]":
        if method == "GET":
            if path == "/healthz":
                from .health import liveness_body

                return 200, liveness_body(self._started_at), {}
            if path == "/readyz":
                from .health import readiness

                status, payload = readiness(
                    self.breaker.snapshot(),
                    self.queue.depth(),
                    self.queue.capacity,
                    self.draining,
                    self._degraded,
                    high_water_fraction=self.settings.ready_high_water,
                    job_counts=self.registry.counts(),
                    recovery=(
                        dict(self._recovery)
                        if self._journal is not None else None
                    ),
                )
                return status, payload, {}
            if path == "/v1/stats":
                return 200, self.stats(), {}
            if path.startswith("/v1/jobs/"):
                job_id = path[len("/v1/jobs/"):]
                return self._job_status(job_id, query)
        elif method == "POST":
            if path.startswith("/v1/"):
                kind = path[len("/v1/"):]
                if kind in KINDS:
                    return self._submit(kind, body or {}, query)
        raise NotFoundError(f"no route for {method} {path}")

    # -- submission ----------------------------------------------------

    def _submit(
        self, kind: str, body: dict, query: dict
    ) -> "Tuple[int, dict, Dict[str, str]]":
        if not isinstance(body, dict):
            raise BadRequestError("request body must be a JSON object")
        params = self._validate(kind, body)
        with self._stats_lock:
            self._stats["submitted"] += 1

        warm = self._try_warm(kind, params)
        if warm is not None:
            with self._stats_lock:
                self._stats["warm_hits"] += 1
            return 200, warm, {"X-Repro-Source": "cache"}

        deadline_seconds = self._deadline_seconds(body)
        probe = False
        if not self.queue.draining:
            allowed, probe = self.breaker.acquire()
            if not allowed:
                raise CircuitOpenError(
                    "circuit breaker is open after repeated worker "
                    "failures; cold work is refused",
                    retry_after=max(
                        self.breaker.retry_after(),
                        self.settings.retry_after,
                    ),
                )
        # A probe job owes the breaker exactly one outcome.  Workers
        # report success/failure; _settle_probe fires on the job's
        # terminal transition and returns an unreported slot (queue
        # refusal, watchdog expiry, drain cancellation, typed error),
        # so a probe can never leak and wedge the breaker half-open.
        job = self.registry.create(
            kind, params, time.monotonic() + deadline_seconds,
            probe=probe,
            on_terminal=self._settle_probe if probe else None,
        )
        try:
            self.queue.submit(job)
        except ServiceError as error:
            job.finish_error(error, state="cancelled")
            raise

        wait_for = self._wait_seconds(body, query, deadline_seconds)
        if wait_for > 0.0:
            job.wait(wait_for)
            return self._job_response(job)
        headers = {"Location": f"/v1/jobs/{job.id}"}
        return 202, job.status_body(), headers

    @staticmethod
    def _finite(raw, field: str, kind: str = "a number") -> float:
        """``float(raw)``, or 400 when it is not a finite number (JSON
        bodies may carry a bare ``NaN`` or ``Infinity``)."""
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise BadRequestError(
                f"{field} must be {kind}, got {raw!r}"
            ) from None
        if not math.isfinite(value):
            raise BadRequestError(f"{field} must be finite, got {raw!r}")
        return value

    def _deadline_seconds(self, body: dict) -> float:
        raw = body.get("deadline_ms", self.settings.default_deadline * 1000.0)
        seconds = self._finite(raw, "deadline_ms") / 1000.0
        if seconds <= 0.0:
            raise BadRequestError("deadline_ms must be positive")
        return min(seconds, self.settings.max_deadline)

    def _wait_seconds(
        self, body: dict, query: dict, deadline_seconds: float
    ) -> float:
        raw = body.get("wait", query.get("wait"))
        if raw in (None, False, "", "0", "false"):
            return 0.0
        if raw in (True, "true", "1"):
            return deadline_seconds + 0.25
        return min(
            self._finite(raw, "wait", "a boolean or number of seconds"),
            deadline_seconds + 0.25,
        )

    # -- validation ----------------------------------------------------

    def _validate(self, kind: str, body: dict) -> dict:
        from ..workloads import get_benchmark

        if kind == "dataset":
            names = body.get("benchmarks")
            if names is None:
                from ..workloads import all_benchmarks

                resolved = [b.full_name for b in all_benchmarks()]
            else:
                if not isinstance(names, (list, tuple)) or not names:
                    raise BadRequestError(
                        "benchmarks must be a non-empty list of names"
                    )
                try:
                    resolved = [
                        get_benchmark(str(name)).full_name
                        for name in names
                    ]
                except UnknownBenchmarkError as error:
                    raise NotFoundError(str(error)) from None
            return {
                "benchmarks": resolved,
                "trace_length": self._trace_length(body),
            }

        name = body.get("benchmark")
        if not isinstance(name, str) or not name:
            raise BadRequestError(
                "benchmark must be a non-empty string"
            )
        try:
            benchmark = get_benchmark(name)
        except UnknownBenchmarkError as error:
            raise NotFoundError(str(error)) from None
        params = {
            "benchmark": benchmark.full_name,
            "trace_length": self._trace_length(body),
            "seed": self._int_field(body, "seed", 0, minimum=0),
        }
        if kind == "phases":
            params["interval"] = self._int_field(
                body, "interval", 5_000, minimum=1
            )
            # The detector needs two whole intervals; a request that
            # cannot give them is the client's error, not a worker
            # casualty to retry (and charge to the circuit breaker).
            if params["trace_length"] // params["interval"] < 2:
                raise BadRequestError(
                    f"interval {params['interval']} gives fewer than 2 "
                    f"intervals of trace_length {params['trace_length']}"
                )
            signature = body.get("signature", "bbv")
            from ..phases.detect import SIGNATURE_KINDS

            if signature not in SIGNATURE_KINDS:
                raise BadRequestError(
                    f"unknown signature kind: {signature!r} "
                    f"(expected one of {SIGNATURE_KINDS})"
                )
            params["signature"] = signature
        return params

    def _trace_length(self, body: dict) -> int:
        length = self._int_field(
            body, "trace_length", self.config.trace_length, minimum=1
        )
        if length > self.settings.max_trace_length:
            raise BadRequestError(
                f"trace_length {length} exceeds the service ceiling "
                f"of {self.settings.max_trace_length}"
            )
        return length

    @staticmethod
    def _int_field(
        body: dict, field: str, default: int, minimum: int
    ) -> int:
        raw = body.get(field, default)
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise BadRequestError(
                f"{field} must be an integer, got {raw!r}"
            )
        if raw < minimum:
            raise BadRequestError(
                f"{field} must be >= {minimum}, got {raw}"
            )
        return raw

    # -- warm path -----------------------------------------------------

    def _warm_cache_dir(self) -> "Path | None":
        if self.cache_dir is None or self._degraded:
            return None
        return self.cache_dir

    def _try_warm(self, kind: str, params: dict) -> "Optional[dict]":
        """Serve from the caches without queueing.

        Characterize and HPC requests load their level's entry by the
        trace's :class:`~repro.synth.TraceRecipe`, so a warm hit reads no
        trace byte; dataset requests probe the dataset level.  Only
        complete hits count, and this never computes.
        """
        directory = self._warm_cache_dir()
        if directory is None:
            return None
        if kind == "dataset":
            from ..experiments.dataset import load_cached_dataset

            dataset = load_cached_dataset(
                self._config_for(params),
                benchmark_names=params["benchmarks"],
                cache_dir=directory,
            )
            return None if dataset is None else dataset_payload(dataset)
        if kind == "phases":
            return None  # no phase-level cache exists (yet)

        from ..perf import CharacterizationCache, HpcCache
        from ..synth import TraceRecipe
        from ..workloads import get_benchmark

        recipe = TraceRecipe.of(
            get_benchmark(params["benchmark"]).profile,
            params["trace_length"], params["seed"],
        )
        if kind == "characterize":
            payload = characterize_payload
            values = CharacterizationCache(directory).load(
                recipe, self._config_for(params)
            )
        else:
            payload = hpc_payload
            values = HpcCache(directory).load(recipe)
        if values is None:
            return None
        return payload(
            params["benchmark"], params["trace_length"],
            params["seed"], values,
        )

    def _config_for(self, params: dict) -> ReproConfig:
        length = params.get("trace_length", self.config.trace_length)
        if length == self.config.trace_length:
            return self.config
        return self.config.with_overrides(trace_length=length)

    # -- job polling ---------------------------------------------------

    def _job_status(
        self, job_id: str, query: dict
    ) -> "Tuple[int, dict, Dict[str, str]]":
        job = self.registry.get(job_id)
        raw_wait = query.get("wait")
        if raw_wait:
            wait_for = self._finite(raw_wait, "wait", "a number of seconds")
            job.wait(min(wait_for, max(job.remaining(), 0.0) + 0.25))
        return self._job_response(job)

    def _job_response(
        self, job: Job
    ) -> "Tuple[int, dict, Dict[str, str]]":
        if job.state == "done":
            return 200, job.result, {"X-Repro-Source": "computed"}
        if job.terminal:
            error = job.error or ServiceError("job failed")
            headers = {}
            if error.retry_after is not None:
                headers["Retry-After"] = str(
                    max(1, int(round(error.retry_after)))
                )
            return error.status, error.body(), headers
        return 202, job.status_body(), {}

    # -- job execution (worker threads) --------------------------------

    def _run_job(self, job: Job) -> None:
        if not job.start_running():
            return
        while True:
            job.attempts += 1
            if job.terminal or job.cancel_requested.is_set():
                return
            if job.overdue():
                job.finish_error(
                    DeadlineExceededError(
                        f"job {job.id} exceeded its deadline before "
                        f"attempt {job.attempts}"
                    ),
                    state=EXPIRED,
                )
                return
            try:
                payload = self._compute(job)
            except ServiceError as error:
                state = (
                    EXPIRED
                    if isinstance(error, DeadlineExceededError)
                    else FAILED
                )
                if job.finish_error(error, state=state):
                    with self._stats_lock:
                        self._stats["failed"] += 1
                return
            except Exception as error:  # worker casualty: retry
                job.claim_probe()
                self.breaker.record_failure()
                self._note_degradation()
                if job.attempts >= self.settings.max_attempts:
                    failure = ServiceError(
                        f"job failed after {job.attempts} attempt(s): "
                        f"{type(error).__name__}: {error}"
                    )
                    if job.finish_error(failure):
                        with self._stats_lock:
                            self._stats["failed"] += 1
                    return
                with self._stats_lock:
                    self._stats["retries"] += 1
                self._backoff(job)
                continue
            else:
                job.claim_probe()
                self.breaker.record_success()
                self._note_degradation()
                if job.finish_ok(payload):
                    with self._stats_lock:
                        self._stats["completed"] += 1
                return

    def _settle_probe(self, job: Job) -> None:
        """Terminal callback of a probe job: return an unreported slot.

        Fires exactly once, on whichever thread wins the job's terminal
        transition.  When a worker already reported the probe's outcome
        (``claim_probe`` lost), the slot is settled and nothing happens
        here; otherwise the probe produced no infrastructure evidence
        and the half-open slot goes back to the breaker.
        """
        if job.claim_probe():
            self.breaker.release_probe()

    def _backoff(self, job: Job) -> None:
        from ..experiments import retry_delay

        delay = retry_delay(
            self.settings.retry_backoff, job.attempts, job.id
        )
        time.sleep(max(0.0, min(delay, job.remaining())))

    def _checkpoint(self, job: Job) -> None:
        """Cooperative deadline/cancel check between compute stages."""
        if job.cancel_requested.is_set() or job.overdue():
            raise DeadlineExceededError(
                f"job {job.id} exceeded its deadline mid-computation"
            )

    def _note_degradation(self) -> None:
        if self.cache_dir is None or self._degraded:
            return
        from ..perf import is_cache_degraded

        if is_cache_degraded(self.cache_dir):
            self._degraded = True
            logger.warning(
                "cache directory %s degraded; serving "
                "compute-without-cache from now on", self.cache_dir,
            )

    def _compute_cache_dir(self) -> "str | None":
        directory = self._warm_cache_dir()
        return None if directory is None else str(directory)

    def _compute(self, job: Job) -> dict:
        from ..perf import faults, integrity

        faults.maybe_fail_service_job(
            job.params.get("benchmark", job.kind)
        )
        try:
            if job.kind == "characterize":
                return self._compute_characterize(job)
            if job.kind == "hpc":
                return self._compute_hpc(job)
            if job.kind == "phases":
                return self._compute_phases(job)
            return self._compute_dataset(job)
        finally:
            # Verified loads quarantine corrupt entries as a side
            # effect; fold them into the operational counters whether
            # the attempt succeeded or not.
            events = integrity.drain_quarantine_log()
            if events:
                with self._stats_lock:
                    self._stats["quarantines"] += len(events)

    def _job_trace(self, job: Job):
        from ..perf import cached_generate_trace
        from ..workloads import get_benchmark

        benchmark = get_benchmark(job.params["benchmark"])
        return cached_generate_trace(
            benchmark.profile,
            job.params["trace_length"],
            seed=job.params["seed"],
            cache_dir=self._compute_cache_dir(),
        )

    def _compute_characterize(self, job: Job) -> dict:
        from ..perf import cached_characterize

        trace = self._job_trace(job)
        self._checkpoint(job)
        vector = cached_characterize(
            trace, self._config_for(job.params), self._compute_cache_dir()
        )
        return characterize_payload(
            job.params["benchmark"], job.params["trace_length"],
            job.params["seed"], vector.values,
        )

    def _compute_hpc(self, job: Job) -> dict:
        from ..perf import cached_collect_hpc

        trace = self._job_trace(job)
        self._checkpoint(job)
        vector = cached_collect_hpc(
            trace, cache_dir=self._compute_cache_dir()
        )
        return hpc_payload(
            job.params["benchmark"], job.params["trace_length"],
            job.params["seed"], vector.values,
        )

    def _compute_phases(self, job: Job) -> dict:
        from ..phases import detect_phases, simulation_points

        trace = self._job_trace(job)
        self._checkpoint(job)
        result = detect_phases(
            trace,
            interval=job.params["interval"],
            seed=job.params["seed"],
            signature=job.params["signature"],
            config=self._config_for(job.params),
        )
        self._checkpoint(job)
        points = simulation_points(result)
        return phases_payload(
            job.params["benchmark"], job.params["trace_length"],
            job.params["seed"], job.params["interval"],
            job.params["signature"], result, points,
        )

    def _compute_dataset(self, job: Job) -> dict:
        from ..experiments import build_dataset
        from ..workloads import get_benchmark

        population = [
            get_benchmark(name) for name in job.params["benchmarks"]
        ]
        directory = self._compute_cache_dir()
        try:
            dataset = build_dataset(
                self._config_for(job.params),
                benchmarks=population,
                cache_dir=None if directory is None else Path(directory),
                use_cache=directory is not None,
                jobs=self.settings.dataset_jobs,
                strict=True,
                max_attempts=self.settings.max_attempts,
                retry_backoff=self.settings.retry_backoff,
                deadline=max(job.remaining(), 0.01),
            )
        except DatasetBuildError as error:
            report = getattr(error, "report", None)
            self._record_pool_rebuilds(job, report)
            self._record_report_quarantines(report)
            if job.overdue():
                raise DeadlineExceededError(
                    f"dataset job {job.id} exceeded its deadline: "
                    f"{error}"
                ) from error
            raise BrokenProcessPool(str(error)) from error
        self._record_pool_rebuilds(job, dataset.report)
        self._record_report_quarantines(dataset.report)
        return dataset_payload(dataset)

    def _record_pool_rebuilds(self, job: Job, report) -> None:
        """Repeated ``BrokenProcessPool`` rebuilds feed the breaker."""
        if report is None or not report.pool_rebuilds:
            return
        job.claim_probe()
        for _ in range(report.pool_rebuilds):
            self.breaker.record_failure()

    def _record_report_quarantines(self, report) -> None:
        """Quarantines hit inside worker *processes* never touch this
        process's quarantine log; the build report carries them."""
        if report is None or not report.quarantines:
            return
        with self._stats_lock:
            self._stats["quarantines"] += len(report.quarantines)

    # -- stats ---------------------------------------------------------

    def stats(self) -> dict:
        """Operational counters (also exposed at ``/v1/stats``)."""
        with self._stats_lock:
            counters = dict(self._stats)
        counters.update({
            "expired": self.queue.expired_total,
            "rejected": self.queue.rejected_total,
            "queue_depth": self.queue.depth(),
            "queue_capacity": self.queue.capacity,
            "breaker": self.breaker.snapshot(),
            "cache_degraded": self._degraded,
            "draining": self.draining,
            "jobs": self.registry.counts(),
        })
        if self._journal is not None:
            counters["journal"] = dict(self._recovery)
        return counters

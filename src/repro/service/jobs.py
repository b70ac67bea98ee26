"""Job lifecycle and registry for the characterization service.

A *job* is one admitted cold request (warm cache hits never
become jobs — they answer 200 inline).  Jobs move through a fixed state
machine::

    queued -> running -> done | failed
         \\-> expired (deadline passed while queued or running)
         \\-> cancelled (drain timeout)

Transitions into a terminal state are first-writer-wins under the job's
lock: a watchdog that expires an overdue job wins against the worker
thread that later finishes the abandoned computation, so a client can
never observe a result after being told 504.  The registry keeps a
bounded history of terminal jobs (oldest evicted first), so a service
under sustained traffic holds O(capacity + history) job records, never
unbounded memory.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from ..errors import JobNotFoundError, ServiceError

logger = logging.getLogger("repro.service")

#: Job states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
EXPIRED = "expired"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, EXPIRED, CANCELLED})


class Job:
    """One admitted cold request.

    Attributes:
        id: opaque job id (path segment of the poll URL).
        kind: request kind (``characterize``/``hpc``/``phases``/
            ``dataset``).
        params: validated request parameters.
        deadline: absolute ``time.monotonic()`` instant the request
            must finish by.
        state: current lifecycle state.
        result: response payload dict (set once, on ``done``).
        error: the :class:`~repro.errors.ServiceError` explaining a
            ``failed``/``expired``/``cancelled`` outcome.
        attempts: compute attempts started so far.
        probe: whether this job consumed the circuit breaker's
            half-open probe slot at admission (it then owes the
            breaker exactly one outcome; see :meth:`claim_probe`).
    """

    def __init__(
        self,
        job_id: str,
        kind: str,
        params: dict,
        deadline: float,
        probe: bool = False,
        on_terminal: "Optional[Callable[[Job], None]]" = None,
    ):
        self.id = job_id
        self.kind = kind
        self.params = params
        self.deadline = deadline
        self.created_at = time.monotonic()
        self.state = QUEUED
        self.result: Optional[dict] = None
        self.error: Optional[ServiceError] = None
        self.attempts = 0
        self.probe = probe
        self.cancel_requested = threading.Event()
        self._terminal = threading.Event()
        self._lock = threading.Lock()
        self._probe_claimed = False
        self._on_terminal = on_terminal

    # -- time ----------------------------------------------------------

    def remaining(self) -> float:
        """Seconds until the deadline (negative once overdue)."""
        return self.deadline - time.monotonic()

    def overdue(self) -> bool:
        return self.remaining() <= 0.0

    # -- transitions (first terminal writer wins) ----------------------

    def start_running(self) -> bool:
        """Move queued -> running; False when already terminal."""
        with self._lock:
            if self.state != QUEUED:
                return False
            self.state = RUNNING
            return True

    def finish_ok(self, result: dict) -> bool:
        """Record a successful result; False when the job already
        reached a terminal state (e.g. expired by the watchdog — the
        late result is abandoned, never served)."""
        with self._lock:
            if self.state in TERMINAL_STATES:
                return False
            self.state = DONE
            self.result = result
        self._terminal.set()
        self._fire_on_terminal()
        return True

    def finish_error(
        self, error: ServiceError, state: str = FAILED
    ) -> bool:
        """Record a failure/expiry/cancellation; first writer wins."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"not a terminal state: {state!r}")
        with self._lock:
            if self.state in TERMINAL_STATES:
                return False
            self.state = state
            self.error = error
        self.cancel_requested.set()
        self._terminal.set()
        self._fire_on_terminal()
        return True

    def _fire_on_terminal(self) -> None:
        # Only the thread that won the terminal transition reaches
        # here, so the callback fires exactly once per job — every
        # terminal path (worker outcome, watchdog expiry, drain
        # cancellation, admission refusal) goes through it.
        callback, self._on_terminal = self._on_terminal, None
        if callback is not None:
            callback(self)

    def claim_probe(self) -> bool:
        """Claim the right to report this job's probe outcome.

        The first claimant (a worker about to call the breaker's
        ``record_success``/``record_failure``, or the terminal
        callback about to ``release_probe``) wins; everyone else gets
        False, so a probe slot is settled exactly once and a late
        release can never clear a *different* submission's probe.
        Always False for jobs that never owned the probe slot.
        """
        with self._lock:
            if not self.probe or self._probe_claimed:
                return False
            self._probe_claimed = True
            return True

    # -- observation ---------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until the job is terminal; True when it finished."""
        return self._terminal.wait(timeout)

    def status_body(self) -> dict:
        """The 202 poll body for a not-yet-finished job."""
        return {
            "job": self.id,
            "kind": self.kind,
            "state": self.state,
            "attempts": self.attempts,
            "deadline_in": round(max(0.0, self.remaining()), 3),
            "poll": f"/v1/jobs/{self.id}",
        }


class JobRegistry:
    """Thread-safe id -> :class:`Job` map with bounded terminal history.

    Args:
        max_finished: terminal jobs retained for polling before the
            oldest are evicted (keeps the registry's memory bounded
            under sustained traffic).
        journal: optional opened
            :class:`~repro.perf.journal.WriteAheadJournal`.  When set,
            every admission and every terminal transition is appended
            (write-ahead, fsync'd) before the rest of the service
            relies on it, so a SIGKILLed service can be restarted with
            its terminal jobs intact and its interrupted jobs known.
            Journal IO failures are logged and swallowed — durability
            degrades, serving never stops.
    """

    def __init__(self, max_finished: int = 256, journal=None):
        self.max_finished = max_finished
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._journal = journal

    # -- journal plumbing ----------------------------------------------

    def _journal_append(self, record: dict) -> None:
        if self._journal is None:
            return
        try:
            self._journal.append(record)
        # repro: lint-ok[typed-errors] journal IO failure degrades
        # durability, never serving: log and continue by design
        except Exception:
            logger.warning(
                "job journal append failed; continuing without "
                "durability for this event", exc_info=True,
            )

    def _journal_terminal(self, job: Job) -> None:
        record = {
            "event": "job-terminal",
            "job": job.id,
            "kind": job.kind,
            "state": job.state,
        }
        if job.state == DONE:
            record["result"] = job.result
        elif job.error is not None:
            record["error"] = {
                "code": job.error.code,
                "message": str(job.error),
                "retry_after": job.error.retry_after,
            }
        self._journal_append(record)

    def _terminal_hook(
        self, inner: "Optional[Callable[[Job], None]]"
    ) -> "Callable[[Job], None]":
        def hook(job: Job) -> None:
            self._journal_terminal(job)
            if inner is not None:
                inner(job)

        return hook

    def resume_ids_above(self, floor: int) -> None:
        """Never re-issue ids up to ``floor`` (journal recovery)."""
        with self._lock:
            self._ids = itertools.count(max(next(self._ids), floor + 1))

    def create(
        self,
        kind: str,
        params: dict,
        deadline: float,
        probe: bool = False,
        on_terminal: "Optional[Callable[[Job], None]]" = None,
    ) -> Job:
        """Register a new queued job.

        ``probe``/``on_terminal`` are set at construction — before the
        job is visible to the watchdog — so even a job that expires
        instantly still fires its terminal callback.  With a journal
        attached, the admission is durable before the job exists and
        the terminal transition is journaled from the job's terminal
        callback (chained in front of ``on_terminal``).
        """
        with self._lock:
            job_id = f"{kind}-{next(self._ids):08x}"
            callback = (
                self._terminal_hook(on_terminal)
                if self._journal is not None else on_terminal
            )
            self._journal_append({
                "event": "job-admitted",
                "job": job_id,
                "kind": kind,
                "params": params,
            })
            job = Job(
                job_id, kind, params, deadline,
                probe=probe, on_terminal=callback,
            )
            self._jobs[job_id] = job
            self._evict_locked()
            return job

    def restore_terminal(
        self,
        job_id: str,
        kind: str,
        params: dict,
        state: str,
        result: "Optional[dict]" = None,
        error: "Optional[ServiceError]" = None,
    ) -> Job:
        """Re-register a journaled terminal job after a restart.

        The job answers polls exactly as before the crash (the journal
        holds the full result payload / typed error); no callbacks
        fire and nothing is re-journaled.
        """
        if state not in TERMINAL_STATES:
            raise ValueError(f"not a terminal state: {state!r}")
        job = Job(job_id, kind, params, deadline=time.monotonic())
        job.state = state
        job.result = result
        job.error = error
        job._terminal.set()
        with self._lock:
            self._jobs[job_id] = job
            self._evict_locked()
        return job

    def restore_queued(
        self, job_id: str, kind: str, params: dict, deadline: float
    ) -> Job:
        """Re-register an interrupted job for re-execution.

        The job keeps its pre-crash id (poll URLs stay valid), gets a
        fresh deadline, and carries the journal terminal hook so its
        eventual outcome is recorded like any other job's.  Its
        admission is not re-appended here — recovery compacts the
        journal and the compacted image already carries it.
        """
        job = Job(
            job_id, kind, params, deadline,
            on_terminal=(
                self._terminal_hook(None)
                if self._journal is not None else None
            ),
        )
        with self._lock:
            self._jobs[job_id] = job
            self._evict_locked()
        return job

    def get(self, job_id: str) -> Job:
        """Look a job up.

        Raises:
            JobNotFoundError: unknown (or already-evicted) id.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"unknown job id: {job_id!r}")
        return job

    def active(self) -> "List[Job]":
        """Jobs not yet terminal (the watchdog's scan set)."""
        with self._lock:
            return [
                job for job in self._jobs.values() if not job.terminal
            ]

    def counts(self) -> "Dict[str, int]":
        """State -> job count (for health/stats bodies)."""
        with self._lock:
            counts: "Dict[str, int]" = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def _evict_locked(self) -> None:
        terminal = [
            job_id for job_id, job in self._jobs.items() if job.terminal
        ]
        excess = len(terminal) - self.max_finished
        for job_id in terminal[:max(0, excess)]:
            del self._jobs[job_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

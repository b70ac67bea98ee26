"""Unit tests for the service's robustness primitives.

Covers the pieces the HTTP fault matrix builds on: the circuit
breaker's state machine (including the single half-open probe slot),
the bounded admission queue and its deadline watchdog, the job
registry's first-writer-wins transitions and bounded terminal history,
the readiness policy, and the deterministic per-token retry jitter
(bounds, determinism, the :data:`_RETRY_BACKOFF_CAP` ceiling).
"""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    JobNotFoundError,
    QueueFullError,
    ServiceDrainingError,
    ServiceError,
)
from repro.experiments import retry_delay
from repro.experiments.dataset import _RETRY_BACKOFF_CAP
from repro.service import CircuitBreaker, JobRegistry, ServiceQueue
from repro.service.health import readiness


class FakeClock:
    """Controllable monotonic clock for breaker tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(
        failure_threshold=3, recovery_seconds=5.0, clock=clock
    )


class TestCircuitBreaker:

    def test_closed_allows_and_successes_keep_it_closed(self, breaker):
        assert breaker.state == "closed"
        for _ in range(10):
            assert breaker.allow()
            breaker.record_success()
        assert breaker.state == "closed"

    def test_opens_after_threshold_consecutive_failures(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)

    def test_success_resets_the_consecutive_count(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_grants_exactly_one_probe(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow()       # the probe slot
        assert not breaker.allow()   # everyone else keeps waiting
        assert not breaker.allow()

    def test_probe_success_closes(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_the_clock(
        self, breaker, clock
    ):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(5.0)
        assert breaker.snapshot()["trips"] == 2
        # A second recovery window admits a fresh probe.
        clock.advance(5.0)
        assert breaker.allow()

    def test_release_probe_returns_the_slot(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        # The probe submission was refused downstream (queue full)
        # before producing any evidence: the slot must come back.
        breaker.release_probe()
        assert breaker.allow()

    def test_acquire_reports_probe_ownership(self, breaker, clock):
        # Closed: admitted, but no probe slot was taken — releasing
        # on a downstream refusal must not clear anyone else's probe.
        assert breaker.acquire() == (True, False)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.acquire() == (False, False)
        clock.advance(5.0)
        assert breaker.acquire() == (True, True)   # the probe slot
        assert breaker.acquire() == (False, False)

    def test_snapshot_shape(self, breaker):
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["failure_threshold"] == 3
        assert snap["retry_after"] == 0.0
        assert snap["trips"] == 0

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestJobLifecycle:

    def test_first_terminal_writer_wins(self):
        registry = JobRegistry()
        job = registry.create(
            "characterize", {}, time.monotonic() + 10.0
        )
        assert job.start_running()
        assert job.finish_error(
            DeadlineExceededError("expired"), state="expired"
        )
        # The worker finishing late cannot overwrite the 504.
        assert not job.finish_ok({"kind": "characterize"})
        assert job.state == "expired"
        assert job.result is None
        assert job.error.status == 504
        assert job.cancel_requested.is_set()

    def test_finish_ok_blocks_later_errors(self):
        registry = JobRegistry()
        job = registry.create("hpc", {}, time.monotonic() + 10.0)
        assert job.finish_ok({"kind": "hpc"})
        assert not job.finish_error(ServiceError("late"))
        assert job.state == "done"
        assert job.error is None

    def test_terminal_states_only(self):
        registry = JobRegistry()
        job = registry.create("hpc", {}, time.monotonic() + 10.0)
        with pytest.raises(ValueError):
            job.finish_error(ServiceError("bad"), state="running")

    def test_start_running_refuses_terminal_jobs(self):
        registry = JobRegistry()
        job = registry.create("hpc", {}, time.monotonic() + 10.0)
        job.finish_error(ServiceError("dead"))
        assert not job.start_running()

    def test_status_body(self):
        registry = JobRegistry()
        job = registry.create("phases", {}, time.monotonic() + 10.0)
        body = job.status_body()
        assert body["job"] == job.id
        assert body["kind"] == "phases"
        assert body["state"] == "queued"
        assert body["poll"] == f"/v1/jobs/{job.id}"
        assert 0.0 < body["deadline_in"] <= 10.0

    def test_wait_returns_on_completion(self):
        registry = JobRegistry()
        job = registry.create("hpc", {}, time.monotonic() + 10.0)
        assert not job.wait(0.01)
        job.finish_ok({})
        assert job.wait(0.01)

    def test_on_terminal_fires_exactly_once_for_the_winner(self):
        registry = JobRegistry()
        fired = []
        job = registry.create(
            "hpc", {}, time.monotonic() + 10.0,
            on_terminal=fired.append,
        )
        assert job.finish_error(ServiceError("first"))
        assert not job.finish_error(ServiceError("late loser"))
        assert not job.finish_ok({})
        assert fired == [job]

    def test_on_terminal_fires_on_success_too(self):
        registry = JobRegistry()
        fired = []
        job = registry.create(
            "hpc", {}, time.monotonic() + 10.0,
            on_terminal=fired.append,
        )
        assert job.finish_ok({})
        assert fired == [job]

    def test_claim_probe_is_one_shot_and_probe_jobs_only(self):
        registry = JobRegistry()
        plain = registry.create("hpc", {}, time.monotonic() + 10.0)
        assert not plain.claim_probe()
        probe = registry.create(
            "hpc", {}, time.monotonic() + 10.0, probe=True
        )
        assert probe.claim_probe()
        assert not probe.claim_probe()


class TestJobRegistry:

    def test_ids_are_unique_and_kind_prefixed(self):
        registry = JobRegistry()
        ids = {
            registry.create("hpc", {}, time.monotonic() + 1).id
            for _ in range(32)
        }
        assert len(ids) == 32
        assert all(job_id.startswith("hpc-") for job_id in ids)

    def test_get_unknown_raises_typed_404(self):
        registry = JobRegistry()
        with pytest.raises(JobNotFoundError) as excinfo:
            registry.get("characterize-ffffffff")
        assert excinfo.value.status == 404

    def test_bounded_terminal_history_evicts_oldest(self):
        registry = JobRegistry(max_finished=2)
        finished = []
        for _ in range(5):
            job = registry.create("hpc", {}, time.monotonic() + 1)
            job.finish_ok({})
            finished.append(job)
        registry.create("hpc", {}, time.monotonic() + 1)  # triggers evict
        with pytest.raises(JobNotFoundError):
            registry.get(finished[0].id)
        # The newest terminal jobs are still pollable.
        assert registry.get(finished[-1].id) is finished[-1]

    def test_active_excludes_terminal(self):
        registry = JobRegistry()
        alive = registry.create("hpc", {}, time.monotonic() + 1)
        dead = registry.create("hpc", {}, time.monotonic() + 1)
        dead.finish_error(ServiceError("x"))
        assert registry.active() == [alive]
        counts = registry.counts()
        assert counts == {"queued": 1, "failed": 1}


class TestServiceQueue:

    def _queue(self, capacity=2, workers=1, execute=None, **kwargs):
        registry = JobRegistry()
        queue = ServiceQueue(
            capacity=capacity,
            workers=workers,
            execute=execute or (lambda job: job.finish_ok({})),
            registry=registry,
            watchdog_interval=0.01,
            **kwargs,
        )
        return queue, registry

    def test_admission_is_strictly_bounded(self):
        queue, registry = self._queue(capacity=2)
        # Workers not started: jobs stay queued.
        for _ in range(2):
            queue.submit(
                registry.create("hpc", {}, time.monotonic() + 10)
            )
        overflow = registry.create("hpc", {}, time.monotonic() + 10)
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(overflow)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        assert queue.rejected_total == 1
        assert queue.depth() == 2

    def test_draining_refuses_submissions(self):
        queue, registry = self._queue()
        queue.begin_drain()
        with pytest.raises(ServiceDrainingError) as excinfo:
            queue.submit(
                registry.create("hpc", {}, time.monotonic() + 10)
            )
        assert excinfo.value.status == 503

    def test_workers_execute_submitted_jobs(self):
        queue, registry = self._queue(capacity=8, workers=2)
        queue.start()
        jobs = [
            registry.create("hpc", {}, time.monotonic() + 10)
            for _ in range(4)
        ]
        for job in jobs:
            queue.submit(job)
        for job in jobs:
            assert job.wait(2.0)
            assert job.state == "done"
        assert queue.drain(1.0)

    def test_watchdog_expires_overdue_running_jobs(self):
        # The executor wedges until cancelled; only the watchdog can
        # answer the client.
        queue, registry = self._queue(
            execute=lambda job: job.cancel_requested.wait(5.0)
        )
        queue.start()
        job = registry.create("hpc", {}, time.monotonic() + 0.05)
        queue.submit(job)
        assert job.wait(2.0)
        assert job.state == "expired"
        assert job.error.status == 504
        assert queue.expired_total == 1
        assert queue.drain(1.0)

    def test_watchdog_expires_jobs_stuck_in_the_queue(self):
        # One worker wedged on the first job: the second job never
        # leaves the queue and must be expired right there.
        queue, registry = self._queue(
            workers=1,
            execute=lambda job: job.cancel_requested.wait(5.0),
        )
        queue.start()
        blocker = registry.create("hpc", {}, time.monotonic() + 30.0)
        queue.submit(blocker)
        stuck = registry.create("hpc", {}, time.monotonic() + 0.05)
        queue.submit(stuck)
        assert stuck.wait(2.0)
        assert stuck.state == "expired"
        blocker.finish_error(ServiceError("unblock"))
        assert queue.drain(1.0)

    def test_drain_cancels_stragglers_with_typed_error(self):
        queue, registry = self._queue(
            execute=lambda job: job.cancel_requested.wait(5.0)
        )
        queue.start()
        job = registry.create("hpc", {}, time.monotonic() + 30.0)
        queue.submit(job)
        time.sleep(0.05)
        clean = queue.drain(0.1)
        assert not clean
        assert job.state == "cancelled"
        assert job.error.status == 503
        assert job.error.code == "cancelled"

    def test_drain_is_clean_when_jobs_finish(self):
        queue, registry = self._queue()
        queue.start()
        job = registry.create("hpc", {}, time.monotonic() + 10)
        queue.submit(job)
        assert job.wait(2.0)
        assert queue.drain(1.0)

    def test_invalid_construction(self):
        registry = JobRegistry()
        with pytest.raises(ValueError):
            ServiceQueue(0, 1, lambda job: None, registry)
        with pytest.raises(ValueError):
            ServiceQueue(1, 0, lambda job: None, registry)


class TestReadiness:

    CLOSED = {"state": "closed"}
    OPEN = {"state": "open"}

    def test_ready_in_the_steady_state(self):
        status, body = readiness(self.CLOSED, 0, 10, False, False)
        assert status == 200
        assert body["ready"] is True

    def test_open_breaker_unreadies(self):
        status, body = readiness(self.OPEN, 0, 10, False, False)
        assert status == 503
        assert body["ready"] is False

    def test_saturated_queue_unreadies(self):
        status, body = readiness(self.CLOSED, 8, 10, False, False)
        assert status == 503
        assert body["queue"]["saturated"] is True

    def test_draining_unreadies(self):
        status, _ = readiness(self.CLOSED, 0, 10, True, False)
        assert status == 503

    def test_degraded_cache_alone_stays_ready(self):
        # Degraded mode keeps serving (compute-without-cache); only the
        # flag is reported.
        status, body = readiness(self.CLOSED, 0, 10, False, True)
        assert status == 200
        assert body["cache_degraded"] is True

    def test_job_counts_are_attached_when_given(self):
        _, body = readiness(
            self.CLOSED, 0, 10, False, False, job_counts={"done": 3}
        )
        assert body["jobs"] == {"done": 3}


class TestRetryJitter:
    """Deterministic per-token jitter in the retry sleeps."""

    def test_cap_is_the_ceiling_with_or_without_jitter(self):
        for index in range(20):
            assert retry_delay(0.5, 11, f"x{index}") <= _RETRY_BACKOFF_CAP

    def test_zero_backoff_never_sleeps(self):
        assert retry_delay(0.0, 6, "x") == 0.0
        assert retry_delay(-1.0, 6, "x") == 0.0

    @pytest.mark.parametrize("round_index", [0, 1, 2, 5])
    def test_jitter_bounds(self, round_index):
        base = min(0.1 * 2 ** round_index, _RETRY_BACKOFF_CAP)
        for index in range(50):
            jittered = retry_delay(0.1, round_index + 1, f"bench{index}")
            assert base / 2.0 <= jittered <= base

    def test_deterministic_for_same_seed_token_round(self):
        assert retry_delay(0.1, 3, "mcf") == retry_delay(0.1, 3, "mcf")

    def test_desynchronizes_across_seeds_and_tokens(self):
        by_token = {retry_delay(0.1, 3, f"job{index}") for index in range(8)}
        assert len(by_token) > 1
        assert retry_delay(0.1, 3, "mcf") != retry_delay(0.1, 3, "swim")

"""End-to-end fault matrix for the characterization service.

Every injected fault at a service seam must yield the documented typed
status code while ``/healthz`` stays 200, and a faulted-then-recovered
response must be bit-for-bit identical to a cold serial computation:

==============================  =====================================
injected condition              documented response
==============================  =====================================
queue saturated                 429 ``queue_full`` + ``Retry-After``
slow handler past the deadline  504 ``deadline_exceeded`` (expired)
worker crash mid-request        retried; success is byte-identical
repeated worker failures        503 ``circuit_open`` + ``Retry-After``
cache degrades under load       200, compute-without-cache
SIGTERM                         503 ``draining``, then a clean drain
==============================  =====================================

All tests talk real HTTP to a ``ThreadingHTTPServer`` bound to an
ephemeral port; the last one exercises the actual ``repro serve``
process and its SIGTERM handler.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.config import ReproConfig
from repro.experiments.dataset import _MEMORY_CACHE
from repro.perf import (
    cached_characterize,
    cached_collect_hpc,
    cached_generate_trace,
    faults,
    reset_cache_degradation,
)
from repro.service import (
    CharacterizationService,
    ServiceSettings,
    characterize_payload,
    hpc_payload,
    make_server,
)
from repro.workloads import get_benchmark

SMALL_CONFIG = ReproConfig(trace_length=2_000)
BENCH = "spec2000/mcf/ref"


@dataclass
class Response:
    status: int
    headers: dict
    raw: bytes

    @property
    def body(self) -> dict:
        return json.loads(self.raw)

    @property
    def error_code(self) -> str:
        return self.body["error"]["code"]


class Client:
    """Minimal JSON-over-HTTP client against the live server."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def request(self, method, path, body=None, raw_body=None) -> Response:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=30
        )
        try:
            data = raw_body if raw_body is not None else (
                json.dumps(body).encode() if body is not None else None
            )
            conn.request(
                method, path, data,
                {"Content-Type": "application/json"} if data else {},
            )
            response = conn.getresponse()
            return Response(
                response.status,
                dict(response.getheaders()),
                response.read(),
            )
        finally:
            conn.close()

    def get(self, path) -> Response:
        return self.request("GET", path)

    def post(self, path, body=None, **kwargs) -> Response:
        return self.request("POST", path, body=body, **kwargs)


@pytest.fixture(autouse=True)
def _clean_global_state():
    _MEMORY_CACHE.clear()
    reset_cache_degradation()
    yield
    _MEMORY_CACHE.clear()
    reset_cache_degradation()


@pytest.fixture()
def live_service(tmp_path):
    """Factory starting a service + HTTP server on an ephemeral port."""
    running = []

    def start(**overrides):
        kwargs = dict(
            cache_dir=tmp_path / "cache",
            workers=2,
            queue_capacity=8,
            default_deadline=20.0,
            retry_backoff=0.01,
            watchdog_interval=0.02,
            drain_timeout=5.0,
        )
        kwargs.update(overrides)
        service = CharacterizationService(
            config=SMALL_CONFIG, settings=ServiceSettings(**kwargs)
        ).start()
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        running.append((service, server, thread))
        host, port = server.server_address[:2]
        return service, Client(host, port)

    yield start
    for service, server, thread in running:
        service.begin_drain()
        service.drain(2.0)
        server.shutdown()
        server.server_close()
        thread.join(timeout=2.0)


def expected_characterize_bytes() -> bytes:
    """The cold serial characterize body, computed without the service
    (and without any cache): the bit-for-bit reference."""
    benchmark = get_benchmark(BENCH)
    trace = cached_generate_trace(
        benchmark.profile, SMALL_CONFIG.trace_length, seed=0,
        cache_dir=None,
    )
    vector = cached_characterize(trace, SMALL_CONFIG, None)
    return json.dumps(characterize_payload(
        BENCH, SMALL_CONFIG.trace_length, 0, vector.values
    )).encode("utf-8")


def expected_hpc_bytes() -> bytes:
    benchmark = get_benchmark(BENCH)
    trace = cached_generate_trace(
        benchmark.profile, SMALL_CONFIG.trace_length, seed=0,
        cache_dir=None,
    )
    vector = cached_collect_hpc(trace, cache_dir=None)
    return json.dumps(hpc_payload(
        BENCH, SMALL_CONFIG.trace_length, 0, vector.values
    )).encode("utf-8")


class TestWarmAndColdPaths:

    def test_cold_then_warm_characterize_is_bit_for_bit(
        self, live_service
    ):
        _, client = live_service()
        cold = client.post(
            "/v1/characterize", {"benchmark": "mcf", "wait": True}
        )
        assert cold.status == 200
        assert cold.headers["X-Repro-Source"] == "computed"
        warm = client.post("/v1/characterize", {"benchmark": "mcf"})
        assert warm.status == 200
        assert warm.headers["X-Repro-Source"] == "cache"
        assert warm.raw == cold.raw
        assert cold.raw == expected_characterize_bytes()

    def test_hpc_round_trip_matches_cold_serial(self, live_service):
        _, client = live_service()
        cold = client.post("/v1/hpc", {"benchmark": "mcf", "wait": True})
        assert cold.status == 200
        assert cold.raw == expected_hpc_bytes()
        warm = client.post("/v1/hpc", {"benchmark": "mcf"})
        assert warm.headers["X-Repro-Source"] == "cache"
        assert warm.raw == cold.raw

    def test_async_submit_then_poll(self, live_service):
        _, client = live_service()
        accepted = client.post(
            "/v1/characterize", {"benchmark": "mcf"}
        )
        assert accepted.status == 202
        body = accepted.body
        assert body["kind"] == "characterize"
        assert accepted.headers["Location"] == body["poll"]
        result = client.get(f"{body['poll']}?wait=10")
        assert result.status == 200
        assert result.headers["X-Repro-Source"] == "computed"
        assert result.raw == expected_characterize_bytes()

    def test_phases_round_trip(self, live_service):
        _, client = live_service()
        response = client.post(
            "/v1/phases",
            {"benchmark": "mcf", "interval": 500, "wait": True},
        )
        assert response.status == 200
        body = response.body
        assert body["kind"] == "phases"
        assert body["k"] >= 1
        assert len(body["assignments"]) == (
            SMALL_CONFIG.trace_length // 500
        )
        assert len(body["simulation_points"]) == body["k"]

    def test_warm_hits_read_no_trace(self, live_service, tmp_path):
        """Warm characterize/HPC hits are keyed by the trace's recipe:
        with every trace entry deleted they still come from the cache,
        byte for byte."""
        _, client = live_service()
        cold = {
            kind: client.post(f"/v1/{kind}", {"benchmark": "mcf",
                                              "wait": True})
            for kind in ("characterize", "hpc")
        }
        traces = list((tmp_path / "cache").glob("trace-*.npz"))
        assert traces
        for path in traces:
            path.unlink()
        for kind, computed in cold.items():
            warm = client.post(f"/v1/{kind}", {"benchmark": "mcf"})
            assert warm.status == 200
            assert warm.headers["X-Repro-Source"] == "cache"
            assert warm.raw == computed.raw
        assert not list((tmp_path / "cache").glob("trace-*.npz"))

    def test_dataset_cold_then_warm(self, live_service):
        _, client = live_service()
        request = {
            "benchmarks": ["mcf", "adpcm/rawcaudio"], "wait": True
        }
        cold = client.post("/v1/dataset", request)
        assert cold.status == 200
        assert cold.headers["X-Repro-Source"] == "computed"
        assert cold.body["kind"] == "dataset"
        assert len(cold.body["names"]) == 2
        warm = client.post("/v1/dataset", request)
        assert warm.headers["X-Repro-Source"] == "cache"
        assert warm.raw == cold.raw


class TestValidation:

    def test_unknown_route_is_typed_404(self, live_service):
        _, client = live_service()
        response = client.get("/v2/nope")
        assert response.status == 404
        assert response.error_code == "not_found"

    def test_unknown_benchmark_is_typed_404(self, live_service):
        _, client = live_service()
        response = client.post(
            "/v1/characterize", {"benchmark": "no-such-benchmark"}
        )
        assert response.status == 404

    def test_unknown_job_is_typed_404(self, live_service):
        _, client = live_service()
        response = client.get("/v1/jobs/characterize-ffffffff")
        assert response.status == 404
        assert response.error_code == "job_not_found"

    @pytest.mark.parametrize("body", [
        {"benchmark": "mcf", "trace_length": True},
        {"benchmark": "mcf", "trace_length": -5},
        {"benchmark": "mcf", "trace_length": 10_000_000_000},
        {"benchmark": "mcf", "deadline_ms": "soon"},
        {"benchmark": "mcf", "deadline_ms": -1},
        {"benchmark": "mcf", "wait": "maybe"},
        {"benchmark": ""},
        {},
    ])
    def test_bad_requests_are_typed_400(self, live_service, body):
        _, client = live_service()
        response = client.post("/v1/characterize", body)
        assert response.status == 400
        assert response.error_code == "bad_request"

    @pytest.mark.parametrize("field", ["deadline_ms", "wait"])
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
    ])
    def test_non_finite_numbers_are_400(self, live_service, field, value):
        # json.dumps writes bare NaN/Infinity, which json.loads accepts.
        _, client = live_service()
        response = client.post(
            "/v1/characterize", {"benchmark": "mcf", field: value}
        )
        assert response.status == 400
        assert response.error_code == "bad_request"
        assert "finite" in response.body["error"]["message"]

    def test_non_finite_poll_wait_is_400(self, live_service):
        _, client = live_service()
        accepted = client.post("/v1/characterize", {"benchmark": "mcf"})
        response = client.get(f"{accepted.body['poll']}?wait=nan")
        assert response.status == 400

    def test_too_short_phases_request_is_400_not_an_outage(
        self, live_service
    ):
        """A phases request whose interval fits fewer than two times
        into the trace is the client's error: it answers 400 at once,
        so repeating it never opens the breaker on everyone else."""
        service, client = live_service(workers=1)
        for _ in range(3):
            response = client.post(
                "/v1/phases",
                {"benchmark": "mcf", "trace_length": 1_000, "wait": True},
            )
            assert response.status == 400
            assert response.error_code == "bad_request"
            assert "fewer than 2 intervals" in (
                response.body["error"]["message"]
            )
        assert service.breaker.state == "closed"
        valid = client.post(
            "/v1/characterize", {"benchmark": "mcf", "wait": True}
        )
        assert valid.status == 200
        assert client.get("/readyz").status == 200

    def test_bad_phases_signature_is_400(self, live_service):
        _, client = live_service()
        response = client.post(
            "/v1/phases", {"benchmark": "mcf", "signature": "vibes"}
        )
        assert response.status == 400

    def test_empty_dataset_population_is_400(self, live_service):
        _, client = live_service()
        response = client.post("/v1/dataset", {"benchmarks": []})
        assert response.status == 400

    def test_non_object_body_is_400(self, live_service):
        _, client = live_service()
        response = client.post(
            "/v1/characterize", raw_body=b'["not", "an", "object"]'
        )
        assert response.status == 400

    def test_oversized_body_is_400(self, live_service):
        _, client = live_service(max_body_bytes=64)
        padding = "x" * 128
        response = client.post(
            "/v1/characterize", {"benchmark": "mcf", "pad": padding}
        )
        assert response.status == 400

    def test_oversized_body_closes_the_connection(self, live_service):
        # The oversized body is rejected without being read; on a
        # keep-alive connection the server must close, or the unread
        # bytes desync into the next request line.
        _, client = live_service(max_body_bytes=64)
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            payload = json.dumps(
                {"benchmark": "mcf", "pad": "x" * 128}
            ).encode()
            conn.request(
                "POST", "/v1/characterize", payload,
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert response.will_close
            response.read()
        finally:
            conn.close()

    def test_keep_alive_survives_a_read_body_400(self, live_service):
        # A 400 whose body *was* read keeps the persistent connection
        # usable: the next request on the same socket must line up.
        _, client = live_service()
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/v1/characterize", b'["not", "an", "object"]',
                {"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            assert first.status == 400
            assert not first.will_close
            first.read()
            conn.request("GET", "/healthz")
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "ok"
        finally:
            conn.close()

    def test_keep_alive_responses_frame_and_log_each_request(
        self, live_service, caplog
    ):
        """Each response (status line, headers and body in one write)
        is framed by its own ``Content-Length``; at DEBUG level every
        request line is still logged."""
        caplog.set_level(logging.DEBUG, logger="repro.service")
        _, client = live_service()
        warm = client.post("/v1/hpc", {"benchmark": "mcf", "wait": True})
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            for index in range(6):
                if index % 2:
                    conn.request("GET", "/healthz")
                else:
                    conn.request(
                        "POST", "/v1/hpc", json.dumps({"benchmark": "mcf"}),
                        {"Content-Type": "application/json"},
                    )
                response = conn.getresponse()
                raw = response.read()
                assert response.status == 200
                assert int(response.getheader("Content-Length")) == len(raw)
                assert not response.will_close
                if index % 2:
                    assert json.loads(raw)["status"] == "ok"
                else:
                    assert raw == warm.raw
        finally:
            conn.close()
        logged = [record.getMessage() for record in caplog.records]
        assert sum('"POST /v1/hpc HTTP/1.1" 200' in line
                   for line in logged) == 4
        assert sum('"GET /healthz HTTP/1.1" 200' in line
                   for line in logged) == 3

    def test_keep_alive_responses_do_not_stall(self, live_service):
        # _respond sends a response in one write; with headers and body
        # as two sends and Nagle on, a plain client's delayed ACK would
        # stall every keep-alive response ~40 ms.
        _, client = live_service()
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            start = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.2, f"10 keep-alive requests took {elapsed:.3f} s"


class TestInjectedFaults:

    def test_queue_saturation_yields_429_and_service_stays_live(
        self, live_service, tmp_path
    ):
        _, client = live_service(workers=1, queue_capacity=1)
        plan = [faults.ServiceFault(
            "*", mode="slow", times=8, seconds=0.4
        )]
        with faults.inject_service_faults(plan, tmp_path / "state"):
            responses = [
                client.post("/v1/characterize",
                            {"benchmark": "mcf", "seed": seed})
                for seed in range(5)
            ]
        statuses = [response.status for response in responses]
        rejected = [r for r in responses if r.status == 429]
        assert rejected, f"expected a 429 in {statuses}"
        assert statuses[0] == 202  # admission worked until saturation
        refusal = rejected[0]
        assert refusal.error_code == "queue_full"
        assert int(refusal.headers["Retry-After"]) >= 1
        # Overload never kills liveness.
        assert client.get("/healthz").status == 200

    def test_slow_handler_past_deadline_yields_504(
        self, live_service, tmp_path
    ):
        service, client = live_service(workers=1)
        plan = [faults.ServiceFault(
            BENCH, mode="slow", times=1, seconds=1.5
        )]
        with faults.inject_service_faults(plan, tmp_path / "state"):
            response = client.post(
                "/v1/characterize",
                {"benchmark": "mcf", "deadline_ms": 150, "wait": True},
            )
        assert response.status == 504
        assert response.error_code == "deadline_exceeded"
        assert client.get("/healthz").status == 200
        assert service.queue.expired_total == 1
        # The abandoned slow attempt finishes in the background; the
        # service then serves the same request fine — and the late
        # result was never handed to anyone (first writer wins).
        recovered = client.post(
            "/v1/characterize", {"benchmark": "mcf", "wait": True}
        )
        assert recovered.status == 200
        assert recovered.raw == expected_characterize_bytes()

    def test_worker_crash_is_retried_to_a_bit_for_bit_result(
        self, live_service, tmp_path
    ):
        service, client = live_service(max_attempts=3)
        plan = [faults.ServiceFault(BENCH, mode="crash", times=2)]
        with faults.inject_service_faults(plan, tmp_path / "state"):
            response = client.post(
                "/v1/characterize", {"benchmark": "mcf", "wait": True}
            )
        assert response.status == 200
        assert response.raw == expected_characterize_bytes()
        stats = service.stats()
        assert stats["retries"] == 2
        assert stats["breaker"]["state"] == "closed"

    def test_exhausted_attempts_fail_typed_not_raw(
        self, live_service, tmp_path
    ):
        _, client = live_service(max_attempts=2)
        plan = [faults.ServiceFault(BENCH, mode="error", times=5)]
        with faults.inject_service_faults(plan, tmp_path / "state"):
            response = client.post(
                "/v1/characterize", {"benchmark": "mcf", "wait": True}
            )
        assert response.status == 500
        assert "2 attempt(s)" in response.body["error"]["message"]

    def test_failing_dataset_job_retries_at_one_layer_only(
        self, live_service, tmp_path
    ):
        """``build_dataset`` retries each benchmark; the service job
        then fails once instead of re-running the whole build."""
        service, client = live_service(max_attempts=3)
        state = tmp_path / "state"
        plan = [faults.WorkerFault(BENCH, mode="error", times=20)]
        with faults.inject_worker_faults(plan, state):
            response = client.post(
                "/v1/dataset", {"benchmarks": ["mcf"], "wait": True}
            )
        assert response.status == 500
        assert response.error_code == "internal"
        attempts = list(state.glob("worker-fault-*"))
        assert 1 <= len(attempts) <= 3
        stats = service.stats()
        assert (stats["failed"], stats["retries"]) == (1, 0)
        assert stats["breaker"]["consecutive_failures"] == 0

    def test_breaker_opens_then_recovers_bit_for_bit(
        self, live_service, tmp_path
    ):
        service, client = live_service(
            workers=1,
            max_attempts=1,
            breaker_failure_threshold=2,
            breaker_recovery=0.3,
        )
        plan = [faults.ServiceFault(BENCH, mode="crash", times=2)]
        with faults.inject_service_faults(plan, tmp_path / "state"):
            for _ in range(2):
                failed = client.post(
                    "/v1/characterize",
                    {"benchmark": "mcf", "wait": True},
                )
                assert failed.status == 500
        # Two consecutive crashes tripped the breaker: cold work is
        # refused with the documented typed 503 while liveness holds.
        assert service.breaker.state == "open"
        refused = client.post("/v1/characterize", {"benchmark": "mcf"})
        assert refused.status == 503
        assert refused.error_code == "circuit_open"
        assert int(refused.headers["Retry-After"]) >= 1
        ready = client.get("/readyz")
        assert ready.status == 503
        assert ready.body["ready"] is False
        assert client.get("/healthz").status == 200
        # After the recovery window the half-open probe succeeds (the
        # fault's triggers are exhausted), closing the breaker — and
        # the recovered response is bit-for-bit the cold serial one.
        time.sleep(0.35)
        recovered = client.post(
            "/v1/characterize", {"benchmark": "mcf", "wait": True}
        )
        assert recovered.status == 200
        assert recovered.raw == expected_characterize_bytes()
        assert service.breaker.state == "closed"
        assert client.get("/readyz").status == 200

    def test_expired_probe_releases_the_half_open_slot(
        self, live_service, tmp_path
    ):
        # A half-open probe job that the watchdog expires (it never
        # reports an outcome to the breaker) must hand the probe slot
        # back — otherwise the breaker wedges half-open and every cold
        # submission gets 503 forever.
        service, client = live_service(
            workers=2,
            max_attempts=1,
            breaker_failure_threshold=1,
            breaker_recovery=0.2,
        )
        trip = [faults.ServiceFault(BENCH, mode="crash", times=1)]
        with faults.inject_service_faults(trip, tmp_path / "trip"):
            failed = client.post(
                "/v1/characterize", {"benchmark": "mcf", "wait": True}
            )
        assert failed.status == 500
        assert service.breaker.state == "open"
        time.sleep(0.25)  # recovery window -> half-open
        # The probe job wedges past its deadline; the watchdog answers
        # 504 and must release the probe slot it consumed.
        slow = [faults.ServiceFault(
            BENCH, mode="slow", times=1, seconds=2.0
        )]
        with faults.inject_service_faults(slow, tmp_path / "slow"):
            expired = client.post(
                "/v1/characterize",
                {"benchmark": "mcf", "deadline_ms": 100, "wait": True},
            )
            assert expired.status == 504
            assert expired.error_code == "deadline_exceeded"
            assert service.breaker.state == "half_open"
            # The very next cold submission must win the freed probe
            # slot, succeed, and close the breaker — not 503.
            recovered = client.post(
                "/v1/characterize", {"benchmark": "mcf", "wait": True}
            )
        assert recovered.status == 200
        assert recovered.raw == expected_characterize_bytes()
        assert service.breaker.state == "closed"

    def test_queue_refused_probe_releases_the_slot(self, tmp_path):
        # A probe refused at admission (queue full) never runs; the
        # slot must come back immediately.  No HTTP, no threads: the
        # queue's workers are deliberately never started, so the
        # filler job pins the single queue slot.
        from repro.service.breaker import CircuitBreaker

        service = CharacterizationService(
            config=SMALL_CONFIG,
            settings=ServiceSettings(
                cache_dir=tmp_path / "cache",
                queue_capacity=1,
                workers=1,
            ),
        )
        now = [100.0]
        service.breaker = CircuitBreaker(
            failure_threshold=1,
            recovery_seconds=5.0,
            clock=lambda: now[0],
        )
        filler = service.registry.create(
            "characterize", {}, time.monotonic() + 60.0
        )
        service.queue.submit(filler)
        service.breaker.record_failure()  # trip
        now[0] += 5.0                     # recovery -> half-open
        assert service.breaker.state == "half_open"
        status, body, _ = service.handle(
            "POST", "/v1/characterize", {}, {"benchmark": "mcf"}
        )
        assert status == 429
        assert body["error"]["code"] == "queue_full"
        # The refused probe produced no evidence: the very next
        # cold submission must be offered the slot again.
        assert service.breaker.acquire() == (True, True)

    def test_cache_degrade_under_load_keeps_serving(
        self, live_service
    ):
        service, client = live_service()
        with faults.inject_io_faults("store", indices=range(64)):
            first = client.post(
                "/v1/characterize", {"benchmark": "mcf", "wait": True}
            )
        assert first.status == 200
        assert service.degraded
        ready = client.get("/readyz")
        assert ready.status == 200  # degraded alone does not unready
        assert ready.body["cache_degraded"] is True
        # Still serving — compute-without-cache — and still exact.
        second = client.post(
            "/v1/characterize", {"benchmark": "mcf", "wait": True}
        )
        assert second.status == 200
        assert second.headers["X-Repro-Source"] == "computed"
        assert second.raw == first.raw == expected_characterize_bytes()

    def test_drain_refuses_new_work_and_finishes_in_flight(
        self, live_service, tmp_path
    ):
        service, client = live_service(workers=1)
        plan = [faults.ServiceFault(
            BENCH, mode="slow", times=1, seconds=0.3
        )]
        with faults.inject_service_faults(plan, tmp_path / "state"):
            accepted = client.post(
                "/v1/characterize", {"benchmark": "mcf"}
            )
            assert accepted.status == 202
            time.sleep(0.05)  # let the worker pick the job up
            service.begin_drain()
            refused = client.post(
                "/v1/characterize", {"benchmark": "mcf", "seed": 1}
            )
            assert refused.status == 503
            assert refused.error_code == "draining"
            assert service.drain(5.0)
        done = client.get(accepted.body["poll"])
        assert done.status == 200
        assert done.raw == expected_characterize_bytes()
        # Atomic writers: a drain leaves no torn temporaries behind.
        cache_dir = Path(service.cache_dir)
        assert not list(cache_dir.glob("tmp-*"))
        assert not list(cache_dir.glob("*.quarantined"))


class TestStats:

    def test_stats_counts_the_traffic(self, live_service):
        service, client = live_service()
        client.post("/v1/characterize", {"benchmark": "mcf",
                                         "wait": True})
        client.post("/v1/characterize", {"benchmark": "mcf"})
        stats = client.get("/v1/stats").body
        assert stats["submitted"] == 2
        assert stats["warm_hits"] == 1
        assert stats["completed"] == 1
        assert stats["queue_capacity"] == 8
        assert stats["jobs"] == {"done": 1}
        assert stats["breaker"]["state"] == "closed"


class TestServeProcess:
    """The actual ``repro serve`` process: SIGTERM drains cleanly."""

    def test_sigterm_drains_cleanly(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        cache_dir = tmp_path / "cache"
        process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro",
                "--trace-length", "2000",
                "--cache-dir", str(cache_dir),
                "serve", "--port", "0", "--drain-timeout", "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("serving on http://")
            port = int(banner.rsplit(":", 1)[1])
            client = Client("127.0.0.1", port)
            assert client.get("/healthz").status == 200
            cold = client.post(
                "/v1/characterize", {"benchmark": "mcf", "wait": True}
            )
            assert cold.status == 200
            warm = client.post(
                "/v1/characterize", {"benchmark": "mcf"}
            )
            assert warm.status == 200
            assert warm.headers["X-Repro-Source"] == "cache"
            assert warm.raw == cold.raw
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=15)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        assert "drained cleanly" in out
        assert not list(cache_dir.glob("tmp-*"))
        assert not list(cache_dir.glob("*.quarantined"))

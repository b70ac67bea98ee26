"""The three workloads of the end-to-end benchmark.

Every workload issues a fixed amount of work: a seeded *order* over a
fixed multiset of operations, so two seeds do the same work and only
the interleaving differs.  ``--seconds`` picks how many whole passes
(blocks) of that multiset a run makes, from nominal per-pass times, so
the work of a run never depends on how fast the host happens to be.

* ``cold-build`` — one caller, closed loop, ``jobs=1``: each op is a
  cold ``build_dataset`` of one benchmark into a fresh cache directory
  with the static-code and dataset memos cleared, as a fresh
  ``repro dataset`` process sees it.
* ``warm-service`` — a ``repro serve`` subprocess started on a cache
  that another server filled during set-up; one client process runs a
  closed loop over two keep-alive connections (~89% warm
  characterize/hpc hits, ~11% phases requests that are always computed).
* ``analysis-report`` — one caller, closed loop: each op is ``run_all``
  (the paper's Sections IV-VI, at its GA seed) over the 122-benchmark
  dataset built during set-up at a short trace length.

Each op's output is checked against ``expected_digests.json``; an
exception, a non-200 response or a digest mismatch is a failed op.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import http.client
import json
import multiprocessing
import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

import harness

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import DEFAULT_CONFIG  # noqa: E402
from repro.experiments import build_dataset, run_all  # noqa: E402
from repro.experiments.dataset import clear_dataset_cache  # noqa: E402
from repro.synth import (  # noqa: E402
    clear_code_cache,
    generation_call_count,
)
from repro.uarch import hpc_call_count  # noqa: E402
from repro.workloads import all_benchmarks  # noqa: E402

WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).with_name("expected_digests.json")

#: Nominal host time of one cold-build pass, one warm-service block and
#: one analysis-report op on a 2-core container; they only convert
#: ``--seconds`` into a fixed number of passes.
COLD_PASS_SECONDS = 5.5
WARM_BLOCK_SECONDS = 0.7
ANALYSIS_OP_SECONDS = 0.65

#: The analysis cost depends on the 122 x 47 matrix, not trace length.
ANALYSIS_TRACE_LENGTH = 2_000

WARM_CHARACTERIZE_PER_BLOCK = 4
WARM_HPC_PER_BLOCK = 4
WARM_PHASES_PER_BLOCK = 1
CLIENT_CONNECTIONS = 2


def cold_subset():
    """Every 8th registry benchmark: 16 profiles over all six suites."""
    return tuple(all_benchmarks()[::8])


def service_population():
    """The first benchmark of each suite in the cold subset."""
    seen = {}
    for benchmark in cold_subset():
        seen.setdefault(benchmark.suite, benchmark)
    return tuple(seen.values())


def analysis_config():
    """The paper configuration (GA seed 42) at a short trace length."""
    return DEFAULT_CONFIG.with_overrides(trace_length=ANALYSIS_TRACE_LENGTH)


def vector_digest(values) -> str:
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def index_digest(values) -> str:
    data = np.ascontiguousarray(values, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def report_digests(report) -> dict:
    """GA-selected indices and fig6 cluster labels of one ``run_all``."""
    return {
        "ga_selected": index_digest(report.fig6.selected),
        "fig6_labels": index_digest(
            report.fig6.clustering.result.assignments
        ),
    }


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _shuffled_passes(items: Sequence, passes: int, seed: int) -> list:
    rng = random.Random(seed)
    order = []
    for _ in range(passes):
        block = list(items)
        rng.shuffle(block)
        order.extend(block)
    return order


# ---------------------------------------------------------------------------
# single-caller closed loop
# ---------------------------------------------------------------------------


class ClosedLoopWorkload:
    """One caller issuing ops back to back.

    Subclasses define ``prepare(op)`` (untimed), ``execute(op)``
    (timed), ``check(op, result, prepared)`` (untimed; returns an error
    message or None) and ``cleanup(op)`` (untimed).  The calibration
    kernel runs before every op, outside its timing.
    """

    def prepare(self, op):
        return None

    def cleanup(self, op) -> None:
        pass

    def teardown(self) -> None:
        if self.cache_dir.exists():
            shutil.rmtree(self.cache_dir)

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process, which does the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_ops(self, ops, tracer: "harness.Tracer | None" = None):
        """Returns per-op seconds, per-op error (None when the op
        passed), calibration samples and the measured window.

        With a ``tracer`` each op runs untraced and then, right after,
        traced; the returned times are the untraced ones and the errors
        cover both runs.
        """
        latencies, errors, calibration = [], [], []
        for index, op in enumerate(ops):
            calibration.append(harness.calibration_kernel())
            elapsed, error = self._timed(op)
            latencies.append(elapsed)
            errors.append(error)
            if tracer is not None:
                with_spans = functools.partial(tracer.op, index)
                errors.append(self._timed(op, with_spans)[1])
        return latencies, errors, calibration, sum(latencies)

    def _timed(self, op, context=contextlib.nullcontext):
        prepared = self.prepare(op)
        gc.collect()
        start = time.perf_counter()
        try:
            with context():
                result = self.execute(op)
        except Exception as error:  # a failed op, counted by the caller
            elapsed = time.perf_counter() - start
            error_text = f"{type(error).__name__}: {error}"
        else:
            elapsed = time.perf_counter() - start
            error_text = self.check(op, result, prepared)
        self.cleanup(op)
        return elapsed, error_text


class ColdBuild(ClosedLoopWorkload):
    name = "cold-build"
    setup_repeats = 15

    def __init__(self, digests: dict):
        self.expected = digests[self.name]
        self.benchmarks = {b.full_name: b for b in cold_subset()}
        self.cache_dir = WORK / "cold-build"

    def plan(self, seed: int, seconds: float) -> list:
        passes = max(2, round(seconds / COLD_PASS_SECONDS))
        return _shuffled_passes(sorted(self.benchmarks), passes, seed)

    def passes(self, ops: Sequence) -> int:
        return len(ops) // len(self.benchmarks)

    def setup(self) -> None:
        """A fresh interpreter importing the build stack (what every
        ``repro dataset`` process pays before its first benchmark)."""
        subprocess.run(
            [sys.executable, "-c",
             "import repro.experiments, repro.perf, repro.workloads"],
            cwd=ROOT, env=_program_env(), check=True,
        )

    def prepare(self, op):
        clear_code_cache()
        clear_dataset_cache(harness.ensure_empty_dir(self.cache_dir))
        return generation_call_count(), hpc_call_count()

    def execute(self, op):
        return build_dataset(
            DEFAULT_CONFIG, benchmarks=[self.benchmarks[op]],
            cache_dir=self.cache_dir, jobs=1,
        )

    def check(self, op, dataset, counts) -> Optional[str]:
        generated = generation_call_count() - counts[0]
        simulated = hpc_call_count() - counts[1]
        if (generated, simulated) != (1, 1):
            return (f"{op}: {generated} generations, {simulated} HPC "
                    "runs (expected exactly one each)")
        expected = self.expected[op]
        if vector_digest(dataset.mica[0]) != expected["mica"]:
            return f"{op}: MICA vector digest mismatch"
        if vector_digest(dataset.hpc[0]) != expected["hpc"]:
            return f"{op}: HPC vector digest mismatch"
        return None

    def cleanup(self, op) -> None:
        self.teardown()


class AnalysisReport(ClosedLoopWorkload):
    name = "analysis-report"
    setup_repeats = 2

    def __init__(self, digests: dict):
        self.expected = digests[self.name]
        self.cache_dir = WORK / "analysis-report"
        self.dataset = None

    def plan(self, seed: int, seconds: float) -> list:
        """Every op is the same report, so ``seed`` has nothing to order."""
        return ["run_all"] * max(1, round(seconds / ANALYSIS_OP_SECONDS))

    def setup(self) -> None:
        """Cold build of the 122-benchmark dataset at a short length."""
        clear_code_cache()
        clear_dataset_cache(harness.ensure_empty_dir(self.cache_dir))
        self.dataset = build_dataset(
            analysis_config(), cache_dir=self.cache_dir, jobs=2
        )
        # build_dataset shuts its pool down without waiting; wait here so
        # no worker is still exiting while ops are timed.
        for worker in multiprocessing.active_children():
            worker.join()
        shutil.rmtree(self.cache_dir)

    def execute(self, op):
        return run_all(analysis_config(), dataset=self.dataset)

    def check(self, op, report, prepared) -> Optional[str]:
        if report_digests(report) != self.expected:
            return f"{op}: GA selection or fig6 labels differ"
        return None


# ---------------------------------------------------------------------------
# warm service: subprocess server, two keep-alive client connections
# ---------------------------------------------------------------------------


def request_body(kind: str, benchmark: str) -> dict:
    body = {"benchmark": benchmark}
    if kind == "phases":
        body["wait"] = True
    return body


class WarmService:
    name = "warm-service"
    setup_repeats = 3

    def __init__(self, digests: dict):
        self.expected = digests[self.name]
        self.population = [b.full_name for b in service_population()]
        self.cache_dir = WORK / "warm-service"
        self.process: "subprocess.Popen | None" = None
        self.port = 0

    def plan(self, seed: int, seconds: float) -> list:
        block = []
        for name in self.population:
            block += [("characterize", name)] * WARM_CHARACTERIZE_PER_BLOCK
            block += [("hpc", name)] * WARM_HPC_PER_BLOCK
            block += [("phases", name)] * WARM_PHASES_PER_BLOCK
        blocks = max(2, round(seconds / WARM_BLOCK_SECONDS))
        rng = random.Random(seed)
        plan = []
        for _ in range(blocks):
            rng.shuffle(block)
            plan.append(list(block))
        return plan

    # -- server lifecycle ----------------------------------------------

    def setup(self) -> None:
        """Fill a fresh cache through one ``repro serve`` process, stop
        it, and start the measured server on the filled cache.

        The filling server computes every entry cold on its worker
        threads; a separate measured server keeps that compute out of
        its peak RSS, which then covers serving alone.
        """
        harness.ensure_empty_dir(self.cache_dir)
        self._start_server()
        try:
            connection = self.connect()
            try:
                for name in self.population:
                    for kind in ("characterize", "hpc"):
                        body = dict(request_body(kind, name), wait=True)
                        status, payload = self.post(connection, kind, body)
                        error = self.check((kind, name), status, payload)
                        if error is not None:
                            raise RuntimeError(f"cache fill failed: {error}")
            finally:
                connection.close()
        finally:
            self._stop_server()
        self._start_server()

    def _start_server(self) -> None:
        with open(WORK / "warm-service.log", "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro",
                 "--cache-dir", str(self.cache_dir),
                 "serve", "--port", "0", "--drain-timeout", "5"],
                cwd=ROOT, env=_program_env(), stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        banner = self.process.stdout.readline().strip()
        if not banner.startswith("serving on http://"):
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])

    def _stop_server(self) -> None:
        process, self.process = self.process, None
        if process is not None:
            process.send_signal(signal.SIGTERM)
            try:
                process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()

    def teardown(self) -> None:
        self._stop_server()
        if self.cache_dir.exists():
            shutil.rmtree(self.cache_dir)

    def peak_rss_mb(self) -> float:
        """Peak RSS (``VmHWM``) of the measured server, which has only
        served from the filled cache (call before :meth:`teardown`)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in the server's /proc status")

    # -- requests ------------------------------------------------------

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    @staticmethod
    def post(connection, kind: str, body: dict) -> Tuple[int, dict]:
        """One request, whose response is acknowledged at once.

        The server writes a response as two sends (headers, then body),
        so on a keep-alive connection Nagle's algorithm holds the body
        until the client ACKs the headers, which a Linux client delays
        by ~40 ms.  ``TCP_QUICKACK`` keeps that timer out of the latency.
        """
        connection.request(
            "POST", f"/v1/{kind}", body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        if hasattr(socket, "TCP_QUICKACK"):
            connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1
            )
        response = connection.getresponse()
        return response.status, json.loads(response.read())

    def stats(self) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", "/v1/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def check(self, op, status: int, payload: dict) -> Optional[str]:
        kind, name = op
        if status != 200:
            return f"{kind} {name}: HTTP {status} {payload.get('error')}"
        if payload_digest(payload) != self.expected[f"{kind}/{name}"]:
            return f"{kind} {name}: response digest mismatch"
        return None

    def run_ops(self, blocks):
        """Closed loop over two keep-alive connections, block by block;
        the calibration kernel runs between blocks."""
        latencies, errors, calibration = [], [], []
        window = 0.0
        connections = [self.connect() for _ in range(CLIENT_CONNECTIONS)]
        try:
            for block in blocks:
                calibration.append(harness.calibration_kernel())
                gc.collect()
                start = time.perf_counter()
                results = self._run_block(block, connections)
                window += time.perf_counter() - start
                for op, (elapsed, status, payload) in zip(block, results):
                    latencies.append(elapsed)
                    errors.append(
                        payload if status is None
                        else self.check(op, status, payload)
                    )
        finally:
            for connection in connections:
                connection.close()
        return latencies, errors, calibration, window

    def _run_block(self, block, connections):
        pending = deque(enumerate(block))
        results: List[tuple] = [None] * len(block)
        lock = threading.Lock()

        def client(connection):
            while True:
                with lock:
                    if not pending:
                        return
                    index, (kind, name) = pending.popleft()
                body = request_body(kind, name)
                start = time.perf_counter()
                try:
                    status, payload = self.post(connection, kind, body)
                except (OSError, http.client.HTTPException,
                        ValueError) as error:
                    results[index] = (
                        time.perf_counter() - start, None,
                        f"{kind} {name}: {type(error).__name__}: {error}",
                    )
                    connection.close()  # reconnects on the next request
                    continue
                results[index] = (time.perf_counter() - start, status,
                                  payload)

        threads = [threading.Thread(target=client, args=(connection,))
                   for connection in connections]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    # -- in-process handling (traced runs) -----------------------------

    def in_process_service(self):
        from repro.service import CharacterizationService, ServiceSettings

        return CharacterizationService(
            config=DEFAULT_CONFIG,
            settings=ServiceSettings(cache_dir=self.cache_dir),
        ).start()

    def run_in_process(self, service, ops, tracer):
        """The same requests through ``CharacterizationService.handle``
        directly, one caller, each untraced and then traced; returns
        the untraced per-request seconds and the errors of both."""
        latencies, errors = [], []
        for index, (kind, name) in enumerate(ops):
            body = request_body(kind, name)
            start = time.perf_counter()
            status, payload, _ = service.handle(
                "POST", f"/v1/{kind}", body=body
            )
            latencies.append(time.perf_counter() - start)
            errors.append(self.check((kind, name), status, payload))
            with tracer.op(index), tracer.span("service.handle"):
                status, payload, _ = service.handle(
                    "POST", f"/v1/{kind}", body=body
                )
            errors.append(self.check((kind, name), status, payload))
        return latencies, errors


WORKLOADS = {
    workload.name: workload
    for workload in (ColdBuild, WarmService, AnalysisReport)
}

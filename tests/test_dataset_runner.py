"""One job runner for every worker count.

``build_dataset`` runs ``jobs=1`` and ``jobs=N`` through the same
loop; only the executor differs.  So resuming a journal and surviving a
worker crash must not depend on the worker count:

* a resumed benchmark whose journal already charged it
  ``max_attempts`` attempts fails without a further attempt, for
  ``jobs`` 1 and 2 alike;
* one worker crash re-runs only the pool-mates that were in flight,
  uncharged and without sleeping, so the retry sleeps a build requests
  do not grow with the population;
* every attempt is journaled before it runs, so an attempt killed with
  the whole process stays charged on resume;
* a charged failure that ends after the deadline keeps its own error.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import DatasetBuildError
from repro.experiments import build_dataset, resume_dataset
from repro.experiments import dataset as dataset_module
from repro.experiments.dataset import _MEMORY_CACHE
from repro.perf import faults, replay_journal
from repro.workloads import all_benchmarks

SMALL_CONFIG = ReproConfig(trace_length=2_000)


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    _MEMORY_CACHE.clear()
    yield
    _MEMORY_CACHE.clear()


class TestResumeAtAttemptLimit:
    """Three benchmarks, so two remain and ``jobs=2`` really pools."""

    MAX_ATTEMPTS = 3

    def _journal_at_limit(self, tmp_path, population, victim):
        """A journal whose last word on ``victim`` is its final
        ``attempt-started``: the build was killed mid-attempt."""
        cache = tmp_path / "cache"
        journal = tmp_path / "journal.jsonl"
        with faults.inject_worker_faults(
            [faults.WorkerFault(victim, mode="error", times=99)],
            tmp_path / "state",
        ):
            with pytest.raises(DatasetBuildError):
                build_dataset(
                    SMALL_CONFIG, population, cache_dir=cache, jobs=1,
                    journal=journal, retry_backoff=0.0,
                    max_attempts=self.MAX_ATTEMPTS,
                )
        lines = journal.read_bytes().splitlines(keepends=True)
        cut = next(
            index for index, line in enumerate(lines)
            if b'"failed"' in line
        )
        assert b'"attempt-started"' in lines[cut - 1]
        journal.write_bytes(b"".join(lines[:cut]))
        _MEMORY_CACHE.clear()
        return cache, journal

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_benchmark_fails_without_another_attempt(
        self, tmp_path, jobs
    ):
        population = all_benchmarks()[:3]
        victim = population[1].full_name
        cache, journal = self._journal_at_limit(
            tmp_path, population, victim
        )
        resumed = resume_dataset(
            SMALL_CONFIG, population, cache_dir=cache, jobs=jobs,
            journal=journal, strict=False, retry_backoff=0.0,
            max_attempts=self.MAX_ATTEMPTS,
        )
        assert resumed.report.jobs == jobs
        status = next(
            s for s in resumed.report.statuses if s.name == victim
        )
        assert not status.ok
        assert status.attempts == self.MAX_ATTEMPTS
        assert status.error == (
            f"interrupted after exhausting {self.MAX_ATTEMPTS} attempt(s)"
        )
        assert resumed.names == (
            population[0].full_name, population[2].full_name
        )


class TestCrashCollateral:
    """One crash costs the same retry sleeps at any population size."""

    def _sleep_requests(self, monkeypatch, population, victim, state_dir):
        """Build ``population`` with one crash of ``victim``; return
        the dataset and every sleep the dataset module requested."""
        requests = []
        clock = types.SimpleNamespace(
            **{name: getattr(dataset_module.time, name)
               for name in ("monotonic", "perf_counter")},
            sleep=requests.append,
        )
        with monkeypatch.context() as patch, faults.inject_worker_faults(
            [faults.WorkerFault(victim, mode="crash", times=1)], state_dir
        ):
            patch.setattr(dataset_module, "time", clock)
            dataset = build_dataset(
                SMALL_CONFIG, population, use_cache=False, jobs=2,
            )
        return dataset, requests

    def test_sleeps_do_not_grow_with_the_population(
        self, tmp_path, monkeypatch
    ):
        registry = all_benchmarks()
        small, large = registry[::16], registry[::8]
        victim = registry[16].full_name
        assert victim in {b.full_name for b in small}
        reference = build_dataset(
            SMALL_CONFIG, large, use_cache=False, jobs=2
        )
        requests = {}
        for label, population, rows in (
            ("small", small, slice(None, None, 2)),
            ("large", large, slice(None)),
        ):
            dataset, requests[label] = self._sleep_requests(
                monkeypatch, population, victim, tmp_path / label
            )
            assert dataset.report.pool_rebuilds >= 1
            assert np.array_equal(dataset.mica, reference.mica[rows])
            assert np.array_equal(dataset.hpc, reference.hpc[rows])
        assert len(requests["large"]) <= len(requests["small"]) <= 1
        assert sum(requests["large"]) <= sum(requests["small"])


class TestKilledAttemptStaysCharged:
    """``jobs=1`` runs attempts in-process, so a kill inside a cache
    store kills the orchestrator mid-attempt; the journal must already
    name that attempt."""

    CHILD = textwrap.dedent("""
        import sys
        from pathlib import Path
        from repro.config import ReproConfig
        from repro.experiments import build_dataset
        from repro.workloads import all_benchmarks
        build_dataset(
            ReproConfig(trace_length=2_000), all_benchmarks()[:3],
            cache_dir=Path(sys.argv[1]), jobs=1, journal=Path(sys.argv[2]))
        print("BUILD-FINISHED")
    """)

    def test_kill_in_a_store_leaves_the_attempt_journaled(self, tmp_path):
        import repro

        cache = tmp_path / "cache"
        journal = tmp_path / "journal.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        env["REPRO_KILL_FAULTS"] = json.dumps({
            "state_dir": str(tmp_path / "faults"),
            "faults": [
                {"seam": "writer-before-store", "after": 4, "times": 1}
            ],
        })
        (tmp_path / "faults").mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(cache), str(journal)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, (
            proc.returncode, proc.stdout, proc.stderr,
        )
        records = replay_journal(journal).records
        last = records[-1]
        assert last["event"] == "attempt-started"
        assert last["attempt"] == 1
        victim = last["benchmark"]
        assert [
            record["event"] for record in records
            if record.get("benchmark") == victim
        ] == ["admitted", "attempt-started"]
        resumed = resume_dataset(
            SMALL_CONFIG, all_benchmarks()[:3], cache_dir=cache, jobs=1,
            journal=journal,
        )
        status = next(
            s for s in resumed.report.statuses if s.name == victim
        )
        assert status.ok
        assert status.attempts == 2


class TestErrorAfterDeadline:
    """A failure whose attempt ends past the deadline is recorded with
    its own error, not retried into ``"build deadline exceeded"``."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_real_error_is_kept(self, tmp_path, monkeypatch, jobs):
        population = all_benchmarks()[:2]
        victim, other = (b.full_name for b in population)
        real = dataset_module.time
        offset = [0.0]
        clock = types.SimpleNamespace(
            monotonic=lambda: real.monotonic() + offset[0],
            perf_counter=real.perf_counter,
            sleep=real.sleep,
        )
        record_attempt = dataset_module._JobOutcomes.record_attempt

        def record_then_expire(outcomes, name, attempt):
            # The first attempt is admitted; the deadline passes while
            # it runs.
            record_attempt(outcomes, name, attempt)
            offset[0] = 3_600.0

        monkeypatch.setattr(dataset_module, "time", clock)
        monkeypatch.setattr(
            dataset_module._JobOutcomes, "record_attempt",
            record_then_expire,
        )
        with faults.inject_worker_faults(
            [faults.WorkerFault(victim, mode="error", times=99)],
            tmp_path / "state",
        ):
            with pytest.raises(DatasetBuildError) as excinfo:
                build_dataset(
                    SMALL_CONFIG, population, use_cache=False, jobs=jobs,
                    deadline=60.0, retry_backoff=0.0,
                )
        statuses = {s.name: s for s in excinfo.value.report.statuses}
        assert statuses[victim].attempts == 1
        assert statuses[victim].error.startswith("InjectedWorkerError")
        assert statuses[other].attempts == 0
        assert statuses[other].error == "build deadline exceeded"

"""Resumable dataset builds: journal recording, replay, convergence.

The contract under test: a journaled build interrupted at *any* point
and finished with ``resume_dataset`` produces matrices bit-for-bit
identical to an uninterrupted cold serial build — completed benchmarks
are never recomputed (their journaled float64 vectors are exact),
completed-but-corrupted cache entries are quarantined and rebuilt, and
a journal written for a different build is refused.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import JournalError
from repro.experiments import (
    build_dataset,
    dataset_journal_path,
    resume_dataset,
)
from repro.experiments.dataset import _MEMORY_CACHE
from repro.perf import (
    CharacterizationCache,
    HpcCache,
    TraceCache,
    replay_journal,
)
from repro.workloads import all_benchmarks, get_benchmark

from conftest import TEST_CONFIG

POPULATION = all_benchmarks()[:4]


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    """Journal semantics are about *disk* state; defeat the memo."""
    _MEMORY_CACHE.clear()
    yield
    _MEMORY_CACHE.clear()


def _rows(dataset):
    return [
        (status.name, status.ok, status.error)
        for status in dataset.report.statuses
    ]


def _reference(cache_dir):
    return build_dataset(
        TEST_CONFIG, benchmarks=POPULATION, cache_dir=cache_dir, jobs=1
    )


class TestJournaledBuild:
    def test_journaled_build_matches_plain_build(self, tmp_path):
        reference = _reference(tmp_path / "cold")
        _MEMORY_CACHE.clear()
        journal = tmp_path / "journal.jsonl"
        dataset = build_dataset(
            TEST_CONFIG, benchmarks=POPULATION,
            cache_dir=tmp_path / "warm", jobs=1, journal=journal,
        )
        assert dataset.mica.tobytes() == reference.mica.tobytes()
        assert dataset.hpc.tobytes() == reference.hpc.tobytes()
        assert _rows(dataset) == _rows(reference)

    def test_journal_records_full_lifecycle(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        build_dataset(
            TEST_CONFIG, benchmarks=POPULATION, cache_dir=tmp_path,
            jobs=1, journal=journal,
        )
        records = replay_journal(journal).records
        events = [record["event"] for record in records]
        assert events[0] == "build-started"
        assert events.count("admitted") == len(POPULATION)
        assert events.count("attempt-started") == len(POPULATION)
        assert events.count("completed") == len(POPULATION)
        completed = [r for r in records if r["event"] == "completed"]
        for record in completed:
            assert set(record["entries"]) == {"trace", "char", "hpc"}
            # Each journaled path is the owning level's public entry
            # path, and the entry is on disk.
            profile = get_benchmark(record["benchmark"]).profile
            traces = TraceCache(tmp_path)
            trace = traces.load(profile, TEST_CONFIG.trace_length)
            assert record["entries"] == {
                "trace": str(traces.entry_path(
                    profile, TEST_CONFIG.trace_length
                )),
                "char": str(CharacterizationCache(tmp_path).entry_path(
                    trace, TEST_CONFIG
                )),
                "hpc": str(HpcCache(tmp_path).entry_path(trace)),
            }
            assert all(
                Path(path).is_file() for path in record["entries"].values()
            )
            # Vectors are exact float64 bytes, not lossy repr.
            mica = np.frombuffer(
                bytes.fromhex(record["mica"]), dtype=np.float64
            )
            assert mica.size > 0 and np.isfinite(mica).all()

    def test_default_journal_path_is_keyed(self, tmp_path):
        path = dataset_journal_path(
            TEST_CONFIG, benchmarks=POPULATION, cache_dir=tmp_path
        )
        assert path.parent == tmp_path
        assert path.name.startswith("journal-dataset-")
        other = dataset_journal_path(
            TEST_CONFIG.with_overrides(trace_length=4_999),
            benchmarks=POPULATION, cache_dir=tmp_path,
        )
        assert other != path


class TestResume:
    def _interrupted_journal(self, tmp_path, keep_completed=2):
        """Build fully, then cut the journal back to a prefix in which
        only ``keep_completed`` benchmarks completed — the on-disk
        state a kill between those completions would leave (cache
        entries for finished work survive either way)."""
        cache = tmp_path / "cache"
        journal = tmp_path / "journal.jsonl"
        build_dataset(
            TEST_CONFIG, benchmarks=POPULATION, cache_dir=cache,
            jobs=1, journal=journal,
        )
        # Drop the dataset-level matrices: an interrupted build never
        # wrote them, and they would short-circuit the resume.
        for path in cache.glob("dataset-*.npz"):
            path.unlink()
        _MEMORY_CACHE.clear()
        lines = journal.read_bytes().splitlines(keepends=True)
        completed_seen = 0
        cut = len(lines)
        for index, line in enumerate(lines):
            if b'"completed"' in line:
                completed_seen += 1
                if completed_seen > keep_completed:
                    cut = index
                    break
        journal.write_bytes(b"".join(lines[:cut]))
        return cache, journal

    def test_resume_converges_bit_for_bit(self, tmp_path):
        reference = _reference(tmp_path / "cold")
        _MEMORY_CACHE.clear()
        cache, journal = self._interrupted_journal(tmp_path)
        resumed = resume_dataset(
            TEST_CONFIG, benchmarks=POPULATION, cache_dir=cache,
            jobs=1, journal=journal,
        )
        assert resumed.mica.tobytes() == reference.mica.tobytes()
        assert resumed.hpc.tobytes() == reference.hpc.tobytes()
        assert _rows(resumed) == _rows(reference)

    def test_resume_with_torn_tail_and_corrupt_entry(self, tmp_path):
        reference = _reference(tmp_path / "cold")
        _MEMORY_CACHE.clear()
        cache, journal = self._interrupted_journal(tmp_path)
        # Tear the journal tail (crash mid-append)...
        with open(journal, "ab") as handle:
            handle.write(b'{"fmt": "repro-journal/1", "seq":')
        # ...and rot the char entry under one completed benchmark.
        completed = [
            record for record in replay_journal(journal).records
            if record["event"] == "completed"
        ]
        assert completed
        char_entry = Path(completed[0]["entries"]["char"])
        assert char_entry.is_file()
        char_entry.write_bytes(b"rotten bytes")
        resumed = resume_dataset(
            TEST_CONFIG, benchmarks=POPULATION, cache_dir=cache,
            jobs=1, journal=journal,
        )
        assert resumed.mica.tobytes() == reference.mica.tobytes()
        assert resumed.hpc.tobytes() == reference.hpc.tobytes()
        assert len(resumed.report.quarantines) >= 1

    def test_resume_without_cache_uses_journaled_vectors(self, tmp_path):
        reference = build_dataset(
            TEST_CONFIG, benchmarks=POPULATION, use_cache=False, jobs=1
        )
        journal = tmp_path / "journal.jsonl"
        build_dataset(
            TEST_CONFIG, benchmarks=POPULATION, use_cache=False,
            jobs=1, journal=journal,
        )
        lines = journal.read_bytes().splitlines(keepends=True)
        cut = [
            index for index, line in enumerate(lines)
            if b'"completed"' in line
        ][1]
        journal.write_bytes(b"".join(lines[: cut + 1]))
        resumed = resume_dataset(
            TEST_CONFIG, benchmarks=POPULATION, use_cache=False,
            jobs=1, journal=journal,
        )
        assert resumed.mica.tobytes() == reference.mica.tobytes()
        assert resumed.hpc.tobytes() == reference.hpc.tobytes()

    def test_foreign_journal_is_refused(self, tmp_path):
        cache, journal = self._interrupted_journal(tmp_path)
        foreign_config = TEST_CONFIG.with_overrides(trace_length=4_000)
        with pytest.raises(JournalError):
            resume_dataset(
                foreign_config, benchmarks=POPULATION,
                cache_dir=cache, jobs=1, journal=journal,
            )

    def test_resume_of_complete_journal_recomputes_nothing(
        self, tmp_path, monkeypatch
    ):
        reference = _reference(tmp_path / "cold")
        _MEMORY_CACHE.clear()
        cache, journal = self._interrupted_journal(
            tmp_path, keep_completed=len(POPULATION)
        )
        import repro.experiments.dataset as dataset_module

        def boom(*args, **kwargs):
            raise AssertionError(
                "resume of a complete journal must not characterize"
            )

        monkeypatch.setattr(dataset_module, "_characterize_one", boom)
        resumed = resume_dataset(
            TEST_CONFIG, benchmarks=POPULATION, cache_dir=cache,
            jobs=1, journal=journal,
        )
        assert resumed.mica.tobytes() == reference.mica.tobytes()
        assert resumed.hpc.tobytes() == reference.hpc.tobytes()

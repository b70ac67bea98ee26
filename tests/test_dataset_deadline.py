"""Deadline plumbing and the warm dataset probe.

``build_dataset(deadline=...)`` gives the whole build a wall-clock
budget: benchmarks not built in time are recorded as failed with
``"build deadline exceeded"`` and the usual strict/salvage semantics
apply.  ``load_cached_dataset`` is the service's warm path: it answers
from the dataset-level cache or says ``None`` — it never builds.  Every
entry point also accepts ``cache_dir`` as a plain string.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import AnalysisError, DatasetBuildError
from repro.experiments import (
    build_dataset,
    clear_dataset_cache,
    dataset_journal_path,
    load_cached_dataset,
)
from repro.experiments.dataset import _MEMORY_CACHE

SMALL_CONFIG = ReproConfig(trace_length=2_000)
NAMES = ["spec2000/mcf/ref", "mibench/adpcm/rawcaudio"]


@pytest.fixture(autouse=True)
def _clean_memory_cache():
    _MEMORY_CACHE.clear()
    yield
    _MEMORY_CACHE.clear()


@pytest.fixture()
def population():
    from repro.workloads import get_benchmark

    return [get_benchmark(name) for name in NAMES]


class TestBuildDeadline:

    def test_expired_deadline_fails_every_benchmark_typed(
        self, population, tmp_path
    ):
        with pytest.raises(DatasetBuildError) as excinfo:
            build_dataset(
                SMALL_CONFIG, population, cache_dir=tmp_path / "cache",
                jobs=1, deadline=0.0,
            )
        report = excinfo.value.report
        assert report is not None
        assert [status.name for status in report.failed] == NAMES
        assert all(
            status.error == "build deadline exceeded"
            for status in report.failed
        )

    def test_expired_deadline_with_salvage_raises_no_survivors(
        self, population, tmp_path
    ):
        # Salvage mode still raises when *nothing* was built.
        with pytest.raises(DatasetBuildError):
            build_dataset(
                SMALL_CONFIG, population, cache_dir=tmp_path / "cache",
                jobs=1, strict=False, deadline=0.0,
            )

    def test_generous_deadline_is_bit_for_bit_no_deadline(
        self, population, tmp_path
    ):
        reference = build_dataset(
            SMALL_CONFIG, population, cache_dir=tmp_path / "a", jobs=1
        )
        _MEMORY_CACHE.clear()
        budgeted = build_dataset(
            SMALL_CONFIG, population, cache_dir=tmp_path / "b", jobs=1,
            deadline=600.0,
        )
        assert np.array_equal(budgeted.mica, reference.mica)
        assert np.array_equal(budgeted.hpc, reference.hpc)


class TestLoadCachedDataset:

    def test_cold_cache_returns_none(self, population, tmp_path):
        assert load_cached_dataset(
            SMALL_CONFIG, benchmarks=population,
            cache_dir=tmp_path / "cache",
        ) is None

    def test_warm_cache_round_trips(self, population, tmp_path):
        cache_dir = tmp_path / "cache"
        built = build_dataset(
            SMALL_CONFIG, population, cache_dir=cache_dir, jobs=1
        )
        _MEMORY_CACHE.clear()  # force the disk path
        loaded = load_cached_dataset(
            SMALL_CONFIG, benchmark_names=NAMES, cache_dir=cache_dir
        )
        assert loaded is not None
        assert loaded.names == built.names
        assert np.array_equal(loaded.mica, built.mica)
        assert np.array_equal(loaded.hpc, built.hpc)
        # A second probe answers from the in-memory cache.
        assert load_cached_dataset(
            SMALL_CONFIG, benchmark_names=NAMES, cache_dir=cache_dir
        ) is loaded

    def test_different_population_misses(self, population, tmp_path):
        cache_dir = tmp_path / "cache"
        build_dataset(
            SMALL_CONFIG, population, cache_dir=cache_dir, jobs=1
        )
        _MEMORY_CACHE.clear()
        assert load_cached_dataset(
            SMALL_CONFIG, benchmark_names=NAMES[:1],
            cache_dir=cache_dir,
        ) is None

    def test_both_population_arguments_rejected(self, population):
        with pytest.raises(AnalysisError):
            load_cached_dataset(
                SMALL_CONFIG, benchmarks=population,
                benchmark_names=NAMES,
            )


class TestStringCacheDir:

    def test_every_entry_point_accepts_a_string(self, population, tmp_path):
        cache_dir = str(tmp_path / "cache")
        built = build_dataset(
            SMALL_CONFIG, population, cache_dir=cache_dir, jobs=1
        )
        _MEMORY_CACHE.clear()
        loaded = load_cached_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=cache_dir
        )
        assert loaded is not None
        assert np.array_equal(loaded.mica, built.mica)
        journal = dataset_journal_path(
            SMALL_CONFIG, population, cache_dir=cache_dir
        )
        assert journal.parent == tmp_path / "cache"
        assert clear_dataset_cache(cache_dir) > 0
        assert not list((tmp_path / "cache").glob("dataset-*.npz"))

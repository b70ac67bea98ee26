"""Tests for the verified-load memo of the char and HPC cache levels.

A cache object remembers a small entry it verified, with the file's
identity (device, inode, size, mtime, ctime), once the entry's ctime is
at least ``MEMO_SETTLE_NS`` old, and re-verifies whenever one ``stat``
shows another identity.  Loads are counted at the archive-open seam,
``integrity._open_archive``.  Tests that need a settled entry sleep past
the window once; a faked clock would defeat the rule under test.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.mica import NUM_CHARACTERISTICS
from repro.perf import (
    CharacterizationCache,
    HpcCache,
    TraceCache,
    faults,
    integrity,
)
from repro.perf import cache as cache_module
from repro.perf.cache import MEMO_SETTLE_NS
from repro.service import CharacterizationService, ServiceSettings
from repro.synth import TraceRecipe, WorkloadProfile, generate_trace
from repro.uarch import EV56_CONFIG, EV67_CONFIG, HPC_METRIC_NAMES

CONFIG = ReproConfig(trace_length=2_000)
PROFILE = WorkloadProfile(name="memo/p/1")
SETTLE_SECONDS = MEMO_SETTLE_NS / 1e9 + 0.1

#: Seeds of the settled char entries, one per test that changes its
#: entry (the module fixture writes them all, then sleeps once).
SEEDS = {
    "twice": 1, "replace": 2, "ctime-only": 3, "oversized": 4, "deleted": 5,
    **{f"corrupt-{mode}": 10 + index
       for index, mode in enumerate(faults.CORRUPTION_MODES)},
    **{f"capacity-{index}": 20 + index for index in range(5)},
}


def _recipe(seed: int) -> TraceRecipe:
    return TraceRecipe.of(PROFILE, CONFIG.trace_length, seed)


def _values(seed: int) -> np.ndarray:
    return np.arange(NUM_CHARACTERISTICS, dtype=np.float64) + seed


@pytest.fixture(scope="module")
def settled(tmp_path_factory):
    """A directory of char entries (one per seed), an HPC entry and a
    trace entry, all older than the settle window."""
    directory = tmp_path_factory.mktemp("settled")
    chars = CharacterizationCache(directory)
    for seed in SEEDS.values():
        chars.store(_recipe(seed), CONFIG, _values(seed))
    HpcCache(directory).store(
        _recipe(0), EV56_CONFIG, EV67_CONFIG,
        np.arange(len(HPC_METRIC_NAMES), dtype=np.float64),
    )
    TraceCache(directory).store(
        PROFILE, CONFIG.trace_length, 0,
        generate_trace(PROFILE, CONFIG.trace_length),
    )
    time.sleep(SETTLE_SECONDS)
    return directory


@pytest.fixture()
def opened(monkeypatch):
    """The list of paths each archive open read, in order."""
    paths = []
    original = integrity._open_archive

    def counting(path):
        paths.append(str(path))
        return original(path)

    monkeypatch.setattr(integrity, "_open_archive", counting)
    return paths


class TestSettledEntries:
    def test_settled_entry_loaded_twice_opens_its_archive_once(
        self, settled, opened
    ):
        cache = CharacterizationCache(settled)
        first = cache.load(_recipe(SEEDS["twice"]), CONFIG)
        second = cache.load(_recipe(SEEDS["twice"]), CONFIG)
        assert np.array_equal(first, _values(SEEDS["twice"]))
        assert np.array_equal(second, first)
        assert not second.flags.writeable
        assert len(opened) == 1

    def test_hpc_entry_is_remembered_too(self, settled, opened):
        cache = HpcCache(settled)
        for _ in range(3):
            assert cache.load(_recipe(0)) is not None
        assert len(opened) == 1

    def test_young_entry_is_verified_on_every_load(self, tmp_path, opened):
        cache = CharacterizationCache(tmp_path)
        cache.store(_recipe(0), CONFIG, _values(0))
        for _ in range(3):
            assert cache.load(_recipe(0), CONFIG) is not None
        assert len(opened) == 3

    @pytest.mark.parametrize("mode", faults.CORRUPTION_MODES)
    def test_in_place_corruption_of_a_remembered_entry_is_quarantined(
        self, settled, opened, mode
    ):
        cache = CharacterizationCache(settled)
        recipe = _recipe(SEEDS[f"corrupt-{mode}"])
        path = cache.entry_path(recipe, CONFIG)
        assert cache.load(recipe, CONFIG) is not None
        assert cache.load(recipe, CONFIG) is not None
        assert len(opened) == 1
        inode = path.stat().st_ino
        faults.corrupt_entry(path, mode)
        assert path.stat().st_ino == inode  # written in place
        integrity.drain_quarantine_log()
        assert cache.load(recipe, CONFIG) is None
        assert not path.exists()
        assert path.with_name(
            path.name + integrity.QUARANTINE_SUFFIX
        ).exists()
        events = integrity.drain_quarantine_log()
        assert [event.path for event in events] == [str(path)]

    def test_write_that_restores_the_mtime_is_still_seen(
        self, settled, opened
    ):
        """``cp -p`` and ``touch -r`` put the old mtime back after a
        write; only the ctime still tells the file changed."""
        cache = CharacterizationCache(settled)
        recipe = _recipe(SEEDS["ctime-only"])
        path = cache.entry_path(recipe, CONFIG)
        assert cache.load(recipe, CONFIG) is not None
        before = path.stat()
        faults.corrupt_entry(path, "bitflip")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino, before.st_size, before.st_mtime_ns
        )
        assert cache.load(recipe, CONFIG) is None
        assert len(opened) == 2
        integrity.drain_quarantine_log()

    def test_a_store_that_replaces_the_entry_is_reverified(
        self, settled, opened
    ):
        cache = CharacterizationCache(settled)
        recipe = _recipe(SEEDS["replace"])
        assert np.array_equal(
            cache.load(recipe, CONFIG), _values(SEEDS["replace"])
        )
        # Another writer (another cache object, or process) replaces it.
        CharacterizationCache(settled).store(recipe, CONFIG, _values(99))
        assert np.array_equal(cache.load(recipe, CONFIG), _values(99))
        assert len(opened) == 2

    def test_a_deleted_remembered_entry_is_a_miss(self, settled, opened):
        cache = CharacterizationCache(settled)
        recipe = _recipe(SEEDS["deleted"])
        assert cache.load(recipe, CONFIG) is not None
        cache.entry_path(recipe, CONFIG).unlink()
        assert cache.load(recipe, CONFIG) is None
        assert len(opened) == 1


class TestWhatIsNeverHeld:
    def test_trace_column_loads_are_never_held(self, settled, opened):
        cache = TraceCache(settled)
        for _ in range(2):
            assert cache.load(PROFILE, CONFIG.trace_length, 0) is not None
        assert len(opened) == 2

    def test_oversized_entries_are_never_held(
        self, settled, opened, monkeypatch
    ):
        cache = CharacterizationCache(settled)
        recipe = _recipe(SEEDS["oversized"])
        size = cache.entry_path(recipe, CONFIG).stat().st_size
        monkeypatch.setattr(cache_module, "MEMO_MAX_BYTES", size - 1)
        for _ in range(2):
            assert cache.load(recipe, CONFIG) is not None
        assert len(opened) == 2

    def test_the_memo_never_exceeds_its_capacity(
        self, settled, opened, monkeypatch
    ):
        monkeypatch.setattr(cache_module, "MEMO_CAPACITY", 3)
        cache = CharacterizationCache(settled)
        recipes = [_recipe(SEEDS[f"capacity-{index}"]) for index in range(5)]
        for recipe in recipes:
            assert cache.load(recipe, CONFIG) is not None
        assert len(opened) == 5
        for recipe in recipes[2:]:  # the three newest are held
            assert cache.load(recipe, CONFIG) is not None
        assert len(opened) == 5
        assert cache.load(recipes[0], CONFIG) is not None  # dropped
        assert len(opened) == 6

    def test_concurrent_loads_keep_the_memo_bounded(
        self, settled, monkeypatch
    ):
        """More threads than cores load and evict at once, with a short
        switch interval: every load returns its entry's values and the
        memo stays within its capacity."""
        monkeypatch.setattr(cache_module, "MEMO_CAPACITY", 3)
        cache = CharacterizationCache(settled)
        seeds = [SEEDS[f"capacity-{index}"] for index in range(5)]
        errors = []

        def loader(offset):
            try:
                for step in range(200):
                    seed = seeds[(offset + step) % len(seeds)]
                    values = cache.load(_recipe(seed), CONFIG)
                    if not np.array_equal(values, _values(seed)):
                        errors.append(f"seed {seed} served wrong values")
            except Exception as error:  # reported below
                errors.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=loader, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache._memo) <= 3


class TestServiceWarmPath:
    def test_corrupted_settled_entry_is_recomputed_byte_for_byte(
        self, tmp_path, opened
    ):
        """Settled warm hits read their entry once; after in-place
        corruption the next answer is computed, equals the cold one and
        counts a quarantine."""
        service = CharacterizationService(
            config=CONFIG, settings=ServiceSettings(cache_dir=tmp_path),
        ).start()
        request = {"benchmark": "spec2000/mcf/ref", "wait": True}
        try:
            status, cold, headers = service.handle(
                "POST", "/v1/characterize", body=request
            )
            assert (status, headers["X-Repro-Source"]) == (200, "computed")
            time.sleep(SETTLE_SECONDS)
            del opened[:]
            for _ in range(3):
                status, warm, headers = service.handle(
                    "POST", "/v1/characterize", body=request
                )
                assert headers["X-Repro-Source"] == "cache"
                assert warm == cold
            assert len(opened) == 1
            (entry,) = tmp_path.glob("char-*.npz")
            faults.corrupt_entry(entry, "bitflip")
            status, again, headers = service.handle(
                "POST", "/v1/characterize", body=request
            )
            assert (status, headers["X-Repro-Source"]) == (200, "computed")
            assert again == cold
            assert service.stats()["quarantines"] >= 1
        finally:
            service.begin_drain()
            service.drain(5.0)

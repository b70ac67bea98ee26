"""Tests for the integrity-checked cache hierarchy.

Every ``.npz`` the five cache levels write embeds a payload checksum
plus schema metadata (level, semantic version, shape/dtype).  These
tests pin the contract: any corrupted, wrong-shape, stale-version or
foreign entry reads back as a *verified miss* that quarantines the file
(never re-served, never raised, never silently served), unwritable
directories degrade to compute-without-cache with a single warning, and
``verify_cache`` / ``repro cache verify`` scan and quarantine offline.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import CacheDegradedWarning, CacheIntegrityError
from repro.experiments import clear_dataset_cache
from repro.mica import NUM_CHARACTERISTICS, characterize
from repro.perf import (
    CharacterizationCache,
    HpcCache,
    TraceCache,
    cached_characterize,
    cached_collect_hpc,
    cached_generate_trace,
    faults,
    integrity,
    reset_cache_degradation,
    sweep_temporaries,
    verify_cache,
)
from repro.perf.cache import DatasetCache
from repro.synth import WorkloadProfile, generate_trace

SMALL_CONFIG = ReproConfig(trace_length=2_000)
PROFILE = WorkloadProfile(name="integrity/p/1")


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(PROFILE, 2_000)


#: Entries ``_populate_all_levels`` writes per level.
POPULATED = {"char": 1, "hpc": 1, "trace": 1, "dataset": 1}


def _populate_all_levels(trace, directory) -> None:
    cached_generate_trace(PROFILE, 2_000, cache_dir=directory)
    mica = cached_characterize(trace, SMALL_CONFIG, directory).values
    hpc = cached_collect_hpc(trace, cache_dir=directory).values
    DatasetCache(directory).store("population", mica[None], hpc[None])


class TestIntegrityMetadata:
    def test_entries_embed_metadata(self, tiny_trace, tmp_path):
        _populate_all_levels(tiny_trace, tmp_path)
        for prefix, level in (("char", "char"), ("hpc", "hpc"),
                              ("trace", "trace")):
            entry = next(tmp_path.glob(f"{prefix}-*.npz"))
            with np.load(entry, allow_pickle=False) as archive:
                assert integrity.METADATA_FIELD in archive.files
                metadata = json.loads(
                    str(archive[integrity.METADATA_FIELD][()])
                )
            assert metadata["level"] == level
            assert metadata["format"] == integrity.METADATA_FORMAT
            for spec in metadata["fields"].values():
                assert set(spec) == {"shape", "dtype", "sha256"}

    def test_verify_entry_passes_on_healthy_entry(
        self, tiny_trace, tmp_path
    ):
        cache = CharacterizationCache(tmp_path)
        vector = characterize(tiny_trace, SMALL_CONFIG)
        path = cache.store(tiny_trace, SMALL_CONFIG, vector.values)
        arrays = integrity.verify_entry(
            path, level="char", version=1,
            expected={"values": ((NUM_CHARACTERISTICS,), np.float64)},
        )
        assert np.array_equal(arrays["values"], vector.values)

    def test_legacy_entry_without_metadata_is_verified_miss(
        self, tiny_trace, tmp_path
    ):
        cache = CharacterizationCache(tmp_path)
        vector = characterize(tiny_trace, SMALL_CONFIG)
        path = cache.store(tiny_trace, SMALL_CONFIG, vector.values)
        np.savez(path, values=vector.values)  # pre-integrity format
        assert cache.load(tiny_trace, SMALL_CONFIG) is None
        assert not path.exists()
        assert path.with_name(
            path.name + integrity.QUARANTINE_SUFFIX
        ).exists()


class TestCorruptionModesQuarantine:
    """Every corruption mode reads as a verified miss and quarantines."""

    @pytest.mark.parametrize("mode", faults.CORRUPTION_MODES)
    def test_char_entry(self, tiny_trace, tmp_path, mode):
        cache = CharacterizationCache(tmp_path)
        vector = characterize(tiny_trace, SMALL_CONFIG)
        path = cache.store(tiny_trace, SMALL_CONFIG, vector.values)
        faults.corrupt_entry(path, mode, seed=7)
        assert cache.load(tiny_trace, SMALL_CONFIG) is None
        assert not path.exists(), "bad entry must be moved aside"
        quarantined = path.with_name(
            path.name + integrity.QUARANTINE_SUFFIX
        )
        assert quarantined.exists()
        # Never re-served: a second load is still a plain miss.
        assert cache.load(tiny_trace, SMALL_CONFIG) is None

    @pytest.mark.parametrize("mode", faults.CORRUPTION_MODES)
    def test_trace_entry(self, tmp_path, mode):
        cache = TraceCache(tmp_path)
        cached_generate_trace(PROFILE, 2_000, cache_dir=tmp_path)
        path = next(tmp_path.glob("trace-*.npz"))
        faults.corrupt_entry(path, mode, seed=3)
        assert cache.load(PROFILE, 2_000) is None
        assert not path.exists()

    @pytest.mark.parametrize("mode", faults.CORRUPTION_MODES)
    def test_hpc_entry(self, tiny_trace, tmp_path, mode):
        cache = HpcCache(tmp_path)
        cached_collect_hpc(tiny_trace, cache_dir=tmp_path)
        path = next(tmp_path.glob("hpc-*.npz"))
        faults.corrupt_entry(path, mode, seed=5)
        assert cache.load(tiny_trace) is None
        assert not path.exists()

    def test_recompute_after_quarantine_restores_entry(
        self, tiny_trace, tmp_path
    ):
        cold = cached_characterize(tiny_trace, SMALL_CONFIG, tmp_path)
        path = next(tmp_path.glob("char-*.npz"))
        faults.corrupt_entry(path, "bitflip", seed=0)
        recomputed = cached_characterize(tiny_trace, SMALL_CONFIG, tmp_path)
        assert np.array_equal(recomputed.values, cold.values)
        assert CharacterizationCache(tmp_path).load(
            tiny_trace, SMALL_CONFIG
        ) is not None

    def test_corruption_is_seeded_deterministic(self, tiny_trace, tmp_path):
        vector = characterize(tiny_trace, SMALL_CONFIG)
        cache = CharacterizationCache(tmp_path)
        digests = []
        for attempt in ("one", "two"):
            path = cache.store(tiny_trace, SMALL_CONFIG, vector.values)
            faults.corrupt_entry(path, "bitflip", seed=42)
            with np.load(path, allow_pickle=False) as archive:
                digests.append(archive["values"].tobytes())
            path.unlink()
        assert digests[0] == digests[1]


class TestShapeDtypeValidation:
    """Wrong-shape entries must never flow into ``np.vstack``."""

    def test_char_rejects_wrong_shape(self, tiny_trace, tmp_path):
        cache = CharacterizationCache(tmp_path)
        cache.store(
            tiny_trace, SMALL_CONFIG,
            np.zeros(NUM_CHARACTERISTICS + 1),
        )
        assert cache.load(tiny_trace, SMALL_CONFIG) is None

    def test_char_rejects_wrong_dtype(self, tiny_trace, tmp_path):
        cache = CharacterizationCache(tmp_path)
        cache.store(
            tiny_trace, SMALL_CONFIG,
            np.zeros(NUM_CHARACTERISTICS, dtype=np.float32),
        )
        assert cache.load(tiny_trace, SMALL_CONFIG) is None

    def test_hpc_rejects_wrong_shape(self, tiny_trace, tmp_path):
        cache = HpcCache(tmp_path)
        from repro.uarch import EV56_CONFIG, EV67_CONFIG

        cache.store(
            tiny_trace, EV56_CONFIG, EV67_CONFIG, np.zeros(3)
        )
        assert cache.load(tiny_trace) is None

    def test_trace_rejects_wrong_length(self, tmp_path):
        cache = TraceCache(tmp_path)
        trace = generate_trace(PROFILE, 1_000)
        cache.store(PROFILE, 2_000, 0, trace)  # stored under wrong key
        assert cache.load(PROFILE, 2_000) is None


class TestGracefulDegradation:
    """Unwritable cache directories degrade, with a single warning."""

    def test_enospc_store_degrades_once(self, tiny_trace, tmp_path):
        reset_cache_degradation()
        with pytest.warns(CacheDegradedWarning) as caught:
            with faults.inject_io_faults(
                "store", indices=range(8), partial_write=True
            ):
                first = cached_characterize(
                    tiny_trace, SMALL_CONFIG, tmp_path
                )
                second = cached_characterize(
                    tiny_trace, SMALL_CONFIG, tmp_path
                )
        assert len(caught) == 1, "exactly one warning per directory"
        direct = characterize(tiny_trace, SMALL_CONFIG)
        assert np.array_equal(first.values, direct.values)
        assert np.array_equal(second.values, direct.values)
        reset_cache_degradation()

    def test_failed_store_leaves_no_temp_litter(self, tiny_trace, tmp_path):
        reset_cache_degradation()
        with pytest.warns(CacheDegradedWarning):
            with faults.inject_io_faults(
                "store", indices=(0,), partial_write=True
            ):
                cached_collect_hpc(tiny_trace, cache_dir=tmp_path)
        assert not list(tmp_path.glob("tmp-*.npz"))
        reset_cache_degradation()

    def test_rename_failure_degrades_and_cleans_temp(
        self, tiny_trace, tmp_path
    ):
        reset_cache_degradation()
        with pytest.warns(CacheDegradedWarning):
            with faults.inject_io_faults("rename", indices=(0,)):
                trace = cached_generate_trace(
                    PROFILE, 1_000, cache_dir=tmp_path
                )
        assert len(trace) == 1_000
        assert not list(tmp_path.glob("tmp-*.npz"))
        reset_cache_degradation()

    def test_load_io_error_is_transient_miss(self, tiny_trace, tmp_path):
        cold = cached_characterize(tiny_trace, SMALL_CONFIG, tmp_path)
        path = next(tmp_path.glob("char-*.npz"))
        import errno

        with faults.inject_io_faults(
            "load", indices=(0,), errno=errno.EIO
        ):
            assert CharacterizationCache(tmp_path).load(
                tiny_trace, SMALL_CONFIG
            ) is None
        # The entry survives (not quarantined) and serves again.
        assert path.exists()
        warm = CharacterizationCache(tmp_path).load(
            tiny_trace, SMALL_CONFIG
        )
        assert np.array_equal(warm, cold.values)


class TestClearRaceAndSweep:
    def test_clear_tolerates_concurrent_deletion(
        self, tiny_trace, tmp_path, monkeypatch
    ):
        cache = CharacterizationCache(tmp_path)
        cache.store(tiny_trace, SMALL_CONFIG,
                    np.zeros(NUM_CHARACTERISTICS))
        cache.store(
            tiny_trace, SMALL_CONFIG.with_overrides(ppm_max_order=2),
            np.zeros(NUM_CHARACTERISTICS),
        )
        real_unlink = Path.unlink
        raced = []

        def racing_unlink(self, *args, **kwargs):
            if not raced and self.suffix == ".npz":
                raced.append(self)
                real_unlink(self)
                # Simulate a concurrent worker winning the race.
                raise FileNotFoundError(str(self))
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        assert cache.clear() == 1  # the raced entry counts for the winner
        assert len(cache) == 0

    def test_clear_sweeps_temp_and_quarantine_litter(
        self, tiny_trace, tmp_path
    ):
        cache = HpcCache(tmp_path)
        cached_collect_hpc(tiny_trace, cache_dir=tmp_path)
        (tmp_path / "tmp-hpc-dead.1234.npz").write_bytes(b"crashed writer")
        entry = next(tmp_path.glob("hpc-*.npz"))
        faults.corrupt_entry(entry, "truncate")
        assert cache.load(tiny_trace) is None  # quarantines
        assert cache.clear() == 2  # quarantined + tmp litter
        assert not list(tmp_path.glob("tmp-*.npz"))
        assert not list(tmp_path.glob("*.quarantined"))

    def test_sweep_temporaries_respects_age(self, tmp_path):
        import os

        stale = tmp_path / "tmp-char-old.99.npz"
        fresh = tmp_path / "tmp-char-new.99.npz"
        stale.write_bytes(b"x")
        fresh.write_bytes(b"x")
        os.utime(stale, (0, 0))
        assert sweep_temporaries(tmp_path, older_than=3600.0) == 1
        assert fresh.exists() and not stale.exists()


class TestVerifyCache:
    @pytest.mark.parametrize("prefix", list(POPULATED))
    def test_scan_quarantines_bad_entries_only(
        self, tiny_trace, tmp_path, prefix
    ):
        _populate_all_levels(tiny_trace, tmp_path)
        healthy = {
            path: path.read_bytes() for path in tmp_path.glob("*.npz")
        }
        bad = sorted(tmp_path.glob(f"{prefix}-*.npz"))[0]
        del healthy[bad]
        faults.corrupt_entry(bad, "bitflip", seed=1)
        report = verify_cache(tmp_path, sweep_older_than=0.0)
        assert list(report.scanned) == [
            "char", "hpc", "trace", "dataset", "journal",
        ]
        assert report.scanned == {**POPULATED, "journal": 0}
        assert len(report.quarantined) == 1
        assert report.quarantined[0].path == str(bad)
        assert "checksum" in report.quarantined[0].reason
        assert not bad.exists()
        # Healthy entries untouched; the scan is idempotent.
        for path, data in healthy.items():
            assert path.read_bytes() == data
        clean = verify_cache(tmp_path, sweep_older_than=0.0)
        assert len(clean.quarantined) == 0
        assert "quarantined" in report.format()
        # Clearing sweeps every level, quarantined entries included.
        assert clear_dataset_cache(tmp_path) == len(healthy) + 1
        assert not list(tmp_path.glob("*.npz"))
        assert not list(tmp_path.glob("*.quarantined"))

    def test_scan_sweeps_stale_temporaries(self, tmp_path):
        (tmp_path / "tmp-trace-dead.7.npz").write_bytes(b"x")
        report = verify_cache(tmp_path, sweep_older_than=0.0)
        assert report.swept_temporaries == 1

    def test_scan_sweeps_journal_rotation_temporaries(self, tmp_path):
        (tmp_path / "tmp-journal-build.123.jsonl").write_bytes(b"x")
        report = verify_cache(tmp_path, sweep_older_than=0.0)
        assert report.swept_temporaries == 1
        assert not list(tmp_path.glob("tmp-journal-*"))

    def test_scan_repairs_and_reports_torn_journal_tails(
        self, tmp_path
    ):
        from repro.perf import WriteAheadJournal, replay_journal

        path = tmp_path / "journal-dataset-abc.jsonl"
        with WriteAheadJournal(path) as wal:
            wal.append({"event": "a"})
            wal.append({"event": "b"})
        good_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"fmt": "repro-journal/1", "seq": 2')

        report = verify_cache(tmp_path, sweep_older_than=0.0)
        assert report.scanned["journal"] == 1
        assert len(report.journal_truncations) == 1
        truncation = report.journal_truncations[0]
        assert truncation.repaired
        assert truncation.valid_records == 2
        assert truncation.dropped_bytes > 0
        assert path.stat().st_size == good_size
        assert "torn journal tail" in report.format()
        assert "repaired" in report.format()
        # The repaired journal replays clean; the scan is idempotent.
        assert replay_journal(path).truncation is None
        clean = verify_cache(tmp_path, sweep_older_than=0.0)
        assert clean.journal_truncations == ()

    def test_legacy_shard_entries_are_left_alone(
        self, tiny_trace, tmp_path, capsys
    ):
        # Older builds wrote a per-shard level; its leftover files are
        # neither scanned, quarantined nor counted under any level.
        from repro.cli import main

        _populate_all_levels(tiny_trace, tmp_path)
        legacy = integrity.write_entry(
            tmp_path / "shard-0123456789abcdef.npz", level="shard",
            version=1, fields={"ops": np.arange(4, dtype=np.int64)},
        )
        data = legacy.read_bytes()
        report = verify_cache(tmp_path, sweep_older_than=0.0)
        assert report.scanned == {**POPULATED, "journal": 0}
        assert report.quarantined == ()
        assert main(["--cache-dir", str(tmp_path), "cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert "scanned 1 char, 1 hpc, 1 trace, 1 dataset, 0 journal (" in out
        assert ", 0 quarantined," in out
        assert legacy.read_bytes() == data
        assert not list(tmp_path.glob("*.quarantined"))

    def test_verify_entry_raises_typed_error(self, tiny_trace, tmp_path):
        cache = CharacterizationCache(tmp_path)
        vector = characterize(tiny_trace, SMALL_CONFIG)
        path = cache.store(tiny_trace, SMALL_CONFIG, vector.values)
        faults.corrupt_entry(path, "foreign")
        with pytest.raises(CacheIntegrityError, match="foreign"):
            integrity.verify_entry(path, level="char", version=1)


class TestCacheCli:
    def test_cache_verify_command(self, tiny_trace, tmp_path, capsys):
        from repro.cli import main

        cached_characterize(tiny_trace, SMALL_CONFIG, tmp_path)
        bad = next(tmp_path.glob("char-*.npz"))
        faults.corrupt_entry(bad, "truncate")
        code = main(["--cache-dir", str(tmp_path), "cache", "verify"])
        # Quarantined entries are a reportable failure: exit 1 with a
        # one-line error on stderr (clean directories still exit 0).
        assert code == 1
        captured = capsys.readouterr()
        assert "1 quarantined" in captured.out
        assert captured.err.startswith("error:")
        assert list(tmp_path.glob("*.quarantined"))

    def test_cache_clear_command(self, tiny_trace, tmp_path, capsys):
        from repro.cli import main

        cached_characterize(tiny_trace, SMALL_CONFIG, tmp_path)
        code = main(["--cache-dir", str(tmp_path), "cache", "clear"])
        assert code == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.npz"))


REPO_ROOT = Path(__file__).resolve().parent.parent
CACHE_MODULE = "repro.perf.cache"


def _private_cache_names(path: Path) -> "list[str]":
    """Underscore names the module at ``path`` takes from the cache
    module: ``from ... import _name`` or ``alias._name`` on an alias of
    the module itself."""
    parts = list(path.relative_to(REPO_ROOT).with_suffix("").parts)
    package = parts[1:-1] if parts[0] == "src" else parts[:-1]
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level]
            if not node.level:
                base = []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                if module == CACHE_MODULE and alias.name.startswith("_"):
                    found.append(alias.name)
                if f"{module}.{alias.name}" == CACHE_MODULE:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            aliases.update(
                alias.asname for alias in node.names
                if alias.name == CACHE_MODULE and alias.asname
            )
    found.extend(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases and node.attr.startswith("_")
    )
    return found


class TestCacheSeam:
    def test_no_private_cache_names_outside_the_cache_module(self):
        """Entries are named and stored only through the level classes'
        public methods; nothing else reaches into the cache module."""
        owner = REPO_ROOT / "src" / "repro" / "perf" / "cache.py"
        offenders = {}
        for top in ("src", "tests", "e2e_bench", "benchmarks", "examples"):
            for path in sorted((REPO_ROOT / top).rglob("*.py")):
                names = [] if path == owner else _private_cache_names(path)
                if names:
                    offenders[str(path.relative_to(REPO_ROOT))] = names
        assert offenders == {}

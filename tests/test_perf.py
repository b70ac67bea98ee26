"""Tests for the repro.perf subsystem: cache, harness, parallel builds."""

from __future__ import annotations

import argparse
import json

import numpy as np
import pytest

import repro.perf.cache as perf_cache
from repro.config import DEFAULT_CONFIG, ReproConfig
from repro.errors import ConfigurationError
from repro.experiments import build_dataset
from repro.experiments.dataset import _MEMORY_CACHE
from repro.mica import NUM_CHARACTERISTICS, characterize
from repro.perf import (
    CharacterizationCache,
    cached_characterize,
    run_bench,
    trace_fingerprint,
    write_bench_json,
)
from repro.perf.timing import FLOOR_GROUPS, ROWS
from repro.synth import WorkloadProfile, generate_trace
from repro.trace import TraceBuilder

SMALL_CONFIG = ReproConfig(trace_length=2_000)


@pytest.fixture()
def tiny_trace():
    return generate_trace(WorkloadProfile(name="perf/t/1"), 2_000)


class TestTraceFingerprint:
    def test_deterministic(self, tiny_trace):
        assert trace_fingerprint(tiny_trace) == trace_fingerprint(tiny_trace)

    def test_name_independent(self):
        first = generate_trace(WorkloadProfile(name="perf/a/1"), 500)
        renamed = type(first)(first.data.copy(), name="other/name")
        assert trace_fingerprint(first) == trace_fingerprint(renamed)

    def test_content_sensitive(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=1)
        one = builder.build()
        builder2 = TraceBuilder()
        builder2.alu(0x1000, dst=2)
        other = builder2.build()
        assert trace_fingerprint(one) != trace_fingerprint(other)


class TestConfigFingerprint:
    def test_ignores_non_characterization_fields(self):
        base = DEFAULT_CONFIG
        other = base.with_overrides(trace_length=123, ga_generations=2)
        assert (
            base.characterization_fingerprint()
            == other.characterization_fingerprint()
        )

    def test_tracks_characterization_fields(self):
        base = DEFAULT_CONFIG
        other = base.with_overrides(ppm_max_order=6)
        assert (
            base.characterization_fingerprint()
            != other.characterization_fingerprint()
        )


class TestCharacterizationCache:
    def test_miss_then_hit(self, tiny_trace, tmp_path):
        cache = CharacterizationCache(tmp_path)
        assert cache.load(tiny_trace, SMALL_CONFIG) is None
        vector = characterize(tiny_trace, SMALL_CONFIG)
        cache.store(tiny_trace, SMALL_CONFIG, vector.values)
        assert len(cache) == 1
        loaded = cache.load(tiny_trace, SMALL_CONFIG)
        assert np.array_equal(loaded, vector.values)

    def test_config_keys_separate_entries(self, tiny_trace, tmp_path):
        cache = CharacterizationCache(tmp_path)
        vector = characterize(tiny_trace, SMALL_CONFIG)
        cache.store(tiny_trace, SMALL_CONFIG, vector.values)
        assert cache.load(
            tiny_trace, SMALL_CONFIG.with_overrides(ppm_max_order=2)
        ) is None

    def test_corrupt_entry_is_a_miss(self, tiny_trace, tmp_path):
        cache = CharacterizationCache(tmp_path)
        vector = characterize(tiny_trace, SMALL_CONFIG)
        path = cache.store(tiny_trace, SMALL_CONFIG, vector.values)
        path.write_bytes(b"not an npz")
        assert cache.load(tiny_trace, SMALL_CONFIG) is None

    def test_clear(self, tiny_trace, tmp_path):
        cache = CharacterizationCache(tmp_path)
        vector = characterize(tiny_trace, SMALL_CONFIG)
        cache.store(tiny_trace, SMALL_CONFIG, vector.values)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_cached_characterize_warm_skips_analyzers(
        self, tiny_trace, tmp_path, monkeypatch
    ):
        cold = cached_characterize(tiny_trace, SMALL_CONFIG, tmp_path)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("analyzers ran on a warm cache")

        monkeypatch.setattr(perf_cache, "characterize", boom)
        warm = cached_characterize(tiny_trace, SMALL_CONFIG, tmp_path)
        assert np.array_equal(cold.values, warm.values)
        assert warm.name == tiny_trace.name

    def test_no_cache_dir_is_plain_characterize(self, tiny_trace):
        direct = characterize(tiny_trace, SMALL_CONFIG)
        wrapped = cached_characterize(tiny_trace, SMALL_CONFIG, None)
        assert np.array_equal(direct.values, wrapped.values)


class TestParallelDatasetBuilds:
    def test_jobs_warm_cache_matches_serial_cold(
        self, small_population, tmp_path
    ):
        population = small_population[:3]
        _MEMORY_CACHE.clear()
        serial_cold = build_dataset(
            SMALL_CONFIG,
            benchmarks=population,
            cache_dir=tmp_path,
            jobs=1,
        )
        # Remove the dataset-level matrices but keep the per-trace
        # entries, so the parallel build must go through the workers
        # and the warm repro.perf cache.
        removed = list(tmp_path.glob("dataset-*.npz"))
        for path in removed:
            path.unlink()
        assert removed, "serial build should have written the dataset cache"
        assert list(tmp_path.glob("char-*.npz")), (
            "serial build should have populated the per-trace cache"
        )
        _MEMORY_CACHE.clear()
        parallel_warm = build_dataset(
            SMALL_CONFIG,
            benchmarks=population,
            cache_dir=tmp_path,
            jobs=2,
        )
        assert parallel_warm.names == serial_cold.names
        assert np.array_equal(parallel_warm.mica, serial_cold.mica)
        assert np.array_equal(parallel_warm.hpc, serial_cold.hpc)
        _MEMORY_CACHE.clear()

    def test_jobs_alias_workers(self, small_population, tmp_path):
        population = small_population[:2]
        via_workers = build_dataset(
            SMALL_CONFIG, benchmarks=population, use_cache=False, workers=1
        )
        via_jobs = build_dataset(
            SMALL_CONFIG, benchmarks=population, use_cache=False, jobs=1
        )
        assert np.array_equal(via_workers.mica, via_jobs.mica)


@pytest.fixture(scope="module")
def tiny_bench():
    """One bench run over a tiny trace, shared by the structure tests."""
    return run_bench(config=ReproConfig(trace_length=2_000), repeats=1)


def _group_ratio(result, names):
    engine = sum(result.seconds[name][0] for name in names)
    reference = sum(result.seconds[name][1] for name in names)
    return reference / engine


class TestMicaBenchHarness:
    def test_smoke_run_structure(self, tiny_bench):
        assert list(tiny_bench.seconds) == [row.name for row in ROWS]
        for engine_s, reference_s in tiny_bench.seconds.values():
            assert engine_s > 0.0 and reference_s > 0.0
        assert tuple(tiny_bench.speedups) == FLOOR_GROUPS
        assert tiny_bench.trace_length == 2_000
        assert tiny_bench.repeats == 1
        report = tiny_bench.format()
        assert "MICA perf harness" in report
        assert all(row.name in report for row in ROWS)

    def test_bench_json_round_trip(self, tiny_bench, tmp_path):
        path = write_bench_json(tiny_bench, tmp_path / "BENCH_mica.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "BENCH_mica/v7"
        assert payload["meta"]["trace_length"] == 2_000
        assert payload["meta"]["profile"] == "spec2000/vpr/place"
        assert list(payload["engines"]) == [row.name for row in ROWS]
        for row in ROWS:
            entry = payload["engines"][row.name]
            assert entry["group"] == row.group
            assert entry["speedup"] == (
                entry["reference_seconds"] / entry["seconds"]
            )
        assert payload["speedups"] == tiny_bench.speedups

    def test_cli_bench_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "BENCH_mica.json"
        history = tmp_path / "BENCH_history.jsonl"
        code = main([
            "--trace-length", "2000",
            "bench", "--repeats", "1", "--output", str(output),
            "--history", str(history),
        ])
        assert code == 0
        payload = json.loads(output.read_text())
        assert set(payload) == {"schema", "meta", "engines", "speedups"}
        (row,) = map(json.loads, history.read_text().splitlines())
        assert row["speedups"] == payload["speedups"]
        assert "MICA perf harness" in capsys.readouterr().out

    def test_cli_bench_has_four_flags(self):
        from repro.cli import build_parser

        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            flag for action in commands.choices["bench"]._actions
            for flag in action.option_strings
        } - {"-h", "--help"}
        assert flags == {"--output", "--profile", "--repeats", "--history"}

    def test_repeats_below_one_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            run_bench(config=ReproConfig(trace_length=2_000), repeats=0)

    def test_generation_section(self, tiny_bench):
        assert tiny_bench.speedups["generation"] == _group_ratio(
            tiny_bench, ("interpret", "expand")
        )


class TestHpcBenchSection:
    def test_hpc_section(self, tiny_bench):
        assert tiny_bench.speedups["events"] == _group_ratio(
            tiny_bench, ("events_ev56", "events_ev67")
        )
        assert tiny_bench.speedups["pipelines"] == _group_ratio(
            tiny_bench, ("pipeline_ev56", "pipeline_ev67")
        )
        # Component engines are timed and reported but gate nothing.
        groups = {row.name: row.group for row in ROWS}
        for name in ("cache_l1d", "tlb", "predictor_bimodal",
                     "predictor_tournament", "producer_indices"):
            assert name in tiny_bench.seconds
            assert groups[name] is None


class TestPhasesBenchSection:
    def test_phases_section(self, tiny_bench):
        assert tiny_bench.speedups["phases"] == _group_ratio(
            tiny_bench, ("mica_timeline",)
        )
        assert tiny_bench.speedups["sharded"] == _group_ratio(
            tiny_bench, ("sharded_stream",)
        )
        assert tiny_bench.as_dict()["meta"]["shards"] == 4

    def test_small_trace_shrinks_interval(self, tiny_bench):
        assert tiny_bench.as_dict()["meta"]["interval"] == 500  # 2000 // 4


@pytest.fixture(scope="module")
def default_bench():
    """One bench run at the default (100k) trace length.  Seven repeats:
    the short engine runs (the timeline engine above all) are much more
    exposed to scheduler steal than the long reference runs."""
    result = run_bench(repeats=7)
    assert result.trace_length == DEFAULT_CONFIG.trace_length
    return result


def _row_speedup(result, name):
    engine_s, reference_s = result.seconds[name]
    return reference_s / engine_s


@pytest.mark.slow
def test_hpc_events_speedup_floor_at_default_trace_length(default_bench):
    """Acceptance floor for the HPC event engines: >=5x combined
    simulate_events over the scalar references at the default (100k)
    trace length."""
    assert default_bench.speedups["events"] >= 5.0


@pytest.mark.slow
def test_pipeline_walk_never_slower_than_reference(default_bench):
    """The batch pipeline walks must at least match the retained scalar
    loops at the default trace length (see ROADMAP: the serialized
    pipeline recurrence bounds how far ahead of the reference any exact
    engine can get).  The EV67 margin is only ~1.1x, so allow a little
    wall-clock noise without letting a real regression through."""
    assert default_bench.speedups["pipelines"] >= 1.0
    assert _row_speedup(default_bench, "pipeline_ev56") >= 1.0
    assert _row_speedup(default_bench, "pipeline_ev67") >= 0.95


@pytest.mark.slow
def test_phases_speedup_floor_at_default_trace_length(default_bench):
    """Acceptance floor for the segmented phase engine: >=5x over the
    chunked per-chunk reference for the default six-key timeline at the
    default (100k) trace length and 5k-instruction intervals (the
    committed ``BENCH_mica.json`` records the floor-qualifying run).
    Leave headroom for wall-clock noise, as with the pipeline-walk
    floor, without letting a real regression through."""
    assert default_bench.as_dict()["meta"]["interval"] == 5_000
    assert default_bench.speedups["phases"] >= 4.0


@pytest.mark.slow
def test_speedup_floors_at_default_trace_length(default_bench):
    """Acceptance floors for the vectorized engine: >=10x PPM, >=5x ILP
    over the scalar references at the default trace length."""
    assert default_bench.speedups["ppm"] >= 10.0
    assert default_bench.speedups["ilp"] >= 5.0


@pytest.mark.slow
def test_generation_speedup_floor_at_default_trace_length(default_bench):
    """Acceptance floor for the generation engine: >=10x combined over
    the scalar interpret/expand references at the default (100k) trace
    length."""
    assert default_bench.speedups["generation"] >= 10.0


def test_characteristic_vector_dimensions(tiny_trace, tmp_path):
    vector = cached_characterize(tiny_trace, SMALL_CONFIG, tmp_path)
    assert vector.values.shape == (NUM_CHARACTERISTICS,)

"""Recipe-keyed characterization and HPC entries.

A generated trace is a pure function of its :class:`TraceRecipe`
(profile fingerprint, length, seed, ``TRACE_GEN_VERSION``), so the char
and HPC caches key its entries by that recipe and a warm lookup reads no
trace bytes.  Every derived trace (slices, filters, builders, file
readers) carries no recipe and keeps the content key.  Pinned here:

* which traces carry a recipe and which do not;
* recipe and content keys of one trace differ, and the recipe key moves
  with ``TRACE_GEN_VERSION``;
* recipe-keyed warm vectors are byte-identical to cold ``characterize``
  / ``collect_hpc`` over the 8-benchmark population;
* a warm per-trace dataset rebuild builds, hashes and generates no
  trace; its only trace reads are one verification of the trace entry
  each row rests on (so a corrupt one is still quarantined), and a
  missing or damaged one is regenerated, so the journal never names an
  entry that does not exist.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.experiments import build_dataset, resume_dataset
from repro.experiments import dataset as dataset_module
from repro.experiments.dataset import _MEMORY_CACHE
from repro.mica import characterize
from repro.perf import cache as perf_cache
from repro.perf import faults, integrity
from repro.perf import (
    CharacterizationCache,
    HpcCache,
    TraceCache,
    cached_generate_trace,
    cached_vectors,
)
from repro.synth import (
    TraceRecipe,
    WorkloadProfile,
    generate_trace,
    generation_call_count,
)
from repro.synth import generator as generator_module
from repro.trace import (
    TraceBuilder,
    head,
    read_trace,
    read_trace_text,
    sample_interval,
    split_windows,
    write_trace,
    write_trace_text,
)
from repro.uarch import collect_hpc

SMALL_CONFIG = ReproConfig(trace_length=2_000)
PROFILE = WorkloadProfile(name="recipe/p/1")


@pytest.fixture(scope="module")
def generated():
    return generate_trace(PROFILE, 2_000, seed=3)


class TestWhichTracesCarryARecipe:
    def test_generated_trace_carries_its_recipe(self, generated):
        assert generated.recipe == TraceRecipe.of(PROFILE, 2_000, seed=3)
        assert generated.recipe.profile_fingerprint == PROFILE.fingerprint()

    def test_trace_cache_load_carries_the_same_recipe(self, tmp_path):
        cold = cached_generate_trace(PROFILE, 2_000, 3, cache_dir=tmp_path)
        warm = TraceCache(tmp_path).load(PROFILE, 2_000, 3)
        assert warm.recipe == cold.recipe == TraceRecipe.of(PROFILE, 2_000, 3)
        assert np.array_equal(warm.data, cold.data)

    def test_derived_traces_carry_none(self, generated, tmp_path):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=1, src1=2)
        builder.load(0x1004, dst=3, addr_reg=1, mem_addr=0x8000)
        binary = tmp_path / "t.mtf"
        write_trace(generated, binary)
        text = io.StringIO()
        write_trace_text(generated[:50], text)
        text.seek(0)
        derived = {
            "slice": generated[:1_000],
            "full slice": generated[:],
            "concat": generated.concat(generated),
            "head": head(generated, 500),
            "sample": sample_interval(generated, 400, 100),
            "window": split_windows(generated, 1_000)[0],
            "builder": builder.build(),
            "read_trace": read_trace(binary),
            "read_trace_text": read_trace_text(text),
        }
        for label, trace in derived.items():
            assert trace.recipe is None, label


class TestKeys:
    def test_recipe_and_content_keys_differ(self, generated):
        content_twin = type(generated)(generated.data, name=generated.name)
        assert content_twin.recipe is None
        for cache in (CharacterizationCache("c"), HpcCache("c")):
            assert cache.entry_path(generated) == cache.entry_path(
                generated.recipe
            )
            assert cache.entry_path(generated) != cache.entry_path(
                content_twin
            )

    def test_recipe_key_names_the_generation_version(self, monkeypatch):
        recipe = TraceRecipe.of(PROFILE, 2_000)
        before = recipe.key
        monkeypatch.setattr(
            generator_module, "TRACE_GEN_VERSION",
            generator_module.TRACE_GEN_VERSION + 1,
        )
        assert recipe.key != before

    def test_recipe_key_separates_length_seed_and_knobs(self):
        keys = {
            TraceRecipe.of(PROFILE, 2_000).key,
            TraceRecipe.of(PROFILE, 2_001).key,
            TraceRecipe.of(PROFILE, 2_000, seed=1).key,
            TraceRecipe.of(PROFILE.with_overrides(seed=9), 2_000).key,
        }
        assert len(keys) == 4

    def test_profile_fingerprint_memo_is_not_a_field(self):
        profile = WorkloadProfile(name="recipe/memo/1")
        first = profile.fingerprint()
        assert profile.fingerprint() is first  # memoized
        assert profile == WorkloadProfile(name="recipe/memo/1")
        changed = profile.with_overrides(seed=5)
        assert changed.fingerprint() != first


class TestRecipeVectors:
    def test_population_warm_vectors_equal_cold_bytes(
        self, small_population, tmp_path
    ):
        for benchmark in small_population:
            trace = generate_trace(
                benchmark.profile, SMALL_CONFIG.trace_length
            )
            mica = characterize(trace, SMALL_CONFIG).values
            hpc = collect_hpc(trace).values
            cold = cached_vectors(
                benchmark.profile, SMALL_CONFIG.trace_length,
                config=SMALL_CONFIG, cache_dir=tmp_path,
            )
            recipe = TraceRecipe.of(
                benchmark.profile, SMALL_CONFIG.trace_length
            )
            warm = (
                CharacterizationCache(tmp_path).load(recipe, SMALL_CONFIG),
                HpcCache(tmp_path).load(recipe),
            )
            for vectors in (cold, warm):
                assert vectors[0].tobytes() == mica.tobytes()
                assert vectors[1].tobytes() == hpc.tobytes()

    def test_recipe_entries_need_no_trace_entry(self, tmp_path):
        cold = cached_vectors(
            PROFILE, 2_000, config=SMALL_CONFIG, cache_dir=tmp_path
        )
        for path in tmp_path.glob("trace-*.npz"):
            path.unlink()
        recipe = TraceRecipe.of(PROFILE, 2_000)
        assert CharacterizationCache(tmp_path).load(
            recipe, SMALL_CONFIG
        ).tobytes() == cold[0].tobytes()
        assert HpcCache(tmp_path).load(recipe).tobytes() == (
            cold[1].tobytes()
        )

    @pytest.mark.parametrize("damage", ["delete", "bitflip"])
    def test_full_hit_restores_a_damaged_trace_entry(self, tmp_path, damage):
        cold = cached_vectors(
            PROFILE, 2_000, config=SMALL_CONFIG, cache_dir=tmp_path
        )
        entry = TraceCache(tmp_path).entry_path(PROFILE, 2_000)
        if damage == "delete":
            entry.unlink()
        else:
            faults.corrupt_entry(entry, damage, seed=5)
        calls = generation_call_count()
        warm = cached_vectors(
            PROFILE, 2_000, config=SMALL_CONFIG, cache_dir=tmp_path
        )
        assert generation_call_count() == calls + 1
        assert TraceCache(tmp_path).holds(PROFILE, 2_000)
        assert [array.tobytes() for array in warm] == [
            array.tobytes() for array in cold
        ]


class TestWarmRebuild:
    def test_rebuild_builds_no_trace_and_never_generates(
        self, small_population, tmp_path, monkeypatch
    ):
        """The only trace reads left are one verification of each
        row's trace entry; no Trace is built, hashed or generated."""
        population = small_population[:3]
        _MEMORY_CACHE.clear()
        cold = build_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path, jobs=1
        )
        for path in tmp_path.glob("dataset-*.npz"):
            path.unlink()
        _MEMORY_CACHE.clear()

        loads = []
        original_load = TraceCache.load
        verified = []
        original_verify = integrity.load_entry

        def counting_load(self, *args, **kwargs):
            loads.append(args)
            return original_load(self, *args, **kwargs)

        def counting_verify(path, *args, **kwargs):
            if path.name.startswith("trace-"):
                verified.append(path)
            return original_verify(path, *args, **kwargs)

        def no_hashing(trace):
            raise AssertionError("a warm rebuild hashed a trace")

        monkeypatch.setattr(TraceCache, "load", counting_load)
        monkeypatch.setattr(integrity, "load_entry", counting_verify)
        monkeypatch.setattr(perf_cache, "trace_fingerprint", no_hashing)
        calls = generation_call_count()
        warm = build_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path, jobs=1
        )
        assert loads == []
        assert generation_call_count() == calls
        assert sorted(verified) == sorted(
            TraceCache(tmp_path).entry_path(
                benchmark.profile, SMALL_CONFIG.trace_length
            )
            for benchmark in population
        )
        assert warm.mica.tobytes() == cold.mica.tobytes()
        assert warm.hpc.tobytes() == cold.hpc.tobytes()
        _MEMORY_CACHE.clear()

    @pytest.mark.parametrize("damage", ["delete", "bitflip"])
    def test_resume_trusts_a_row_whose_trace_entry_was_damaged(
        self, small_population, tmp_path, monkeypatch, damage
    ):
        """A full char/HPC hit over a damaged trace entry restores the
        entry, so the completion it journals still verifies on resume
        and the benchmark is preloaded, not re-run."""
        population = small_population[:3]
        _MEMORY_CACHE.clear()
        cold = build_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path, jobs=1
        )
        entry = TraceCache(tmp_path).entry_path(
            population[0].profile, SMALL_CONFIG.trace_length
        )
        if damage == "delete":
            entry.unlink()
        else:
            faults.corrupt_entry(entry, damage, seed=5)
        for path in tmp_path.glob("dataset-*.npz"):
            path.unlink()
        _MEMORY_CACHE.clear()
        journal = tmp_path / "journal.jsonl"
        build_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path,
            jobs=1, journal=journal,
        )
        # Interrupted before the dataset-level matrices were written.
        for path in tmp_path.glob("dataset-*.npz"):
            path.unlink()
        _MEMORY_CACHE.clear()

        def boom(args):
            raise AssertionError(f"resume re-ran {args[0]}")

        monkeypatch.setattr(dataset_module, "_characterize_one", boom)
        resumed = resume_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path,
            jobs=1, journal=journal,
        )
        assert resumed.mica.tobytes() == cold.mica.tobytes()
        assert resumed.hpc.tobytes() == cold.hpc.tobytes()
        _MEMORY_CACHE.clear()

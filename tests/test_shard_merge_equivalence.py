"""Shard+merge must be bit-for-bit identical to one-shot characterize.

The shard-mergeable engine (:mod:`repro.mica.shard`) and its scheduler
(:mod:`repro.perf.sharding`) promise that splitting a trace into any
contiguous shard geometry, characterizing the shards independently and
merging the states reproduces :func:`repro.mica.characterize` exactly —
not approximately: the same 47 IEEE doubles, for every geometry, for
full and per-key partial requests, sequentially or fanned across
workers, through the shard cache or cold.

Satellites covered here: the streaming content digest pinned equal to
the in-memory digest, the serialization roundtrip behind the shard
cache and worker transport, warm shard-cache reuse, and the engine's
error surfaces (empty shards, non-adjacent merges, unrooted finalize,
bad geometry, unknown categories, out-of-range indices, unshardable
PPM orders).
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import CharacterizationError, TraceError
from repro.mica import characterize
from repro.mica.shard import (
    SECTION_ORDER,
    finalize_state,
    merge_states,
    ppm_empty_state,
    ppm_shard_correct,
    shard_state,
    state_from_arrays,
    state_to_arrays,
)
from repro.mica.characteristics import category_slices, resolve_wanted
from repro.perf import (
    cold_state_call_count,
    reset_cold_state_call_count,
    sharded_characterize,
    trace_fingerprint,
)
from repro.perf.sharding import fold_shards
from repro.synth import WorkloadProfile, generate_trace
from repro.trace import (
    MappedTraceSource,
    MemoryTraceSource,
    as_trace_source,
    open_trace_source,
    shard_bounds,
    write_trace,
)

CONFIG = ReproConfig(trace_length=3_000)


def _cut(trace, start, end):
    """A contiguous chunk of ``trace`` as its own Trace."""
    from repro.trace import Trace

    return Trace(trace.data[start:end], name=trace.name)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality, treating NaN == NaN."""
    return a.tobytes() == b.tobytes()


def _random_bounds(n: int, rng: np.random.Generator):
    """A random contiguous partition of ``[0, n)``."""
    count = int(rng.integers(2, 9))
    cuts = np.sort(rng.choice(np.arange(1, n), size=count - 1,
                              replace=False))
    edges = [0, *cuts.tolist(), n]
    return list(zip(edges[:-1], edges[1:]))


def _stream_values(trace, bounds, config=CONFIG, wanted=None):
    return fold_shards(as_trace_source(trace), bounds, config, wanted)


class TestPopulationEquivalence:
    """Bit-for-bit over the eight contrasting registry benchmarks."""

    @pytest.fixture(scope="class")
    def population_traces(self, small_population):
        return [
            generate_trace(benchmark.profile, 3_000)
            for benchmark in small_population
        ]

    def test_random_geometries_match_one_shot(self, population_traces):
        for seed, trace in enumerate(population_traces):
            rng = np.random.default_rng(1_000 + seed)
            reference = characterize(trace, CONFIG).values
            for bounds in (
                _random_bounds(len(trace), rng),
                shard_bounds(len(trace), shards=int(rng.integers(2, 7))),
                shard_bounds(
                    len(trace),
                    shard_size=int(rng.integers(100, len(trace))),
                ),
            ):
                values = _stream_values(trace, bounds)
                assert _bitwise_equal(values, reference), \
                    f"{trace.name}: {bounds[:3]}... diverged"

    def test_one_giant_shard_matches_one_shot(self, population_traces):
        trace = population_traces[0]
        result = sharded_characterize(trace, CONFIG, shards=1)
        assert _bitwise_equal(
            result.values, characterize(trace, CONFIG).values
        )
        assert result.name == trace.name


class TestRandomizedTraces:
    """Random profiles x random boundaries, including degenerate cuts."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_profiles_random_boundaries(self, seed):
        profile = WorkloadProfile(name=f"test/shard-rand/{seed}")
        trace = generate_trace(profile, 2_000, seed=seed)
        reference = characterize(trace, CONFIG).values
        rng = np.random.default_rng(seed)
        for _ in range(3):
            bounds = _random_bounds(len(trace), rng)
            assert _bitwise_equal(
                _stream_values(trace, bounds), reference
            )

    def test_shard_size_one(self, default_profile):
        # Every shard is a single instruction: the most adversarial
        # geometry for every carry (strides, ILP windows, PPM history).
        trace = generate_trace(default_profile, 200)
        bounds = shard_bounds(len(trace), shard_size=1)
        assert len(bounds) == 200
        assert _bitwise_equal(
            _stream_values(trace, bounds),
            characterize(trace, CONFIG).values,
        )

    def test_fold_and_tree_merge_agree(self, small_trace):
        # merge_states is associative: a left fold and a balanced tree
        # over the same shard states produce identical merged states.
        bounds = shard_bounds(len(small_trace), shards=8)
        wanted = resolve_wanted()
        states = [
            shard_state(_cut(small_trace,start, end), start, CONFIG,
                        wanted)
            for start, end in bounds
        ]
        fold = states[0]
        for state in states[1:]:
            fold = merge_states(fold, state, CONFIG)
        level = list(states)
        while len(level) > 1:
            level = [
                merge_states(level[i], level[i + 1], CONFIG)
                if i + 1 < len(level) else level[i]
                for i in range(0, len(level), 2)
            ]
        tree = level[0]
        fold_arrays = state_to_arrays(fold)
        tree_arrays = state_to_arrays(tree)
        assert sorted(fold_arrays) == sorted(tree_arrays)
        for key, value in fold_arrays.items():
            assert np.array_equal(value, tree_arrays[key]), key


class TestPartialRequests:
    """Per-key partials: computed entries exact, the rest NaN."""

    @pytest.mark.parametrize("categories,indices", [
        (["instruction mix"], None),
        (["ILP", "register traffic"], None),
        (["branch predictability"], None),
        (["working set size", "data stream strides"], None),
        (None, [0, 6, 19, 23, 43]),
        (["instruction mix"], [46]),
    ])
    def test_partials_match_one_shot(
        self, small_trace, categories, indices
    ):
        reference = characterize(small_trace, CONFIG).values
        wanted = resolve_wanted(categories, indices)
        result = sharded_characterize(
            small_trace, CONFIG, shards=5,
            categories=categories, indices=indices,
        ).values
        assert _bitwise_equal(result[wanted], reference[wanted])
        assert np.isnan(result[~wanted]).all()

    def test_full_request_has_no_nans(self, small_trace):
        values = sharded_characterize(small_trace, CONFIG, shards=3).values
        assert not np.isnan(values).any()

    def test_category_slices_cover_the_mask(self):
        slices = category_slices()
        wanted = resolve_wanted(list(SECTION_ORDER))
        assert wanted.all()
        assert set(slices) == set(SECTION_ORDER)


class TestStreamingDigests:
    """Satellite: the incremental digest equals the in-memory digest."""

    def test_memory_source_digest(self, small_trace):
        source = MemoryTraceSource(small_trace)
        assert source.content_digest() == small_trace.content_digest()
        assert source.fingerprint() == trace_fingerprint(small_trace)

    def test_mapped_source_digest(self, small_trace, tmp_path):
        path = tmp_path / "trace.mtf"
        write_trace(small_trace, path)
        source = open_trace_source(path)
        assert isinstance(source, MappedTraceSource)
        assert len(source) == len(small_trace)
        assert source.content_digest() == small_trace.content_digest()
        assert source.fingerprint() == trace_fingerprint(small_trace)

    def test_mapped_source_characterizes_bit_for_bit(
        self, small_trace, tmp_path
    ):
        path = tmp_path / "trace.mtf"
        write_trace(small_trace, path)
        source = open_trace_source(path)
        result = sharded_characterize(source, CONFIG, shard_size=700)
        assert _bitwise_equal(
            result.values, characterize(small_trace, CONFIG).values
        )

    def test_mapped_shards_are_bounded_copies(self, small_trace, tmp_path):
        # The out-of-core contract: a shard materializes only its own
        # rows, never the whole file.
        path = tmp_path / "trace.mtf"
        write_trace(small_trace, path)
        source = open_trace_source(path)
        for start, chunk in source.iter_shards([(0, 100), (4_900, 5_000)]):
            assert len(chunk) == 100
            assert chunk.data.nbytes == small_trace.data[:100].nbytes


class TestParallelScheduler:
    """The two-round fan-out reduces to the same bits as the stream."""

    def test_jobs2_matches_one_shot(self, small_trace):
        result = sharded_characterize(
            small_trace, CONFIG, shards=4, jobs=2
        )
        assert _bitwise_equal(
            result.values, characterize(small_trace, CONFIG).values
        )


class TestShardCache:
    """Satellite: warm shard-level cache entries skip the engine."""

    def test_warm_cache_skips_cold_states(self, small_trace, tmp_path):
        reset_cold_state_call_count()
        first = sharded_characterize(
            small_trace, CONFIG, shards=5, cache_dir=tmp_path
        )
        assert cold_state_call_count() == 5
        assert sorted(tmp_path.glob("shard-*.npz"))
        reset_cold_state_call_count()
        second = sharded_characterize(
            small_trace, CONFIG, shards=5, cache_dir=tmp_path
        )
        assert cold_state_call_count() == 0
        assert _bitwise_equal(first.values, second.values)

    def test_extended_trace_reuses_aligned_shards(
        self, default_profile, tmp_path
    ):
        # Fixed shard_size geometry: re-characterizing a trace that
        # grew at the end only computes the new tail shard.
        longer = generate_trace(default_profile, 3_000)
        prefix = _cut(longer, 0, 2_500)
        sharded_characterize(
            prefix, CONFIG, shard_size=500, cache_dir=tmp_path
        )
        reset_cold_state_call_count()
        result = sharded_characterize(
            longer, CONFIG, shard_size=500, cache_dir=tmp_path
        )
        assert cold_state_call_count() == 1  # only the new tail shard
        assert _bitwise_equal(
            result.values, characterize(longer, CONFIG).values
        )

    def test_offset_changes_the_state(self, small_trace):
        # ILP window alignment and register positions are absolute, so
        # the same bytes at a different offset are a different state —
        # the reason the shard cache keys on the absolute start.
        chunk = _cut(small_trace,64, 128)
        at_64 = shard_state(chunk, 64, CONFIG)
        at_96 = shard_state(chunk, 96, CONFIG)
        a, b = state_to_arrays(at_64), state_to_arrays(at_96)
        assert any(
            not np.array_equal(a[key], b[key]) for key in a
        )


class TestSerializationRoundtrip:
    """state_to_arrays / state_from_arrays through real npz bytes."""

    def test_npz_roundtrip_preserves_every_field(self, small_trace):
        bounds = shard_bounds(len(small_trace), shards=3)
        reference = characterize(small_trace, CONFIG).values
        prefix = None
        correct = np.zeros(4, dtype=np.int64)
        for start, end in bounds:
            chunk = _cut(small_trace,start, end)
            carry = (
                prefix.ppm if prefix is not None
                else ppm_empty_state(CONFIG.ppm_max_order)
            )
            correct += ppm_shard_correct(
                chunk, carry, CONFIG.ppm_max_order
            )
            state = shard_state(chunk, start, CONFIG)
            buffer = io.BytesIO()
            np.savez(buffer, **state_to_arrays(state))
            buffer.seek(0)
            with np.load(buffer) as payload:
                arrays = {key: payload[key] for key in payload.files}
            restored = state_from_arrays(arrays)
            prefix = (
                restored if prefix is None
                else merge_states(prefix, restored, CONFIG)
            )
        assert _bitwise_equal(
            finalize_state(prefix, correct, CONFIG), reference
        )

    def test_partial_state_roundtrip(self, small_trace):
        wanted = resolve_wanted(["ILP", "branch predictability"])
        state = shard_state(_cut(small_trace,0, 1_000), 0, CONFIG, wanted)
        restored = state_from_arrays(state_to_arrays(state))
        assert restored.sections == state.sections
        assert restored.start == 0 and restored.end == 1_000


class TestErrorSurfaces:

    def test_empty_trace_is_rejected(self, tiny_builder):
        with pytest.raises(CharacterizationError, match="empty trace"):
            sharded_characterize(tiny_builder.build(), CONFIG, shards=2)

    def test_empty_shard_is_rejected(self, small_trace):
        with pytest.raises(CharacterizationError, match="empty shard"):
            shard_state(_cut(small_trace,0, 0), 0, CONFIG)

    def test_non_adjacent_merge_is_rejected(self, small_trace):
        a = shard_state(_cut(small_trace,0, 100), 0, CONFIG)
        b = shard_state(_cut(small_trace,200, 300), 200, CONFIG)
        with pytest.raises(CharacterizationError, match="non-adjacent"):
            merge_states(a, b, CONFIG)

    def test_unrooted_finalize_is_rejected(self, small_trace):
        state = shard_state(_cut(small_trace,100, 200), 100, CONFIG)
        with pytest.raises(CharacterizationError, match="unrooted"):
            finalize_state(state, np.zeros(4, dtype=np.int64), CONFIG)

    def test_bad_geometry_is_rejected(self, small_trace):
        with pytest.raises(TraceError, match="exactly one"):
            sharded_characterize(small_trace, CONFIG)
        with pytest.raises(TraceError, match="exactly one"):
            sharded_characterize(
                small_trace, CONFIG, shards=2, shard_size=10
            )
        with pytest.raises(TraceError, match="shards must be"):
            sharded_characterize(small_trace, CONFIG, shards=0)
        with pytest.raises(TraceError, match="shard_size must be"):
            sharded_characterize(small_trace, CONFIG, shard_size=-1)

    def test_unknown_category_is_rejected(self, small_trace):
        with pytest.raises(CharacterizationError, match="unknown"):
            sharded_characterize(
                small_trace, CONFIG, shards=2, categories=["nonesuch"]
            )

    def test_out_of_range_index_is_rejected(self, small_trace):
        with pytest.raises(CharacterizationError, match="out of range"):
            sharded_characterize(
                small_trace, CONFIG, shards=2, indices=[47]
            )

    def test_unshardable_ppm_order_is_rejected(self, small_trace):
        config = CONFIG.with_overrides(ppm_max_order=25)
        with pytest.raises(CharacterizationError,
                           match="ppm_max_order"):
            sharded_characterize(small_trace, config, shards=2)

    def test_unrooted_ppm_carry_is_rejected(self, small_trace):
        # A mid-trace cold state still defers its leading branches; it
        # is not a valid prediction carry.
        state = shard_state(_cut(small_trace,1_000, 2_000), 1_000, CONFIG)
        if not (len(state.ppm.deferred_global[1])
                or len(state.ppm.deferred_local[1])):
            pytest.skip("no branches deferred at this boundary")
        with pytest.raises(CharacterizationError, match="rooted"):
            ppm_shard_correct(
                _cut(small_trace,2_000, 3_000), state.ppm,
                CONFIG.ppm_max_order,
            )

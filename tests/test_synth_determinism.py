"""Determinism of trace generation across the whole benchmark registry.

Two guards:

* a committed sha256 per registry benchmark of a short trace
  (``tests/data/trace_digests.json``), so any change to the static code
  builder or the generator that moves a single trace byte fails here;
* property tests for the batched weighted-draw protocol
  (:func:`repro.synth.rng.choice_indices`), which must return the same
  indices as one ``rng.choice(a, p=w)`` call per draw and leave the
  generator in the same state.

Refresh the digest table (only together with a ``TRACE_GEN_VERSION``
bump) with ``PYTHONPATH=src python tests/test_synth_determinism.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synth import TRACE_GEN_VERSION, generate_trace, make_behavior
from repro.synth.rng import choice_cdf, choice_indices
from repro.workloads import all_benchmarks

DIGESTS = Path(__file__).parent / "data" / "trace_digests.json"
DIGEST_LENGTH = 2_000
DIGEST_SEED = 0


def registry_trace_digests() -> dict:
    """sha256 of every registry benchmark's short trace, by full name."""
    return {
        benchmark.full_name: hashlib.sha256(
            generate_trace(
                benchmark.profile, DIGEST_LENGTH, seed=DIGEST_SEED
            ).data.tobytes()
        ).hexdigest()
        for benchmark in all_benchmarks()
    }


class TestRegistryTraceDigests:

    def test_every_registry_trace_matches_its_pinned_digest(self):
        pinned = json.loads(DIGESTS.read_text())
        assert (pinned["length"], pinned["seed"]) == (
            DIGEST_LENGTH, DIGEST_SEED
        )
        refresh = (
            "a change to trace bytes requires a TRACE_GEN_VERSION bump, "
            "then a refresh of tests/data/trace_digests.json "
            "(PYTHONPATH=src python tests/test_synth_determinism.py)"
        )
        assert pinned["trace_gen_version"] == TRACE_GEN_VERSION, refresh
        actual = registry_trace_digests()
        assert sorted(actual) == sorted(pinned["digests"])
        drifted = sorted(
            name for name, digest in pinned["digests"].items()
            if actual[name] != digest
        )
        assert not drifted, (
            f"{len(drifted)} of {len(actual)} registry traces changed "
            f"bytes (first: {drifted[:3]}); {refresh}"
        )


_SETTINGS = settings(max_examples=60, deadline=None)

#: Weight vectors with explicit zero entries; never all zero.
weight_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    min_size=1, max_size=8,
).filter(lambda weights: sum(weights) > 0)

seeds = st.integers(0, 2**32 - 1)


class TestBatchedChoiceProtocol:

    @_SETTINGS
    @given(weights=weight_vectors, count=st.integers(0, 64), seed=seeds)
    def test_batched_draws_replay_successive_choice_calls(
        self, weights, count, seed
    ):
        p = np.array(weights) / np.sum(weights)
        population = np.arange(len(p)) * 3 + 1
        looped = np.random.default_rng(seed)
        expected = [int(looped.choice(population, p=p)) for _ in range(count)]
        batched = np.random.default_rng(seed)
        drawn = population[choice_indices(batched, choice_cdf(p), count)]
        assert drawn.tolist() == expected
        assert batched.bit_generator.state == looped.bit_generator.state

    @_SETTINGS
    @given(weights=weight_vectors, seed=seeds)
    def test_scalar_draw_replays_one_choice_call(self, weights, seed):
        p = np.array(weights) / np.sum(weights)
        looped = np.random.default_rng(seed)
        expected = int(looped.choice(len(p), p=p))
        batched = np.random.default_rng(seed)
        assert int(choice_indices(batched, choice_cdf(p))) == expected
        assert batched.bit_generator.state == looped.bit_generator.state

    @_SETTINGS
    @given(
        kinds=st.lists(
            st.sampled_from(["sequential", "pointer", "scalar"]),
            max_size=12,
        ),
        seed=seeds,
    )
    def test_sequential_repeats_interleave_like_choice(self, kinds, seed):
        # The historical draw: rng.choice for sequential dwell repeats,
        # interleaved with PointerChase's seed draw.
        reference = np.random.default_rng(seed)
        expected = []
        for kind in kinds:
            if kind == "sequential":
                expected.append(int(reference.choice(
                    [1, 2, 4], p=[0.4, 0.35, 0.25]
                )))
            elif kind == "pointer":
                reference.integers(2**31)
        rng = np.random.default_rng(seed)
        behaviors = [
            make_behavior(kind, base=0x1000, footprint=4096, rng=rng)
            for kind in kinds
        ]
        assert [
            behavior.repeats for behavior, kind in zip(behaviors, kinds)
            if kind == "sequential"
        ] == expected
        assert rng.bit_generator.state == reference.bit_generator.state


if __name__ == "__main__":
    document = {
        "trace_gen_version": TRACE_GEN_VERSION,
        "length": DIGEST_LENGTH,
        "seed": DIGEST_SEED,
        "digests": registry_trace_digests(),
    }
    DIGESTS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(document['digests'])} digests to {DIGESTS}")

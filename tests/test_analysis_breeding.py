"""Bulk GA breeding against the per-child loop it replays.

``repro.analysis.genetic._breed`` breeds a generation from one raw
block of generator words; ``_breed_reference`` is the historical loop,
one child and one numpy call per draw at a time.  These tests pin that
the two breed the same children *and* leave the generator in the same
state (buffered uint32 half included) after every generation, and that
positioning the generator for a child the bulk path hands to the
reference is exact wherever the draw cursor stands.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import GeneticSelector
from repro.analysis import genetic
from test_numpy_draw_protocol import set_state, state_before


def _recording(breed, log):
    """``breed`` that appends (children bytes, generator state) to
    ``log`` after every generation."""

    def wrapper(rng, *args):
        children = breed(rng, *args)
        log.append((children.tobytes(), rng.bit_generator.state))
        return children

    return wrapper


def _select(selector, data, breed):
    log = []
    with mock.patch.object(genetic, "_breed", _recording(breed, log)):
        result = selector.select(data)
    return result, log


class TestBulkBreedingMatchesTheReference:

    @settings(max_examples=60, deadline=None)
    @example(  # N = 1 at a high mutation rate: many repair fallbacks
        population=12, features=1, crossover=0.9, mutation=0.9, elite=1,
        seed=0,
    )
    @example(  # non-power-of-two population, no crossover
        population=33, features=47, crossover=0.0, mutation=0.02, elite=3,
        seed=42,
    )
    @given(
        population=st.sampled_from([2, 5, 12, 33, 64]),
        features=st.sampled_from([1, 2, 9, 47]),
        crossover=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        mutation=st.floats(0.0, 0.9),
        elite=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_generation_and_the_result_replay_the_loop(
        self, population, features, crossover, mutation, elite, seed
    ):
        data = np.random.default_rng(seed).normal(size=(10, features))
        selector = GeneticSelector(
            population=population, generations=6, patience=6,
            mutation_rate=mutation, crossover_rate=crossover,
            elite=min(elite, population - 1), seed=seed,
        )
        expected, expected_log = _select(
            selector, data, genetic._breed_reference
        )
        actual, actual_log = _select(selector, data, genetic._breed)
        assert actual == expected
        assert len(actual_log) == expected.generations_run
        for generation, (got, want) in enumerate(
            zip(actual_log, expected_log)
        ):
            assert got == want, generation

    def test_the_paper_configuration_replays_the_loop(self):
        data = np.random.default_rng(7).normal(size=(40, 47))
        selector = GeneticSelector(population=64, generations=8, seed=42)
        expected, expected_log = _select(
            selector, data, genetic._breed_reference
        )
        actual, actual_log = _select(selector, data, genetic._breed)
        assert actual == expected
        assert actual_log == expected_log


class TestFallbackPositioning:

    @staticmethod
    def _generations(breed, seed, population, crossover, mutation):
        """Children and generator state over four generations, from a
        generator that starts with a uint32 half buffered."""
        rng = np.random.default_rng(seed)
        rng.integers(0, 5)  # leaves the high half of a word pending
        assert rng.bit_generator.state["has_uint32"] == 1
        scores = np.random.default_rng(seed + 1).random(len(population))
        out = []
        for _ in range(4):
            children = breed(
                rng, population, scores, len(population) - 1, crossover,
                mutation,
            )
            out.append((children.tobytes(), rng.bit_generator.state))
            population = np.vstack([population[:1], children])
        return out

    def test_every_child_through_the_reference_path(self):
        """With every child irregular, the bulk path only positions the
        generator; with crossover off each child takes three uint32
        halves, so every other child starts with a half pending."""
        def every_child(rejected, children):
            return np.ones(len(children), dtype=bool)

        calls = []
        reference = genetic._breed_reference

        def counted_reference(rng, *args):
            calls.append(rng.bit_generator.state["has_uint32"])
            return reference(rng, *args)

        for crossover, mutation in ((0.0, 0.1), (0.9, 0.3), (1.0, 0.0)):
            for size in (5, 12, 16):
                population = (
                    np.random.default_rng(size).random((size, 9)) < 0.4
                )
                expected = self._generations(
                    reference, size, population, crossover, mutation
                )
                with mock.patch.object(
                    genetic, "_irregular", every_child
                ), mock.patch.object(
                    genetic, "_breed_reference", counted_reference
                ):
                    actual = self._generations(
                        genetic._breed, size, population, crossover,
                        mutation,
                    )
                assert actual == expected, (crossover, mutation, size)
        assert calls.count(1) and calls.count(0)  # both cursor parities

    @staticmethod
    def _spied_breed(rng, population, scores, crossover, mutation):
        """``_breed`` with the flags of every irregular-child check."""
        flags = []
        irregular = genetic._irregular

        def spy(rejected, children):
            flags.append((rejected.any(axis=(1, 2)), ~children.any(axis=1)))
            return irregular(rejected, children)

        with mock.patch.object(genetic, "_irregular", spy):
            children = genetic._breed(
                rng, population, scores, len(population) - 1, crossover,
                mutation,
            )
        return children, flags

    def test_a_rejected_tournament_draw_falls_back(self):
        """Population 12 rejects a Lemire leftover below 2**32 mod 12.
        With 9 features and no crossover, child 1 draws its second
        contender from the low half of word 12: make that half 0."""
        population = np.random.default_rng(1).random((12, 9)) < 0.5
        scores = np.random.default_rng(2).random(12)
        want, got = np.random.default_rng(0), np.random.default_rng(0)
        inc = want.bit_generator.state["state"]["inc"]
        for rng in (want, got):
            set_state(rng.bit_generator,
                      state_before(0x1234567800000000, inc, steps=12))
        expected = genetic._breed_reference(
            want, population, scores, 11, 0.0, 0.2
        )
        actual, flags = self._spied_breed(got, population, scores, 0.0, 0.2)
        assert actual.tobytes() == expected.tobytes()
        assert got.bit_generator.state == want.bit_generator.state
        rejected, _ = flags[0]
        assert np.flatnonzero(rejected).tolist()[:1] == [1]

    def test_all_zero_children_take_the_repair_draw(self):
        """One feature at mutation rate 0.9: children come out empty
        and take ``integers(N)``; N = 2 makes that a real draw."""
        for features in (1, 2):
            population = (
                np.random.default_rng(3).random((12, features)) < 0.5
            )
            scores = np.random.default_rng(4).random(12)
            want, got = np.random.default_rng(9), np.random.default_rng(9)
            expected = genetic._breed_reference(
                want, population, scores, 11, 0.9, 0.9
            )
            actual, flags = self._spied_breed(
                got, population, scores, 0.9, 0.9
            )
            assert actual.tobytes() == expected.tobytes()
            assert got.bit_generator.state == want.bit_generator.state
            assert any(empty.any() for _, empty in flags)

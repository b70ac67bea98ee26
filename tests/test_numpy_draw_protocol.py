"""Canary: the numpy ``Generator``/``PCG64`` behaviour bulk GA breeding
replays from raw words (see ``repro.analysis.genetic``) and the static
code builder's bulk behavior draws rely on (``repro.synth.code``).

If a numpy release changes any of these, this file fails under its own
name (CI runs it before tier-1) rather than as a golden-output diff:

* ``random()`` / ``random(n)`` is ``(word >> 11) * 2**-53`` per word and
  leaves the buffered uint32 half alone;
* ``integers(0, P, size=k)`` is Lemire's ``(u32 * P) >> 32`` over uint32
  halves (low half first, high half buffered), redrawing when the low
  32 bits of the product fall below ``2**32 mod P``;
* ``advance(words)`` clears the buffered half, and setting
  ``has_uint32``/``uinteger`` afterwards reproduces the state of a
  generator that drew those words;
* ``random_raw`` hands out words without touching the buffered half;
* ``random(k)`` equals ``k`` scalar ``random()`` calls while a uint32
  half is buffered, and keeps it buffered;
* ``integers(2**31, size=m)`` equals ``m`` scalar calls, each the next
  uint32 half shifted right by one (Lemire never rejects at 2**31).

Pure numpy: nothing here imports the package.
"""

from __future__ import annotations

import numpy as np
import pytest

#: numpy's PCG64 (XSL-RR 128/64) LCG multiplier.
PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_MASK64 = (1 << 64) - 1


def state_before(word: int, inc: int, steps: int = 0) -> int:
    """A PCG64 state whose ``steps + 1``-th next raw word is ``word``."""
    high = (5 << 58) | 12345  # any high half; its top 6 bits rotate
    rotation = high >> 58
    rotated = ((word << rotation) | (word >> (64 - rotation))) & _MASK64
    state = (high << 64) | (rotated ^ high)
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(steps + 1):
        state = ((state - inc) * inverse) % (1 << 128)
    return state


def set_state(bitgen, state: int, has_uint32: int = 0, uinteger: int = 0):
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": bitgen.state["state"]["inc"]},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


def _halves(words):
    """uint32 draws a fresh generator makes from ``words``."""
    out = []
    for word in words.tolist():
        out += [word & 0xFFFFFFFF, word >> 32]
    return out


def test_doubles_are_the_top_53_bits_of_a_word():
    drawn = np.random.default_rng(11)
    words = np.random.default_rng(11).bit_generator.random_raw(9)
    expected = (words >> 11) * (1.0 / 9007199254740992.0)
    assert drawn.random() == expected[0]
    assert drawn.random(8).tobytes() == expected[1:].tobytes()


@pytest.mark.parametrize("size", [64, 12])
def test_bounded_integers_are_buffered_lemire(size):
    drawn = np.random.default_rng(size)
    words = np.random.default_rng(size).bit_generator.random_raw(3)
    halves = _halves(words)
    # A double between the draws does not touch the buffered half.
    first = drawn.integers(0, size, size=3)
    assert drawn.random() == (int(words[2]) >> 11) * 2.0**-53
    second = drawn.integers(0, size, size=1)
    used = halves[:4]
    assert all((u * size) & 0xFFFFFFFF >= (1 << 32) % size for u in used)
    expected = [(u * size) >> 32 for u in used]
    assert first.tolist() + second.tolist() == expected
    assert drawn.bit_generator.state["has_uint32"] == 0


def test_a_leftover_below_the_threshold_is_redrawn():
    rng = np.random.default_rng(0)
    bitgen = rng.bit_generator
    word = 0xDEADBEEF00000000  # low half 0: leftover 0 < 2**32 mod 12
    set_state(bitgen, state_before(word, bitgen.state["state"]["inc"]))
    drawn = rng.integers(0, 12, size=1)
    assert drawn.tolist() == [(0xDEADBEEF * 12) >> 32]
    assert bitgen.state["has_uint32"] == 0  # both halves consumed
    set_state(bitgen, state_before(word, bitgen.state["state"]["inc"]))
    assert rng.integers(0, 64, size=1).tolist() == [0]  # 2**32 mod 64 = 0


def test_advance_and_the_buffered_half_reproduce_the_state():
    drawn = np.random.default_rng(5)
    drawn.integers(0, 12, size=3)  # two words, high half of the second
    drawn.random(4)  # buffered across four doubles
    replayed = np.random.default_rng(5)
    bitgen = replayed.bit_generator
    replayed.integers(0, 12, size=1)  # word 0, its high half buffered
    start = bitgen.state
    assert start["has_uint32"] == 1
    words = bitgen.random_raw(10)  # words 1..10
    assert bitgen.state["has_uint32"] == 1
    assert bitgen.state["uinteger"] == start["uinteger"]
    bitgen.state = start
    bitgen.advance(5)
    state = bitgen.state
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)
    state["has_uint32"], state["uinteger"] = 1, int(words[0]) >> 32
    bitgen.state = state
    assert bitgen.state == drawn.bit_generator.state
    # Using up the half keeps its value as stale ``uinteger``.
    drawn.integers(0, 12, size=1)
    assert drawn.bit_generator.state["uinteger"] == int(words[0]) >> 32
    assert drawn.bit_generator.state["has_uint32"] == 0


# The static code builder (``repro.synth.code._assign_memory_behaviors``)
# draws each run of ``sequential`` dwell repeats as one ``random(k)`` and
# each run of ``pointer`` seeds as one ``integers(2**31, size=m)``.


def test_a_double_block_draws_like_single_doubles_beside_a_pending_half():
    block, single = np.random.default_rng(3), np.random.default_rng(3)
    for rng in (block, single):
        rng.integers(2**31)  # the word's high half stays buffered
    assert block.bit_generator.state["has_uint32"] == 1
    drawn = block.random(5)
    assert drawn.tobytes() == np.array(
        [single.random() for _ in range(5)]
    ).tobytes()
    assert block.bit_generator.state == single.bit_generator.state
    assert block.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("pending", [0, 1])
def test_seed_blocks_are_buffered_uint32_halves_shifted_right(pending):
    block, single = np.random.default_rng(8), np.random.default_rng(8)
    halves = _halves(np.random.default_rng(8).bit_generator.random_raw(4))
    for rng in (block, single):
        rng.integers(2**31, size=pending)
    drawn = block.integers(2**31, size=5)
    assert drawn.tolist() == [int(single.integers(2**31)) for _ in range(5)]
    assert drawn.tolist() == [
        half >> 1 for half in halves[pending : pending + 5]
    ]
    assert block.bit_generator.state == single.bit_generator.state

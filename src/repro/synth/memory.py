"""Data-access behavior models.

Each *static* memory instruction in a synthetic program owns one
behavior instance over a private region of the data address space.  The
behavior generates the instruction's effective-address sequence across
its dynamic occurrences, which directly shapes the paper's local-stride
characteristics (Table II, nos. 24-28 / 34-38) and the data working set
(nos. 20-21); global strides (nos. 29-33 / 39-43) emerge from the
interleaving of all behaviors.

All behaviors generate vectorized address sequences and produce 8-byte
aligned addresses (the natural Alpha access width).

Production images keep no behavior objects: the static code builder
draws every behavior's parameters in bulk into the flat arrays of
:class:`repro.synth.code.MemoryPlan`, and the batch expansion
(``repro.synth.generator._scatter_memory``) mirrors the slot
arithmetic and cursor advance implemented here.  The classes below are
the per-instance specification: the scalar references build and
replay them, and ``tests/test_synth_vectorized_equivalence.py`` pins
the fused paths against them, so changing a behavior's internals will
fail those tests until the plan is updated to match.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ProfileError
from .rng import choice_cdf, choice_indices

#: Natural access alignment in bytes.
ACCESS_BYTES = 8

#: Dwell repeats a ``sequential`` behavior draws from, and the
#: :func:`~repro.synth.rng.choice_cdf` table of their weights.
_SEQUENTIAL_REPEATS = np.array([1, 2, 4])
_SEQUENTIAL_REPEAT_CDF = choice_cdf([0.4, 0.35, 0.25])

#: A ``random`` behavior's chance of hitting its hot subset, and the
#: fraction (``1/divisor``) of its region that subset spans.
RANDOM_HOT_PROBABILITY = 0.6
RANDOM_HOT_DIVISOR = 16


def sequential_repeats(rng: np.random.Generator, count=None):
    """Dwell repeats of ``count`` ``sequential`` behaviors (one scalar
    for ``None``), drawn like ``count`` single draws."""
    drawn = choice_indices(rng, _SEQUENTIAL_REPEAT_CDF, count)
    return _SEQUENTIAL_REPEATS[drawn]


def pointer_seeds(rng: np.random.Generator, count=None):
    """Cycle-order seeds of ``count`` ``pointer`` behaviors (one scalar
    for ``None``), drawn like ``count`` single draws."""
    return rng.integers(2**31, size=count)


def random_slots_from_uniforms(
    region_u: np.ndarray,
    slot_u: np.ndarray,
    hot_span,
    span,
    hot_probability,
) -> np.ndarray:
    """Slot indices of skewed random accesses from pre-drawn uniforms.

    The first uniform picks the hot subset vs the whole region, the
    second scales to the chosen span.  Parameters may be scalars (one
    :class:`RandomStream`) or arrays (the batch engine fusing many
    instances); the kernel is the single source of truth for both.
    """
    chosen = np.where(region_u < hot_probability, hot_span, span)
    return (slot_u * chosen).astype(np.int64)


class AccessBehavior(ABC):
    """Generates the effective-address sequence of one static memory
    instruction.

    Args:
        base: lowest address of the behavior's private region.
        footprint: region size in bytes (the behavior never touches
            addresses outside ``[base, base + footprint)``).
    """

    def __init__(self, base: int, footprint: int):
        if base <= 0:
            raise ProfileError("behavior base address must be positive")
        if footprint < ACCESS_BYTES:
            raise ProfileError(
                f"behavior footprint must be >= {ACCESS_BYTES} bytes"
            )
        self.base = int(base)
        self.footprint = int(footprint) & ~(ACCESS_BYTES - 1)
        self._slots = max(self.footprint // ACCESS_BYTES, 1)

    @abstractmethod
    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Addresses of the next ``count`` dynamic occurrences (uint64)."""

    def reset(self) -> None:
        """Rewind any internal cursor to the behavior's initial state.

        Static code images (and the behaviors they own) are shared
        across :func:`repro.synth.generate_trace` calls, so every trace
        starts from freshly reset behaviors.
        """

    def _from_slots(self, slots: np.ndarray) -> np.ndarray:
        return (self.base + slots.astype(np.uint64) * ACCESS_BYTES).astype(
            np.uint64
        )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} base={self.base:#x} "
            f"footprint={self.footprint}>"
        )


class ScalarStream(AccessBehavior):
    """Always the same address (a scalar / stack slot).

    Produces local stride = 0 with probability one.
    """

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, self.base, dtype=np.uint64)


class SequentialStream(AccessBehavior):
    """Strided walk over the region, wrapping at the end.

    Args:
        stride: byte distance between consecutive *distinct* addresses
            (default 8).
        repeats: how many times each address is accessed before the
            cursor advances (temporal dwell, default 1).  Real code
            re-reads fields and array elements; dwell reproduces that
            temporal locality and contributes zero local strides.
    """

    def __init__(
        self,
        base: int,
        footprint: int,
        stride: int = ACCESS_BYTES,
        repeats: int = 1,
    ):
        super().__init__(base, footprint)
        if stride <= 0 or stride % ACCESS_BYTES:
            raise ProfileError("stride must be a positive multiple of 8")
        if repeats < 1:
            raise ProfileError("repeats must be >= 1")
        self.stride = stride
        self.repeats = repeats
        self._count = 0

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        step = self.stride // ACCESS_BYTES
        ticks = self._count + np.arange(count, dtype=np.int64)
        slots = (ticks // self.repeats * step) % self._slots
        self._count += count
        return self._from_slots(slots)

    def reset(self) -> None:
        self._count = 0


class StridedStream(SequentialStream):
    """Constant large-stride walk (column-major / record-field access).

    Identical machinery to :class:`SequentialStream`; the distinction is
    purely semantic (strides larger than a cache block).
    """


class RandomStream(AccessBehavior):
    """Random access over the region with a hot subset.

    Real "irregular" access (hash tables, symbol tables) is skewed: a
    small hot subset absorbs most accesses.  With probability
    ``hot_probability`` an access falls in the first
    ``1/hot_divisor``-th of the region; otherwise it is uniform over the
    whole region, so the full footprint is still exercised.
    """

    def __init__(
        self,
        base: int,
        footprint: int,
        hot_probability: float = RANDOM_HOT_PROBABILITY,
        hot_divisor: int = RANDOM_HOT_DIVISOR,
    ):
        super().__init__(base, footprint)
        if not 0.0 <= hot_probability <= 1.0:
            raise ProfileError("hot_probability must be in [0, 1]")
        if hot_divisor < 1:
            raise ProfileError("hot_divisor must be >= 1")
        self.hot_probability = hot_probability
        self._hot_slots = max(self._slots // hot_divisor, 1)

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # Two uniforms per access drawn as one splittable block (the
        # first half picks hot vs whole region, the second scales to the
        # chosen region), so batching many instances into a single
        # ``rng.random`` call yields a bit-identical stream.
        uniforms = rng.random(2 * count)
        return self._from_slots(random_slots_from_uniforms(
            uniforms[:count], uniforms[count:], self._hot_slots,
            self._slots, self.hot_probability,
        ))


class PointerChase(AccessBehavior):
    """Walk of a fixed random permutation cycle over the region.

    Models linked-data-structure traversal: the address sequence is
    deterministic given the (seeded) permutation, successive addresses
    are far apart, and the whole region is covered before repeating.

    A uniform random permutation decomposes into short cycles while a
    linked list is one long cycle, so the walk follows a Hamiltonian
    cycle given by a random visit *order*.  The cycle is materialized
    once; a batch of ``count`` accesses is then a single gather at
    ``(cursor + arange(count)) % slots`` rather than a per-access
    pointer dereference.
    """

    def __init__(self, base: int, footprint: int, seed: int = 0):
        super().__init__(base, footprint)
        perm_rng = np.random.default_rng(seed)
        self._order = perm_rng.permutation(self._slots)
        self._cursor = 0

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        positions = (
            self._cursor + np.arange(count, dtype=np.int64)
        ) % self._slots
        self._cursor = (self._cursor + count) % self._slots
        return self._from_slots(self._order[positions])

    def reset(self) -> None:
        self._cursor = 0


#: Behavior kinds selectable from a profile's behavior-mix mapping.
BEHAVIOR_KINDS = ("scalar", "sequential", "strided", "random", "pointer")


def make_behavior(
    kind: str,
    base: int,
    footprint: int,
    rng: np.random.Generator,
    stride: int = 64,
) -> AccessBehavior:
    """Instantiate a behavior by kind name.

    Args:
        kind: one of :data:`BEHAVIOR_KINDS`.
        base: region base address.
        footprint: region size in bytes.
        rng: used only to seed behaviors with internal randomness.
        stride: byte stride for the ``strided`` kind.

    Raises:
        ProfileError: for an unknown kind.
    """
    if kind == "scalar":
        return ScalarStream(base, min(footprint, ACCESS_BYTES))
    if kind == "sequential":
        # One scalar draw: it interleaves with PointerChase's seed draws.
        repeats = int(sequential_repeats(rng))
        return SequentialStream(base, footprint, repeats=repeats)
    if kind == "strided":
        return StridedStream(base, footprint, stride=stride)
    if kind == "random":
        return RandomStream(base, footprint)
    if kind == "pointer":
        return PointerChase(base, footprint, seed=int(pointer_seeds(rng)))
    raise ProfileError(f"unknown access-behavior kind: {kind!r}")

"""Deterministic seeding and weighted-draw utilities.

Every synthetic benchmark must produce the identical trace on every run
and on every platform, so seeds are derived from a stable cryptographic
hash of string identifiers rather than Python's salted ``hash``.

Weighted categorical draws go through :func:`choice_cdf` and
:func:`choice_indices`, which replay numpy's own
``Generator.choice(a, p=weights)`` algorithm: one uniform per draw,
searched in the normalized cumulative weights.  Building the table once
and drawing a whole block with one ``rng.random(k)`` returns the same
indices and leaves the generator in the same state as ``k`` separate
``choice`` calls, without paying ``choice``'s per-call argument
validation.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_seed(*parts: object) -> int:
    """Derive a 64-bit seed from a sequence of identifying values.

    The same inputs always produce the same seed, across processes and
    platforms.

    >>> stable_seed("spec2000", "bzip2", "graphic") == stable_seed(
    ...     "spec2000", "bzip2", "graphic")
    True
    """
    digest = hashlib.sha256("\x1f".join(str(part) for part in parts).encode())
    return int.from_bytes(digest.digest()[:8], "little")


def make_rng(*parts: object) -> np.random.Generator:
    """A numpy ``Generator`` seeded from :func:`stable_seed`."""
    return np.random.default_rng(stable_seed(*parts))


def choice_cdf(weights) -> np.ndarray:
    """The cumulative table ``Generator.choice(a, p=weights)`` searches.

    numpy builds it as ``cdf = p.cumsum(); cdf /= cdf[-1]`` on every
    call; this builds it once, bit-for-bit the same way.
    """
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def choice_indices(rng: np.random.Generator, cdf: np.ndarray, count=None):
    """Indices of ``count`` successive ``rng.choice(a, p=weights)`` draws.

    ``cdf`` comes from :func:`choice_cdf`.  Each draw consumes one
    ``rng.random()`` exactly as ``choice`` does, so the indices and the
    generator's final state match the one-draw-per-call loop.  With
    ``count=None`` a single index is drawn and returned as a scalar.
    """
    return cdf.searchsorted(rng.random(count), side="right")

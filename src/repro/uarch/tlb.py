"""D-TLB simulator.

A TLB is a fully-associative LRU cache of page translations; the
implementation reuses the set-associative machinery with a single set
whose associativity equals the entry count.
"""

from __future__ import annotations

import numpy as np

from .cache import CacheConfig, LineRuns, SetAssociativeCache


class TLB:
    """A fully-associative data TLB.

    Args:
        entries: number of translations held (e.g. 64 for the 21164A).
        page_bytes: page size (power of two, 8 KB on Alpha).
    """

    def __init__(self, entries: int = 64, page_bytes: int = 8192):
        self.entries = entries
        self.page_bytes = page_bytes
        config = CacheConfig(
            name="DTLB",
            size_bytes=entries * page_bytes,
            line_bytes=page_bytes,
            associativity=entries,
        )
        self._cache = SetAssociativeCache(config)

    @property
    def stats(self):
        """Access/miss counters (a :class:`~repro.uarch.CacheStats`)."""
        return self._cache.stats

    def reset(self) -> None:
        """Invalidate all translations and clear statistics."""
        self._cache.reset()

    def access(self, address: int) -> bool:
        """Translate one address.  True on TLB hit."""
        return self._cache.access(address)

    def simulate(self, addresses: np.ndarray) -> np.ndarray:
        """Translate a sequence of addresses; returns the miss mask.

        Runs the batch engine of the underlying cache — with a single
        set whose associativity is the entry count, the engine resolves
        hits via the reuse-gap filter and exact LRU stack distances.
        """
        return self._cache.simulate(addresses)

    def simulate_runs(self, runs: LineRuns) -> np.ndarray:
        """:meth:`simulate` over a stream cut into page runs; a fresh
        TLB shares the runs' stack distances with any other TLB."""
        return self._cache.simulate_runs(runs)

    def simulate_reference(self, addresses: np.ndarray) -> np.ndarray:
        """Scalar per-access translation — the executable specification."""
        return self._cache.simulate_reference(addresses)

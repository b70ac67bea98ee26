"""Chunked trace sources: iterate shards without materializing a trace.

A :class:`TraceSource` is the out-of-core counterpart of
:class:`~repro.trace.Trace`: it knows the trace's length and can yield
contiguous *shards* (``(start, Trace)`` pairs) one at a time, so the
shard-mergeable characterization engine (:mod:`repro.mica.shard`) can
stream a trace that is much larger than RAM.  Two sources are provided:

* :class:`MemoryTraceSource` — wraps an in-memory :class:`Trace`
  (shards are cheap slices); the degenerate case used whenever the
  trace already fits.
* :class:`MappedTraceSource` — memory-maps an uncompressed binary
  ``.mtf`` file (:mod:`repro.trace.io`) and copies out one shard of
  rows at a time, so peak resident trace memory is bounded by the
  shard size, never the trace length.

Both compute the trace's content digest and cache fingerprint
*incrementally* (shard-by-shard sha256 updates over the same byte
stream the in-memory paths hash), pinned equal to
:meth:`Trace.content_digest` and :func:`repro.perf.trace_fingerprint`
by ``tests/test_shard_merge_equivalence.py``.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import TraceError, TraceFormatError
from ..isa import TRACE_DTYPE
from .trace import Trace
from .io import _HEADER, MAGIC, _validated

PathLike = Union[str, "os.PathLike[str]"]

#: Rows hashed per digest update; bounds digest memory for huge shards.
_DIGEST_CHUNK_ROWS = 1 << 16


def shard_bounds(
    n: int,
    shards: "Optional[int]" = None,
    shard_size: "Optional[int]" = None,
) -> "List[Tuple[int, int]]":
    """Contiguous ``(start, end)`` shard bounds covering ``[0, n)``.

    Exactly one of ``shards`` (a target shard count; the trace is split
    into that many near-equal contiguous parts, fewer when the trace is
    shorter than the count) and ``shard_size`` (a fixed number of rows
    per shard, the last one partial) must be given.

    Raises:
        TraceError: on a non-positive trace length, both or neither
            argument given, or a non-positive count/size.
    """
    if n <= 0:
        raise TraceError(f"cannot shard an empty trace (length {n})")
    if (shards is None) == (shard_size is None):
        raise TraceError("give exactly one of shards= and shard_size=")
    bounds: "List[Tuple[int, int]]" = []
    if shards is not None:
        if shards < 1:
            raise TraceError(f"shards must be >= 1, got {shards}")
        count = min(int(shards), n)
        base, extra = divmod(n, count)
        start = 0
        for index in range(count):
            end = start + base + (1 if index < extra else 0)
            bounds.append((start, end))
            start = end
    else:
        if shard_size < 1:
            raise TraceError(
                f"shard_size must be >= 1, got {shard_size}"
            )
        for start in range(0, n, int(shard_size)):
            bounds.append((start, min(start + int(shard_size), n)))
    return bounds


class TraceSource:
    """A length-known stream of contiguous trace shards.

    Subclasses implement :meth:`_rows` (copy rows ``[start, end)`` out
    as a structured array) and expose ``name``; everything else —
    shard iteration, incremental digests, cache fingerprints — is
    shared.
    """

    name: str = ""

    def __len__(self) -> int:
        raise NotImplementedError

    def _rows(self, start: int, end: int) -> np.ndarray:
        raise NotImplementedError

    def shard(self, start: int, end: int) -> Trace:
        """One contiguous shard as a :class:`Trace`."""
        n = len(self)
        if not 0 <= start < end <= n:
            raise TraceError(
                f"bad shard bounds [{start}, {end}) for length {n}"
            )
        return Trace(self._rows(start, end), name=self.name)

    def iter_shards(
        self, bounds: "Sequence[Tuple[int, int]]"
    ) -> "Iterator[Tuple[int, Trace]]":
        """Yield ``(start, shard)`` for each requested bound, in order.

        Only one shard's rows are resident at a time (the previous
        shard is released as soon as the consumer drops it).
        """
        for start, end in bounds:
            yield start, self.shard(start, end)

    def _digest_update(self, hasher) -> None:
        """Feed the full row byte stream into ``hasher``, chunk-wise."""
        n = len(self)
        for start in range(0, n, _DIGEST_CHUNK_ROWS):
            end = min(start + _DIGEST_CHUNK_ROWS, n)
            hasher.update(self._rows(start, end).tobytes())

    def content_digest(self) -> str:
        """Streaming counterpart of :meth:`Trace.content_digest`.

        Computed incrementally (one bounded chunk of rows resident at a
        time) over the exact byte stream the in-memory digest hashes,
        so the two are always equal for the same rows.
        """
        hasher = hashlib.sha256()
        self._digest_update(hasher)
        return hasher.hexdigest()[:16]

    def fingerprint(self) -> str:
        """Streaming counterpart of :func:`repro.perf.trace_fingerprint`.

        Hashes the dtype string then the row bytes chunk-wise — the
        same stream :func:`~repro.perf.trace_fingerprint` hashes in one
        shot — so a chunked source keys the content-addressed caches
        without ever materializing the full columns.
        """
        hasher = hashlib.sha256()
        hasher.update(str(TRACE_DTYPE).encode())
        self._digest_update(hasher)
        return hasher.hexdigest()[:32]


class MemoryTraceSource(TraceSource):
    """A :class:`TraceSource` over an in-memory :class:`Trace`."""

    def __init__(self, trace: Trace):
        self._trace = trace
        self.name = trace.name

    def __len__(self) -> int:
        return len(self._trace)

    def _rows(self, start: int, end: int) -> np.ndarray:
        # A view: shards share the trace's backing array, no copy.
        return self._trace.data[start:end]


class MappedTraceSource(TraceSource):
    """A :class:`TraceSource` over an uncompressed binary ``.mtf`` file.

    The file is memory-mapped read-only; each shard copies just its own
    rows out of the map, so peak resident trace memory is bounded by
    the shard size rather than the trace length.  Gzipped traces
    (``.gz``) cannot be mapped — decompress first or read them whole
    with :func:`repro.trace.read_trace`.

    Every shard is validated (:func:`~repro.trace.validate_trace`) as
    it is read, so a shard task reads and checks only its own rows.

    Raises:
        TraceFormatError: on a gzipped path, bad magic, or a payload
            shorter than the header's row count promises; from
            :meth:`shard`, on rows that fail validation.
    """

    def __init__(self, path: PathLike, name: str = ""):
        self.path = str(path)
        if self.path.endswith(".gz"):
            raise TraceFormatError(
                f"{path}: gzipped traces cannot be memory-mapped"
            )
        with open(self.path, "rb") as handle:
            header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        magic, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        payload = os.path.getsize(self.path) - _HEADER.size
        expected = count * TRACE_DTYPE.itemsize
        if payload < expected:
            raise TraceFormatError(
                f"{path}: expected {expected} payload bytes, "
                f"found {payload}"
            )
        self._count = int(count)
        self.name = name or self.path

    def __len__(self) -> int:
        return self._count

    def shard(self, start: int, end: int) -> Trace:
        return _validated(
            super().shard(start, end), f"{self.path}[{start}:{end}]"
        )

    def _rows(self, start: int, end: int) -> np.ndarray:
        # A fresh map per read keeps the source picklable (workers
        # re-open the file themselves) and lets the OS drop pages as
        # soon as the copy is made.
        mapped = np.memmap(
            self.path, dtype=TRACE_DTYPE, mode="r",
            offset=_HEADER.size, shape=(self._count,),
        )
        try:
            return np.array(mapped[start:end])
        finally:
            del mapped


def as_trace_source(
    trace_or_source: "Trace | TraceSource",
) -> TraceSource:
    """Coerce a :class:`Trace` or source to a :class:`TraceSource`."""
    if isinstance(trace_or_source, TraceSource):
        return trace_or_source
    return MemoryTraceSource(trace_or_source)


def open_trace_source(path: PathLike, name: str = "") -> TraceSource:
    """A chunked source over an on-disk binary ``.mtf`` trace; each
    shard is validated as it is read."""
    return MappedTraceSource(path, name=name)

"""Columnar trace container.

A :class:`Trace` holds the dynamic instruction stream as one
C-contiguous, aligned, read-only numpy array per field of
:data:`repro.isa.TRACE_DTYPE`, so every MICA analyzer and
microarchitecture simulator runs over plain contiguous columns, not
29-byte-strided views into packed records.  The packed records remain
the trace's byte identity: :attr:`Trace.data` assembles them on demand
(for the writers and the trace cache) without keeping them, and the
content hashes cover exactly those bytes.  Slices view their parent's
columns.

The columns are immutable, so every class mask and derived stream
(load addresses, branch outcomes) is computed once and memoized.  Bulk
record iteration goes through :meth:`Trace.records`, which converts
each column to Python scalars once and skips per-row re-validation of
data that was validated when the trace was built.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, Mapping

import numpy as np

from ..errors import TraceError
from ..isa import (
    TRACE_DTYPE,
    InstructionRecord,
    OpClass,
    record_from_row,
    unchecked_record,
)


#: Hex digits of :meth:`Trace.content_digest`.
DIGEST_LENGTH = 16

#: Column names, in :data:`TRACE_DTYPE` (on-disk) order.
FIELDS = TRACE_DTYPE.names


def array_hasher(dtype, shape):
    """A sha256 fed an array's dtype and shape: fed its bytes next, the
    checksum of :mod:`repro.perf.integrity` and of content digests."""
    hasher = hashlib.sha256()
    hasher.update(str(dtype).encode())
    hasher.update(repr(tuple(shape)).encode())
    return hasher


def _column(field: str) -> property:
    return property(lambda self: self._columns[field])


class Trace:
    """An immutable dynamic instruction trace.

    Args:
        data: structured array with dtype :data:`TRACE_DTYPE`; it is
            split into columns once (and not kept).
        name: optional label (usually ``suite/program/input``).
        recipe: the :class:`repro.synth.TraceRecipe` the bytes were
            generated from, or None.  Only the generator and the trace
            cache set it; every derived trace (slices, filters,
            builders, file readers) carries none, so cache keys fall
            back to the content fingerprint.

    The columns are marked read-only; build modified traces through
    :class:`repro.trace.TraceBuilder` or the filter utilities.
    """

    def __init__(self, data: np.ndarray, name: str = "", recipe=None):
        if data.dtype != TRACE_DTYPE:
            raise TraceError(
                f"trace data must have TRACE_DTYPE, got {data.dtype}"
            )
        if data.ndim != 1:
            raise TraceError("trace data must be one-dimensional")
        self._adopt(
            {field: data[field].copy() for field in FIELDS}, name, recipe
        )

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, np.ndarray], name: str = "", recipe=None
    ) -> "Trace":
        """A trace over one array per :data:`TRACE_DTYPE` field.

        Arrays already of the field's dtype, contiguous and aligned are
        adopted without a copy and marked read-only.

        Raises:
            TraceError: unless the fields are exactly those of
                :data:`TRACE_DTYPE`, as 1-D arrays of one length.
        """
        if sorted(columns) != sorted(FIELDS):
            raise TraceError(
                f"trace columns must be {FIELDS}, got {tuple(columns)}"
            )
        arrays = {
            field: np.require(columns[field], TRACE_DTYPE[field], "CA")
            for field in FIELDS
        }
        shapes = {array.shape for array in arrays.values()}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise TraceError("trace columns must be 1-D and of one length")
        trace = cls.__new__(cls)
        trace._adopt(arrays, name, recipe)
        return trace

    def _adopt(
        self, columns: Dict[str, np.ndarray], name: str, recipe
    ) -> None:
        for column in columns.values():
            column.setflags(write=False)
        self._columns = columns
        self.name = name
        self.recipe = recipe
        # Memoized masks / derived streams; safe because the columns
        # are read-only for the trace's lifetime.
        self._derived: Dict[str, np.ndarray] = {}
        self._digest: "str | None" = None
        self._fingerprint: "str | None" = None

    def _cached(self, key: str, compute) -> np.ndarray:
        array = self._derived.get(key)
        if array is None:
            array = compute()
            self._derived[key] = array
        return array

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns["pc"])

    def __iter__(self) -> Iterator[InstructionRecord]:
        return self.records()

    #: Rows converted to Python scalars per batch during iteration —
    #: large enough to amortize the columnar tolist(), small enough
    #: that early-exiting consumers never materialize a whole trace.
    #: Also the rows packed per hash update by the content hashes.
    _RECORD_CHUNK = 8192

    def records(self) -> Iterator[InstructionRecord]:
        """Iterate :class:`InstructionRecord` views of every row.

        The bulk path: columns are converted to Python scalars one
        chunk at a time and records are built without per-row
        validation (the columns were validated on construction), which
        is several times faster than row-wise structured-array access.
        """
        for start in range(0, len(self), self._RECORD_CHUNK):
            stop = start + self._RECORD_CHUNK
            opclasses = [
                OpClass(value)
                for value in self.opclass[start:stop].tolist()
            ]
            rows = zip(
                self.pc[start:stop].tolist(),
                opclasses,
                self.src1[start:stop].tolist(),
                self.src2[start:stop].tolist(),
                self.dst[start:stop].tolist(),
                self.mem_addr[start:stop].tolist(),
                self.taken[start:stop].tolist(),
                self.target[start:stop].tolist(),
            )
            for pc, opclass, src1, src2, dst, mem_addr, taken, target in rows:
                yield unchecked_record(
                    pc, opclass, src1, src2, dst, mem_addr, bool(taken),
                    target,
                )

    def __getitem__(self, index):
        if isinstance(index, slice):
            # A unit-step slice views every column (no copy, no record
            # assembly, no re-validation); a strided one is copied.
            view = index.step in (None, 1)
            trace = Trace.__new__(Trace)
            trace._adopt({
                field: column[index] if view else column[index].copy()
                for field, column in self._columns.items()
            }, self.name, None)
            return trace
        position = int(index)
        return record_from_row(
            {field: column[position] for field, column in self._columns.items()}
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Trace{label} n={len(self)}>"

    # -- column access -------------------------------------------------------

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The read-only column arrays by field, in :data:`TRACE_DTYPE`
        order (a new dict; the arrays are the trace's own)."""
        return dict(self._columns)

    @property
    def data(self) -> np.ndarray:
        """The packed :data:`TRACE_DTYPE` records (read-only).

        Assembled from the columns on every access and not kept: read it
        once per write, and read the columns everywhere else.
        """
        return self._packed(0, len(self))

    def _packed(self, start: int, stop: int) -> np.ndarray:
        stop = min(stop, len(self))
        records = np.empty(stop - start, dtype=TRACE_DTYPE)
        for field, column in self._columns.items():
            records[field] = column[start:stop]
        records.setflags(write=False)
        return records

    def _hash_records(self, hasher) -> None:
        """Feed ``hasher`` the packed record bytes, one chunk at a time
        (never the whole trace packed at once)."""
        for start in range(0, len(self), self._RECORD_CHUNK):
            hasher.update(self._packed(start, start + self._RECORD_CHUNK))

    pc = _column("pc")
    opclass = _column("opclass")
    src1 = _column("src1")
    src2 = _column("src2")
    dst = _column("dst")
    mem_addr = _column("mem_addr")
    taken = _column("taken")
    target = _column("target")

    # -- class masks ----------------------------------------------------------

    def mask(self, opclass: OpClass) -> np.ndarray:
        """Boolean mask selecting instructions of one class."""
        return self._cached(
            f"mask:{int(opclass)}", lambda: self.opclass == int(opclass)
        )

    @property
    def load_mask(self) -> np.ndarray:
        return self.mask(OpClass.LOAD)

    @property
    def store_mask(self) -> np.ndarray:
        return self.mask(OpClass.STORE)

    @property
    def memory_mask(self) -> np.ndarray:
        return self._cached(
            "memory_mask", lambda: self.load_mask | self.store_mask
        )

    @property
    def branch_mask(self) -> np.ndarray:
        return self.mask(OpClass.BRANCH)

    # -- derived streams -------------------------------------------------------

    @property
    def load_addresses(self) -> np.ndarray:
        """Effective addresses of loads, in program order."""
        return self._cached(
            "load_addresses", lambda: self.mem_addr[self.load_mask]
        )

    @property
    def store_addresses(self) -> np.ndarray:
        """Effective addresses of stores, in program order."""
        return self._cached(
            "store_addresses", lambda: self.mem_addr[self.store_mask]
        )

    @property
    def branch_pcs(self) -> np.ndarray:
        """PCs of control transfers, in program order."""
        return self._cached("branch_pcs", lambda: self.pc[self.branch_mask])

    @property
    def branch_outcomes(self) -> np.ndarray:
        """Taken/not-taken outcomes of control transfers, in program order."""
        return self._cached(
            "branch_outcomes",
            lambda: self.taken[self.branch_mask].astype(bool),
        )

    def content_digest(self) -> str:
        """Short content hash of the instruction stream (name-blind).

        The cache's payload checksum (:func:`array_hasher` over the
        packed records) truncated, so a trace the cache loads is seeded
        with the checksum its verification matched.  Memoized (the
        columns are immutable).  Used by analysis results that must
        later verify they are being applied to the trace they were
        computed from — e.g.
        :class:`repro.phases.PhaseResult` — where equal length alone
        would let a wrong trace pass silently.
        """
        if self._digest is None:
            hasher = array_hasher(TRACE_DTYPE, (len(self),))
            self._hash_records(hasher)
            self._digest = hasher.hexdigest()[:DIGEST_LENGTH]
        return self._digest

    def fingerprint(self) -> str:
        """Cache-key content hash: sha256 over the dtype and the packed
        record bytes.

        Memoized like :meth:`content_digest`, so the several cache keys
        one characterization derives from a trace hash its bytes once.
        :func:`repro.perf.trace_fingerprint` delegates here.
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            hasher.update(str(TRACE_DTYPE).encode())
            self._hash_records(hasher)
            self._fingerprint = hasher.hexdigest()[:32]
        return self._fingerprint

    def class_counts(self) -> "dict[OpClass, int]":
        """Dynamic instruction count per class."""
        counts = np.bincount(self.opclass, minlength=len(OpClass))
        return {op: int(counts[int(op)]) for op in OpClass}

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def from_records(cls, records, name: str = "") -> "Trace":
        """Build a trace from an iterable of :class:`InstructionRecord`."""
        rows = [record.to_row() for record in records]
        data = np.array(rows, dtype=TRACE_DTYPE)
        return cls(data, name=name)

    @classmethod
    def empty(cls, name: str = "") -> "Trace":
        """A zero-length trace."""
        return cls(np.empty(0, dtype=TRACE_DTYPE), name=name)

    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces (self first)."""
        return Trace.from_columns(
            {
                field: np.concatenate([column, other._columns[field]])
                for field, column in self._columns.items()
            },
            name=self.name or other.name,
        )

"""Columnar trace container.

A :class:`Trace` wraps a numpy structured array of dynamic instruction
records (dtype :data:`repro.isa.TRACE_DTYPE`).  All MICA analyzers and
microarchitecture simulators operate on this container.  The wrapper adds
convenient column views, class masks, and cheap derived streams (load
addresses, branch outcomes) that several analyzers share.

The underlying array is immutable, so every column view, class mask and
derived stream is computed once and memoized: analyzers that read the
same column repeatedly (or mix mask-derived streams) never re-slice the
structured array.  Bulk record iteration goes through
:meth:`Trace.records`, which converts each column to Python scalars once
and skips per-row re-validation of data that was validated when the
trace was built.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator

import numpy as np

from ..errors import TraceError
from ..isa import (
    TRACE_DTYPE,
    InstructionRecord,
    OpClass,
    record_from_row,
    unchecked_record,
)


class Trace:
    """An immutable dynamic instruction trace.

    Args:
        data: structured array with dtype :data:`TRACE_DTYPE`.
        name: optional label (usually ``suite/program/input``).
        recipe: the :class:`repro.synth.TraceRecipe` the bytes were
            generated from, or None.  Only the generator and the trace
            cache set it; every derived trace (slices, filters,
            builders, file readers) carries none, so cache keys fall
            back to the content fingerprint.

    The underlying array is marked read-only; build modified traces through
    :class:`repro.trace.TraceBuilder` or the filter utilities.
    """

    def __init__(self, data: np.ndarray, name: str = "", recipe=None):
        if data.dtype != TRACE_DTYPE:
            raise TraceError(
                f"trace data must have TRACE_DTYPE, got {data.dtype}"
            )
        if data.ndim != 1:
            raise TraceError("trace data must be one-dimensional")
        self._data = data
        self._data.setflags(write=False)
        self.name = name
        self.recipe = recipe
        # Memoized column views / masks / derived streams; safe because
        # the backing array is read-only for the trace's lifetime.
        self._derived: Dict[str, np.ndarray] = {}
        self._digest: "str | None" = None
        self._fingerprint: "str | None" = None

    def _cached(self, key: str, compute) -> np.ndarray:
        array = self._derived.get(key)
        if array is None:
            array = compute()
            self._derived[key] = array
        return array

    def _column(self, field: str) -> np.ndarray:
        return self._cached(field, lambda: self._data[field])

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[InstructionRecord]:
        return self.records()

    #: Rows converted to Python scalars per batch during iteration —
    #: large enough to amortize the columnar tolist(), small enough
    #: that early-exiting consumers never materialize a whole trace.
    _RECORD_CHUNK = 8192

    def records(self) -> Iterator[InstructionRecord]:
        """Iterate :class:`InstructionRecord` views of every row.

        The bulk path: columns are converted to Python scalars one
        chunk at a time and records are built without per-row
        validation (the array was validated on construction), which is
        several times faster than row-wise structured-array access.
        """
        for start in range(0, len(self._data), self._RECORD_CHUNK):
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
            return Trace(self._data[index], name=self.name)
        return record_from_row(self._data[int(index)])

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Trace{label} n={len(self)}>"

    # -- column access -------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The raw structured array (read-only)."""
        return self._data

    @property
    def pc(self) -> np.ndarray:
        return self._column("pc")

    @property
    def opclass(self) -> np.ndarray:
        return self._column("opclass")

    @property
    def src1(self) -> np.ndarray:
        return self._column("src1")

    @property
    def src2(self) -> np.ndarray:
        return self._column("src2")

    @property
    def dst(self) -> np.ndarray:
        return self._column("dst")

    @property
    def mem_addr(self) -> np.ndarray:
        return self._column("mem_addr")

    @property
    def taken(self) -> np.ndarray:
        return self._column("taken")

    @property
    def target(self) -> np.ndarray:
        return self._column("target")

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

        Memoized (the backing array is immutable).  Used by analysis
        results that must later verify they are being applied to the
        trace they were computed from — e.g.
        :class:`repro.phases.PhaseResult` — where equal length alone
        would let a wrong trace pass silently.
        """
        if self._digest is None:
            hasher = hashlib.sha256()
            # The buffer itself, not a ``tobytes`` copy (only a strided
            # slice is made contiguous first).
            hasher.update(np.ascontiguousarray(self._data))
            self._digest = hasher.hexdigest()[:16]
        return self._digest

    def fingerprint(self) -> str:
        """Cache-key content hash: sha256 over the dtype and the bytes.

        Memoized like :meth:`content_digest`, so the several cache keys
        one characterization derives from a trace hash its bytes once.
        :func:`repro.perf.trace_fingerprint` delegates here.
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            hasher.update(str(self._data.dtype).encode())
            hasher.update(np.ascontiguousarray(self._data))
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
        joined = np.concatenate([self._data, other._data])
        return Trace(joined, name=self.name or other.name)

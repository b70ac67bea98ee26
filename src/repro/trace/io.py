"""On-disk trace formats.

Two formats are supported so that traces produced by *external*
instrumentation tooling can be consumed by the MICA analyzers (the
reproduction's analogue of pointing MICA at ATOM output):

* **Binary ``.mtf``** ("MICA trace format"): a small header followed by
  the raw columnar records.  This is the fast path.
* **Text**: one instruction per line, whitespace-separated fields — easy
  to emit from any tool or to write by hand in tests::

      <pc-hex> <class> [dst|-] [src1|-] [src2|-] [mem-addr-hex] [T|N <target-hex>]

  Fields after the class are optional per class: memory instructions
  carry an address, branches carry an outcome and target.

Both readers are the boundary :mod:`repro.trace.validate` describes:
every trace they return has passed :func:`validate_trace`, and any
malformed content — out-of-range registers or classes, a value that
does not fit its column — raises :class:`TraceFormatError`.  Traces
read from files carry no :class:`~repro.synth.TraceRecipe`, so the
:mod:`repro.perf` caches key them by content.
"""

from __future__ import annotations

import gzip
import io
import struct
from typing import TextIO, Union

import numpy as np

from ..errors import TraceError, TraceFormatError
from ..isa import NO_REG, OpClass, TRACE_DTYPE
from .trace import Trace
from .validate import validate_trace

#: Magic bytes identifying a binary trace file.
MAGIC = b"MTF1"

_HEADER = struct.Struct("<4sQ")

PathLike = Union[str, "os.PathLike[str]"]


def _open_binary(path: PathLike, mode: str):
    """Open a binary trace file, transparently gzipped for ``.gz``."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def write_trace(trace: Trace, path: PathLike) -> None:
    """Write a trace in binary ``.mtf`` format.

    Paths ending in ``.gz`` are gzip-compressed transparently (traces
    compress well: repeated PCs and structured addresses).
    """
    with _open_binary(path, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, len(trace)))
        handle.write(trace.data.tobytes())


def read_trace(path: PathLike, name: str = "") -> Trace:
    """Read a binary ``.mtf`` trace file (``.gz`` accepted).

    Raises:
        TraceFormatError: on bad magic, truncated data, size mismatch,
            or rows that fail :func:`validate_trace`.
    """
    with _open_binary(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        magic, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        payload = handle.read()
    expected = count * TRACE_DTYPE.itemsize
    if len(payload) != expected:
        raise TraceFormatError(
            f"{path}: expected {expected} payload bytes, found {len(payload)}"
        )
    data = np.frombuffer(payload, dtype=TRACE_DTYPE).copy()
    return _validated(Trace(data, name=name or str(path)), str(path))


def _validated(trace: Trace, label: str) -> Trace:
    """``trace`` once it passes :func:`validate_trace`; raises
    :class:`TraceFormatError` naming ``label`` otherwise."""
    try:
        validate_trace(trace)
    except TraceError as error:
        raise TraceFormatError(f"{label}: {error}") from None
    return trace


def _format_reg(index: int) -> str:
    return "-" if index == NO_REG else str(index)


def _parse_reg(token: str, line_no: int) -> int:
    if token == "-":
        return NO_REG
    try:
        return int(token)
    except ValueError:
        raise TraceFormatError(f"line {line_no}: bad register {token!r}") from None


def write_trace_text(trace: Trace, target: Union[PathLike, TextIO]) -> None:
    """Write a trace in the line-oriented text format."""
    if hasattr(target, "write"):
        _write_text(trace, target)  # type: ignore[arg-type]
    else:
        with open(target, "w", encoding="ascii") as handle:
            _write_text(trace, handle)


def _write_text(trace: Trace, handle: TextIO) -> None:
    for row in trace.data:
        opclass = OpClass(int(row["opclass"]))
        fields = [
            f"{int(row['pc']):#x}",
            opclass.short_name,
            _format_reg(int(row["dst"])),
            _format_reg(int(row["src1"])),
            _format_reg(int(row["src2"])),
        ]
        if opclass.is_memory:
            fields.append(f"{int(row['mem_addr']):#x}")
        if opclass.is_control:
            fields.append("T" if row["taken"] else "N")
            fields.append(f"{int(row['target']):#x}")
        handle.write(" ".join(fields) + "\n")


def read_trace_text(source: Union[PathLike, TextIO], name: str = "") -> Trace:
    """Read a trace in the line-oriented text format.

    Blank lines and lines starting with ``#`` are ignored.

    Raises:
        TraceFormatError: on any malformed line, a value that does not
            fit its column, or rows that fail :func:`validate_trace`.
    """
    if hasattr(source, "read"):
        return _read_text(source, name)  # type: ignore[arg-type]
    with open(source, "r", encoding="ascii") as handle:
        return _read_text(handle, name or str(source))


def _read_text(handle: TextIO, name: str) -> Trace:
    rows = []
    for line_no, line in enumerate(handle, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 5:
            raise TraceFormatError(f"line {line_no}: too few fields")
        try:
            pc = int(tokens[0], 16)
        except ValueError:
            raise TraceFormatError(f"line {line_no}: bad pc {tokens[0]!r}") from None
        try:
            opclass = OpClass.from_short_name(tokens[1])
        except KeyError:
            raise TraceFormatError(
                f"line {line_no}: unknown class {tokens[1]!r}"
            ) from None
        dst = _parse_reg(tokens[2], line_no)
        src1 = _parse_reg(tokens[3], line_no)
        src2 = _parse_reg(tokens[4], line_no)
        cursor = 5
        mem_addr = 0
        taken = 0
        target = 0
        if opclass.is_memory:
            if cursor >= len(tokens):
                raise TraceFormatError(f"line {line_no}: missing memory address")
            try:
                mem_addr = int(tokens[cursor], 16)
            except ValueError:
                raise TraceFormatError(
                    f"line {line_no}: bad address {tokens[cursor]!r}"
                ) from None
            cursor += 1
        if opclass.is_control:
            if cursor + 1 >= len(tokens):
                raise TraceFormatError(f"line {line_no}: missing branch outcome")
            outcome = tokens[cursor]
            if outcome not in ("T", "N"):
                raise TraceFormatError(
                    f"line {line_no}: bad outcome {outcome!r} (expected T or N)"
                )
            taken = int(outcome == "T")
            try:
                target = int(tokens[cursor + 1], 16)
            except ValueError:
                raise TraceFormatError(
                    f"line {line_no}: bad target {tokens[cursor + 1]!r}"
                ) from None
            cursor += 2
        if cursor != len(tokens):
            raise TraceFormatError(f"line {line_no}: trailing fields")
        rows.append((pc, int(opclass), src1, src2, dst, mem_addr, taken, target))
    label = name or "text trace"
    try:
        data = np.array(rows, dtype=TRACE_DTYPE) if rows else np.empty(
            0, TRACE_DTYPE
        )
    except OverflowError as error:
        raise TraceFormatError(
            f"{label}: field value out of range ({error})"
        ) from None
    return _validated(Trace(data, name=name), label)


def trace_from_text(text: str, name: str = "") -> Trace:
    """Parse a trace from an in-memory text-format string (test helper)."""
    return _read_text(io.StringIO(text), name)

"""Malformed trace files only ever produce typed errors.

Byte-level mutations of a valid binary ``.mtf`` file (plain and
gzipped) and of a valid text trace (flipped, overwritten, inserted and
deleted bytes, and truncation) are fed to every trace reader:
:func:`read_trace`, :func:`read_trace_text` and :func:`trace_from_text`.
A reader may return a trace only if it passes :func:`validate_trace`;
anything else must raise a :class:`repro.errors.ReproError`.
"""

from __future__ import annotations

import gzip
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.trace import (
    TraceBuilder,
    read_trace,
    read_trace_text,
    validate_trace,
    write_trace_text,
)
from repro.trace.io import _HEADER, MAGIC, trace_from_text

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _valid_trace():
    builder = TraceBuilder(name="fuzz")
    builder.load(0x1000, dst=1, addr_reg=2, mem_addr=0x2000)
    builder.alu(0x1004, dst=3, src1=1, src2=2)
    builder.store(0x1008, value_reg=3, addr_reg=2, mem_addr=0x2008)
    builder.branch(0x100C, cond_reg=3, taken=True, target=0x1000)
    builder.branch(0x1010, cond_reg=3, taken=False, target=0x0)
    builder.fp(0x1014, dst=40, src1=41, src2=42)
    builder.nop(0x1018)
    return builder.build()


def _binary() -> bytes:
    trace = _valid_trace()
    return _HEADER.pack(MAGIC, len(trace)) + trace.data.tobytes()


def _text() -> bytes:
    handle = io.StringIO()
    write_trace_text(_valid_trace(), handle)
    return handle.getvalue().encode("ascii")


@st.composite
def mutations(draw, original: bytes) -> bytes:
    """``original`` after 1-4 byte-level edits."""
    data = bytearray(original)
    special = st.sampled_from([0x00, 0x01, 0x0A, 0x20, 0x2D, 0x7F, 0x80, 0xFF])
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "set", "insert", "delete", "cut"]))
        at = draw(st.integers(0, len(data)))
        if kind == "insert":
            data[at:at] = bytes(
                draw(st.lists(special | st.integers(0, 255), min_size=1, max_size=9))
            )
        elif kind == "cut":
            del data[at:]
        elif at < len(data):
            if kind == "flip":
                data[at] ^= 1 << draw(st.integers(0, 7))
            elif kind == "set":
                data[at] = draw(special | st.integers(0, 255))
            else:
                del data[at : at + draw(st.integers(1, 16))]
    return bytes(data)


def _only_valid_or_typed(read):
    try:
        traces = read()
    except ReproError:
        return
    for trace in traces:
        validate_trace(trace)


class TestMalformedTraces:

    def test_unmutated_files_read(self, tmp_path):
        (tmp_path / "t.mtf").write_bytes(_binary())
        (tmp_path / "t.txt").write_bytes(_text())
        assert len(read_trace(tmp_path / "t.mtf")) == 7
        assert len(read_trace_text(tmp_path / "t.txt")) == 7

    @_SETTINGS
    @given(
        data=mutations(_binary()),
        gzipped=mutations(gzip.compress(_binary())),
    )
    def test_binary_readers(self, tmp_path, data, gzipped):
        (tmp_path / "t.mtf.gz").write_bytes(gzipped)
        _only_valid_or_typed(lambda: [read_trace(tmp_path / "t.mtf.gz")])
        path = tmp_path / "t.mtf"
        path.write_bytes(data)
        _only_valid_or_typed(lambda: [read_trace(path)])

    @_SETTINGS
    @given(data=mutations(_text()))
    def test_text_readers(self, tmp_path, data):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        _only_valid_or_typed(lambda: [read_trace_text(path)])
        _only_valid_or_typed(lambda: [trace_from_text(data.decode("latin-1"))])

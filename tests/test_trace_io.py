"""Tests for trace file formats (binary .mtf and text)."""

import io

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.trace import (
    TraceBuilder,
    read_trace,
    read_trace_text,
    write_trace,
    write_trace_text,
)
from repro.trace.io import MAGIC, trace_from_text


@pytest.fixture()
def sample_trace():
    builder = TraceBuilder(name="io-sample")
    builder.load(0x1000, dst=1, addr_reg=2, mem_addr=0x2000)
    builder.alu(0x1004, dst=3, src1=1, src2=2)
    builder.store(0x1008, value_reg=3, addr_reg=2, mem_addr=0x2008)
    builder.branch(0x100C, cond_reg=3, taken=True, target=0x1000)
    builder.branch(0x1010, cond_reg=3, taken=False, target=0x0)
    builder.fp(0x1014, dst=40, src1=41, src2=42)
    builder.nop(0x1018)
    return builder.build()


class TestBinaryFormat:
    def test_round_trip(self, sample_trace, tmp_path):
        path = tmp_path / "trace.mtf"
        write_trace(sample_trace, path)
        loaded = read_trace(path, name="io-sample")
        assert np.array_equal(loaded.data, sample_trace.data)

    def test_magic_is_first(self, sample_trace, tmp_path):
        path = tmp_path / "trace.mtf"
        write_trace(sample_trace, path)
        assert path.read_bytes()[:4] == MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mtf"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(TraceFormatError, match="magic"):
            read_trace(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.mtf"
        path.write_bytes(b"MT")
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(path)

    def test_truncated_payload_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "cut.mtf"
        write_trace(sample_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError, match="payload"):
            read_trace(path)

    def test_trailing_payload_bytes_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "long.mtf"
        write_trace(sample_trace, path)
        assert len(sample_trace) == 7
        path.write_bytes(path.read_bytes() + b"\x00" * 5)
        with pytest.raises(TraceFormatError, match="payload"):
            read_trace(path)

    def test_empty_trace_round_trip(self, tmp_path):
        from repro.trace import Trace

        path = tmp_path / "empty.mtf"
        write_trace(Trace.empty(), path)
        assert len(read_trace(path)) == 0


class TestTextFormat:
    def test_round_trip_via_file(self, sample_trace, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace_text(sample_trace, path)
        loaded = read_trace_text(path)
        assert np.array_equal(loaded.data, sample_trace.data)

    def test_round_trip_via_stream(self, sample_trace):
        buffer = io.StringIO()
        write_trace_text(sample_trace, buffer)
        buffer.seek(0)
        loaded = read_trace_text(buffer)
        assert np.array_equal(loaded.data, sample_trace.data)

    def test_comments_and_blanks_ignored(self):
        trace = trace_from_text(
            "# comment line\n"
            "\n"
            "0x1000 alu 3 1 2\n"
        )
        assert len(trace) == 1

    def test_hand_written_load(self):
        trace = trace_from_text("0x1000 ld 1 2 - 0x2000\n")
        record = trace[0]
        assert record.mem_addr == 0x2000
        assert record.dst == 1

    def test_hand_written_branch(self):
        trace = trace_from_text("0x1000 br - 3 - T 0x4000\n")
        record = trace[0]
        assert record.taken
        assert record.target == 0x4000

    @pytest.mark.parametrize(
        "line",
        [
            "0x1000 alu 3 1",              # Too few fields.
            "zzz alu 3 1 2",               # Bad PC.
            "0x1000 wat 3 1 2",            # Unknown class.
            "0x1000 alu 3 1 bad",          # Bad register.
            "0x1000 ld 1 2 -",             # Missing address.
            "0x1000 ld 1 2 - zz",          # Bad address.
            "0x1000 br - 3 -",             # Missing outcome.
            "0x1000 br - 3 - X 0x0",       # Bad outcome.
            "0x1000 br - 3 - T zz",        # Bad target.
            "0x1000 alu 3 1 2 extra",      # Trailing fields.
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(TraceFormatError):
            trace_from_text(line + "\n")

    def test_non_ascii_digits_rejected_by_every_text_reader(
        self, tmp_path
    ):
        text = "\uff11\uff10 nop - - -\n"  # Fullwidth "10".
        path = tmp_path / "wide.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TraceFormatError):
            trace_from_text(text)
        with pytest.raises(TraceFormatError):
            read_trace_text(io.StringIO(text))
        with pytest.raises(TraceFormatError):
            read_trace_text(path)

    def test_external_trace_is_characterizable(self, tmp_path):
        """End-to-end: a text trace produced by external tooling can be
        consumed by the MICA analyzers."""
        from repro.mica import characterize
        from repro.config import ReproConfig

        lines = []
        for index in range(200):
            pc = 0x1000 + 4 * (index % 10)
            if index % 10 == 9:
                lines.append(f"{pc:#x} br - 3 - "
                             f"{'T' if index % 20 == 9 else 'N'} 0x1000")
            elif index % 3 == 0:
                lines.append(f"{pc:#x} ld 1 2 - {0x2000 + 8 * index:#x}")
            else:
                lines.append(f"{pc:#x} alu 3 1 2")
        path = tmp_path / "external.txt"
        path.write_text("\n".join(lines) + "\n")
        trace = read_trace_text(path)
        vector = characterize(trace, ReproConfig(trace_length=200))
        assert vector.values.shape == (47,)


class TestReadersValidate:
    """Every reader is a validation boundary: a row that fails
    ``validate_trace`` or a value that does not fit its column raises
    ``TraceFormatError`` instead of yielding a trace."""

    @pytest.fixture()
    def bad_binary(self, sample_trace, tmp_path):
        from repro.trace import Trace

        data = sample_trace.data.copy()
        data["src1"][1] = 99  # No such register.
        path = tmp_path / "bad.mtf"
        write_trace(Trace(data, name="bad"), path)
        return path

    @pytest.mark.parametrize(
        "line",
        [
            "0x0 alu 99 - -",              # Register out of range.
            "0x0 alu 300 - -",             # Register overflows its column.
            "0x1000 ld 1 2 - 0x0",         # Memory access at address 0.
        ],
    )
    def test_text_rows_are_validated(self, line):
        with pytest.raises(TraceFormatError):
            trace_from_text(line + "\n")

    def test_binary_rows_are_validated(self, bad_binary):
        with pytest.raises(TraceFormatError, match="bad.mtf"):
            read_trace(bad_binary)

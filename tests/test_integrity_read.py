"""The one-pass verified read under every cache level.

:func:`repro.perf.integrity.verify_entry` reads each ``.npy`` member
once and hashes a read-only view of its bytes.  These tests pin what
that read keeps checking beyond the corruption modes of
``test_cache_integrity.py``: the zip CRC of a damaged member, object
arrays, payloads whose size disagrees with their header, and Fortran
order round trips.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro.errors import CacheIntegrityError
from repro.perf import integrity


def _write(path, **fields):
    return integrity.write_entry(
        path, level="test", version=1, fields=fields
    )


def _verify(path):
    return integrity.verify_entry(path, level="test", version=1)


def test_round_trip_returns_read_only_equal_arrays(tmp_path):
    values = np.arange(12, dtype=np.float64).reshape(3, 4)
    fortran = np.asfortranarray(values)
    path = _write(tmp_path / "e.npz", values=values, fortran=fortran)
    arrays = _verify(path)
    for name, expected in (("values", values), ("fortran", fortran)):
        assert np.array_equal(arrays[name], expected)
        assert arrays[name].dtype == expected.dtype
        assert not arrays[name].flags.writeable


def test_damaged_member_bytes_fail_the_zip_crc(tmp_path):
    path = _write(tmp_path / "e.npz", values=np.arange(4096.0))
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("values.npy")
    raw = bytearray(path.read_bytes())
    # Inside the member's stored data, past its local header and the
    # .npy header: only the CRC (or the checksum) can notice.
    raw[info.header_offset + 30 + len(info.filename) + 2048] ^= 0x10
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheIntegrityError, match="CRC|checksum"):
        _verify(path)


def test_object_arrays_are_refused(tmp_path):
    path = tmp_path / "e.npz"
    np.savez(
        path, values=np.array([{"a": 1}], dtype=object),
        **{integrity.METADATA_FIELD: np.array("{}")},
    )
    with pytest.raises(CacheIntegrityError):
        _verify(path)


def test_payload_size_must_match_its_header(tmp_path):
    path = _write(tmp_path / "e.npz", values=np.arange(8.0))
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members["values.npy"] = members["values.npy"][:-8]
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    with pytest.raises(CacheIntegrityError, match="payload bytes"):
        _verify(path)


def _rewrite_member(path, member, transform):
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members[member] = transform(members[member])
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def test_header_memo_keeps_every_check(tmp_path):
    """The parsed ``.npy`` header is memoized by its raw bytes; a
    damaged header (valid zip CRC) is still refused and quarantined
    after a healthy entry warmed the memo, and the object-array refusal
    runs on every read."""
    values = np.arange(8.0)
    healthy = _write(tmp_path / "healthy.npz", values=values)
    _verify(healthy)
    before = integrity._parse_npy_header.cache_info().hits
    assert np.array_equal(_verify(healthy)["values"], values)
    assert integrity._parse_npy_header.cache_info().hits > before

    damaged = _write(tmp_path / "damaged.npz", values=values)
    _rewrite_member(
        damaged, "values.npy", lambda data: data.replace(b"(8,)", b"(9,)", 1)
    )
    with pytest.raises(CacheIntegrityError, match="payload bytes"):
        _verify(damaged)
    assert integrity.load_entry(damaged, level="test", version=1) is None
    assert not damaged.exists()
    assert damaged.with_name(
        damaged.name + integrity.QUARANTINE_SUFFIX
    ).exists()

    objects = _write(tmp_path / "objects.npz", values=values)
    _rewrite_member(
        objects, "values.npy",
        lambda data: data.replace(b"'<f8'", b"'|O' ", 1),
    )
    for _ in range(2):
        with pytest.raises(CacheIntegrityError, match="object arrays"):
            _verify(objects)
    assert np.array_equal(_verify(healthy)["values"], values)


_RECORDS = np.dtype([("a", np.uint64), ("b", np.uint8), ("c", np.uint32)])


def _records(count):
    rows = np.zeros(count, dtype=_RECORDS)
    rows["a"] = np.arange(count) * 7
    rows["b"] = np.arange(count) % 251
    rows["c"] = np.arange(count) ^ 0x5A5A
    return rows


def _verify_columns(path):
    return integrity.verify_entry(
        path, level="test", version=1, columns=True
    )


@pytest.mark.parametrize("count", [0, 1, 100_000])
def test_structured_fields_stream_in_as_columns(tmp_path, count):
    rows = _records(count)
    values = np.arange(6.0).reshape(2, 3)
    path = _write(tmp_path / "e.npz", rows=rows, values=values)
    arrays = _verify_columns(path)
    assert sorted(arrays["rows"]) == ["a", "b", "c"]
    for name, column in arrays["rows"].items():
        assert column.flags.c_contiguous and column.flags.aligned
        assert np.array_equal(column, rows[name])
    assert np.array_equal(arrays["values"], values)
    assert arrays.checksums == _verify(path).checksums


def test_streamed_columns_keep_the_crc_and_size_checks(tmp_path):
    path = _write(tmp_path / "e.npz", rows=_records(50_000))
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("rows.npy")
    raw = bytearray(path.read_bytes())
    raw[info.header_offset + 30 + len(info.filename) + 300_000] ^= 0x10
    damaged = tmp_path / "damaged.npz"
    damaged.write_bytes(bytes(raw))
    with pytest.raises(CacheIntegrityError, match="CRC|checksum"):
        _verify_columns(damaged)
    for cut in (13, 8):  # on a record boundary (13 bytes), then inside one
        _rewrite_member(path, "rows.npy", lambda data: data[:-cut])
        with pytest.raises(CacheIntegrityError, match="payload bytes"):
            _verify_columns(path)

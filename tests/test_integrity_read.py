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

"""Integrity-checked ``.npz`` entries: the trust layer under every cache.

Every entry the cache hierarchy writes (characterization, HPC, trace
and dataset level) embeds one extra field, :data:`METADATA_FIELD`, a
JSON document recording

* the **level** the entry belongs to (``char``/``hpc``/``trace``/
  ``dataset``) — a foreign file copied to the right name is detected,
* the level's **semantic version** — a stale entry carried across a
  version bump is detected even when the filename says otherwise,
* per payload field the expected **shape**, **dtype** and a
  **sha256 checksum** over the raw bytes — truncation, bit-flips and
  swapped payloads are detected.

Loads go through :func:`load_entry`, which verifies all of the above
(plus caller-side *expected* shape/dtype constraints) and turns any
violation into a **verified miss**: the bad file is quarantined —
renamed to ``<name>.quarantined`` so it can never be re-served — and
``None`` is returned.  Only OS-level read errors (EIO and friends) are
treated as transient misses that leave the file in place.  Corruption
therefore never crashes a build and is never silently served.  A cache
object re-reads a settled entry it verified only once its ``stat``
identity changed, as any write changes it (:mod:`repro.perf.cache`).

Writes go through :func:`write_entry`, which stays atomic (temp file +
``os.replace``) and removes its temporary file when the writer dies
mid-write (disk full), so failed stores leave no ``tmp-*.npz`` litter.

Every level writes one format: a plain, uncompressed ``np.savez``
archive.  Deflate bought disk space with the cold path's time: a
100k-instruction trace entry (the largest kind) took ~97 ms to write
compressed against ~13 ms plain, and ~25 ms against ~15 ms to load and
verify, for a 0.48 MB file instead of 2.90 MB (one Xeon core).  The
payload checksums, not the zip layer, are what detect corruption, so
the integrity guarantees do not depend on the format.

Reads take one pass over each ``.npy`` member: the member's bytes are
read once (the zip layer checks their CRC on the way), the array is a
read-only view of those bytes, and the checksum hashes that view.
``np.load`` would copy a structured array in 256 KB chunks and
``tobytes`` would copy it again: together about two thirds of a
100k-instruction trace entry's verified load (~15 ms against ~5 ms).

The module-level IO seams (:func:`_savez`, :func:`_open_archive`,
:func:`_replace`) exist so :mod:`repro.perf.faults` can inject
deterministic IO errors at store/load/rename time without touching the
production control flow.
"""

from __future__ import annotations

import functools
import io
import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import CacheIntegrityError
from ..trace.trace import array_hasher

#: Name of the embedded metadata field inside every cache ``.npz``.
METADATA_FIELD = "__integrity__"

#: Version of the metadata document layout itself.
METADATA_FORMAT = "repro-cache/1"

#: Suffix appended to quarantined entries (keeps them out of every
#: ``*.npz`` glob, so a quarantined file is never re-served).
QUARANTINE_SUFFIX = ".quarantined"

#: ``{field: (expected_shape | None, expected_dtype | None)}``
ExpectedFields = Mapping[str, Tuple[Optional[tuple], Optional[object]]]


class VerifiedFields(dict):
    """The payload arrays of a verified entry, by field name, with the
    sha256 each matched in ``checksums`` (reusable as its hash)."""

    checksums: Dict[str, str]


@dataclass(frozen=True)
class QuarantineEvent:
    """One bad cache entry moved aside.

    Attributes:
        path: the entry path that failed verification.
        quarantined_to: where it was renamed (None when the rename
            itself failed, e.g. on a read-only directory — the entry
            still reads as a miss on every future load).
        reason: the human-readable integrity violation.
    """

    path: str
    quarantined_to: Optional[str]
    reason: str


_QUARANTINE_LOG: List[QuarantineEvent] = []


def drain_quarantine_log() -> Tuple[QuarantineEvent, ...]:
    """Return and clear the quarantine events recorded by this process.

    Dataset workers drain this around each benchmark job so build
    reports can attribute quarantines to the benchmark that hit them.
    """
    events = tuple(_QUARANTINE_LOG)
    _QUARANTINE_LOG.clear()
    return events


# ---------------------------------------------------------------------------
# IO seams (patched by repro.perf.faults to inject IO errors)
# ---------------------------------------------------------------------------


def _savez(path: "Path | str", fields: Dict[str, np.ndarray]) -> None:
    np.savez(path, **fields)


def _open_archive(path: "Path | str") -> zipfile.ZipFile:
    return zipfile.ZipFile(path)


def _replace(source: "Path | str", destination: "Path | str") -> None:
    os.replace(source, destination)


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------


def _array_digest(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array)
    digest = array_hasher(data.dtype, data.shape)
    digest.update(data)  # the buffer itself, no tobytes() copy
    return digest.hexdigest()


def build_metadata(
    level: str, version: object, fields: Mapping[str, np.ndarray]
) -> dict:
    """The metadata document embedded in one entry."""
    return {
        "format": METADATA_FORMAT,
        "level": level,
        "version": str(version),
        "fields": {
            name: {
                "shape": list(np.asarray(array).shape),
                "dtype": str(np.asarray(array).dtype),
                "sha256": _array_digest(np.asarray(array)),
            }
            for name, array in fields.items()
        },
    }


# ---------------------------------------------------------------------------
# Write path
# ---------------------------------------------------------------------------


def write_entry(
    path: Path,
    *,
    level: str,
    version: object,
    fields: Mapping[str, np.ndarray],
    metadata: "dict | None" = None,
) -> Path:
    """Atomically write one integrity-stamped entry.

    The payload plus its metadata go to a ``tmp-*.npz`` sibling first
    and are renamed into place, so concurrent writers of the same key
    cannot tear each other and readers only ever see complete files.
    A writer that dies mid-write (ENOSPC, kill) leaves no temporary
    behind — it is unlinked before the error propagates.

    ``metadata`` is the :func:`build_metadata` document of exactly
    these arguments when the caller built it first to read its
    checksums (built here otherwise), so no payload is hashed twice.

    Raises:
        OSError: when the directory is unwritable or the disk is full
            (callers degrade to compute-without-cache).
    """
    arrays = {name: np.asarray(array) for name, array in fields.items()}
    if metadata is None:
        metadata = build_metadata(level, version, arrays)
    payload: Dict[str, np.ndarray] = dict(arrays)
    payload[METADATA_FIELD] = np.array(json.dumps(metadata))
    path.parent.mkdir(parents=True, exist_ok=True)
    # The tmp- prefix keeps half-written files out of the entry glob;
    # the .npz suffix stops np.savez renaming the file.
    temporary = path.with_name(f"tmp-{path.stem}.{os.getpid()}.npz")
    # Imported lazily: faults imports this module at its top level, and
    # the kill seams must be a no-op import when nothing is armed.
    from . import faults

    try:
        faults.maybe_kill("writer-before-store")
        _savez(temporary, payload)
        faults.maybe_kill("writer-before-replace")
        _replace(temporary, path)
        faults.maybe_kill("writer-after-replace")
    except Exception:
        try:
            temporary.unlink()
        except OSError:
            pass
        raise
    return path


# ---------------------------------------------------------------------------
# Read path
# ---------------------------------------------------------------------------


def _check_expected(
    name: str, shape: tuple, dtype: np.dtype, expected: ExpectedFields
) -> None:
    if name not in expected:
        return
    expected_shape, expected_dtype = expected[name]
    if expected_shape is not None and shape != tuple(expected_shape):
        raise CacheIntegrityError(
            f"field {name!r} has shape {shape}, "
            f"expected {tuple(expected_shape)}"
        )
    if expected_dtype is not None and dtype != np.dtype(expected_dtype):
        raise CacheIntegrityError(
            f"field {name!r} has dtype {dtype}, "
            f"expected {np.dtype(expected_dtype)}"
        )


_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


@functools.lru_cache(maxsize=256)
def _parse_npy_header(raw: bytes) -> "Tuple[tuple, bool, np.dtype]":
    """``(shape, fortran_order, dtype)`` of one raw ``.npy`` header.

    Memoized by the raw bytes (magic, length field and header), so the
    header's ``literal_eval`` runs once per distinct header; a damaged
    header is different bytes and is parsed, and rejected, afresh.
    """
    stream = io.BytesIO(raw)
    version = np.lib.format.read_magic(stream)
    if version not in _NPY_HEADER_READERS:
        raise CacheIntegrityError(f"unsupported .npy format {version}")
    return _NPY_HEADER_READERS[version](stream)


def _header_end(prefix: bytes) -> int:
    """End of the ``.npy`` header ``prefix`` opens: magic (6 bytes),
    version (2), then its length (2 bytes little-endian; 4 in 2.0)."""
    width = 4 if prefix[6:8] == b"\x02\x00" else 2
    return 8 + width + int.from_bytes(prefix[8 : 8 + width], "little")


def _read_member(archive: zipfile.ZipFile, member: str) -> np.ndarray:
    """One ``.npy`` member as a read-only array over its bytes.

    ``ZipFile.read`` reads the member in one pass and raises on a CRC
    mismatch; the array is a view of those bytes, never a copy.  Object
    arrays are refused (they would need pickle), as is a payload whose
    size disagrees with its header.
    """
    data = archive.read(member)
    offset = _header_end(data)
    shape, fortran_order, dtype = _parse_npy_header(data[:offset])
    if dtype.hasobject:
        raise CacheIntegrityError(f"member {member!r} holds object arrays")
    count = int(np.prod(shape, dtype=np.int64))
    _check_size(member, len(data) - offset, count * dtype.itemsize)
    array = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    if fortran_order:
        return array.reshape(shape[::-1]).transpose()
    return array.reshape(shape)


def _stream_columns(archive: zipfile.ZipFile, member: str):
    """A one-dimensional structured member as ``({field: contiguous
    array}, shape, dtype, sha256)``, split while it streams in, so its
    packed bytes are never held whole (the zip layer checks the CRC at
    the end of the stream); None for any other member."""
    with archive.open(member) as stream:
        raw = stream.read(12)
        raw += stream.read(max(0, _header_end(raw) - len(raw)))
        shape, _, dtype = _parse_npy_header(raw)
        if not dtype.names or dtype.hasobject or len(shape) != 1:
            return None
        columns = {name: np.empty(shape, dtype[name]) for name in dtype.names}
        digest = array_hasher(dtype, shape)
        step = max(1, (1 << 18) // dtype.itemsize)  # rows per read
        received = 0
        for start in range(0, shape[0], step):
            chunk = stream.read(min(step, shape[0] - start) * dtype.itemsize)
            received += len(chunk)
            if len(chunk) % dtype.itemsize:
                break
            digest.update(chunk)
            rows = np.frombuffer(chunk, dtype=dtype)
            for name, column in columns.items():
                column[start : start + len(rows)] = rows[name]
        received += len(stream.read())
    _check_size(member, received, shape[0] * dtype.itemsize)
    return columns, shape, dtype, digest.hexdigest()


def _check_size(member: str, received: int, promised: int) -> None:
    if received != promised:
        raise CacheIntegrityError(
            f"member {member!r} holds {received} payload bytes, "
            f"its header promises {promised}"
        )


def verify_entry(
    path: Path,
    *,
    level: str,
    version: object,
    expected: "ExpectedFields | None" = None,
    columns: bool = False,
) -> VerifiedFields:
    """Read one entry, verifying metadata and payload checksums.

    Returns:
        The payload arrays (metadata field excluded) with the checksums
        they matched, fully materialized — the archive handle is closed
        before returning.  They are read-only views of the verified
        bytes; with ``columns``, a one-dimensional structured field is
        a ``{field: array}`` dict instead, split while it streams in.

    Raises:
        CacheIntegrityError: on any violation — unreadable/truncated
            bytes, missing or malformed metadata, foreign level, stale
            version, shape/dtype mismatch (recorded or expected) or a
            checksum mismatch.
        OSError: on OS-level read failures (transient; the entry is
            not condemned).
    """
    try:
        with _open_archive(path) as archive:
            members = {
                member[:-len(".npy")] if member.endswith(".npy") else member:
                    member
                for member in archive.namelist()
            }
            names = set(members)
            if METADATA_FIELD not in names:
                raise CacheIntegrityError("missing integrity metadata")
            try:
                metadata = json.loads(str(
                    _read_member(archive, members[METADATA_FIELD])[()]
                ))
                recorded = metadata["fields"]
            except (json.JSONDecodeError, KeyError, TypeError) as error:
                raise CacheIntegrityError(
                    f"malformed integrity metadata: {error}"
                )
            if metadata.get("level") != level:
                raise CacheIntegrityError(
                    f"foreign entry: level {metadata.get('level')!r}, "
                    f"expected {level!r}"
                )
            if metadata.get("version") != str(version):
                raise CacheIntegrityError(
                    f"stale entry: version {metadata.get('version')!r}, "
                    f"expected {version!r}"
                )
            if set(recorded) != names - {METADATA_FIELD}:
                raise CacheIntegrityError(
                    "payload fields do not match the recorded schema"
                )
            arrays = VerifiedFields()
            arrays.checksums = {}
            for name, spec in recorded.items():
                streamed = columns and _stream_columns(archive, members[name])
                if streamed:
                    value, shape, dtype, digest = streamed
                else:
                    value = _read_member(archive, members[name])
                    shape, dtype = tuple(value.shape), value.dtype
                    digest = _array_digest(value)
                if list(shape) != list(spec.get("shape", [])):
                    raise CacheIntegrityError(
                        f"field {name!r} has shape {shape}, "
                        f"metadata recorded {tuple(spec.get('shape', []))}"
                    )
                if str(dtype) != spec.get("dtype"):
                    raise CacheIntegrityError(
                        f"field {name!r} has dtype {dtype}, "
                        f"metadata recorded {spec.get('dtype')!r}"
                    )
                if digest != spec.get("sha256"):
                    raise CacheIntegrityError(
                        f"field {name!r} failed its payload checksum"
                    )
                _check_expected(name, shape, dtype, expected or {})
                arrays[name] = value
                arrays.checksums[name] = spec["sha256"]
            return arrays
    except (CacheIntegrityError, OSError):
        raise
    except Exception as error:
        # zipfile raises BadZipFile on non-zip, truncated or CRC-failing
        # bytes, the .npy header parser ValueError on a bad header …
        # every one of them means the bytes cannot be trusted.
        raise CacheIntegrityError(f"unreadable archive: {error}")


def quarantine_entry(path: Path) -> "Optional[Path]":
    """Move a condemned entry aside so it can never be re-served.

    Returns the quarantine path, or None when the rename failed (file
    already gone — a concurrent worker won the race — or the directory
    is unwritable; either way the entry stays a verified miss).
    """
    target = path.with_name(path.name + QUARANTINE_SUFFIX)
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


def load_entry(
    path: Path,
    *,
    level: str,
    version: object,
    expected: "ExpectedFields | None" = None,
    columns: bool = False,
) -> "Optional[VerifiedFields]":
    """Verified load: the payload arrays (split into columns as
    :func:`verify_entry` describes), or None on a (verified) miss.

    A missing file is a plain miss.  A file that fails verification is
    a *verified miss*: it is quarantined, the event is recorded on the
    process-local quarantine log, and None is returned.  An OS-level
    read error is a transient miss (file left alone).  This function
    never raises.
    """
    if not path.is_file():
        return None
    try:
        return verify_entry(
            path, level=level, version=version, expected=expected,
            columns=columns,
        )
    except CacheIntegrityError as error:
        quarantined = quarantine_entry(path)
        _QUARANTINE_LOG.append(
            QuarantineEvent(
                path=str(path),
                quarantined_to=(
                    str(quarantined) if quarantined is not None else None
                ),
                reason=str(error),
            )
        )
        return None
    except OSError:
        return None

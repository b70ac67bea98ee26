"""The columnar trace layout, through every way a trace is built.

A :class:`~repro.trace.Trace` stores one C-contiguous, aligned,
read-only array per :data:`~repro.isa.TRACE_DTYPE` field and keeps no
packed copy; the packed records stay its byte identity.  For every
construction path this pins:

* the column flags, and that each column equals the packed field;
* that ``data.tobytes()``, :meth:`~repro.trace.Trace.content_digest`
  and :meth:`~repro.trace.Trace.fingerprint` equal what the packed
  array gives;
* that a slice's columns are views of its parent's columns.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TraceError
from repro.isa import TRACE_DTYPE, OpClass
from repro.perf import TraceCache, integrity
from repro.synth import generate_trace
from repro.trace import (
    Trace,
    TraceBuilder,
    head,
    read_trace,
    sample_interval,
    sample_random,
    split_windows,
    write_trace,
)
from repro.workloads import get_benchmark

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "trace_digests.json").read_text()
)
LENGTH = DIGESTS["length"]
SEED = DIGESTS["seed"]


@pytest.fixture(scope="module")
def registry_entry():
    return get_benchmark("mcf")


@pytest.fixture(scope="module")
def generated(registry_entry):
    return generate_trace(registry_entry.profile, LENGTH, seed=SEED)


@pytest.fixture(scope="module")
def records(registry_entry, generated):
    """The generated trace's packed records, pinned by the committed
    registry digest (so no case below checks the layout against
    itself)."""
    packed = generated.data
    assert hashlib.sha256(packed.tobytes()).hexdigest() == (
        DIGESTS["digests"][registry_entry.full_name]
    )
    return np.array(packed)


def _built(records: np.ndarray) -> Trace:
    builder = TraceBuilder(capacity=4)
    for row in records:
        builder.append(
            int(row["pc"]), OpClass(int(row["opclass"])),
            src1=int(row["src1"]), src2=int(row["src2"]),
            dst=int(row["dst"]), mem_addr=int(row["mem_addr"]),
            taken=bool(row["taken"]), target=int(row["target"]),
        )
    return builder.build()


def _read_back(records: np.ndarray, directory: Path) -> Trace:
    path = directory / "trace.mtf"
    write_trace(Trace(records), path)
    return read_trace(path)


def _cache_loaded(entry, generated, directory: Path) -> Trace:
    cache = TraceCache(directory)
    cache.store(entry.profile, LENGTH, SEED, generated)
    return cache.load(entry.profile, LENGTH, SEED)


def _interval_rows(length: int) -> np.ndarray:
    return (np.arange(length) % 7) < 3


def _random_rows(length: int) -> np.ndarray:
    return np.random.default_rng(5).random(length) < 0.4


#: name -> (build(records, generated, registry entry, tmp_path),
#: expected rows).
CASES = {
    "generated": (lambda r, g, e, d: g, lambda r: r),
    "records": (lambda r, g, e, d: Trace(r.copy()), lambda r: r),
    "from_records": (
        lambda r, g, e, d: Trace.from_records(list(Trace(r[:300]))),
        lambda r: r[:300],
    ),
    "slice": (lambda r, g, e, d: g[123:1456], lambda r: r[123:1456]),
    "strided slice": (lambda r, g, e, d: g[5::3], lambda r: r[5::3]),
    "head": (lambda r, g, e, d: head(g, 777), lambda r: r[:777]),
    "sample_interval": (
        lambda r, g, e, d: sample_interval(g, 7, 3),
        lambda r: r[_interval_rows(len(r))],
    ),
    "sample_random": (
        lambda r, g, e, d: sample_random(g, 0.4, seed=5),
        lambda r: r[_random_rows(len(r))],
    ),
    "split_windows": (
        lambda r, g, e, d: split_windows(g, 600)[2],
        lambda r: r[1200:1800],
    ),
    "builder": (lambda r, g, e, d: _built(r[:200]), lambda r: r[:200]),
    "read_trace": (lambda r, g, e, d: _read_back(r, d), lambda r: r),
    "cache load": (lambda r, g, e, d: _cache_loaded(e, g, d), lambda r: r),
    "concat": (
        lambda r, g, e, d: g[:400].concat(g[1000:1100]),
        lambda r: np.concatenate([r[:400], r[1000:1100]]),
    ),
    "empty": (lambda r, g, e, d: Trace.empty(), lambda r: r[:0]),
}


@pytest.mark.parametrize("case", list(CASES))
def test_columns_are_contiguous_and_match_the_packed_records(
    case, records, generated, registry_entry, tmp_path
):
    build, rows = CASES[case]
    trace = build(records, generated, registry_entry, tmp_path)
    expected = np.ascontiguousarray(rows(records))
    assert len(trace) == len(expected)
    for field, column in trace.columns.items():
        assert column.dtype == TRACE_DTYPE[field]
        assert column.flags.c_contiguous and column.flags.aligned, field
        assert not column.flags.writeable, field
        assert np.array_equal(column, expected[field]), field
        assert column is getattr(trace, field)
    # No packed copy is kept beside the columns.
    assert not any(
        isinstance(value, np.ndarray) and value.dtype == TRACE_DTYPE
        for value in vars(trace).values()
    )
    packed = trace.data
    assert packed.dtype == TRACE_DTYPE and not packed.flags.writeable
    assert packed.tobytes() == expected.tobytes()
    assert trace.content_digest() == (
        integrity._array_digest(expected)[: len(trace.content_digest())]
    )
    fingerprint = hashlib.sha256(str(TRACE_DTYPE).encode())
    fingerprint.update(expected.tobytes())
    assert trace.fingerprint() == fingerprint.hexdigest()[:32]


@pytest.mark.parametrize("bounds", [(0, None), (123, 1456), (1999, 2000)])
def test_a_slice_views_its_parents_columns(generated, bounds):
    start, stop = bounds
    window = generated[start:stop]
    for field, column in window.columns.items():
        parent = getattr(generated, field)
        assert np.shares_memory(column, parent), field
        assert np.array_equal(column, parent[start:stop]), field


def test_a_filtered_trace_owns_its_columns(generated):
    for derived in (head(generated, 10), split_windows(generated, 600)[0]):
        for field, column in derived.columns.items():
            assert not np.shares_memory(column, getattr(generated, field))


def test_records_are_split_once_and_not_kept(records):
    source = records.copy()
    trace = Trace(source)
    source["pc"][0] += 4  # the trace copied its columns out
    assert trace.pc[0] == records["pc"][0]
    assert trace.data is not trace.data  # assembled per access


class TestFromColumns:

    def test_adopts_matching_columns_without_a_copy(self, generated):
        columns = {field: np.array(column)
                   for field, column in generated.columns.items()}
        trace = Trace.from_columns(columns, name="adopted")
        for field, column in columns.items():
            assert trace.columns[field] is column
            assert not column.flags.writeable
        assert trace.content_digest() == generated.content_digest()

    def test_converts_other_layouts(self, records):
        columns = {field: records[field] for field in TRACE_DTYPE.names}
        columns["opclass"] = columns["opclass"].astype(np.int64)
        trace = Trace.from_columns(columns)
        assert trace.opclass.dtype == np.uint8
        assert all(column.flags.aligned and column.flags.c_contiguous
                   for column in trace.columns.values())
        assert trace.data.tobytes() == records.tobytes()

    @pytest.mark.parametrize("defect", ["missing", "extra", "ragged", "2-d"])
    def test_rejects_malformed_columns(self, records, defect):
        columns = {field: records[field] for field in TRACE_DTYPE.names}
        if defect == "missing":
            del columns["target"]
        elif defect == "extra":
            columns["weight"] = columns["pc"]
        elif defect == "ragged":
            columns["dst"] = columns["dst"][:-1]
        else:
            columns["pc"] = columns["pc"].reshape(-1, 2)
        with pytest.raises(TraceError):
            Trace.from_columns(columns)

"""One content hash per loaded trace.

:meth:`Trace.content_digest` is the cache integrity layer's payload
checksum (sha256 over dtype, shape and bytes) truncated, so a trace
read through :meth:`repro.perf.TraceCache.load` takes its digest from
the checksum its verification just matched, and a trace written by
:meth:`repro.perf.TraceCache.store` from the checksum its metadata
records, instead of hashing the bytes a second time.  These tests pin
the formula, the single hash on both paths, the equality of seeded and
computed digests, and that a phase result still refuses a different
trace of the same length.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.trace.trace as trace_module
from repro.errors import AnalysisError
from repro.perf import TraceCache, cached_generate_trace, integrity
from repro.phases import detect_phases, phase_homogeneity
from repro.synth import generate_trace
from repro.trace import Trace
from repro.workloads import get_benchmark

LENGTH = 4_000


@pytest.fixture()
def profile():
    return get_benchmark("mcf").profile


def test_digest_is_the_truncated_integrity_checksum(profile):
    trace = generate_trace(profile, LENGTH)
    assert trace.content_digest() == integrity._array_digest(trace.data)[:16]
    window = trace[100:900]
    assert window.content_digest() == (
        integrity._array_digest(window.data)[:16]
    )


def count_hashes(monkeypatch):
    """Record the shape of every checksum the trace and cache layers
    start, until ``monkeypatch.undo()``."""
    calls = []
    original = trace_module.array_hasher

    def counting(dtype, shape):
        calls.append(tuple(shape))
        return original(dtype, shape)

    monkeypatch.setattr(trace_module, "array_hasher", counting)
    monkeypatch.setattr(integrity, "array_hasher", counting)
    return calls


def test_a_loaded_trace_is_hashed_once(profile, tmp_path, monkeypatch):
    cache = TraceCache(tmp_path)
    cache.store(profile, LENGTH, 0, generate_trace(profile, LENGTH))
    calls = count_hashes(monkeypatch)
    loaded = cache.load(profile, LENGTH, 0)
    digest = loaded.content_digest()
    assert calls == [(LENGTH,)]  # the verification's checksum only
    monkeypatch.undo()
    assert digest == Trace(np.array(loaded.data)).content_digest()
    assert digest == generate_trace(profile, LENGTH).content_digest()


def test_a_stored_trace_is_hashed_once(profile, tmp_path, monkeypatch):
    """A cold generate + store (a cold phases job) hashes the records
    for the entry metadata only; the digest reuses that checksum."""
    length = 100_000
    calls = count_hashes(monkeypatch)
    stored = cached_generate_trace(profile, length, cache_dir=tmp_path)
    digest = stored.content_digest()
    assert calls == [(length,)]
    monkeypatch.undo()
    assert digest == generate_trace(profile, length).content_digest()


def test_phase_results_still_refuse_a_same_length_trace(profile, tmp_path):
    cache = TraceCache(tmp_path)
    for seed in (0, 1):
        cache.store(profile, LENGTH, seed,
                    generate_trace(profile, LENGTH, seed=seed))
    loaded = cache.load(profile, LENGTH, 0)
    other = cache.load(profile, LENGTH, 1)
    result = detect_phases(loaded, interval=500)
    metric = lambda chunk: float(chunk.pc.mean())  # noqa: E731
    phase_homogeneity(loaded, result, metric)
    phase_homogeneity(generate_trace(profile, LENGTH), result, metric)
    with pytest.raises(AnalysisError, match="different content"):
        phase_homogeneity(other, result, metric)
    fresh = detect_phases(generate_trace(profile, LENGTH, seed=1), 500)
    with pytest.raises(AnalysisError, match="different content"):
        phase_homogeneity(loaded, fresh, metric)

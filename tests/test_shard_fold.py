"""The shard fold reports worker quarantines to its caller.

A corrupt shard-cache entry is quarantined by whichever process loads
it.  With ``jobs=None`` that is the caller; with ``jobs=2`` it is a
pool worker, whose quarantine events must travel back with its cold
state so the caller's :func:`~repro.perf.integrity.drain_quarantine_log`
sees the same events for every ``jobs`` value.
"""

from __future__ import annotations

import pytest

from repro.config import ReproConfig
from repro.mica import characterize
from repro.perf import (
    cached_characterize,
    faults,
    integrity,
    sharded_characterize,
)

CONFIG = ReproConfig(trace_length=3_000)


@pytest.fixture
def corrupted_shard_cache(small_trace, tmp_path):
    """A 4-shard cache with one bit-flipped entry; returns (dir, victim)."""
    sharded_characterize(small_trace, CONFIG, shards=4, cache_dir=tmp_path)
    entries = sorted(tmp_path.glob("shard-*.npz"))
    assert len(entries) == 4
    victim = faults.corrupt_entry(entries[1], "bitflip", seed=3)
    integrity.drain_quarantine_log()
    return tmp_path, victim


@pytest.mark.parametrize("jobs", [None, 2])
def test_worker_quarantine_reaches_the_caller(
    small_trace, corrupted_shard_cache, jobs
):
    cache_dir, victim = corrupted_shard_cache
    result = sharded_characterize(
        small_trace, CONFIG, shards=4, jobs=jobs, cache_dir=cache_dir
    )
    events = integrity.drain_quarantine_log()
    assert [event.path for event in events] == [str(victim)]
    assert (
        result.values.tobytes()
        == characterize(small_trace, CONFIG).values.tobytes()
    )


@pytest.mark.parametrize("jobs", [None, 2])
def test_events_recorded_before_the_call_survive(
    small_trace, corrupted_shard_cache, jobs
):
    cache_dir, victim = corrupted_shard_cache
    # Quarantine a characterization entry in this process first.
    cached_characterize(small_trace, CONFIG, cache_dir)
    char_entry = next(cache_dir.glob("char-*.npz"))
    faults.corrupt_entry(char_entry, "bitflip", seed=5)
    cached_characterize(small_trace, CONFIG, cache_dir)
    sharded_characterize(
        small_trace, CONFIG, shards=4, jobs=jobs, cache_dir=cache_dir
    )
    events = integrity.drain_quarantine_log()
    assert [event.path for event in events] == [
        str(char_entry), str(victim),
    ]

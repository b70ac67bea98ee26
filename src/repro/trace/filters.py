"""Trace slicing and sampling utilities.

Workload characterization studies frequently operate on trace prefixes,
periodic samples, or fixed-size windows (e.g. SimPoint-style interval
analysis).  These helpers produce new :class:`~repro.trace.Trace` objects
and never mutate their input.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import TraceError
from .trace import Trace


def _rows(trace: Trace, rows: np.ndarray, name: str) -> Trace:
    """``trace``'s ``rows`` (positions or a mask) as a trace owning its
    columns (fancy indexing copies), so a short result never pins a
    long parent in memory."""
    columns = {f: c[rows] for f, c in trace.columns.items()}
    return Trace.from_columns(columns, name=name)


def head(trace: Trace, count: int) -> Trace:
    """The first ``count`` instructions (all of them if shorter)."""
    if count < 0:
        raise TraceError("count must be non-negative")
    return _rows(trace, np.arange(min(count, len(trace))), trace.name)


def sample_interval(trace: Trace, period: int, length: int) -> Trace:
    """Periodic interval sampling.

    Keeps ``length`` consecutive instructions out of every ``period``
    (the classic sampled-simulation pattern).

    Raises:
        TraceError: if ``period < length`` or either is non-positive.
    """
    if period <= 0 or length <= 0:
        raise TraceError("period and length must be positive")
    if period < length:
        raise TraceError("period must be >= sample length")
    offsets = np.arange(len(trace))
    keep = (offsets % period) < length
    return _rows(trace, keep, trace.name)


def sample_random(trace: Trace, fraction: float, seed: int = 0) -> Trace:
    """Uniform random per-instruction sampling (for quick estimates).

    Note that random sampling destroys sequential structure; analyzers
    that depend on adjacency (strides, ILP, PPM) should not be run on
    randomly sampled traces.

    Raises:
        TraceError: if ``fraction`` is outside ``(0, 1]``.
    """
    if not 0.0 < fraction <= 1.0:
        raise TraceError("fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(trace)) < fraction
    return _rows(trace, keep, trace.name)


def split_windows(trace: Trace, window: int, drop_last: bool = True) -> List[Trace]:
    """Split into consecutive fixed-size windows.

    Args:
        window: instructions per window.
        drop_last: when True (default) a trailing partial window is
            discarded; otherwise it is returned as a shorter trace.

    Raises:
        TraceError: if ``window`` is non-positive.
    """
    if window <= 0:
        raise TraceError("window must be positive")
    windows = []
    for start in range(0, len(trace), window):
        if len(trace) - start < window and drop_last:
            break
        rows = np.arange(start, min(start + window, len(trace)))
        windows.append(_rows(trace, rows, f"{trace.name}[{start}]"))
    return windows

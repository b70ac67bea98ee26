"""Dynamic instruction trace substrate.

This package is the reproduction's stand-in for ATOM instrumentation
output: a columnar trace container (:class:`Trace`), an incremental
builder, an on-disk format (``.mtf``) so externally produced traces can be
consumed, slicing/sampling utilities, summary statistics and invariant
validation.
"""

from .trace import Trace
from .builder import TraceBuilder
from .io import read_trace, write_trace, read_trace_text, write_trace_text
from .filters import head, sample_interval, sample_random, split_windows
from .stats import TraceSummary, summarize
from .validate import validate_trace

__all__ = [
    "Trace",
    "TraceBuilder",
    "read_trace",
    "write_trace",
    "read_trace_text",
    "write_trace_text",
    "head",
    "sample_interval",
    "sample_random",
    "split_windows",
    "TraceSummary",
    "summarize",
    "validate_trace",
]

"""Performance-trajectory history rows and floor gating.

The engine bench (:mod:`repro.perf.timing`) writes a full
``BENCH_mica.json`` per run; this module boils one run down to a single
JSONL *history row* — the run's flat ``speedups`` map (one
reference-over-engine ratio per floor group) plus enough metadata to
compare rows across machines — so ``BENCH_history.jsonl`` accumulates
one line per PR and the performance trajectory is a ``jq``-able time
series rather than a pile of full reports.

The CI perf gate (``benchmarks/perf/bench_gate.py``) reads a written
``BENCH_mica.json`` and calls :func:`check_bench_floors` on it, which
compares the speedups against the committed per-group floors in
``benchmarks/perf/floors.json`` and returns the violations.  Floors
are *speedup ratios* (engine vs its scalar reference on the same
machine), so the gate is machine-independent: a slow CI runner slows
both sides of every ratio.
"""

from __future__ import annotations

import json
import math
import numbers
import platform
import time
from pathlib import Path
from typing import Dict, List, Tuple

#: Schema tag stamped into every history row.
HISTORY_SCHEMA = "BENCH_history/v1"


def bench_history_row(result) -> dict:
    """One flat history row for a :class:`~repro.perf.timing.BenchResult`:
    its flat ``speedups`` map (floor group -> ratio) plus metadata."""
    return {
        "schema": HISTORY_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "trace_length": int(result.trace_length),
        "profile": result.profile,
        "repeats": int(result.repeats),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "speedups": dict(result.speedups),
    }


def append_bench_history(result, path: "Path | str") -> Path:
    """Append one history row for ``result`` to a JSONL file.

    Creates the file (and parents) on first use; each run is one line,
    so the file is an append-only time series that merges trivially.
    Returns the path written.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    row = bench_history_row(result)
    # repro: lint-ok[durability] append-only telemetry; a torn tail is
    # tolerated (skipped) by load_bench_history, never served as data
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return target


def load_bench_history(path: "Path | str") -> "List[dict]":
    """All history rows in a JSONL file (missing file: empty list).

    A row that does not parse — the torn tail a crash mid-append leaves
    behind — is skipped rather than poisoning every later read: history
    is append-only telemetry, and every complete row is still good.
    """
    target = Path(path)
    if not target.is_file():
        return []
    rows: "List[dict]" = []
    for line in target.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return rows


def check_bench_floors(
    row: dict,
    floors: "Dict[str, float]",
    require_all: bool = True,
) -> "Tuple[str, ...]":
    """Compare one history row against per-group speedup floors.

    Args:
        row: a :func:`bench_history_row` dict (or anything with a
            ``speedups`` mapping, such as a ``BENCH_mica.json`` payload).
        floors: group -> minimum acceptable speedup ratio.
        require_all: treat a floor whose group the row did not measure
            as a violation (CI must not pass on a file that lacks one).
            A measured value that is not a finite number is always a
            violation.

    Returns:
        Human-readable violation strings; empty means the row passes.
    """
    speedups = row.get("speedups", {})
    violations: "List[str]" = []
    for group in sorted(floors):
        floor = float(floors[group])
        measured = speedups.get(group)
        if measured is None:
            if require_all:
                violations.append(
                    f"{group}: no speedup measured (floor {floor:g}x)"
                )
            continue
        if (
            isinstance(measured, bool)
            or not isinstance(measured, numbers.Real)
            or not math.isfinite(measured)
        ):
            violations.append(
                f"{group}: {measured!r} is not a finite speedup "
                f"(floor {floor:g}x)"
            )
        elif measured < floor:
            violations.append(
                f"{group}: {float(measured):.2f}x is below the "
                f"{floor:g}x floor"
            )
    return tuple(violations)

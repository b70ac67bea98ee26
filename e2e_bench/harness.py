"""Workload-independent machinery of the end-to-end benchmark.

* the host-speed calibration kernel (numpy + interpreter work that never
  touches ``repro``), run between ops and outside op timing;
* latency statistics (median and the highest percentile that still has
  at least ten samples beyond it);
* the span tracer of traced runs: spans are recorded from this package
  around calls into ``repro``'s public functions, kept in memory and
  written out when the run ends;
* the traced-run layer table and the final result line.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# -- host-speed calibration -------------------------------------------------

_CALIBRATION_INPUT = np.random.default_rng(2006).integers(
    0, 1 << 20, size=200_000
)

#: Calibration-kernel median (ms) that defines the reference host speed:
#: the typical median on the 2-vCPU Intel Xeon host the benchmark was
#: sized on.  A run whose kernel median is ``c`` ms reports each time
#: multiplied by ``REFERENCE_CALIBRATION_MS / c``.
REFERENCE_CALIBRATION_MS = 35.0


def calibration_kernel() -> float:
    """Run the fixed calibration kernel once; returns its wall time in ms.

    A sort, a unique and a cumsum over a fixed 200k-element array plus a
    pure-interpreter loop: the same mix of numpy and bytecode work the
    program does, so dividing an op time by the kernel's in-run median
    expresses it in host-speed units.
    """
    start = time.perf_counter()
    values = np.sort(_CALIBRATION_INPUT)
    distinct = np.unique(values >> 3)
    total = int(np.cumsum(distinct)[-1])
    for step in range(60_000):
        total = (total + step * 7) % 1_000_003
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError("unreachable")
    return elapsed * 1e3


# -- latency statistics -----------------------------------------------------


def tail_percentile(count: int) -> float:
    """Highest whole percentile with at least ten samples beyond it.

    ``100 * (1 - 10 / n)`` rounded down (capped at 99.9); the median
    when fewer than 20 samples exist.
    """
    if count < 20:
        return 50.0
    return min(99.9, math.floor(100.0 * (1.0 - 10.0 / count)))


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """p50 and tail latency (ms) of a run, with the tail's percentile."""
    values = np.asarray(latencies_s, dtype=np.float64) * 1e3
    percentile = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50_ms": float(np.percentile(values, 50)),
        "tail_percentile": percentile,
        "tail_ms": float(np.percentile(values, percentile)),
    }


def pass_drift(
    latencies_s: Sequence[float], keys: Sequence[str], passes: int
) -> float:
    """Median relative change of per-key op time, first to last pass.

    ``latencies_s[i]`` belongs to op ``keys[i]``; ops come in ``passes``
    whole passes over the same keys.  Returns 0 for a single pass.
    """
    if passes < 2:
        return 0.0
    per_pass = len(keys) // passes
    first = dict(zip(keys[:per_pass], latencies_s[:per_pass]))
    last = dict(zip(keys[-per_pass:], latencies_s[-per_pass:]))
    return statistics.median(
        last[key] / first[key] - 1.0 for key in first
    )


# -- spans ------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    Each span records its name, start, end, parent span id and op id.
    A span opened on a thread with no open span of its own (a service
    worker thread computing a job the driver is waiting on) is parented
    to the driver thread's innermost open span, so it nests inside the
    call that caused it.

    ``targets`` rows are ``(owner, attribute, span name)``: the module or
    class whose namespace production code looks a public name up in.
    While an op is open each target is patched with a span-recording
    wrapper; ``measures[span name]`` maps a call's result to extra span
    attributes.
    """

    def __init__(
        self,
        targets: Sequence[Tuple[object, str, str]] = (),
        measures: "Dict[str, Callable[[object], dict]] | None" = None,
    ) -> None:
        self.targets = targets
        self.measures = measures or {}
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[int]] = {}
        self._driver: Optional[int] = None
        self._op: Optional[int] = None

    def _parent(self) -> Optional[int]:
        stack = self._stacks.get(threading.get_ident())
        if stack:
            return stack[-1]
        driver = self._stacks.get(self._driver)
        return driver[-1] if driver else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        with self._lock:
            span_id = next(self._ids)
            parent = self._parent()
            stack = self._stacks.setdefault(threading.get_ident(), [])
        stack.append(span_id)
        record = {"id": span_id, "name": name, "parent": parent,
                  "op": self._op, **attrs}
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op, with every target wrapped until it ends;
        the calling thread becomes the driver."""
        self._driver = threading.get_ident()
        self._op = op_id
        with self._wrapped(), self.span("op") as record:
            yield record
        self._op = None

    @contextlib.contextmanager
    def _wrapped(self):
        originals = []
        try:
            for owner, attribute, name in self.targets:
                original = owner.__dict__[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrapper(name, original))
            yield
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def _wrapper(self, name, original):
        measure = self.measures.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if measure is not None:
                    record.update(measure(result))
                return result
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(record) + "\n")


def span_nesting_errors(spans: Iterable[dict]) -> List[str]:
    """Spans whose parent id does not resolve or whose interval leaks.

    A child must share its parent's op and lie inside its interval.
    """
    by_id = {span["id"]: span for span in spans}
    errors = []
    for span in by_id.values():
        parent_id = span["parent"]
        if parent_id is None:
            if span["name"] != "op":
                errors.append(f"span {span['id']} {span['name']} has no parent")
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            errors.append(f"span {span['id']} parent {parent_id} missing")
        elif parent["op"] != span["op"]:
            errors.append(f"span {span['id']} crosses ops")
        elif not (parent["start"] <= span["start"]
                  and span["end"] <= parent["end"]):
            errors.append(
                f"span {span['id']} {span['name']} outside parent "
                f"{parent_id} {parent['name']}"
            )
    return errors


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


# -- traced-run report ------------------------------------------------------


def layer_report(
    tracer: Tracer, untraced_s: Sequence[float]
) -> Tuple[Dict[str, dict], dict]:
    """Per-layer self time and the traced run's overall accounting.

    ``untraced_s[i]`` is the time of the untraced run of op ``i``, made
    right before its traced run.  Returns ``(layers, totals)``: per span name the
    calls, the ops that reached it, the median over those ops of the
    layer's summed self time (ms), its total (ms) and any extra
    per-call attributes' median; and the median traced/untraced op
    time, the median unattributed remainder (untraced op time minus the
    spans' self time) and the tracing overhead.
    """
    spans = tracer.spans
    own = self_times(spans)
    roots = {span["op"]: span for span in spans if span["name"] == "op"}
    per_op: Dict[str, Dict[int, float]] = {}
    calls: Dict[str, int] = {}
    extras: Dict[str, Dict[str, List[float]]] = {}
    attributed = {op: 0.0 for op in roots}
    for span in spans:
        if span["name"] == "op":
            continue
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        by_op = per_op.setdefault(name, {})
        by_op[span["op"]] = by_op.get(span["op"], 0.0) + own[span["id"]]
        attributed[span["op"]] += own[span["id"]]
        for key, value in span.items():
            if key not in ("id", "name", "parent", "op", "start", "end"):
                extras.setdefault(name, {}).setdefault(key, []).append(value)
    layers = {}
    traced_total = sum(r["end"] - r["start"] for r in roots.values())
    for name, by_op in sorted(per_op.items()):
        layers[name] = {
            "calls": calls[name],
            "ops": len(by_op),
            "median_ms": statistics.median(by_op.values()) * 1e3,
            "total_ms": sum(by_op.values()) * 1e3,
            "share": sum(by_op.values()) / traced_total,
            **{key: statistics.median(values)
               for key, values in extras.get(name, {}).items()},
        }
    ops = sorted(roots)
    traced = [roots[op]["end"] - roots[op]["start"] for op in ops]
    unattributed = [
        untraced_s[op] - attributed[op] for op in ops
    ]
    totals = {
        "ops": len(ops),
        "traced_ms": statistics.median(traced) * 1e3,
        "untraced_ms": statistics.median(untraced_s) * 1e3,
        "unattributed_ms": statistics.median(unattributed) * 1e3,
        "unattributed_share": (
            sum(unattributed) / sum(untraced_s[op] for op in ops)
        ),
        "overhead_pct": (
            statistics.median(traced) / statistics.median(untraced_s) - 1.0
        ) * 100.0,
        "nesting_errors": span_nesting_errors(spans),
    }
    return layers, totals


def format_layer_table(
    workload: str, layers: Dict[str, dict], totals: dict
) -> str:
    """Human-readable per-layer self-time table of one traced run."""
    lines = [
        f"traced run: {workload}, {totals['ops']} ops, "
        f"median op {totals['untraced_ms']:.2f} ms untraced / "
        f"{totals['traced_ms']:.2f} ms traced "
        f"(tracing overhead {totals['overhead_pct']:+.1f}%)",
        f"  {'layer':<28}{'calls':>7}{'ops':>6}"
        f"{'self ms/op':>12}{'total ms':>11}{'share':>8}",
    ]
    for name, row in sorted(
        layers.items(), key=lambda item: -item[1]["total_ms"]
    ):
        lines.append(
            f"  {name:<28}{row['calls']:>7}{row['ops']:>6}"
            f"{row['median_ms']:>12.3f}{row['total_ms']:>11.1f}"
            f"{row['share']:>8.1%}"
        )
    lines.append(
        f"  {'unattributed':<28}{'':>7}{totals['ops']:>6}"
        f"{totals['unattributed_ms']:>12.3f}{'':>11}"
        f"{totals['unattributed_share']:>8.1%}"
    )
    if totals["nesting_errors"]:
        lines.append(
            f"  span nesting errors: {len(totals['nesting_errors'])}"
        )
    return "\n".join(lines)


# -- result line ------------------------------------------------------------


def result_line(
    attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]
) -> str:
    """The benchmark's final stdout line (one JSON object)."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def ensure_empty_dir(path: Path) -> Path:
    """Create ``path`` (removing any previous contents)."""
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


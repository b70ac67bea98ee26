#!/usr/bin/env python
"""CI perf gate: bench speedups must stay above the committed floors.

Reads a ``BENCH_mica.json`` that ``repro bench`` wrote, checks that it
is a ``BENCH_mica/v7`` file measured at the tier's trace length, and
compares its per-group speedups (each engine vs its retained scalar
reference) against the floors committed in
``benchmarks/perf/floors.json``.  Exits 1 when any group is below its
floor (or its value is not a finite number), 2 when the file is
missing or malformed::

    PYTHONPATH=src python -m repro --trace-length 20000 \
        bench --repeats 1 --output bench_smoke.json
    PYTHONPATH=src python benchmarks/perf/bench_gate.py \
        --tier smoke bench_smoke.json

Floors are speedup *ratios* (both sides timed on the same machine), so
the gate holds on slow CI runners; the ``smoke`` tier's floors carry
extra headroom because small traces amortize less per-call overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf import check_bench_floors  # noqa: E402
from repro.perf.timing import BENCH_SCHEMA  # noqa: E402

DEFAULT_FLOORS = Path(__file__).resolve().parent / "floors.json"


def load_bench(path: Path, trace_length: int) -> dict:
    """The bench payload at ``path``; ValueError names what is wrong."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ValueError(f"cannot read {path}: {error}") from None
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path} is not a {BENCH_SCHEMA} file")
    meta = payload.get("meta")
    measured = meta.get("trace_length") if isinstance(meta, dict) else None
    if measured != trace_length:
        raise ValueError(
            f"{path} was measured at trace_length {measured}, "
            f"the tier needs {trace_length}"
        )
    if not isinstance(payload.get("speedups"), dict):
        raise ValueError(f"{path} has no speedups map")
    return payload


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "bench", nargs="?", default=str(REPO_ROOT / "BENCH_mica.json"),
        help="BENCH_mica.json written by repro bench "
             "(default: the committed one)",
    )
    parser.add_argument(
        "--tier", choices=("smoke", "full"), default="smoke",
        help="floor tier to gate against (also fixes the trace length)",
    )
    parser.add_argument(
        "--floors", default=str(DEFAULT_FLOORS),
        help="floors JSON file (default: the committed floors.json)",
    )
    args = parser.parse_args(argv)

    tier = json.loads(Path(args.floors).read_text(encoding="utf-8"))[args.tier]
    floors = tier["floors"]
    try:
        payload = load_bench(Path(args.bench), int(tier["trace_length"]))
    except ValueError as error:
        print(f"perf gate error: {error}", file=sys.stderr)
        return 2

    violations = check_bench_floors(payload, floors)
    if violations:
        print(f"perf gate FAILED ({args.tier} floors):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    speedups = payload["speedups"]
    print(f"perf gate passed ({args.tier} floors): " + ", ".join(
        f"{group} {speedups[group]:.1f}x>={floors[group]:g}x"
        for group in sorted(floors)
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())

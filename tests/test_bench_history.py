"""Perf-trajectory history rows and the floor gate.

No engines are actually timed here: the tests build a synthetic
:class:`BenchResult` and pin the row schema, the append-only JSONL
behaviour, the gate's floor arithmetic — including the rules that a
floor whose group went unmeasured, or whose value is not a finite
number, is itself a violation — and the CI gate script's handling of
the ``BENCH_mica.json`` it reads.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.perf import (
    append_bench_history,
    bench_history_row,
    check_bench_floors,
    load_bench_history,
)
from repro.perf.history import HISTORY_SCHEMA
from repro.perf.timing import FLOOR_GROUPS, ROWS, BenchResult

REPO_FLOORS = Path(__file__).parent.parent / "benchmarks/perf/floors.json"
GATE_SCRIPT = Path(__file__).parent.parent / "benchmarks/perf/bench_gate.py"


def _result(
    ppm=12.0, ilp=6.0, phases=7.0, generation=11.0, events=9.0,
    pipelines=1.5, include_generation=True, include_hpc=True,
    include_phases=True, trace_length=100_000,
):
    """A result whose group ratios are exactly the given speedups: one
    row per group, engine 1 s and reference ``speedup`` seconds."""
    seconds = {"ppm": (1.0, ppm), "ilp": (1.0, ilp)}
    if include_generation:
        seconds["interpret"] = (1.0, generation)
    if include_hpc:
        seconds["events_ev56"] = (1.0, events)
        seconds["pipeline_ev67"] = (1.0, pipelines)
    if include_phases:
        seconds["mica_timeline"] = (1.0, phases)
    return BenchResult(
        profile="mcf", trace_length=trace_length, repeats=3, seconds=seconds,
    )


class TestHistoryRow:
    def test_row_collects_every_engine(self):
        row = bench_history_row(_result())
        assert row["schema"] == HISTORY_SCHEMA
        assert row["trace_length"] == 100_000
        assert row["profile"] == "mcf"
        assert row["repeats"] == 3
        assert row["speedups"] == {
            "ppm": 12.0, "ilp": 6.0, "phases": 7.0,
            "generation": 11.0, "events": 9.0, "pipelines": 1.5,
        }

    def test_row_records_the_src_line_count(self):
        package = Path(__file__).parent.parent / "src" / "repro"
        expected = sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in package.glob("**/*.py")
        )
        row = bench_history_row(_result())
        assert row["src_lines"] == expected > 20_000

    def test_skipped_sections_are_absent_not_zero(self):
        row = bench_history_row(_result(
            include_generation=False, include_hpc=False,
            include_phases=False,
        ))
        assert set(row["speedups"]) == {"ppm", "ilp"}

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "BENCH_history.jsonl"
        append_bench_history(_result(), path)
        append_bench_history(_result(ppm=13.0), path)
        rows = load_bench_history(path)
        assert len(rows) == 2
        assert rows[0]["speedups"]["ppm"] == 12.0
        assert rows[1]["speedups"]["ppm"] == 13.0
        # One JSON object per line: the file merges/greps trivially.
        lines = path.read_text().splitlines()
        assert all(json.loads(line)["schema"] == HISTORY_SCHEMA
                   for line in lines)

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_bench_history(tmp_path / "absent.jsonl") == []


class TestBenchResult:
    def test_registry_names_are_unique(self):
        names = [row.name for row in ROWS]
        assert len(names) == len(set(names))

    def test_group_ratio_sums_both_sides(self):
        result = BenchResult(
            profile="mcf", trace_length=1_000, repeats=1, seconds={
                "events_ev56": (1.0, 30.0), "events_ev67": (3.0, 10.0),
                "tlb": (1.0, 99.0),
            },
        )
        # Σ reference / Σ engine, not a mean of the per-row ratios;
        # ungated rows (tlb) feed no group.
        assert result.speedups == {"events": 40.0 / 4.0}

    def test_payload_layout(self):
        payload = _result().as_dict()
        assert payload["schema"] == "BENCH_mica/v8"
        assert payload["meta"]["interval"] == 5_000
        assert payload["engines"]["ppm"] == {
            "group": "ppm", "seconds": 1.0, "reference_seconds": 12.0,
            "speedup": 12.0,
        }
        assert payload["speedups"]["ppm"] == 12.0


class TestFloorGate:
    FLOORS = {"ppm": 10.0, "ilp": 5.0, "generation": 10.0,
              "events": 5.0, "pipelines": 1.0, "phases": 5.0}

    def test_passing_row_has_no_violations(self):
        row = bench_history_row(_result())
        assert check_bench_floors(row, self.FLOORS) == ()

    def test_below_floor_is_named(self):
        row = bench_history_row(_result(ppm=9.5, events=2.0))
        violations = check_bench_floors(row, self.FLOORS)
        assert len(violations) == 2
        assert any("ppm: 9.50x" in v for v in violations)
        assert any("events: 2.00x" in v for v in violations)

    def test_missing_engine_is_a_violation_by_default(self):
        row = bench_history_row(_result(include_hpc=False))
        violations = check_bench_floors(row, self.FLOORS)
        assert any("events: no speedup measured" in v
                   for v in violations)
        assert any("pipelines: no speedup measured" in v
                   for v in violations)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_speedup_is_named(self, bad):
        row = bench_history_row(_result(ppm=bad))
        violations = check_bench_floors(row, self.FLOORS)
        assert violations == (
            f"ppm: {bad!r} is not a finite speedup (floor 10x)",
        )

    @pytest.mark.parametrize("bad", ["12.0", True, [12.0]])
    def test_non_numeric_speedup_is_named(self, bad):
        row = {"speedups": dict(bench_history_row(_result())["speedups"])}
        row["speedups"]["ilp"] = bad
        violations = check_bench_floors(row, self.FLOORS)
        assert violations == (
            f"ilp: {bad!r} is not a finite speedup (floor 5x)",
        )

    def test_committed_floors_file_is_well_formed(self):
        payload = json.loads(REPO_FLOORS.read_text())
        assert payload["schema"] == "bench-floors/v1"
        for tier in ("full", "smoke"):
            floors = payload[tier]["floors"]
            # Every floor group the registry defines is gated, and only
            # those: a floor no row feeds could never be measured.
            assert set(floors) == set(FLOOR_GROUPS)
            # Every floor is a speedup (>= 1).
            assert all(float(value) >= 1.0 for value in floors.values())
        # The documented acceptance floors from the bench harness.
        full = payload["full"]["floors"]
        assert full["ppm"] >= 10 and full["generation"] >= 10
        assert full["ilp"] >= 5 and full["events"] >= 5
        assert full["phases"] >= 5 and full["pipelines"] >= 1


def _gate():
    spec = importlib.util.spec_from_file_location("bench_gate", GATE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


class TestGateScript:
    """``bench_gate.py`` gates a file ``repro bench`` wrote."""

    FLOORS = {"smoke": {"trace_length": 20_000, "floors": {"ppm": 10.0}}}

    def _run(self, tmp_path, payload):
        floors = tmp_path / "floors.json"
        floors.write_text(json.dumps(self.FLOORS))
        bench = tmp_path / "bench.json"
        if payload is not None:
            bench.write_text(
                payload if isinstance(payload, str) else json.dumps(payload)
            )
        return _gate()(["--tier", "smoke", "--floors", str(floors),
                        str(bench)])

    def test_passing_file_exits_zero(self, tmp_path, capsys):
        payload = _result(trace_length=20_000).as_dict()
        assert self._run(tmp_path, payload) == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_below_floor_exits_one(self, tmp_path, capsys):
        payload = _result(ppm=9.0, trace_length=20_000).as_dict()
        assert self._run(tmp_path, payload) == 1
        assert "ppm: 9.00x is below" in capsys.readouterr().err

    @pytest.mark.parametrize("ppm, message", [
        (None, "ppm: no speedup measured (floor 10x)"),
        (math.nan, "ppm: nan is not a finite speedup (floor 10x)"),
        (math.inf, "ppm: inf is not a finite speedup (floor 10x)"),
    ])
    def test_missing_or_non_finite_group_exits_one(
        self, tmp_path, capsys, ppm, message
    ):
        payload = _result(trace_length=20_000).as_dict()
        if ppm is None:
            del payload["speedups"]["ppm"]
        else:
            payload["speedups"]["ppm"] = ppm
        assert self._run(tmp_path, payload) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        (None, "cannot read"),
        ("{", "cannot read"),
        ({"schema": "BENCH_mica/v6"}, "is not a BENCH_mica/v8 file"),
        ({"schema": "BENCH_mica/v8", "meta": {"trace_length": 100_000},
          "speedups": {}}, "measured at trace_length 100000"),
        ({"schema": "BENCH_mica/v8", "meta": {"trace_length": 20_000}},
         "has no speedups map"),
    ])
    def test_unusable_file_is_a_one_line_error(
        self, tmp_path, capsys, payload, message
    ):
        assert self._run(tmp_path, payload) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

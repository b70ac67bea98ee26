"""Checks of the end-to-end benchmark itself.

Run from the repository root::

    python3 -m pytest e2e_bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from repro.synth import generation_call_count  # noqa: E402
from repro.uarch import hpc_call_count  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {metric["name"]: metric["bound"]
          for metric in BENCHMARK["end_to_end"]}


def cold_build(digests=None):
    workload = workloads.ColdBuild(digests or workloads.load_digests())
    workload.setup_repeats = 1
    return workload


def test_benchmark_json_names_what_the_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )
    emitted = set(bench_run.LAYER_METRICS) | set(bench_run.DERIVED_METRICS)
    assert emitted == {metric["name"] for metric in BENCHMARK["per_layer"]}


def test_populations_span_all_six_suites():
    suites = {benchmark.suite for benchmark in workloads.cold_subset()}
    assert len(suites) == 6
    assert {b.suite for b in workloads.service_population()} == suites


def test_every_seed_does_the_same_work_in_another_order():
    digests = workloads.load_digests()
    for workload_class in (workloads.ColdBuild, workloads.WarmService):
        workload = workload_class(digests)
        first, second = workload.plan(1, 20), workload.plan(2, 20)
        assert first != second
        assert _op_multiset(first) == _op_multiset(second)


def _op_multiset(plan):
    """Ops of a plan (warm-service plans are lists of blocks), sorted."""
    return sorted(
        str(op) for item in plan
        for op in (item if isinstance(item, list) else [item])
    )


def test_tail_percentile_keeps_ten_samples_beyond():
    for count in (20, 32, 64, 540, 1100):
        percentile = harness.tail_percentile(count)
        assert count * (1 - percentile / 100) >= 10
        assert count * (1 - (percentile + 1) / 100) < 10


def test_cold_op_never_returns_from_a_memo():
    workload = cold_build()
    name = sorted(workload.benchmarks)[0]
    generations, simulations = generation_call_count(), hpc_call_count()
    _, errors, _, _ = workload.run_ops([name, name])
    assert errors == [None, None]
    assert generation_call_count() - generations == 2
    assert hpc_call_count() - simulations == 2


def test_first_and_last_pass_agree_on_op_time():
    workload = cold_build()
    names = sorted(workload.benchmarks)[1:4]
    ops = names + names
    latencies, errors, _, _ = workload.run_ops(ops)
    assert errors == [None] * len(ops)
    drift = harness.pass_drift(latencies, ops, passes=2)
    assert abs(drift) <= BOUNDS["latency_p50_ms"]


def test_corrupted_digest_counts_as_one_failed_op():
    digests = workloads.load_digests()
    names = sorted(digests["cold-build"])[:2]
    digests["cold-build"][names[0]]["mica"] = "0" * 64
    workload = cold_build(digests)
    workload.plan = lambda seed, seconds: list(names)
    try:
        attempted, errors, _, _ = bench_run.measure(workload, 1, 1)
    finally:
        workload.teardown()
    failures = [error for error in errors if error is not None]
    assert attempted == 2
    assert failures == [f"{names[0]}: MICA vector digest mismatch"]
    line = json.loads(harness.result_line(attempted, len(failures), {}))
    assert line["correct"] is False and line["failed"] == 1


def test_times_are_reported_at_reference_host_speed():
    workload = cold_build()
    workload.plan = lambda seed, seconds: sorted(workload.benchmarks)[:1]
    try:
        _, _, metrics, _ = bench_run.measure(workload, 1, 1)
    finally:
        workload.teardown()
    p50, _ = metrics["latency_p50_ms"]
    relative, _ = metrics["latency_p50_rel"]
    assert math.isclose(
        p50, relative * harness.REFERENCE_CALIBRATION_MS, rel_tol=1e-12
    )


def test_non_200_response_is_a_failed_op():
    workload = workloads.WarmService(workloads.load_digests())
    name = workload.population[0]
    assert workload.check(("hpc", name), 202, {}) is not None
    assert workload.check(
        ("hpc", name), 429, {"error": "queue_full"}
    ) is not None


def test_spans_nest_across_threads():
    tracer = harness.Tracer()
    with tracer.op(0):
        with tracer.span("outer"):
            worker = threading.Thread(
                target=_open_and_close, args=(tracer, "inner")
            )
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    spans = {span["name"]: span for span in tracer.spans}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["parent"] == spans["op"]["id"]
    assert harness.span_nesting_errors(tracer.spans) == []
    spans["inner"]["end"] = spans["outer"]["end"] + 1.0
    assert harness.span_nesting_errors(tracer.spans)
    spans["inner"]["parent"] = 10_000
    assert harness.span_nesting_errors(tracer.spans)


def _open_and_close(tracer, name):
    with tracer.span(name):
        pass


def test_traced_cold_op_spans_nest_and_patches_are_undone():
    from repro.perf import cache

    original = cache.generate_trace
    workload = cold_build()
    tracer = harness.Tracer(
        bench_run.trace_targets(), bench_run.TRACE_MEASURES
    )
    untraced, errors, _, _ = workload.run_ops(
        [sorted(workload.benchmarks)[0]], tracer
    )
    assert cache.generate_trace is original
    assert errors == [None, None]
    assert harness.span_nesting_errors(tracer.spans) == []
    reached = {span["name"] for span in tracer.spans}
    cold_layers = {
        span for span, _, _ in bench_run.LAYER_METRICS.values()
        if span.split(".")[0] in ("synth", "trace", "mica", "uarch")
    }
    assert cold_layers <= reached
    layers, totals = harness.layer_report(tracer, untraced)
    assert layers["perf.trace_store"]["bytes"] > 0
    assert totals["nesting_errors"] == []


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cold-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

"""End-to-end benchmark of the MICA reproduction.

Usage (from the repository root)::

    python3 e2e_bench/run.py --workload cold-build --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs each op of the same sequence untraced and then
traced, and reports per-layer self times.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
state sample counts, the tail percentile, the calibration median and
(traced) the layer table.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"

#: Per-layer metric -> (span name, span field, unit).  ``median_ms`` is
#: the median over the ops that reached the layer of its summed self
#: time per op.
LAYER_METRICS = {
    "synth.build_code_ms": ("synth.build_code", "median_ms", "ms"),
    "synth.generate_ms": ("synth.generate", "median_ms", "ms"),
    "trace.fingerprint_ms": ("trace.fingerprint", "median_ms", "ms"),
    "perf.trace_store_ms": ("perf.trace_store", "median_ms", "ms"),
    "perf.trace_bytes": ("perf.trace_store", "bytes", "bytes"),
    "perf.char_store_ms": ("perf.char_store", "median_ms", "ms"),
    "perf.hpc_store_ms": ("perf.hpc_store", "median_ms", "ms"),
    "mica.characterize_ms": ("mica.characterize", "median_ms", "ms"),
    "mica.mix_ms": ("mica.mix", "median_ms", "ms"),
    "mica.register_traffic_ms": (
        "mica.register_traffic", "median_ms", "ms"),
    "mica.working_set_ms": ("mica.working_set", "median_ms", "ms"),
    "mica.strides_ms": ("mica.strides", "median_ms", "ms"),
    "mica.ilp_ms": ("mica.ilp", "median_ms", "ms"),
    "mica.ppm_ms": ("mica.ppm", "median_ms", "ms"),
    "uarch.events_ev56_ms": ("uarch.events_ev56", "median_ms", "ms"),
    "uarch.events_ev67_ms": ("uarch.events_ev67", "median_ms", "ms"),
    "uarch.pipeline_ev56_ms": ("uarch.pipeline_ev56", "median_ms", "ms"),
    "uarch.pipeline_ev67_ms": ("uarch.pipeline_ev67", "median_ms", "ms"),
    "perf.trace_load_ms": ("perf.trace_load", "median_ms", "ms"),
    "perf.char_load_ms": ("perf.char_load", "median_ms", "ms"),
    "perf.hpc_load_ms": ("perf.hpc_load", "median_ms", "ms"),
    "service.handle_ms": ("service.handle", "median_ms", "ms"),
    "phases.detect_ms": ("phases.detect", "median_ms", "ms"),
    "phases.simulation_points_ms": (
        "phases.simulation_points", "median_ms", "ms"),
    "analysis.ga_select_ms": ("analysis.ga_select", "median_ms", "ms"),
    "experiments.fig6_ms": ("experiments.fig6", "median_ms", "ms"),
    "experiments.fig4_ms": ("experiments.fig4", "median_ms", "ms"),
    "experiments.fig5_ms": ("experiments.fig5", "median_ms", "ms"),
    "experiments.table3_ms": ("experiments.table3", "median_ms", "ms"),
    "experiments.table4_ms": ("experiments.table4", "median_ms", "ms"),
    "experiments.fig1_ms": ("experiments.fig1", "median_ms", "ms"),
    "experiments.case_study_ms": (
        "experiments.case_study", "median_ms", "ms"),
}


def trace_targets():
    """``(owner, attribute, span name)``: where production code looks up
    each public call, so patching the attribute wraps every call."""
    module = importlib.import_module
    cache = module("repro.perf.cache")
    characterize = module("repro.mica.characterize")
    inorder = module("repro.uarch.inorder")
    ooo = module("repro.uarch.ooo")
    runner = module("repro.experiments.runner")
    return [
        (module("repro.synth.generator"), "code_for_profile",
         "synth.build_code"),
        (cache, "generate_trace", "synth.generate"),
        (cache, "trace_fingerprint", "trace.fingerprint"),
        (cache.TraceCache, "store", "perf.trace_store"),
        (cache.TraceCache, "load", "perf.trace_load"),
        (cache.CharacterizationCache, "store", "perf.char_store"),
        (cache.CharacterizationCache, "load", "perf.char_load"),
        (cache.HpcCache, "store", "perf.hpc_store"),
        (cache.HpcCache, "load", "perf.hpc_load"),
        (cache, "characterize", "mica.characterize"),
        (characterize, "instruction_mix", "mica.mix"),
        (characterize, "ilp_ipc", "mica.ilp"),
        (characterize, "register_traffic", "mica.register_traffic"),
        (characterize, "working_set", "mica.working_set"),
        (characterize, "stride_profile", "mica.strides"),
        (characterize, "ppm_predictabilities", "mica.ppm"),
        (inorder, "simulate_events", "uarch.events_ev56"),
        (ooo, "simulate_events", "uarch.events_ev67"),
        (inorder.InOrderModel, "run", "uarch.pipeline_ev56"),
        (ooo.OutOfOrderModel, "run", "uarch.pipeline_ev67"),
        (module("repro.phases"), "detect_phases", "phases.detect"),
        (module("repro.phases"), "simulation_points",
         "phases.simulation_points"),
        (runner.GeneticSelector, "select", "analysis.ga_select"),
        (runner, "run_fig1", "experiments.fig1"),
        (runner, "run_table3", "experiments.table3"),
        (runner, "run_case_study", "experiments.case_study"),
        (runner, "run_fig4", "experiments.fig4"),
        (runner, "run_fig5", "experiments.fig5"),
        (runner, "run_table4", "experiments.table4"),
        (runner, "run_fig6", "experiments.fig6"),
    ]


#: Per-layer metrics derived from more than one span (0 where the
#: workload does not reach the layer).
DERIVED_METRICS = {
    "service.warm_hit_ratio": "ratio",
    "service.http_overhead_ms": "ms",
    "experiments.unattributed_ms": "ms",
    "bench.calib_ms": "ms",
    "bench.tracing_overhead_pct": "%",
}

#: Warm-service blocks replayed (traced runs only) through an in-process
#: service.
IN_PROCESS_BLOCKS = 8

#: Calibration-kernel runs (median taken) before each set-up.
SETUP_CALIBRATIONS = 3

TRACE_MEASURES = {
    "perf.trace_store": lambda path: {"bytes": os.path.getsize(path)},
}


def measure(workload, seed: int, seconds: float):
    """Untraced run: returns (attempted, per-op errors, metrics,
    summary lines)."""
    # Times are reported at the reference host speed (see README.md,
    # "Host-speed calibration"); the summary lines keep the raw values.
    # Host speed drifts within seconds, so each set-up is scaled by the
    # calibration measured right before it, and the ops by the median of
    # the calibration runs interleaved with them.
    setup_s, setup_scaled = [], []
    for repeat in range(workload.setup_repeats):
        if repeat:
            workload.teardown()
        calib_before = harness.median(
            [harness.calibration_kernel() for _ in range(SETUP_CALIBRATIONS)]
        )
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
        setup_scaled.append(
            setup_s[-1] * harness.REFERENCE_CALIBRATION_MS / calib_before
        )
    plan = workload.plan(seed, seconds)
    latencies, errors, calibration, window = workload.run_ops(plan)
    peak_rss_mb = workload.peak_rss_mb()
    workload.teardown()
    count = len(latencies)
    stats = harness.latency_summary(latencies)
    calib_ms = harness.median(calibration)
    scale = harness.REFERENCE_CALIBRATION_MS / calib_ms
    metrics = {
        "setup_s": (harness.median(setup_scaled), "s"),
        "latency_p50_ms": (stats["p50_ms"] * scale, "ms"),
        "latency_tail_ms": (stats["tail_ms"] * scale, "ms"),
        "throughput_per_s": (count / window / scale, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "latency_p50_rel": (stats["p50_ms"] / calib_ms, "ratio"),
    }
    summary = [
        f"workload {workload.name} seed {seed}: {count} ops, "
        f"p50 {stats['p50_ms']:.3f} ms, "
        f"p{stats['tail_percentile']:g} {stats['tail_ms']:.3f} ms "
        f"(n={stats['n']}), {count / window:.3f} ops/s (raw)",
        f"calibration median {calib_ms:.3f} ms over "
        f"{len(calibration)} runs, reference-speed scale {scale:.4f}; "
        "set-up " + ", ".join(f"{value:.3f}" for value in setup_s)
        + " s (raw)",
    ]
    if workload.name == "cold-build":
        drift = harness.pass_drift(
            latencies, plan, workload.passes(plan)
        )
        summary.append(
            f"first-to-last pass drift of per-benchmark op time "
            f"{drift:+.2%}"
        )
    return count, errors, metrics, summary


def traced(workload, seed: int, seconds: float):
    """Traced run: returns (attempted, per-op errors, metrics,
    summary lines)."""
    workload.setup()
    plan = workload.plan(seed, seconds)
    tracer = harness.Tracer(trace_targets(), TRACE_MEASURES)
    derived = dict.fromkeys(DERIVED_METRICS, 0.0)
    if workload.name == "warm-service":
        before = workload.stats()
        http_latencies, errors, calibration, _ = workload.run_ops(plan)
        after = workload.stats()
        ops = [op for block in plan[:IN_PROCESS_BLOCKS] for op in block]
        service = workload.in_process_service()
        try:
            untraced, in_process_errors = workload.run_in_process(
                service, ops, tracer
            )
        finally:
            service.begin_drain()
            service.drain(5.0)
        errors = errors + in_process_errors
        submitted = after["submitted"] - before["submitted"]
        derived["service.warm_hit_ratio"] = (
            (after["warm_hits"] - before["warm_hits"]) / submitted
        )
        derived["service.http_overhead_ms"] = (
            harness.median(http_latencies[:len(ops)])
            - harness.median(untraced)
        ) * 1e3
    else:
        untraced, errors, calibration, _ = workload.run_ops(plan, tracer)
    workload.teardown()
    layers, totals = harness.layer_report(tracer, untraced)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    metrics = {}
    for name, (span, field, unit) in LAYER_METRICS.items():
        metrics[name] = (float(layers.get(span, {}).get(field, 0.0)), unit)
    derived["experiments.unattributed_ms"] = totals["unattributed_ms"]
    derived["bench.calib_ms"] = harness.median(calibration)
    derived["bench.tracing_overhead_pct"] = totals["overhead_pct"]
    for name, unit in DERIVED_METRICS.items():
        metrics[name] = (derived[name], unit)
    summary = [
        harness.format_layer_table(workload.name, layers, totals),
        f"calibration median {derived['bench.calib_ms']:.3f} ms; "
        f"spans written to "
        f"{OUT_DIR.name}/spans-{workload.name}-seed{seed}.jsonl",
    ]
    # A span that does not nest counts as one more failed check.
    errors = errors + totals["nesting_errors"]
    return len(errors), errors, metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload](workloads.load_digests())
    try:
        run = traced if args.trace else measure
        attempted, errors, metrics, summary = run(
            workload, args.seed, args.seconds
        )
    finally:
        workload.teardown()
    failures = [error for error in errors if error is not None]
    for line in summary:
        print(line)
    print(f"failed {len(failures)} of {attempted} ops"
          + "".join(f"\n  {failure}" for failure in failures[:10]))
    print(harness.result_line(attempted, len(failures), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``mica-repro`` / ``python -m repro``.

Subcommands::

    list                    list the 122 benchmarks (Table I)
    characterize BENCH      print a benchmark's 47 MICA characteristics
    hpc BENCH               print a benchmark's simulated HPC metrics
    phases BENCH            phase decomposition + characteristic timeline
    dataset                 build (and cache) the full workload data set
    cache verify|clear      scan-and-quarantine / wipe the cache levels
    serve                   run the characterization HTTP service
    bench                   time engines vs references (BENCH_mica.json)
    lint                    static-analysis gate (exit 0/1/2)
    fig1|table3|fig2-3|fig4|fig5|table4|fig6
                            reproduce one table/figure
    all                     the full report

Global flags ``--jobs`` and ``--cache-dir`` control worker processes
(dataset builds and the service's dataset job) and the cache location.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import DEFAULT_CONFIG
from .errors import ReproError


def _make_config(args: argparse.Namespace):
    overrides = {}
    if args.trace_length:
        overrides["trace_length"] = args.trace_length
    if getattr(args, "ga_generations", None):
        overrides["ga_generations"] = args.ga_generations
    return DEFAULT_CONFIG.with_overrides(**overrides) if overrides else (
        DEFAULT_CONFIG
    )


def _dataset_kwargs(args: argparse.Namespace) -> dict:
    """build_dataset keywords shared by every dataset-consuming command."""
    kwargs = {"use_cache": not args.no_cache}
    if getattr(args, "jobs", None):
        kwargs["jobs"] = args.jobs
    if getattr(args, "cache_dir", None):
        kwargs["cache_dir"] = Path(args.cache_dir)
    if getattr(args, "max_attempts", None) is not None:
        kwargs["max_attempts"] = _positive_attempts(args.max_attempts)
    if getattr(args, "retry_backoff", None) is not None:
        kwargs["retry_backoff"] = args.retry_backoff
    return kwargs


def _positive_attempts(value: int) -> int:
    if value < 1:
        raise ReproError(f"--max-attempts must be >= 1, got {value}")
    return value


def _cmd_list(args: argparse.Namespace) -> int:
    from .reporting import format_table
    from .workloads import all_benchmarks

    rows = [
        [b.suite, b.program, b.input, f"{b.icount_millions:,}"]
        for b in all_benchmarks()
    ]
    print(
        format_table(
            ["suite", "program", "input", "I-count (M, paper)"],
            rows,
            align_right=[False, False, False, True],
            title=f"{len(rows)} benchmarks (paper Table I)",
        )
    )
    return 0


def _load_trace(name: str, config):
    from .synth import generate_trace
    from .workloads import get_benchmark

    benchmark = get_benchmark(name)
    return generate_trace(benchmark.profile, config.trace_length)


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .mica import characterize

    config = _make_config(args)
    trace = _load_trace(args.benchmark, config)
    print(characterize(trace, config).format())
    return 0


def _cmd_hpc(args: argparse.Namespace) -> int:
    from .uarch import collect_hpc

    config = _make_config(args)
    trace = _load_trace(args.benchmark, config)
    print(collect_hpc(trace).format())
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    from .phases import detect_phases, mica_timeline, simulation_points
    from .reporting import format_phase_report

    config = _make_config(args)
    trace = _load_trace(args.benchmark, config)
    result = detect_phases(
        trace,
        interval=args.interval,
        seed=args.seed,
        signature=args.signature,
        config=config,
    )
    points = simulation_points(result)
    timeline = mica_timeline(trace, interval=args.interval, config=config)
    print(
        format_phase_report(
            result, points, timeline=timeline, name=args.benchmark
        )
    )
    if args.homogeneity:
        # Reuse the trace and phase decomposition computed above —
        # only the per-interval metric simulation is new work here.
        from .experiments.phase_homogeneity import (
            PhaseHomogeneityResult,
            validate_benchmark,
        )

        homogeneity = PhaseHomogeneityResult(
            rows=(validate_benchmark(args.benchmark, trace, result),),
            interval=args.interval,
            signature=args.signature,
            metric_name="ipc_ev56",
        )
        print()
        print(homogeneity.format())
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .experiments import (
        build_dataset,
        dataset_journal_path,
        resume_dataset,
    )

    config = _make_config(args)
    kwargs = _dataset_kwargs(args)
    journal = getattr(args, "journal", None)
    if args.resume or journal is not None:
        path = Path(journal) if journal else dataset_journal_path(
            config, cache_dir=kwargs.get("cache_dir")
        )
        kwargs["journal"] = path
        print(f"build journal: {path}")
    builder = resume_dataset if args.resume else build_dataset
    dataset = builder(
        config, progress=True, strict=not args.keep_going, **kwargs,
    )
    print(
        f"dataset ready: {len(dataset)} benchmarks, "
        f"MICA {dataset.mica.shape}, HPC {dataset.hpc.shape}"
    )
    if dataset.report is not None and (
        dataset.report.failed or dataset.report.quarantines
        or dataset.report.pool_rebuilds
    ):
        print(dataset.report.format())
    if dataset.report is not None and dataset.report.failed:
        failed = dataset.report.failed
        print(
            f"error: {len(failed)} benchmark(s) failed to build: "
            + ", ".join(status.name for status in failed),
            file=sys.stderr,
        )
        return 1
    return 0


def _cache_directory(args: argparse.Namespace):
    from .experiments.dataset import default_cache_dir

    if getattr(args, "cache_dir", None):
        return Path(args.cache_dir)
    return default_cache_dir()


def _cmd_cache(args: argparse.Namespace) -> int:
    from .experiments import clear_dataset_cache
    from .perf import verify_cache

    directory = _cache_directory(args)
    if args.cache_command == "clear":
        removed = clear_dataset_cache(directory)
        print(f"cache clear: removed {removed} file(s) from {directory}")
        return 0
    report = verify_cache(directory, sweep_older_than=args.sweep_age)
    print(report.format())
    if report.quarantined:
        print(
            f"error: {len(report.quarantined)} cache entr"
            f"{'y' if len(report.quarantined) == 1 else 'ies'} failed "
            "verification and were quarantined",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve_settings(args: argparse.Namespace):
    """Validated ``ServiceSettings`` for ``repro serve``."""
    from .service import ServiceSettings

    if args.deadline_ms <= 0:
        raise ReproError(
            f"--deadline-ms must be positive, got {args.deadline_ms}"
        )
    default_deadline = args.deadline_ms / 1000.0
    return ServiceSettings(
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        use_cache=not args.no_cache,
        queue_capacity=args.queue_capacity,
        workers=args.service_workers,
        default_deadline=default_deadline,
        # Per-request deadlines are clamped to max_deadline; keep the
        # ceiling at or above the flag so a large --deadline-ms is
        # never silently shortened.
        max_deadline=max(ServiceSettings.max_deadline, default_deadline),
        max_attempts=_positive_attempts(args.max_attempts),
        retry_backoff=args.retry_backoff,
        breaker_failure_threshold=args.breaker_threshold,
        breaker_recovery=args.breaker_recovery,
        drain_timeout=args.drain_timeout,
        dataset_jobs=args.jobs or 1,
        state_dir=Path(args.state_dir) if args.state_dir else None,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import CharacterizationService, serve

    config = _make_config(args)
    service = CharacterizationService(
        config=config, settings=_serve_settings(args)
    )
    return serve(service, host=args.host, port=args.port)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf import run_bench, write_bench_json

    result = run_bench(
        config=_make_config(args),
        profile_name=args.profile,
        repeats=args.repeats,
    )
    print(result.format())
    if args.output:
        path = write_bench_json(result, args.output)
        print(f"wrote {path}")
    if args.history:
        from .perf import append_bench_history

        path = append_bench_history(result, args.history)
        print(f"appended history row to {path}")
    return 0


def _run_single(args: argparse.Namespace, runner_name: str) -> int:
    from . import experiments

    config = _make_config(args)
    dataset = experiments.build_dataset(
        config, progress=args.verbose, **_dataset_kwargs(args)
    )
    runner = getattr(experiments, runner_name)
    result = runner(dataset) if runner_name in (
        "run_fig1", "run_table3", "run_case_study"
    ) else runner(dataset, config)
    print(result.format())
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from .experiments import run_all

    config = _make_config(args)
    kwargs = _dataset_kwargs(args)
    report = run_all(
        config,
        progress=args.verbose,
        jobs=kwargs.get("jobs"),
        cache_dir=kwargs.get("cache_dir"),
        use_cache=kwargs["use_cache"],
    )
    print(report.format(kiviat_plots=args.kiviat))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .experiments import build_dataset
    from .reporting import dataset_to_json, matrix_to_csv

    config = _make_config(args)
    dataset = build_dataset(
        config, progress=args.verbose, **_dataset_kwargs(args)
    )
    if args.space == "mica":
        columns, matrix = dataset.mica_columns, dataset.mica
    else:
        columns, matrix = dataset.hpc_columns, dataset.hpc
    if args.format == "csv":
        print(matrix_to_csv(dataset.names, columns, matrix), end="")
    else:
        print(
            dataset_to_json(
                dataset.names,
                columns,
                matrix,
                metadata={
                    "space": args.space,
                    "trace_length": config.trace_length,
                },
            )
        )
    return 0


def _cmd_dendrogram(args: argparse.Namespace) -> int:
    from .analysis import GeneticSelector, hierarchical_cluster
    from .experiments import build_dataset

    config = _make_config(args)
    dataset = build_dataset(
        config, progress=args.verbose, **_dataset_kwargs(args)
    )
    normalized = dataset.mica_normalized()
    selector = GeneticSelector(
        population=config.ga_population,
        generations=config.ga_generations,
        seed=config.ga_seed,
    )
    ga = selector.select(normalized)
    result = hierarchical_cluster(
        normalized[:, list(ga.selected)],
        list(dataset.names),
        method=args.method,
    )
    print(f"hierarchical clustering ({args.method} linkage) in the "
          f"{ga.n_selected}-dimensional GA space")
    print(result.format_dendrogram())
    return 0


def _cmd_subset(args: argparse.Namespace) -> int:
    from .experiments import build_dataset, run_subsetting

    config = _make_config(args)
    dataset = build_dataset(
        config, progress=args.verbose, **_dataset_kwargs(args)
    )
    print(run_subsetting(dataset, config).format())
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .experiments import build_dataset, run_input_sensitivity

    config = _make_config(args)
    dataset = build_dataset(
        config, progress=args.verbose, **_dataset_kwargs(args)
    )
    print(run_input_sensitivity(dataset).format())
    return 0


def _lint_root(argument: str) -> Path:
    """Resolve the repository root for ``repro lint``.

    Explicit ``--root`` wins; otherwise the current directory when it
    holds ``src/repro``; otherwise the checkout this very module was
    imported from (so ``repro lint`` works from anywhere).
    """
    from .lint import LintUsageError

    if argument:
        return Path(argument)
    cwd = Path.cwd()
    if (cwd / "src" / "repro").is_dir():
        return cwd
    candidate = Path(__file__).resolve().parent.parent.parent
    if (candidate / "src" / "repro").is_dir():
        return candidate
    raise LintUsageError(
        "cannot locate the repository root (no src/repro under the "
        "current directory or the installed package); pass --root"
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_module

    from .lint import LintUsageError, run_lint, rule_by_id

    try:
        if args.explain:
            rule = rule_by_id(args.explain)
            print(f"{rule.id}: {rule.summary}")
            print()
            print(rule.explanation)
            return 0
        report = run_lint(root=_lint_root(args.root))
        if args.format == "json":
            print(
                json_module.dumps(
                    report.to_json(), indent=2, sort_keys=True
                )
            )
        else:
            print(report.format())
        return report.exit_code
    except LintUsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mica-repro",
        description=(
            "Reproduction of 'Comparing Benchmarks Using Key "
            "Microarchitecture-Independent Characteristics' "
            "(Hoste & Eeckhout, IISWC 2006)"
        ),
    )
    parser.add_argument(
        "--trace-length", type=int, default=0,
        help="dynamic instructions per benchmark trace",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="bypass the dataset cache"
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes for dataset builds (default: cpu count "
             "when building the data set, 1 for serve)",
    )
    parser.add_argument(
        "--cache-dir", default="", metavar="DIR",
        help="characterization cache directory (default: .mica_cache)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print progress while building"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the 122 benchmarks")

    for name, help_text in (
        ("characterize", "print a benchmark's 47 MICA characteristics"),
        ("hpc", "print a benchmark's simulated hardware counters"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("benchmark", help="name, e.g. 'mcf' or "
                         "'spec2000/bzip2/graphic'")

    dataset_parser = commands.add_parser(
        "dataset", help="build and cache the data set"
    )
    dataset_parser.add_argument(
        "--keep-going", action="store_true",
        help="salvage surviving benchmarks when some fail (exit 1 and "
             "report the casualties instead of aborting the build)",
    )
    dataset_parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="charged attempts per benchmark before it is declared "
             "failed (default: 3)",
    )
    dataset_parser.add_argument(
        "--retry-backoff", type=float, default=None, metavar="SECONDS",
        help="base of the bounded exponential sleep a benchmark waits "
             "out before each retry (jittered per benchmark; default: "
             "0.1; 0 disables sleeping)",
    )
    dataset_parser.add_argument(
        "--journal", nargs="?", const="", default=None, metavar="PATH",
        help="record a crash-safe write-ahead journal of the build "
             "(default path: journal-dataset-<key>.jsonl beside the "
             "cache), so a killed build can be finished with --resume",
    )
    dataset_parser.add_argument(
        "--resume", action="store_true",
        help="replay the build journal (repairing a torn tail), skip "
             "completed benchmarks whose cache entries still verify, "
             "and finish the build; converges to the cold build's "
             "exact matrices",
    )

    cache_parser = commands.add_parser(
        "cache",
        help="cache maintenance: verify entry integrity or clear levels",
    )
    cache_commands = cache_parser.add_subparsers(
        dest="cache_command", required=True
    )
    verify_parser = cache_commands.add_parser(
        "verify",
        help="scan all cache levels, quarantine entries that fail "
             "integrity checks, sweep stale writer temp files",
    )
    verify_parser.add_argument(
        "--sweep-age", type=float, default=3600.0, metavar="SECONDS",
        help="minimum age of tmp-*.npz / tmp-journal-*.jsonl files to "
             "sweep (default: 1h)",
    )
    cache_commands.add_parser(
        "clear", help="delete every cache entry (all four levels)"
    )

    phases_parser = commands.add_parser(
        "phases",
        help="phase decomposition + characteristic timeline of one "
             "benchmark",
    )
    phases_parser.add_argument(
        "benchmark", help="name, e.g. 'mcf' or 'spec2000/bzip2/graphic'"
    )
    phases_parser.add_argument(
        "--interval", type=int, default=5_000,
        help="instructions per interval",
    )
    phases_parser.add_argument(
        "--signature", choices=("bbv", "mix", "mica"), default="bbv",
        help="per-interval signature substrate for phase detection",
    )
    phases_parser.add_argument(
        "--seed", type=int, default=0, help="k-means seed",
    )
    phases_parser.add_argument(
        "--homogeneity", action="store_true",
        help="validate simulation points against per-interval EV56 IPC",
    )

    serve_parser = commands.add_parser(
        "serve",
        help="run the characterization HTTP service (bounded admission "
             "queue, per-request deadlines, circuit breaker, graceful "
             "drain on SIGTERM)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8177,
        help="bind port (0 picks a free one; the chosen address is "
             "printed on startup)",
    )
    serve_parser.add_argument(
        "--queue-capacity", type=int, default=64, metavar="N",
        help="bounded admission-queue size (429 + Retry-After beyond)",
    )
    serve_parser.add_argument(
        "--service-workers", type=int, default=2, metavar="N",
        help="worker threads executing cold jobs",
    )
    serve_parser.add_argument(
        "--deadline-ms", type=float, default=30_000.0, metavar="MS",
        help="default per-request deadline (requests may lower it)",
    )
    serve_parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="compute attempts per job before it fails",
    )
    serve_parser.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base of the bounded retry backoff (jittered)",
    )
    serve_parser.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="consecutive worker failures that open the circuit breaker",
    )
    serve_parser.add_argument(
        "--breaker-recovery", type=float, default=5.0, metavar="SECONDS",
        help="seconds the breaker stays open before a half-open probe",
    )
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="seconds granted to in-flight jobs on SIGTERM",
    )
    serve_parser.add_argument(
        "--state-dir", default="", metavar="DIR",
        help="durable state directory: admissions and terminal "
             "transitions are journaled so a restarted service serves "
             "finished jobs from the journal and re-admits interrupted "
             "ones (omit for in-memory-only jobs)",
    )

    bench_parser = commands.add_parser(
        "bench", help="time engines vs references; write BENCH_mica.json"
    )
    bench_parser.add_argument(
        "--output", default="BENCH_mica.json", metavar="PATH",
        help="result file ('' to skip writing)",
    )
    bench_parser.add_argument(
        "--profile", default="spec2000/vpr/place",
        help="registry benchmark supplying the workload profile",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per engine and reference (best is kept)",
    )
    bench_parser.add_argument(
        "--history", default="", metavar="PATH",
        help="append a one-line summary row (speedups per floor group) to "
             "this JSONL history file, e.g. BENCH_history.jsonl "
             "('' skips)",
    )
    commands.add_parser("fig1", help="Figure 1: distance scatter")
    commands.add_parser("table3", help="Table III: quadrant fractions")
    commands.add_parser("fig2-3", help="Figures 2-3: bzip2 vs blast")
    commands.add_parser("fig4", help="Figure 4: ROC curves")
    commands.add_parser("fig5", help="Figure 5: correlation vs retained")
    commands.add_parser("table4", help="Table IV: GA-selected subset")
    commands.add_parser("fig6", help="Figure 6: clustering + kiviats")
    all_parser = commands.add_parser("all", help="full report")
    all_parser.add_argument(
        "--kiviat", action="store_true",
        help="include per-cluster kiviat polygons",
    )

    export_parser = commands.add_parser(
        "export", help="dump a workload space as CSV or JSON"
    )
    export_parser.add_argument(
        "space", choices=("mica", "hpc"), help="which data set to export"
    )
    export_parser.add_argument(
        "--format", choices=("csv", "json"), default="csv"
    )

    dendro_parser = commands.add_parser(
        "dendro", help="ASCII dendrogram in the GA-reduced space"
    )
    dendro_parser.add_argument(
        "--method", choices=("single", "complete", "average", "ward"),
        default="complete",
    )

    commands.add_parser(
        "subset", help="representative benchmark subset (extension)"
    )
    commands.add_parser(
        "sensitivity", help="input-set sensitivity (extension)"
    )

    lint_parser = commands.add_parser(
        "lint",
        help="static-analysis gate for the repo's own invariants",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint_parser.add_argument(
        "--explain", default="", metavar="RULE",
        help="print one rule's rationale and exit",
    )
    lint_parser.add_argument(
        "--root", default="", metavar="DIR",
        help="repository root (default: auto-detected)",
    )
    return parser


_DISPATCH = {
    "list": _cmd_list,
    "characterize": _cmd_characterize,
    "hpc": _cmd_hpc,
    "phases": _cmd_phases,
    "dataset": _cmd_dataset,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "all": _cmd_all,
    "export": _cmd_export,
    "dendro": _cmd_dendrogram,
    "subset": _cmd_subset,
    "sensitivity": _cmd_sensitivity,
    "lint": _cmd_lint,
}

_SINGLE_RUNNERS = {
    "fig1": "run_fig1",
    "table3": "run_table3",
    "fig2-3": "run_case_study",
    "fig4": "run_fig4",
    "fig5": "run_fig5",
    "table4": "run_table4",
    "fig6": "run_fig6",
}


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _DISPATCH:
            return _DISPATCH[args.command](args)
        if args.command in _SINGLE_RUNNERS:
            return _run_single(args, _SINGLE_RUNNERS[args.command])
        raise ReproError(f"unknown command: {args.command}")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

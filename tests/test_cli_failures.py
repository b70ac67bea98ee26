"""CLI failure semantics: every failure path exits nonzero with a
one-line ``error:`` message on stderr — never a traceback.

Satellites covered here: the documented exit codes for
``repro dataset --keep-going`` on partial failure, ``repro cache
verify`` on a corrupted directory and unknown-benchmark lookups; plus
the ``--max-attempts`` / ``--retry-backoff`` retry-policy flags on
``repro dataset`` and the ``repro serve`` parser surface.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import (
    _dataset_kwargs,
    _serve_settings,
    build_parser,
    main,
)
from repro.config import ReproConfig
from repro.experiments import build_dataset
from repro.experiments.dataset import _MEMORY_CACHE
from repro.perf import faults
from repro.workloads import get_benchmark

SMALL_POPULATION = ["spec2000/mcf/ref", "mibench/adpcm/rawcaudio"]


@pytest.fixture(autouse=True)
def _clean_memory_cache():
    _MEMORY_CACHE.clear()
    yield
    _MEMORY_CACHE.clear()


@pytest.fixture()
def small_registry(monkeypatch):
    """Shrink the dataset population so CLI builds stay fast."""
    population = [get_benchmark(name) for name in SMALL_POPULATION]
    monkeypatch.setattr(
        "repro.experiments.dataset.all_benchmarks", lambda: population
    )
    return population


def _dataset_argv(tmp_path, *extra):
    return [
        "--trace-length", "2000",
        "--cache-dir", str(tmp_path / "cache"),
        "--jobs", "1",
        "dataset", *extra,
    ]


class TestDatasetExitCodes:

    def test_clean_build_exits_zero(
        self, small_registry, tmp_path, capsys
    ):
        assert main(_dataset_argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "dataset ready: 2 benchmarks" in out

    def test_keep_going_partial_failure_exits_one(
        self, small_registry, tmp_path, capsys
    ):
        plan = [faults.WorkerFault(
            SMALL_POPULATION[0], mode="error", times=10
        )]
        with faults.inject_worker_faults(plan, tmp_path / "state"):
            code = main(_dataset_argv(
                tmp_path, "--keep-going",
                "--max-attempts", "1", "--retry-backoff", "0",
            ))
        assert code == 1
        captured = capsys.readouterr()
        error_lines = [
            line for line in captured.err.splitlines()
            if line.startswith("error:")
        ]
        assert error_lines == [
            "error: 1 benchmark(s) failed to build: "
            f"{SMALL_POPULATION[0]}"
        ]
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out
        # The salvage still produced the surviving benchmark.
        assert "dataset ready: 1 benchmarks" in captured.out

    def test_strict_failure_exits_one_without_traceback(
        self, small_registry, tmp_path, capsys
    ):
        plan = [faults.WorkerFault(
            SMALL_POPULATION[0], mode="error", times=10
        )]
        with faults.inject_worker_faults(plan, tmp_path / "state"):
            code = main(_dataset_argv(
                tmp_path, "--max-attempts", "1", "--retry-backoff", "0",
            ))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


class TestCacheVerifyExitCodes:

    def test_clean_directory_exits_zero(
        self, small_registry, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        build_dataset(
            ReproConfig(trace_length=2_000), small_registry,
            cache_dir=cache_dir, jobs=1,
        )
        code = main(["--cache-dir", str(cache_dir), "cache", "verify"])
        assert code == 0
        assert "error:" not in capsys.readouterr().err

    def test_corrupted_directory_exits_one(
        self, small_registry, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        build_dataset(
            ReproConfig(trace_length=2_000), small_registry,
            cache_dir=cache_dir, jobs=1,
        )
        victim = sorted(cache_dir.glob("char-*.npz"))[0]
        faults.corrupt_entry(victim, "bitflip", seed=3)
        code = main(["--cache-dir", str(cache_dir), "cache", "verify"])
        assert code == 1
        captured = capsys.readouterr()
        error_lines = [
            line for line in captured.err.splitlines()
            if line.startswith("error:")
        ]
        assert error_lines == [
            "error: 1 cache entry failed verification and were "
            "quarantined"
        ]
        assert "Traceback" not in captured.err

    def test_unknown_benchmark_exits_one(self, capsys):
        code = main(["--trace-length", "2000", "hpc", "nonesuch"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


class TestRetryPolicyFlags:
    """Satellite: ``--max-attempts`` / ``--retry-backoff`` reach
    :func:`~repro.experiments.build_dataset`."""

    def test_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["dataset"])
        assert args.max_attempts is None
        assert args.retry_backoff is None

    def test_defaults_leave_build_dataset_defaults_alone(self):
        args = build_parser().parse_args(["dataset"])
        kwargs = _dataset_kwargs(args)
        assert "max_attempts" not in kwargs
        assert "retry_backoff" not in kwargs

    def test_flags_thread_through_dataset_kwargs(self, tmp_path):
        args = build_parser().parse_args([
            "--cache-dir", str(tmp_path), "--jobs", "2",
            "dataset", "--max-attempts", "5", "--retry-backoff", "0.5",
        ])
        kwargs = _dataset_kwargs(args)
        assert kwargs["max_attempts"] == 5
        assert kwargs["retry_backoff"] == 0.5
        assert kwargs["jobs"] == 2

    def test_zero_backoff_is_threaded_not_dropped(self):
        args = build_parser().parse_args(
            ["dataset", "--retry-backoff", "0"]
        )
        assert _dataset_kwargs(args)["retry_backoff"] == 0.0

    def test_explicit_max_attempts_zero_is_an_error_not_the_default(
        self, capsys
    ):
        # '--max-attempts 0' used to be swallowed by a truthiness
        # check and silently fall back to 3; it must be rejected.
        code = main(["dataset", "--max-attempts", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --max-attempts must be >= 1")
        assert "Traceback" not in err

    def test_build_receives_the_flags(
        self, small_registry, tmp_path, monkeypatch
    ):
        seen = {}

        def spy(config, progress, strict, **kwargs):
            seen.update(kwargs)
            raise SystemExit(0)

        monkeypatch.setattr("repro.experiments.build_dataset", spy)
        with pytest.raises(SystemExit):
            main(_dataset_argv(
                tmp_path, "--max-attempts", "7",
                "--retry-backoff", "0.25",
            ))
        assert seen["max_attempts"] == 7
        assert seen["retry_backoff"] == 0.25


class TestServeParser:

    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert isinstance(args, argparse.Namespace)
        assert args.host == "127.0.0.1"
        assert args.port == 8177
        assert args.queue_capacity == 64
        assert args.service_workers == 2
        assert args.deadline_ms == 30_000.0
        assert args.max_attempts == 3
        assert args.retry_backoff == 0.05
        assert args.breaker_threshold == 5
        assert args.breaker_recovery == 5.0
        assert args.drain_timeout == 10.0

    def test_overrides_parse(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--queue-capacity", "4",
            "--service-workers", "1", "--deadline-ms", "500",
            "--breaker-threshold", "2",
        ])
        assert args.port == 0
        assert args.queue_capacity == 4
        assert args.service_workers == 1
        assert args.deadline_ms == 500.0
        assert args.breaker_threshold == 2

    def test_default_deadline_keeps_the_default_ceiling(self):
        from repro.service import ServiceSettings

        args = build_parser().parse_args(["serve"])
        settings = _serve_settings(args)
        assert settings.default_deadline == 30.0
        assert settings.max_deadline == ServiceSettings.max_deadline

    def test_large_deadline_flag_is_not_silently_clamped(self):
        # --deadline-ms beyond the 300 s ceiling must raise the
        # ceiling with it, not contradict the flag.
        args = build_parser().parse_args(
            ["serve", "--deadline-ms", "600000"]
        )
        settings = _serve_settings(args)
        assert settings.default_deadline == 600.0
        assert settings.max_deadline >= 600.0

    def test_nonpositive_serve_knobs_are_rejected(self, capsys):
        for argv in (
            ["serve", "--deadline-ms", "0"],
            ["serve", "--max-attempts", "0"],
        ):
            code = main(argv)
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "Traceback" not in err


class TestLintCommand:
    """``repro lint`` exit-code and ``--format json`` semantics."""

    REPO_ROOT = str(__import__("pathlib").Path(__file__).parent.parent)

    @staticmethod
    def _violating_repo(tmp_path):
        """A miniature checkout with one determinism violation."""
        package = tmp_path / "src" / "repro" / "mica"
        package.mkdir(parents=True)
        package.joinpath("bad.py").write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n",
            encoding="utf-8",
        )
        return tmp_path

    def test_clean_repo_exits_zero(self, capsys):
        code = main(["lint", "--root", self.REPO_ROOT])
        assert code == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_new_finding_exits_one(self, tmp_path, capsys):
        root = self._violating_repo(tmp_path)
        code = main(["lint", "--root", str(root)])
        assert code == 1
        out = capsys.readouterr().out
        assert "determinism" in out
        assert "bad.py" in out

    def test_format_json_is_machine_readable(self, tmp_path, capsys):
        import json

        root = self._violating_repo(tmp_path)
        code = main(["lint", "--root", str(root), "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-lint/2"
        assert document["clean"] is False
        assert len(document["findings"]) == 1
        assert document["findings"][0]["rule"] == "determinism"
        assert document["findings"][0]["path"].endswith("bad.py")
        assert set(document) == {
            "schema", "clean", "modules", "rules", "findings",
        }

    def test_baseline_file_does_not_hide_a_finding(self, tmp_path, capsys):
        # A lint-baseline.json listing the finding is just a file: only
        # an inline waiver accepts a finding.
        import json

        root = self._violating_repo(tmp_path)
        baseline = {
            "schema": "repro-lint-baseline/1",
            "entries": [
                {
                    "rule": "determinism",
                    "path": "src/repro/mica/bad.py",
                    "message": "clock read time.time() breaks "
                    "determinism; thread an explicit timestamp in "
                    "from the caller",
                },
            ],
        }
        (root / "lint-baseline.json").write_text(json.dumps(baseline))
        code = main(["lint", "--root", str(root)])
        assert code == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out
        assert "bad.py" in out

    @pytest.mark.parametrize("flags", [
        ["--baseline", "lint-baseline.json"],
        ["--update-baseline"],
    ])
    def test_baseline_flags_are_usage_errors(
        self, flags, tmp_path, capsys
    ):
        root = self._violating_repo(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main(["lint", "--root", str(root)] + flags)
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_rule_explain_exits_two(self, capsys):
        code = main(["lint", "--explain", "no-such-rule"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_explain_prints_rationale(self, capsys):
        code = main(["lint", "--explain", "lock-discipline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lock-discipline:" in out
        assert "data race" in out

    def test_bad_root_exits_two(self, tmp_path, capsys):
        code = main(["lint", "--root", str(tmp_path / "nowhere")])
        assert code == 2
        assert "src/repro" in capsys.readouterr().err

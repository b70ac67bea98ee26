"""The lint gate against the real repository, and the baseline model.

Three contracts: the repo itself lints clean against the committed
baseline; the baseline round-trips (an entry matching no finding fails
the gate as *stale*); and reverting a vectorized block — the
register-traffic fractions in ``repro.mica.segmented`` — back to a
per-element loop makes the gate fail again.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    BaselineEntry,
    Finding,
    LintProject,
    LintUsageError,
    apply_baseline,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.lint.rules import VectorizationRule

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_finding(rule="determinism", path="src/repro/mica/x.py",
                 message="boom", line=1):
    return Finding(
        rule=rule, severity="error", path=path, line=line, col=0,
        message=message,
    )


class TestRepositoryIsClean:
    def test_repo_lints_clean_against_committed_baseline(self):
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        report = run_lint(root=REPO_ROOT, baseline=baseline)
        assert report.new == [], "\n".join(
            finding.format() for finding in report.new
        )
        assert report.stale == []
        assert report.exit_code == 0

    def test_committed_baseline_parses_and_is_justified(self):
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        for entry in baseline.entries:
            assert entry.justification, (
                f"baseline entry for {entry.rule} at {entry.path} "
                "carries no justification"
            )

    def test_every_module_parses(self):
        project = LintProject.load(REPO_ROOT)
        broken = [
            module.path
            for module in project.modules
            if module.parse_error is not None
        ]
        assert broken == []
        assert project.modules, "no modules discovered"
        assert project.test_modules, "no test modules discovered"


class TestRevertDetection:
    """Reverting a segmented.py vectorized block must trip the gate."""

    SEGMENTED = "src/repro/mica/segmented.py"
    FIXED = "    result[:, 0] = operands / float(interval)\n"
    REVERTED = (
        "    for row in range(len(operands)):\n"
        "        result[row, 0] = operands[row] / float(interval)\n"
    )

    def test_current_source_is_quiet(self):
        text = (REPO_ROOT / self.SEGMENTED).read_text(encoding="utf-8")
        assert text.count(self.FIXED) == 1, "fixed block drifted; update test"
        project = LintProject.from_sources({self.SEGMENTED: text})
        report = run_lint(project=project, rules=[VectorizationRule()])
        assert report.new == []
        assert report.exit_code == 0

    def test_reverted_fix_fails_the_gate(self):
        text = (REPO_ROOT / self.SEGMENTED).read_text(encoding="utf-8")
        reverted = text.replace(self.FIXED, self.REVERTED)
        assert reverted != text
        project = LintProject.from_sources({self.SEGMENTED: reverted})
        report = run_lint(project=project, rules=[VectorizationRule()])
        assert len(report.new) == 1
        assert report.new[0].rule == "vectorization"
        assert report.exit_code == 1
        assert report.exit_code == 1


class TestBaselineModel:
    def test_baseline_hides_matching_finding(self):
        finding = make_finding()
        baseline = Baseline(
            entries=(
                BaselineEntry(
                    rule=finding.rule, path=finding.path,
                    message=finding.message,
                ),
            )
        )
        new, matched, stale = apply_baseline([finding], baseline)
        assert new == []
        assert matched == [finding]
        assert stale == []

    def test_multiset_matching_exposes_second_occurrence(self):
        finding = make_finding()
        duplicate = make_finding(line=9)
        baseline = Baseline(
            entries=(
                BaselineEntry(
                    rule=finding.rule, path=finding.path,
                    message=finding.message,
                ),
            )
        )
        new, matched, stale = apply_baseline(
            [finding, duplicate], baseline
        )
        assert len(matched) == 1
        assert len(new) == 1
        assert stale == []

    def test_stale_entry_fails_the_gate(self):
        baseline = Baseline(
            entries=(
                BaselineEntry(
                    rule="determinism", path="src/repro/mica/gone.py",
                    message="no longer exists",
                ),
            )
        )
        new, matched, stale = apply_baseline([], baseline)
        assert new == []
        assert matched == []
        assert len(stale) == 1
        assert stale[0].path == "src/repro/mica/gone.py"

    def test_line_moves_do_not_invalidate_the_baseline(self):
        baseline = Baseline(
            entries=(
                BaselineEntry(
                    rule="determinism", path="src/repro/mica/x.py",
                    message="boom", line=1,
                ),
            )
        )
        moved = make_finding(line=500)
        new, matched, stale = apply_baseline([moved], baseline)
        assert new == [] and stale == []

    def test_write_then_load_round_trips(self, tmp_path):
        findings = [make_finding(), make_finding(rule="dead-code")]
        target = tmp_path / "baseline.json"
        write_baseline(target, findings, justification="test entry")
        loaded = load_baseline(target)
        assert len(loaded.entries) == 2
        new, matched, stale = apply_baseline(findings, loaded)
        assert new == [] and stale == []
        assert all(e.justification == "test entry"
                   for e in loaded.entries)

    def test_load_rejects_bad_schema(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"schema": "nope", "entries": []}))
        with pytest.raises(LintUsageError):
            load_baseline(target)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(LintUsageError):
            load_baseline(tmp_path / "absent.json")

    def test_load_rejects_malformed_entry(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(
            json.dumps(
                {
                    "schema": "repro-lint-baseline/1",
                    "entries": [{"rule": "x"}],
                }
            )
        )
        with pytest.raises(LintUsageError):
            load_baseline(target)

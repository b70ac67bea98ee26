"""The lint gate against the real repository.

Two contracts: the repo itself lints clean, with no findings at all
(an inline waiver is the only way to accept one); and reverting a
vectorized block — the register-traffic fractions in
``repro.mica.segmented`` — back to a per-element loop makes the gate
fail again.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import LintProject, run_lint
from repro.lint.rules import VectorizationRule

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRepositoryIsClean:
    def test_repo_lints_clean(self):
        report = run_lint(root=REPO_ROOT)
        assert report.findings == [], "\n".join(
            finding.format() for finding in report.findings
        )
        assert report.clean
        assert report.exit_code == 0

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
        assert report.findings == []
        assert report.exit_code == 0

    def test_reverted_fix_fails_the_gate(self):
        text = (REPO_ROOT / self.SEGMENTED).read_text(encoding="utf-8")
        reverted = text.replace(self.FIXED, self.REVERTED)
        assert reverted != text
        project = LintProject.from_sources({self.SEGMENTED: reverted})
        report = run_lint(project=project, rules=[VectorizationRule()])
        assert len(report.findings) == 1
        assert report.findings[0].rule == "vectorization"
        assert report.findings[0].path == self.SEGMENTED
        assert report.exit_code == 1

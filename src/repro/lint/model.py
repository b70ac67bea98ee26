"""Typed findings and the lint report.

A :class:`Finding` is one rule violation at one source location.  Every
finding gates: the only way to accept one is an inline
``# repro: lint-ok[RULE] reason`` waiver on the offending line, and a
waiver that silences nothing is itself a finding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import ReproError

#: Schema tag of ``repro lint --format json`` output.
REPORT_SCHEMA = "repro-lint/2"


class LintUsageError(ReproError):
    """The lint invocation itself is wrong (unknown rule, bad root).

    ``repro lint`` maps this to exit code 2, distinguishing a misused
    gate from a failing one (exit 1).
    """


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: rule id (e.g. ``determinism``).
        path: repository-relative posix path of the offending file.
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        message: human-readable description of the violation.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """One ``path:line:col: [rule] message`` line."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"[{self.rule}] {self.message}"
        )

    def to_json(self) -> dict:
        """JSON-ready dict (one ``findings`` entry of ``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class LintReport:
    """The outcome of one lint run.

    Attributes:
        findings: every unwaived finding, sorted by location; any one
            fails the gate.
        modules: number of modules analyzed.
        rules: ids of the rules that ran.
    """

    findings: "List[Finding]" = field(default_factory=list)
    modules: int = 0
    rules: "Tuple[str, ...]" = ()

    @property
    def clean(self) -> bool:
        """True when there are no findings."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        """0 clean, 1 when there are findings."""
        return 0 if self.clean else 1

    def format(self) -> str:
        """Human-readable report (the ``--format text`` output)."""
        lines = [finding.format() for finding in self.findings]
        summary = (
            f"repro lint: {self.modules} modules, "
            f"{len(self.rules)} rules: "
        )
        if self.clean:
            lines.append(summary + "clean")
        else:
            counts = Counter(finding.rule for finding in self.findings)
            by_rule = ", ".join(
                f"{rule} x{count}" for rule, count in sorted(counts.items())
            )
            lines.append(
                summary + f"{len(self.findings)} finding(s) [{by_rule}]"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable report (the ``--format json`` output)."""
        return {
            "schema": REPORT_SCHEMA,
            "clean": self.clean,
            "modules": self.modules,
            "rules": list(self.rules),
            "findings": [finding.to_json() for finding in self.findings],
        }

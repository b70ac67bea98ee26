"""Rule protocol shared by every ``repro.lint`` check.

A rule is a small object with an ``id``, a one-line ``summary``, a
longer ``explanation`` (shown by ``repro lint --explain RULE``), and two
hooks: :meth:`Rule.check_module` (called once per parsed module) and
:meth:`Rule.check_project` (called once with the whole project, for
cross-module rules such as *version-coupling*).  Either hook may return
no findings; the default implementations return nothing, so concrete
rules override only the hook they need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Tuple

from ..model import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..engine import LintProject, ModuleSource


class Rule:
    """Base class for lint rules.

    Attributes:
        id: stable rule identifier used in findings, suppressions and
            waivers (e.g. ``determinism``).
        summary: one-line description shown in rule listings.
        explanation: multi-line rationale shown by ``--explain``.
        scopes: path prefixes this rule applies to (empty = whole tree).
    """

    id: str = "rule"
    summary: str = ""
    explanation: str = ""
    scopes: "Tuple[str, ...]" = ()

    def applies_to(self, module: "ModuleSource") -> bool:
        """Whether ``module`` falls inside this rule's scope prefixes."""
        if not self.scopes:
            return True
        return any(module.path.startswith(scope) for scope in self.scopes)

    def check_module(
        self, module: "ModuleSource", project: "LintProject"
    ) -> "Iterable[Finding]":
        """Per-module hook; override in rules that scan one file."""
        return ()

    def check_project(self, project: "LintProject") -> "Iterable[Finding]":
        """Whole-project hook; override in cross-module rules."""
        return ()

    def finding(
        self, module: "ModuleSource", line: int, col: int, message: str
    ) -> Finding:
        """Build a finding for this rule at a location in ``module``."""
        return Finding(
            rule=self.id,
            path=module.path,
            line=line,
            col=col,
            message=message,
        )


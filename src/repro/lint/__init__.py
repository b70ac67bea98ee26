"""Repo-specific static analysis: mechanical enforcement of the
reproduction's prose invariants.

Nine PRs of engine work rest on contracts that previously existed only
as prose in ROADMAP.md — bit-for-bit determinism, vectorized engines
with retained scalar references, atomic cache durability, lock-guarded
service state, typed errors, and version-stamped cache keys.
``repro.lint`` turns each into a CI-gated check: a stdlib-``ast`` rule
engine (one parse per module), typed :class:`~repro.lint.model.Finding`
dataclasses, and inline ``# repro: lint-ok[RULE] reason`` waivers — the
only way to accept a finding (a waiver that silences nothing is itself
a finding).

Run it as ``repro lint``; exit codes are 0 (clean), 1 (findings),
2 (usage error).  ``repro lint --explain RULE`` prints a rule's full
rationale.
"""

from __future__ import annotations

from .engine import LintProject, ModuleSource, run_lint, run_rules
from .model import Finding, LintReport, LintUsageError
from .rules import Rule, default_rules, rule_by_id

__all__ = [
    "Finding",
    "LintProject",
    "LintReport",
    "LintUsageError",
    "ModuleSource",
    "Rule",
    "default_rules",
    "rule_by_id",
    "run_lint",
    "run_rules",
]

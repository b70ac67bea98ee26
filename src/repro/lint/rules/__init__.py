"""The rule registry for ``repro.lint``.

Each rule mechanizes one prose invariant from ROADMAP.md; see the
individual rule modules for the full rationale.  :func:`default_rules`
returns fresh instances of every registered rule in deterministic
order; :func:`rule_by_id` resolves a single rule for ``--explain``.
"""

from __future__ import annotations

from typing import List

from ..model import LintUsageError
from .base import Rule
from .dead_code import DeadCodeRule
from .determinism import DeterminismRule
from .durability import DurabilityRule
from .locks import LockDisciplineRule
from .typed_errors import TypedErrorsRule
from .vectorization import VectorizationRule
from .versions import VersionCouplingRule

__all__ = [
    "Rule",
    "DeadCodeRule",
    "DeterminismRule",
    "DurabilityRule",
    "LockDisciplineRule",
    "TypedErrorsRule",
    "VectorizationRule",
    "VersionCouplingRule",
    "default_rules",
    "rule_by_id",
]

#: Registered rule classes in report order.
_RULE_CLASSES = (
    DeterminismRule,
    VectorizationRule,
    DurabilityRule,
    LockDisciplineRule,
    TypedErrorsRule,
    VersionCouplingRule,
    DeadCodeRule,
)


def default_rules() -> "List[Rule]":
    """Fresh instances of every registered rule, in report order."""
    return [rule_class() for rule_class in _RULE_CLASSES]


def rule_by_id(rule_id: str) -> Rule:
    """Resolve one rule by id (for ``repro lint --explain``).

    Raises:
        LintUsageError: no registered rule has that id.
    """
    for rule in default_rules():
        if rule.id == rule_id:
            return rule
    known = ", ".join(rule.id for rule in default_rules())
    raise LintUsageError(
        f"unknown rule {rule_id!r}; known rules: {known}"
    )

"""The *version-coupling* rule: version constants and reference specs
must stay wired to the code that depends on them.

Two cross-module contracts keep fingerprints honest: every semantic
version constant (``*_CACHE_VERSION``, ``HPC_SIM_VERSION``,
``TRACE_GEN_VERSION``, ...) must actually be read somewhere beyond its
definition — an orphaned constant means a cache key silently stopped
embedding it — and every retained ``*_reference`` scalar specification
must be exercised from ``tests/``, or the bit-identical-to-reference
promise is no longer being checked.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Set, Tuple

from ..engine import LintProject
from ..model import Finding
from .base import Rule

#: Top-level uppercase constants this rule tracks.
VERSION_NAME = re.compile(r"^[A-Z][A-Z0-9_]*_VERSION$")


class VersionCouplingRule(Rule):
    """Flag orphaned version constants and untested reference specs."""

    id = "version-coupling"
    summary = (
        "version constants must be referenced; *_reference functions "
        "must be exercised from tests/"
    )
    explanation = (
        "Semantic version constants (CHAR_CACHE_VERSION, "
        "DATASET_CACHE_VERSION, HPC_SIM_VERSION, TRACE_GEN_VERSION, ...) "
        "exist to invalidate caches when fingerprint-shaping code "
        "changes; a constant nothing reads means some cache key quietly "
        "dropped it.  Likewise every *_reference function is the scalar "
        "ground truth a vectorized engine is tested bit-identical "
        "against — if tests/ stops referencing it, the equivalence "
        "guarantee is gone.  This rule cross-references definitions "
        "against every use in src/repro and tests/."
    )

    def check_project(self, project: LintProject) -> "Iterable[Finding]":
        findings: "List[Finding]" = []
        all_modules = list(project.modules) + list(project.test_modules)
        used_names: "Set[str]" = set()
        for module in all_modules:
            if module.tree is None:
                continue
            used_names.update(_loaded_names(module.tree))
        test_names: "Set[str]" = set()
        for module in project.test_modules:
            if module.tree is None:
                continue
            test_names.update(_loaded_names(module.tree))
            test_names.update(_imported_names(module.tree))
        for module in project.modules:
            if module.tree is None:
                continue
            for name, (line, col) in _version_constants(module.tree):
                if name not in used_names:
                    findings.append(
                        self.finding(
                            module,
                            line,
                            col,
                            f"version constant {name} is never read "
                            "outside its definition; wire it into the "
                            "cache-key builder or delete it",
                        )
                    )
            for name, (line, col) in _reference_functions(module.tree):
                if name not in test_names:
                    findings.append(
                        self.finding(
                            module,
                            line,
                            col,
                            f"reference specification {name}() is not "
                            "referenced from tests/; the bit-identical "
                            "equivalence check is gone",
                        )
                    )
        return findings


def _version_constants(
    tree: ast.Module,
) -> "List[Tuple[str, Tuple[int, int]]]":
    """Top-level ``X_VERSION = <const>`` assignments in a module."""
    found: "List[Tuple[str, Tuple[int, int]]]" = []
    for node in tree.body:
        targets: "List[ast.expr]" = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and VERSION_NAME.match(
                target.id
            ):
                found.append(
                    (target.id, (node.lineno, node.col_offset))
                )
    return found


def _reference_functions(
    tree: ast.Module,
) -> "List[Tuple[str, Tuple[int, int]]]":
    """Top-level ``def *_reference`` definitions in a module."""
    found: "List[Tuple[str, Tuple[int, int]]]" = []
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.name.endswith("_reference"):
            found.append((node.name, (node.lineno, node.col_offset)))
    return found


def _loaded_names(tree: ast.Module) -> "Set[str]":
    """Every Name/Attribute identifier *read* in the module (loads and
    attribute tails), plus strings listed in ``__all__``."""
    names: "Set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, ast.Load
        ):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    for entry in _dunder_all(tree):
        names.add(entry)
    return names


def _imported_names(tree: ast.Module) -> "Set[str]":
    """Names bound by from-imports (``from x import a as b`` -> a)."""
    names: "Set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.name)
    return names


def _dunder_all(tree: ast.Module) -> "List[str]":
    """String entries of a top-level ``__all__`` list/tuple."""
    entries: "List[str]" = []
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name)
                and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    entries.append(element.value)
    return entries

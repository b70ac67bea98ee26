"""The *dead-code* rule: no unused imports, no dead ``__all__``
entries, no unreferenced private definitions.

An import nothing reads is noise that rots into a false dependency; an
``__all__`` entry naming nothing confuses both ``import *`` and the
docs-contract tests.  The rule counts a binding as used when its name
appears in any Load context, in a string annotation (quoted forward
references are parsed), or as a string inside ``__all__`` (re-export).
Package ``__init__`` modules are exempt from the unused-import check —
their imports *are* the public re-export surface.

A module-level private function, class or constant (one leading
underscore) that nothing under ``src`` references is a helper its last
caller left behind.  Any module's Name load, attribute, ``from ...
import`` name or string constant equal to the name counts as a
reference; tests do not, since code only tests use is a liability too.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from ..engine import LintProject, ModuleSource
from ..model import Finding
from .base import Rule


class DeadCodeRule(Rule):
    """Flag unused imports and ``__all__`` entries naming nothing."""

    id = "dead-code"
    summary = (
        "no unused imports, dead __all__ entries or unreferenced "
        "private definitions"
    )
    explanation = (
        "An import never referenced in the module (including inside "
        "quoted string annotations and __all__ re-export lists) is "
        "dead weight and a false dependency edge; an __all__ entry "
        "that names no module-level binding breaks 'from m import *' "
        "and the docs contract.  Package __init__.py files are exempt "
        "from the unused-import check because their imports define the "
        "re-export surface.  A module-level private function, class or "
        "constant that no module under src references (Name load, "
        "attribute, from-import name or string constant) is a helper "
        "left behind by its last caller; delete it."
    )

    def check_project(self, project: LintProject) -> "Iterable[Finding]":
        referenced: "Set[str]" = set()
        for module in project.modules:
            if module.tree is not None:
                referenced |= _referenced_names(module.tree)
        findings: "List[Finding]" = []
        for module in project.modules:
            if module.tree is None:
                continue
            for name, (line, col) in _private_definitions(module.tree):
                if name not in referenced:
                    findings.append(
                        self.finding(
                            module,
                            line,
                            col,
                            f"private definition {name} is never "
                            "referenced under src; delete it",
                        )
                    )
        return findings

    def check_module(
        self, module: ModuleSource, project: LintProject
    ) -> "Iterable[Finding]":
        findings: "List[Finding]" = []
        used = _used_names(module.tree)
        if not module.path.endswith("__init__.py"):
            for name, full, (line, col) in _imported_bindings(
                module.tree
            ):
                if name not in used:
                    findings.append(
                        self.finding(
                            module,
                            line,
                            col,
                            f"import {full} is never used in this "
                            "module; remove it",
                        )
                    )
        bound = _toplevel_bindings(module.tree)
        for entry, (line, col) in _dunder_all_entries(module.tree):
            if entry not in bound:
                findings.append(
                    self.finding(
                        module,
                        line,
                        col,
                        f"__all__ entry {entry!r} names no module-"
                        "level binding; remove it or define the name",
                    )
                )
        return findings


def _imported_bindings(
    tree: ast.Module,
) -> "List[Tuple[str, str, Tuple[int, int]]]":
    """(bound name, display name, location) for every import binding."""
    bindings: "List[Tuple[str, str, Tuple[int, int]]]" = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                display = alias.name + (
                    f" as {alias.asname}" if alias.asname else ""
                )
                bindings.append(
                    (bound, display, (node.lineno, node.col_offset))
                )
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                display = alias.name + (
                    f" as {alias.asname}" if alias.asname else ""
                )
                if bound == "annotations" and node.module == (
                    "__future__"
                ):
                    continue
                bindings.append(
                    (bound, display, (node.lineno, node.col_offset))
                )
    return bindings


def _used_names(tree: ast.Module) -> "Set[str]":
    """Names read anywhere: Load contexts, quoted string annotations,
    and ``__all__`` string entries."""
    used: "Set[str]" = set()
    annotation_texts: "List[str]" = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, ast.Load
        ):
            used.add(node.id)
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            annotation = node.annotation
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                annotation_texts.append(annotation.value)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and isinstance(node.returns, ast.Constant):
            if isinstance(node.returns.value, str):
                annotation_texts.append(node.returns.value)
    for entry, _ in _dunder_all_entries(tree):
        used.add(entry)
    for text in annotation_texts:
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        for sub in ast.walk(parsed):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
    return used


def _private_definitions(
    tree: ast.Module,
) -> "List[Tuple[str, Tuple[int, int]]]":
    """Module-level ``_name`` functions, classes and assigned names
    (dunders excluded), with their locations."""
    definitions: "List[Tuple[str, Tuple[int, int]]]" = []
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names = {node.name}
        elif isinstance(node, ast.Assign):
            names = set().union(*map(_target_names, node.targets))
        elif isinstance(node, ast.AnnAssign):
            names = _target_names(node.target)
        else:
            continue
        for name in sorted(names):
            if name.startswith("_") and not name.startswith("__"):
                definitions.append((name, (node.lineno, node.col_offset)))
    return definitions


def _referenced_names(tree: ast.Module) -> "Set[str]":
    """Names a module reads: Name loads, attributes, ``from ... import``
    names and string constants."""
    names: "Set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _toplevel_bindings(tree: ast.Module) -> "Set[str]":
    """Names bound at module top level (defs, classes, assignments,
    imports)."""
    bound: "Set[str]" = set()
    for node in tree.body:
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                bound.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign):
            bound.update(_target_names(node.target))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional bindings (TYPE_CHECKING blocks, fallback
            # imports) count: walk one level of nested bodies.
            for sub in ast.walk(node):
                if isinstance(
                    sub,
                    (
                        ast.FunctionDef,
                        ast.AsyncFunctionDef,
                        ast.ClassDef,
                    ),
                ):
                    bound.add(sub.name)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        bound.update(_target_names(target))
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        if alias.name != "*":
                            bound.add(alias.asname or alias.name)
                elif isinstance(sub, ast.Import):
                    for alias in sub.names:
                        bound.add(
                            alias.asname or alias.name.split(".")[0]
                        )
    return bound


def _target_names(node: ast.expr) -> "Set[str]":
    names: "Set[str]" = set()
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            names.update(_target_names(element))
    return names


def _dunder_all_entries(
    tree: ast.Module,
) -> "List[Tuple[str, Tuple[int, int]]]":
    """String entries of top-level ``__all__`` with their locations."""
    entries: "List[Tuple[str, Tuple[int, int]]]" = []
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
                    entries.append(
                        (
                            element.value,
                            (element.lineno, element.col_offset),
                        )
                    )
    return entries

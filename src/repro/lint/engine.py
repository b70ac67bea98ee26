"""The lint engine: one parse per module, suppressions, the runner.

``LintProject`` loads every module under ``src/repro`` (and every test
module under ``tests/``, for cross-tree rules like *version-coupling*)
exactly once — one :func:`ast.parse` per file, shared by every rule.
:func:`run_lint` runs the rule set, drops findings covered by inline
``# repro: lint-ok[RULE] reason`` suppressions, and reports the rest.

Suppressions are deliberate and visible: the comment must name the rule
it silences, sits on the offending line (or the line directly above),
and should carry a short justification after the bracket — the lint
gate's analogue of a reviewed waiver.  A ``lint-ok`` comment naming a
rule that produced no finding on that line is itself reported (rule id
``unused-suppression``), so waivers cannot outlive the code they
excused.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .model import Finding, LintReport, LintUsageError

#: Inline suppression syntax — the comment itself must *start* with the
#: directive, so prose merely mentioning the syntax never suppresses.
SUPPRESSION_PATTERN = re.compile(
    r"^#\s*repro:\s*lint-ok\[([A-Za-z0-9_,\s-]+)\]"
)

#: Rule id of the parse-failure finding (not suppressible).
PARSE_RULE = "parse"

#: Rule id reported for a ``lint-ok`` comment that silenced nothing.
UNUSED_SUPPRESSION_RULE = "unused-suppression"


@dataclass
class ModuleSource:
    """One parsed source file plus its inline suppressions.

    Attributes:
        path: repository-relative posix path (``src/repro/...``).
        text: raw source text.
        tree: the parsed :class:`ast.Module` (None on a syntax error).
        suppressions: line -> set of rule ids suppressed on that line.
        parse_error: the syntax error, when parsing failed.
    """

    path: str
    text: str
    tree: "Optional[ast.Module]" = None
    suppressions: "Dict[int, Set[str]]" = field(default_factory=dict)
    parse_error: "Optional[SyntaxError]" = None

    #: Lines holding only comments/whitespace — a directive on such a
    #: line covers the next code line (through further comment lines).
    comment_only_lines: "Set[int]" = field(default_factory=set)

    # Populated lazily by :meth:`enclosing_functions`.
    _parents: "Optional[Dict[int, ast.AST]]" = None

    @classmethod
    def from_text(cls, path: str, text: str) -> "ModuleSource":
        """Parse one module from source text (never raises)."""
        module = cls(path=path, text=text)
        try:
            module.tree = ast.parse(text)
        except SyntaxError as error:
            module.parse_error = error
        # Only real COMMENT tokens count — a docstring quoting the
        # suppression syntax must never silence anything.
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(text).readline)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError,
                ValueError):
            tokens = []
        code_lines: "Set[int]" = set()
        comment_lines: "Set[int]" = set()
        skip = (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        )
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comment_lines.add(token.start[0])
            elif token.type not in skip:
                for number in range(token.start[0], token.end[0] + 1):
                    code_lines.add(number)
        module.comment_only_lines = comment_lines - code_lines
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = SUPPRESSION_PATTERN.match(token.string)
            if match:
                rules = {
                    rule.strip()
                    for rule in match.group(1).split(",")
                    if rule.strip()
                }
                module.suppressions.setdefault(
                    token.start[0], set()
                ).update(rules)
        return module

    @property
    def name(self) -> str:
        """Dotted module name (``repro.mica.ppm``) when derivable."""
        parts = Path(self.path).with_suffix("").parts
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is waived on ``line``."""
        return self.suppression_line_for(rule, line) is not None

    def suppression_line_for(
        self, rule: str, line: int
    ) -> "Optional[int]":
        """The directive line waiving ``rule`` on ``line``, when any.

        A trailing comment on the line itself counts, as does a
        directive in the block of full-line comments directly above.
        """
        if rule in self.suppressions.get(line, set()):
            return line
        candidate = line - 1
        while candidate > 0 and candidate in self.comment_only_lines:
            if rule in self.suppressions.get(candidate, set()):
                return candidate
            candidate -= 1
        return None

    def enclosing_functions(self, node: ast.AST) -> "Tuple[str, ...]":
        """Names of the def-statements enclosing ``node``, outermost
        first (empty for module-level code)."""
        self._ensure_parents()
        stack: "List[str]" = []
        current = self._parents.get(id(node)) if self._parents else None
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                stack.append(current.name)
            current = (
                self._parents.get(id(current)) if self._parents else None
            )
        return tuple(reversed(stack))

    def enclosing_class(self, node: ast.AST) -> "Optional[str]":
        """Name of the nearest enclosing class, when there is one."""
        self._ensure_parents()
        current = self._parents.get(id(node)) if self._parents else None
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current.name
            current = (
                self._parents.get(id(current)) if self._parents else None
            )
        return None

    def _ensure_parents(self) -> None:
        if self._parents is not None or self.tree is None:
            return
        parents: "Dict[int, ast.AST]" = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
        self._parents = parents


@dataclass
class LintProject:
    """Every parsed module of the repository, loaded once.

    Attributes:
        root: repository root (the directory holding ``src/repro``).
        modules: parsed modules under ``src/repro`` (lint targets).
        test_modules: parsed modules under ``tests/`` (consulted by
            cross-tree rules, never linted themselves).
    """

    root: Path
    modules: "List[ModuleSource]" = field(default_factory=list)
    test_modules: "List[ModuleSource]" = field(default_factory=list)

    @classmethod
    def load(cls, root: "Path | str") -> "LintProject":
        """Load ``src/repro`` (and ``tests/``) under ``root``.

        Raises:
            LintUsageError: ``root`` does not contain ``src/repro``.
        """
        root = Path(root).resolve()
        source_root = root / "src" / "repro"
        if not source_root.is_dir():
            raise LintUsageError(
                f"{root} does not contain src/repro; pass --root or run "
                "from the repository checkout"
            )
        project = cls(root=root)
        for path in sorted(source_root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            project.modules.append(
                ModuleSource.from_text(rel, path.read_text(encoding="utf-8"))
            )
        tests_root = root / "tests"
        if tests_root.is_dir():
            for path in sorted(tests_root.rglob("*.py")):
                rel = path.relative_to(root).as_posix()
                project.test_modules.append(
                    ModuleSource.from_text(
                        rel, path.read_text(encoding="utf-8")
                    )
                )
        return project

    @classmethod
    def from_sources(
        cls,
        sources: "Mapping[str, str]",
        root: "Path | str" = ".",
    ) -> "LintProject":
        """Build an in-memory project from {relative path: source text}.

        Paths starting with ``tests/`` become test modules; everything
        else is a lint target.  Used by the fixture tests and by the
        revert-detection check.
        """
        project = cls(root=Path(root))
        for rel in sorted(sources):
            module = ModuleSource.from_text(rel, sources[rel])
            if rel.startswith("tests/"):
                project.test_modules.append(module)
            else:
                project.modules.append(module)
        return project


def dotted_name(node: ast.AST) -> "Optional[str]":
    """The dotted source form of a Name/Attribute chain.

    ``np.random.default_rng`` -> ``"np.random.default_rng"``; anything
    rooted in a call or subscript (``foo().bar``) returns None.
    """
    parts: "List[str]" = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def run_rules(
    project: LintProject, rules: "Sequence[object]"
) -> "List[Finding]":
    """Run every rule over the project; returns unsuppressed findings
    (sorted by location) plus parse-error and unused-suppression
    findings."""
    findings: "List[Finding]" = []
    suppressed_hits: "Dict[Tuple[str, int, str], bool]" = {}
    for module in project.modules:
        if module.parse_error is not None:
            findings.append(
                Finding(
                    rule=PARSE_RULE,
                    path=module.path,
                    line=module.parse_error.lineno or 1,
                    col=0,
                    message=(
                        f"file does not parse: {module.parse_error.msg}"
                    ),
                )
            )
    for rule in rules:
        produced: "List[Finding]" = []
        produced.extend(rule.check_project(project))
        for module in project.modules:
            if module.tree is None:
                continue
            produced.extend(rule.check_module(module, project))
        for finding in produced:
            module = _module_for(project, finding.path)
            directive = (
                module.suppression_line_for(finding.rule, finding.line)
                if module is not None
                else None
            )
            if module is not None and directive is not None:
                suppressed_hits[
                    (module.path, directive, finding.rule)
                ] = True
                continue
            findings.append(finding)
    # Every lint-ok comment must have silenced at least one finding.
    for module in project.modules:
        for line, rules_on_line in sorted(module.suppressions.items()):
            for rule_id in sorted(rules_on_line):
                if not suppressed_hits.get(
                    (module.path, line, rule_id)
                ):
                    findings.append(
                        Finding(
                            rule=UNUSED_SUPPRESSION_RULE,
                            path=module.path,
                            line=line,
                            col=0,
                            message=(
                                f"lint-ok[{rule_id}] suppresses "
                                "nothing on this line; remove it"
                            ),
                        )
                    )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _module_for(
    project: LintProject, path: str
) -> "Optional[ModuleSource]":
    for module in project.modules:
        if module.path == path:
            return module
    return None


def run_lint(
    root: "Path | str | None" = None,
    rules: "Sequence[object] | None" = None,
    project: "LintProject | None" = None,
) -> LintReport:
    """Lint the repository (or a prebuilt project).

    Args:
        root: repository root; required unless ``project`` is given.
        rules: rule instances to run (default: every registered rule).
        project: a prebuilt :class:`LintProject` (tests use
            :meth:`LintProject.from_sources`).

    Returns:
        The :class:`~repro.lint.model.LintReport`; ``report.exit_code``
        is the gate outcome.
    """
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    if project is None:
        if root is None:
            raise LintUsageError("run_lint needs a root or a project")
        project = LintProject.load(root)
    return LintReport(
        findings=run_rules(project, rules),
        modules=len(project.modules),
        rules=tuple(getattr(rule, "id", type(rule).__name__)
                    for rule in rules),
    )


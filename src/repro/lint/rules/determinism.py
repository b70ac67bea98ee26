"""The *determinism* rule: engine code must not read clocks or draw
unseeded randomness.

Every production engine (``mica``, ``synth``, ``uarch``, ``phases``)
promises bit-for-bit reproducible output for a given trace and seed, and
``analysis`` (GA selection, k-means + BIC) for a given matrix and seed.  A
single ``time.time()`` or unseeded ``np.random`` draw silently breaks
that promise, so this rule bans wall-clock reads and any randomness
that does not flow through the seeded draw protocol in
``repro.synth.rng`` (``stable_seed`` / ``make_rng``).
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..engine import LintProject, ModuleSource, dotted_name
from ..model import Finding
from .base import Rule

#: Clock reads banned in engine code.
CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.clock",
    }
)

#: Method names that read the current date or time off ``datetime``.
DATETIME_NOW_ATTRS = frozenset({"now", "utcnow", "today"})

#: Legacy global-state numpy draw functions (``np.random.<fn>``).
NUMPY_GLOBAL_DRAWS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "geometric",
        "bytes",
    }
)


class DeterminismRule(Rule):
    """Ban clocks and unseeded randomness in engine packages."""

    id = "determinism"
    summary = (
        "engine code must not read clocks or draw unseeded randomness"
    )
    explanation = (
        "Production engines under src/repro/{mica,synth,uarch,phases} "
        "promise bit-for-bit deterministic output for a given trace and "
        "seed, and src/repro/analysis (GA selection, k-means + BIC) for "
        "a given matrix and seed.  This rule flags wall-clock reads "
        "(time.time, datetime.now, ...), legacy global-state numpy draws "
        "(np.random.rand, np.random.seed, ...), np.random.default_rng() "
        "called without a seed, and stdlib random.* usage in modules "
        "that import the random module.  All randomness must flow "
        "through repro.synth.rng.make_rng / stable_seed or a generator "
        "built from an explicit seed."
    )
    scopes = (
        "src/repro/mica/",
        "src/repro/synth/",
        "src/repro/uarch/",
        "src/repro/phases/",
        "src/repro/analysis/",
    )

    def check_module(
        self, module: ModuleSource, project: LintProject
    ) -> "Iterable[Finding]":
        if not self.applies_to(module):
            return ()
        findings: "List[Finding]" = []
        imports_random = _imports_stdlib_random(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            findings.extend(
                self._check_call(module, node, name, imports_random)
            )
        return findings

    def _check_call(
        self,
        module: ModuleSource,
        node: ast.Call,
        name: str,
        imports_random: bool,
    ) -> "List[Finding]":
        tail = name.rsplit(".", maxsplit=1)[-1]
        if name in CLOCK_CALLS:
            return [
                self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"clock read {name}() breaks determinism; thread an "
                    "explicit timestamp in from the caller",
                )
            ]
        if tail in DATETIME_NOW_ATTRS and (
            ".datetime." in f".{name}" or ".date." in f".{name}"
        ):
            return [
                self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"wall-clock read {name}() breaks determinism; "
                    "thread an explicit timestamp in from the caller",
                )
            ]
        if name.endswith("np.random.default_rng") or name == (
            "numpy.random.default_rng"
        ):
            if not node.args and not node.keywords:
                return [
                    self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        "np.random.default_rng() without a seed is "
                        "nondeterministic; use repro.synth.rng.make_rng "
                        "or pass an explicit seed",
                    )
                ]
            return []
        if (
            ".random." in f".{name}."
            and tail in NUMPY_GLOBAL_DRAWS
            and name.split(".", maxsplit=1)[0] in {"np", "numpy"}
        ):
            return [
                self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"legacy global-state draw {name}() is banned; use "
                    "repro.synth.rng.make_rng for seeded streams",
                )
            ]
        if imports_random and name.startswith("random."):
            return [
                self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"stdlib {name}() uses hidden global state; use "
                    "repro.synth.rng.make_rng for seeded streams",
                )
            ]
        return []


def _imports_stdlib_random(tree: ast.Module) -> bool:
    """Whether the module imports stdlib ``random`` at the top level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" and alias.asname is None:
                    return True
    return False

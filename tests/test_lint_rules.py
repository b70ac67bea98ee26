"""Fixture-snippet tests for every ``repro.lint`` rule.

Each rule gets at least one *firing* fixture (a minimal snippet that
must produce a finding) and one *quiet* fixture (a near-miss that must
not) — the true-positive/false-positive contract of ISSUE 10.  Projects
are built in memory with :meth:`LintProject.from_sources`, so these
tests never touch the real tree.
"""

from __future__ import annotations

import pytest

from repro.lint import LintProject, run_rules
from repro.lint.rules import (
    DeadCodeRule,
    DeterminismRule,
    DurabilityRule,
    LockDisciplineRule,
    TypedErrorsRule,
    VectorizationRule,
    VersionCouplingRule,
    default_rules,
    rule_by_id,
)
from repro.lint.model import LintUsageError


def findings_for(rule, sources):
    """Run one rule over an in-memory project; return its findings."""
    project = LintProject.from_sources(sources)
    return [
        finding
        for finding in run_rules(project, [rule])
        if finding.rule == rule.id
    ]


ENGINE_PATH = "src/repro/mica/snippet.py"
SERVICE_PATH = "src/repro/service/snippet.py"
PERF_PATH = "src/repro/perf/snippet.py"


class TestDeterminismRule:
    def test_fires_on_clock_read(self):
        found = findings_for(
            DeterminismRule(),
            {ENGINE_PATH: "import time\n\ndef f():\n    return time.time()\n"},
        )
        assert len(found) == 1
        assert "time.time" in found[0].message
        assert found[0].line == 4

    def test_fires_on_legacy_numpy_draw(self):
        source = (
            "import numpy as np\n\ndef f():\n"
            "    return np.random.rand(4)\n"
        )
        found = findings_for(DeterminismRule(), {ENGINE_PATH: source})
        assert len(found) == 1
        assert "np.random.rand" in found[0].message

    def test_fires_on_unseeded_default_rng(self):
        source = (
            "import numpy as np\n\ndef f():\n"
            "    return np.random.default_rng()\n"
        )
        found = findings_for(DeterminismRule(), {ENGINE_PATH: source})
        assert len(found) == 1

    def test_fires_on_unseeded_default_rng_in_analysis(self):
        source = (
            "import numpy as np\n\ndef restarts():\n"
            "    return np.random.default_rng()\n"
        )
        found = findings_for(
            DeterminismRule(), {"src/repro/analysis/snippet.py": source}
        )
        assert len(found) == 1
        assert found[0].line == 4

    def test_quiet_on_seeded_default_rng(self):
        source = (
            "import numpy as np\n\ndef f(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert findings_for(DeterminismRule(), {ENGINE_PATH: source}) == []

    def test_fires_on_stdlib_random(self):
        source = "import random\n\ndef f():\n    return random.random()\n"
        found = findings_for(DeterminismRule(), {ENGINE_PATH: source})
        assert len(found) == 1

    def test_quiet_on_local_variable_named_random(self):
        # No top-level 'import random': 'random.choice' here is some
        # other object (e.g. an rng parameter), not the stdlib module.
        source = "def f(random):\n    return random.choice([1, 2])\n"
        assert findings_for(DeterminismRule(), {ENGINE_PATH: source}) == []

    def test_quiet_outside_engine_scopes(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert findings_for(
            DeterminismRule(), {"src/repro/perf/snippet.py": source}
        ) == []

    def test_fires_on_datetime_now(self):
        source = (
            "import datetime\n\ndef f():\n"
            "    return datetime.datetime.now()\n"
        )
        found = findings_for(DeterminismRule(), {ENGINE_PATH: source})
        assert len(found) == 1


class TestVectorizationRule:
    def test_fires_on_range_len_loop(self):
        source = (
            "def f(values):\n"
            "    total = 0\n"
            "    for i in range(len(values)):\n"
            "        total += values[i]\n"
            "    return total\n"
        )
        found = findings_for(VectorizationRule(), {ENGINE_PATH: source})
        assert len(found) == 1
        assert found[0].line == 3

    def test_fires_on_trace_column_iteration(self):
        source = (
            "def f(trace):\n"
            "    for pc in trace.pc:\n"
            "        print(pc)\n"
        )
        found = findings_for(VectorizationRule(), {ENGINE_PATH: source})
        assert len(found) == 1
        assert "'pc'" in found[0].message

    def test_quiet_in_reference_function(self):
        source = (
            "def f_reference(values):\n"
            "    total = 0\n"
            "    for i in range(len(values)):\n"
            "        total += values[i]\n"
            "    return total\n"
        )
        assert findings_for(
            VectorizationRule(), {ENGINE_PATH: source}
        ) == []

    def test_quiet_in_serial_core_modules(self):
        source = (
            "def f(values):\n"
            "    for i in range(len(values)):\n"
            "        pass\n"
        )
        assert findings_for(
            VectorizationRule(), {"src/repro/uarch/inorder.py": source}
        ) == []

    def test_quiet_on_plain_range(self):
        source = "def f(n):\n    for i in range(n):\n        pass\n"
        assert findings_for(
            VectorizationRule(), {ENGINE_PATH: source}
        ) == []


class TestDurabilityRule:
    def test_fires_on_open_for_write(self):
        source = (
            "def f(path, data):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(data)\n"
        )
        found = findings_for(DurabilityRule(), {PERF_PATH: source})
        assert len(found) == 1
        assert "'w'" in found[0].message

    def test_fires_on_os_replace(self):
        source = "import os\n\ndef f(a, b):\n    os.replace(a, b)\n"
        found = findings_for(DurabilityRule(), {PERF_PATH: source})
        assert len(found) == 1

    def test_fires_on_np_savez(self):
        source = (
            "import numpy as np\n\ndef f(path, x):\n"
            "    np.savez(path, x=x)\n"
        )
        found = findings_for(DurabilityRule(), {PERF_PATH: source})
        assert len(found) == 1

    def test_quiet_on_read(self):
        source = (
            "def f(path):\n"
            "    with open(path, 'r') as handle:\n"
            "        return handle.read()\n"
        )
        assert findings_for(DurabilityRule(), {PERF_PATH: source}) == []

    def test_quiet_inside_seam_modules(self):
        source = (
            "import os\n\ndef f(a, b):\n    os.replace(a, b)\n"
        )
        assert findings_for(
            DurabilityRule(), {"src/repro/perf/integrity.py": source}
        ) == []

    def test_quiet_outside_persistence_scopes(self):
        source = "def f(p, d):\n    open(p, 'w').write(d)\n"
        assert findings_for(
            DurabilityRule(), {"src/repro/mica/snippet.py": source}
        ) == []


LOCKED_CLASS = """\
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump_locked_path(self):
        with self._lock:
            self.count += 1

    def bump_unlocked(self):
        self.count += 1
"""


class TestLockDisciplineRule:
    def test_fires_on_unlocked_mutation(self):
        found = findings_for(
            LockDisciplineRule(), {SERVICE_PATH: LOCKED_CLASS}
        )
        assert len(found) == 1
        assert "bump_unlocked" in found[0].message
        assert "count" in found[0].message

    def test_quiet_when_every_mutation_is_locked(self):
        source = LOCKED_CLASS.replace(
            "    def bump_unlocked(self):\n        self.count += 1\n", ""
        )
        assert findings_for(
            LockDisciplineRule(), {SERVICE_PATH: source}
        ) == []

    def test_quiet_in_init_and_locked_helpers(self):
        source = """\
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def add(self, item):
        with self._lock:
            self.items.append(item)

    def _evict_locked(self):
        self.items.pop()
"""
        assert findings_for(
            LockDisciplineRule(), {SERVICE_PATH: source}
        ) == []

    def test_fires_on_unlocked_mutating_call(self):
        source = """\
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def add(self, item):
        with self._lock:
            self.items.append(item)

    def sneak(self, item):
        self.items.append(item)
"""
        found = findings_for(
            LockDisciplineRule(), {SERVICE_PATH: source}
        )
        assert len(found) == 1
        assert "sneak" in found[0].message

    def test_quiet_on_never_locked_attributes(self):
        source = """\
class Plain:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1
"""
        assert findings_for(
            LockDisciplineRule(), {SERVICE_PATH: source}
        ) == []

    def test_quiet_outside_scopes(self):
        assert findings_for(
            LockDisciplineRule(),
            {"src/repro/mica/snippet.py": LOCKED_CLASS},
        ) == []


class TestTypedErrorsRule:
    def test_fires_on_swallowing_broad_except(self):
        source = """\
def f():
    try:
        work()
    except Exception:
        pass
"""
        found = findings_for(TypedErrorsRule(), {SERVICE_PATH: source})
        assert len(found) == 1

    def test_fires_on_bare_except(self):
        source = """\
def f():
    try:
        work()
    except:
        return None
"""
        found = findings_for(TypedErrorsRule(), {SERVICE_PATH: source})
        assert len(found) == 1
        assert "bare except" in found[0].message

    def test_quiet_when_reraising(self):
        source = """\
def f():
    try:
        work()
    except Exception:
        cleanup()
        raise
"""
        assert findings_for(
            TypedErrorsRule(), {SERVICE_PATH: source}
        ) == []

    def test_quiet_when_wrapping_into_typed_error(self):
        source = """\
from repro.errors import ServiceError

def f():
    try:
        work()
    except Exception as error:
        return ServiceError(str(error))
"""
        assert findings_for(
            TypedErrorsRule(), {SERVICE_PATH: source}
        ) == []

    def test_quiet_on_narrow_except(self):
        source = """\
def f():
    try:
        work()
    except KeyError:
        return None
"""
        assert findings_for(
            TypedErrorsRule(), {SERVICE_PATH: source}
        ) == []

    def test_quiet_outside_scopes(self):
        source = """\
def f():
    try:
        work()
    except Exception:
        pass
"""
        assert findings_for(
            TypedErrorsRule(), {"src/repro/mica/snippet.py": source}
        ) == []


class TestVersionCouplingRule:
    def test_fires_on_orphaned_version_constant(self):
        found = findings_for(
            VersionCouplingRule(),
            {PERF_PATH: "SNIPPET_CACHE_VERSION = 3\n"},
        )
        assert len(found) == 1
        assert "SNIPPET_CACHE_VERSION" in found[0].message

    def test_quiet_when_constant_is_read(self):
        sources = {
            PERF_PATH: "SNIPPET_CACHE_VERSION = 3\n",
            "src/repro/perf/keys.py": (
                "from .snippet import SNIPPET_CACHE_VERSION\n\n"
                "def key():\n"
                "    return f'v{SNIPPET_CACHE_VERSION}'\n"
            ),
        }
        assert findings_for(VersionCouplingRule(), sources) == []

    def test_fires_on_untested_reference_function(self):
        found = findings_for(
            VersionCouplingRule(),
            {ENGINE_PATH: "def frob_reference(x):\n    return x\n"},
        )
        assert len(found) == 1
        assert "frob_reference" in found[0].message

    def test_quiet_when_reference_is_tested(self):
        sources = {
            ENGINE_PATH: "def frob_reference(x):\n    return x\n",
            "tests/test_frob.py": (
                "from repro.mica.snippet import frob_reference\n\n"
                "def test_frob():\n"
                "    assert frob_reference(1) == 1\n"
            ),
        }
        assert findings_for(VersionCouplingRule(), sources) == []


class TestDeadCodeRule:
    def test_fires_on_unused_import(self):
        found = findings_for(
            DeadCodeRule(),
            {PERF_PATH: "import os\n\n\ndef f():\n    return 1\n"},
        )
        assert len(found) == 1
        assert "import os" in found[0].message

    def test_quiet_on_used_import(self):
        source = "import os\n\n\ndef f():\n    return os.getpid()\n"
        assert findings_for(DeadCodeRule(), {PERF_PATH: source}) == []

    def test_quiet_on_string_annotation_use(self):
        source = (
            "from typing import Optional\n\n\n"
            "def f(x: \"Optional[int]\"):\n    return x\n"
        )
        assert findings_for(DeadCodeRule(), {PERF_PATH: source}) == []

    def test_quiet_on_dunder_all_reexport(self):
        source = "from .other import thing\n\n__all__ = [\"thing\"]\n"
        assert findings_for(DeadCodeRule(), {PERF_PATH: source}) == []

    def test_quiet_in_package_init(self):
        source = "from .other import thing\n"
        assert findings_for(
            DeadCodeRule(), {"src/repro/perf/__init__.py": source}
        ) == []

    def test_fires_on_dead_dunder_all_entry(self):
        source = "def f():\n    return 1\n\n__all__ = [\"f\", \"gone\"]\n"
        found = findings_for(DeadCodeRule(), {PERF_PATH: source})
        assert len(found) == 1
        assert "'gone'" in found[0].message

    def test_quiet_on_future_annotations(self):
        source = "from __future__ import annotations\n\nX = 1\n"
        assert findings_for(DeadCodeRule(), {PERF_PATH: source}) == []

    def test_fires_on_unreferenced_private_definitions(self):
        source = (
            "_LIMIT = 4\n_UNUSED = 5\n\n"
            "def _helper():\n    return _LIMIT\n\n"
            "def _orphan():\n    return 1\n\n"
            "class _Gone:\n    pass\n\n"
            "def _by_string():\n    return 2\n\n"
            "def _by_attribute():\n    return 3\n"
        )
        users = (
            "from repro.perf.snippet import _helper\n"
            "from repro.perf import snippet\n\n"
            "def f():\n"
            "    return _helper() + getattr(snippet, '_by_string')() + "
            "snippet._by_attribute()\n"
        )
        found = findings_for(
            DeadCodeRule(),
            {PERF_PATH: source, ENGINE_PATH: users,
             "tests/test_snippet.py": "from x import _orphan\n_orphan()\n"},
        )
        assert sorted(
            (f.path, f.message.split()[2]) for f in found
        ) == [(PERF_PATH, "_Gone"), (PERF_PATH, "_UNUSED"),
              (PERF_PATH, "_orphan")]


class TestSuppressions:
    def test_trailing_comment_suppresses(self):
        source = (
            "import time\n\ndef f():\n"
            "    return time.time()  "
            "# repro: lint-ok[determinism] test fixture\n"
        )
        project = LintProject.from_sources({ENGINE_PATH: source})
        findings = run_rules(project, [DeterminismRule()])
        assert findings == []

    def test_comment_block_above_suppresses(self):
        source = (
            "import time\n\ndef f():\n"
            "    # repro: lint-ok[determinism] two-line justification\n"
            "    # carried onto a second comment line\n"
            "    return time.time()\n"
        )
        project = LintProject.from_sources({ENGINE_PATH: source})
        assert run_rules(project, [DeterminismRule()]) == []

    def test_unused_suppression_is_reported(self):
        source = (
            "def f():\n"
            "    # repro: lint-ok[determinism] nothing here fires\n"
            "    return 1\n"
        )
        project = LintProject.from_sources({ENGINE_PATH: source})
        findings = run_rules(project, [DeterminismRule()])
        assert len(findings) == 1
        assert findings[0].rule == "unused-suppression"

    def test_docstring_mention_does_not_suppress(self):
        source = (
            '"""Docs quoting # repro: lint-ok[determinism] syntax."""\n'
            "import time\n\ndef f():\n"
            "    return time.time()\n"
        )
        project = LintProject.from_sources({ENGINE_PATH: source})
        findings = run_rules(project, [DeterminismRule()])
        assert [f.rule for f in findings] == ["determinism"]

    def test_wrong_rule_id_does_not_suppress(self):
        source = (
            "import time\n\ndef f():\n"
            "    return time.time()  # repro: lint-ok[dead-code] wrong\n"
        )
        project = LintProject.from_sources({ENGINE_PATH: source})
        rules = [f.rule for f in run_rules(project, [DeterminismRule()])]
        assert "determinism" in rules
        assert "unused-suppression" in rules


class TestEngine:
    def test_syntax_error_becomes_parse_finding(self):
        project = LintProject.from_sources(
            {ENGINE_PATH: "def broken(:\n    pass\n"}
        )
        findings = run_rules(project, default_rules())
        assert [f.rule for f in findings] == ["parse"]

    def test_rule_by_id_round_trips(self):
        for rule in default_rules():
            assert rule_by_id(rule.id).id == rule.id

    def test_rule_by_id_unknown_raises_usage_error(self):
        with pytest.raises(LintUsageError):
            rule_by_id("no-such-rule")

    def test_every_rule_documents_itself(self):
        for rule in default_rules():
            assert rule.id
            assert rule.summary
            assert rule.explanation

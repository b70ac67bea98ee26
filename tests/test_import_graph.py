"""Entry points that never call scipy do not import it.

scipy is the report's distance kernel and the dendrogram backend; the
dataset build, the CLI, the service and phase detection never call it,
and importing it costs a cold process ~0.3 s and ~30 MB.  The check
runs in a fresh interpreter, because this test session loads scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import repro

BUILD_AND_PHASES = textwrap.dedent("""
    import json, sys
    import repro.experiments, repro.perf, repro.workloads
    import repro.cli, repro.service, repro.phases
    from repro.config import ReproConfig
    from repro.experiments import build_dataset
    from repro.phases import detect_phases, simulation_points
    from repro.synth import WorkloadProfile, generate_trace
    from repro.workloads import get_benchmark

    trace = generate_trace(WorkloadProfile(name="test/default/1"), 8_000)
    phases = detect_phases(trace, interval=1_000, max_phases=4)
    assert simulation_points(phases)
    build_dataset(
        ReproConfig(trace_length=5_000),
        benchmarks=[get_benchmark("spec2000/mcf/ref")],
        use_cache=False, jobs=1,
    )
    print(json.dumps(sorted(sys.modules)))
""")


def test_build_cli_service_and_phases_load_no_scipy():
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    done = subprocess.run(
        [sys.executable, "-c", BUILD_AND_PHASES],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "repro.phases.detect" in loaded
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []

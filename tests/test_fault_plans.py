"""How the fault injectors publish and withdraw their plans.

Worker, service and kill faults reach other processes through one
environment variable each.  These tests pin what the variable holds
inside the context (the plan the ``maybe_*`` hooks read) and that the
variable's previous value, or its absence, comes back on exit, also
when the body raises.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import pytest

from repro.perf import faults

INJECTORS = {
    "worker": (
        faults.inject_worker_faults, faults.WORKER_FAULTS_ENV,
        (faults.WorkerFault("mcf", mode="crash", times=2),
         faults.WorkerFault("gzip")),
    ),
    "service": (
        faults.inject_service_faults, faults.SERVICE_FAULTS_ENV,
        (faults.ServiceFault("*", mode="slow", seconds=0.5),),
    ),
    "kill": (
        faults.inject_kill_faults, faults.KILL_FAULTS_ENV,
        (faults.KillFault("writer-before-replace", after=3, times=2),),
    ),
}


@pytest.fixture(params=sorted(INJECTORS))
def injector(request, monkeypatch):
    inject, variable, plan = INJECTORS[request.param]
    monkeypatch.delenv(variable, raising=False)
    return inject, variable, plan


def test_plan_is_published_inside_the_context(injector, tmp_path):
    inject, variable, plan = injector
    state = tmp_path / "state" / "nested"
    with inject(plan, state):
        published = json.loads(os.environ[variable])
        assert state.is_dir()
    assert list(published) == ["state_dir", "faults"]
    assert published["state_dir"] == str(state)
    assert published["faults"] == [asdict(fault) for fault in plan]


def test_unset_variable_is_removed_on_exit(injector, tmp_path):
    inject, variable, plan = injector
    with inject(plan, tmp_path):
        assert variable in os.environ
    assert variable not in os.environ


def test_previous_value_is_restored_on_exit(
    injector, tmp_path, monkeypatch
):
    inject, variable, plan = injector
    monkeypatch.setenv(variable, "outer-plan")
    with inject(plan, tmp_path):
        assert os.environ[variable] != "outer-plan"
    assert os.environ[variable] == "outer-plan"


def test_variable_is_restored_when_the_body_raises(injector, tmp_path):
    inject, variable, plan = injector
    with pytest.raises(RuntimeError, match="body failed"):
        with inject(plan, tmp_path):
            raise RuntimeError("body failed")
    assert variable not in os.environ


def test_unknown_kill_seam_arms_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv(faults.KILL_FAULTS_ENV, raising=False)
    with pytest.raises(ValueError, match="unknown kill seam"):
        with faults.inject_kill_faults(
            [faults.KillFault("no-such-seam")], tmp_path / "state"
        ):
            pass
    assert faults.KILL_FAULTS_ENV not in os.environ
    assert not (tmp_path / "state").exists()

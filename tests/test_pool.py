"""Pool workers do not outlive the process that started them.

A ``jobs=2`` dataset build runs in a session of its own; once both of
its pool workers are up, the orchestrator alone is SIGKILLed.  The
workers must notice and exit by themselves: no live process of that
session may remain.  Two direct checks of the worker initializer pin
down the parts of that without timing: a worker handed the pid of an
orchestrator that died before it started exits, and a pool's workers
are children of the orchestrator and stay up while it lives.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.perf.pool import _exit_with_parent, new_executor

CHILD = textwrap.dedent("""
    import sys
    from pathlib import Path
    from repro.config import ReproConfig
    from repro.experiments import build_dataset
    from repro.workloads import all_benchmarks
    build_dataset(
        ReproConfig(trace_length=50_000),
        benchmarks=all_benchmarks()[:16],
        cache_dir=Path(sys.argv[1]), jobs=2)
    print("BUILD-FINISHED")
""")


def _live_session_members(session: int) -> "list[int]":
    """Pids of non-zombie processes whose session id is ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while scanning
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry.name))
    return members


def _wait_for(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def _watch_then_idle(parent: int) -> None:
    try:
        _exit_with_parent(parent)
    except BaseException:
        os._exit(2)
    time.sleep(60)
    os._exit(0)


def test_a_worker_whose_orchestrator_died_before_it_started_exits():
    # The worker's own parent (this process) is alive; only the pid it
    # is handed, of a process that has already exited, is gone.
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    worker = multiprocessing.get_context("fork").Process(
        target=_watch_then_idle, args=(dead.pid,)
    )
    worker.start()
    worker.join(timeout=10)
    if worker.is_alive():
        worker.kill()
        worker.join()
    assert worker.exitcode == 1


def test_pool_workers_are_children_that_outlast_several_polls():
    with new_executor(2) as pool:
        pool.submit(time.sleep, 1.0).result()
        assert pool.submit(os.getppid).result() == os.getpid()


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)
def test_workers_exit_when_the_orchestrator_is_killed(tmp_path):
    import repro

    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    with open(tmp_path / "child.log", "w+") as log:
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(tmp_path / "cache")],
            env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )

        def state(problem: str) -> str:
            # Read by path: seeking ``log`` would move the child's offset.
            return (
                f"{problem}; live session members: "
                f"{_live_session_members(proc.pid)}; child.log:\n"
                f"{(tmp_path / 'child.log').read_text()}"
            )

        try:
            assert _wait_for(
                lambda: len(_live_session_members(proc.pid)) >= 3, 60
            ), state("the build never started both pool workers")
            assert proc.poll() is None, state("the build finished too early")
            os.kill(proc.pid, signal.SIGKILL)
            assert proc.wait(timeout=10) == -signal.SIGKILL, state(
                "the orchestrator did not die of SIGKILL"
            )
            gone = _wait_for(
                lambda: not _live_session_members(proc.pid), 10
            )
            assert gone, state("pool workers outlived their killed parent")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        log.seek(0)
        assert "BUILD-FINISHED" not in log.read(), state(
            "the killed build still finished"
        )

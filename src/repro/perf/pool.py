"""Executors for the dataset builder.

:func:`new_executor` is the one way a build gets an executor, so
``jobs=1`` and ``jobs=N`` differ only in the object it returns:

* ``worker_count <= 1``: an :class:`InlineExecutor` that runs each call
  in-process (no pool, no pickling), fed a window of one call;
* otherwise a :class:`~concurrent.futures.ProcessPoolExecutor` fed up
  to :func:`in_flight_window` calls, whose workers exit by themselves
  once the process that started them is gone — a SIGKILLed build
  leaves no idle pool behind.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor

#: Calls kept in flight per pool worker: enough to keep the pool fed
#: between completions, few enough that one worker crash takes down
#: only a handful of pool-mates.
_WINDOW_PER_WORKER = 2

#: Seconds between a pool worker's checks that its parent is alive.
_PARENT_POLL_SECONDS = 0.25


class InlineExecutor(Executor):
    """The ``jobs=1`` executor: ``submit`` runs the call in-process.

    No pool and no pickling; the returned future is already finished.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Run ``fn(*args, **kwargs)`` now; return its finished future."""
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        # repro: lint-ok[typed-errors] the future carries the error to
        # its caller's result(), as a pool future would
        except Exception as error:
            future.set_exception(error)
        return future


def _exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: exit once process ``parent`` is gone.

    A dead parent re-parents the worker, so its ``getppid()`` changes;
    a daemon thread polls for that and ends the process.  ``parent``
    comes from the orchestrator: one killed before this call runs has
    already re-parented the worker, so ``getppid()`` here would not do.
    The orchestrator must be the worker's parent, hence the pool forks.
    """
    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def new_executor(worker_count: int) -> Executor:
    """An inline executor for one worker, else a parent-bound pool."""
    if worker_count <= 1:
        return InlineExecutor()
    return ProcessPoolExecutor(
        max_workers=worker_count,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_exit_with_parent, initargs=(os.getpid(),),
    )


def in_flight_window(worker_count: int) -> int:
    """Calls to keep submitted to :func:`new_executor`'s executor."""
    return 1 if worker_count <= 1 else _WINDOW_PER_WORKER * worker_count

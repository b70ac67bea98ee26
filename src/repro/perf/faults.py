"""Deterministic fault injection for the cache hierarchy and builds.

The robustness tier-1 tests (and, later, the service layer's chaos
checks) need *reproducible* failure: the same seed, the same fault, the
same outcome, every run.  Three injector families live here:

* **Entry corruption** — :func:`corrupt_entry` damages one cache
  ``.npz`` in a chosen mode (:data:`CORRUPTION_MODES`), seeded, so a
  test can assert that every mode reads back as a verified miss and
  quarantines the file:

  - ``truncate``   — drop the second half of the file's bytes.
  - ``bitflip``    — flip one seeded bit inside a payload array while
    keeping the original metadata (exercises the payload checksum, not
    the zip CRC).
  - ``wrong_shape``— rewrite one payload array with a different shape
    and *freshly consistent* metadata (only expected-shape validation
    can catch it).
  - ``wrong_version`` — re-stamp valid payloads with a stale semantic
    version.
  - ``foreign``    — re-stamp valid payloads as belonging to another
    cache level.

* **IO errors** — :func:`inject_io_faults` patches the
  :mod:`repro.perf.integrity` IO seams so the i-th store/load/rename
  call inside the context raises a chosen ``OSError`` (ENOSPC by
  default).  Call indices are explicit, hence deterministic.

* **Process kills** — :func:`inject_kill_faults` arms
  :func:`maybe_kill`, which is called at every journal and atomic-writer
  seam (before the write, between write and fsync/replace, after).  An
  armed kill SIGKILLs the *calling process* — the orchestrator or a
  pool worker, whichever reaches the seam — which is how the chaos
  tests prove torn-tail repair and resume convergence under real,
  uncatchable process death.  Hits are counted through the same
  ``O_CREAT | O_EXCL`` token files, so a seam that already fired does
  not fire again after the resumed process replays past it.

* **Chaos schedule** — :func:`chaos_schedule` expands one seed into a
  deterministic interleaving of every fault family above, for soak
  tests that run repeated build→kill→resume cycles.

* **Worker faults** — :func:`inject_worker_faults` arms
  :func:`maybe_fail_worker` (called by every dataset worker) through an
  environment variable, so faults cross the ``ProcessPoolExecutor``
  boundary.  A fault names its benchmark, a mode (``crash`` kills the
  worker process, ``error`` raises, ``timeout`` sleeps then raises
  ``TimeoutError``) and how many times to fire; firing is claimed
  through ``O_CREAT | O_EXCL`` token files in a state directory, so
  "fail the first N attempts, then succeed" holds across processes and
  retries.

Nothing here runs unless explicitly armed: ``maybe_fail_worker`` is a
no-op without the environment variable, and the IO seams are only
patched inside the context manager.
"""

from __future__ import annotations

import errno as errno_module
import hashlib
import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from . import integrity

#: Supported :func:`corrupt_entry` modes.
CORRUPTION_MODES = (
    "truncate", "bitflip", "wrong_shape", "wrong_version", "foreign",
)

#: Environment variable carrying the armed worker-fault plan.
WORKER_FAULTS_ENV = "REPRO_WORKER_FAULTS"

#: Environment variable carrying the armed service-fault plan.
SERVICE_FAULTS_ENV = "REPRO_SERVICE_FAULTS"

#: Environment variable carrying the armed process-kill plan.
KILL_FAULTS_ENV = "REPRO_KILL_FAULTS"

#: Every seam :func:`maybe_kill` is called from.  ``journal-*`` seams
#: bracket the write-ahead journal's append/rotate IO
#: (:mod:`repro.perf.journal`); ``writer-*`` seams bracket the atomic
#: cache writer (:func:`repro.perf.integrity.write_entry`).
KILL_SEAMS = (
    "journal-append-before",
    "journal-append-unsynced",
    "journal-append-after",
    "journal-rotate-before-replace",
    "journal-rotate-after-replace",
    "writer-before-store",
    "writer-before-replace",
    "writer-after-replace",
)


class InjectedWorkerError(RuntimeError):
    """The failure raised by an armed ``error``-mode worker fault."""


# ---------------------------------------------------------------------------
# Entry corruption
# ---------------------------------------------------------------------------


def _read_raw(path: Path) -> "Tuple[Dict[str, np.ndarray], dict]":
    with np.load(path, allow_pickle=False) as archive:
        arrays = {
            name: archive[name]
            for name in archive.files
            if name != integrity.METADATA_FIELD
        }
        metadata = json.loads(str(archive[integrity.METADATA_FIELD][()]))
    return arrays, metadata


def _write_raw(
    path: Path, arrays: "Dict[str, np.ndarray]", metadata: dict
) -> None:
    payload = dict(arrays)
    payload[integrity.METADATA_FIELD] = np.array(json.dumps(metadata))
    np.savez(path, **payload)


def corrupt_entry(path: "Path | str", mode: str, seed: int = 0) -> Path:
    """Damage one cache entry in place, deterministically.

    Args:
        path: an existing integrity-stamped ``.npz`` entry.
        mode: one of :data:`CORRUPTION_MODES`.
        seed: drives every random choice (field, bit position), so the
            corrupted bytes are identical across runs.

    Returns:
        The (same) path, now holding the corrupted entry.
    """
    path = Path(path)
    if mode not in CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; pick one of "
            f"{CORRUPTION_MODES}"
        )
    rng = np.random.default_rng(seed)
    if mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
        return path

    arrays, metadata = _read_raw(path)
    field = sorted(arrays)[int(rng.integers(len(arrays)))]
    if mode == "bitflip":
        source = np.ascontiguousarray(arrays[field])
        buffer = bytearray(source.tobytes())
        position = int(rng.integers(len(buffer)))
        buffer[position] ^= 1 << int(rng.integers(8))
        arrays[field] = np.frombuffer(
            bytes(buffer), dtype=source.dtype
        ).reshape(source.shape)
        # Keep the original metadata: the recorded checksum no longer
        # matches the flipped payload, which is exactly the detection
        # path under test.
        _write_raw(path, arrays, metadata)
        return path

    if mode == "wrong_shape":
        flat = np.ascontiguousarray(arrays[field]).reshape(-1)
        arrays[field] = np.concatenate([flat, flat[:1]])
    level = metadata["level"]
    version = metadata["version"]
    if mode == "wrong_version":
        version = str(int(metadata["version"]) + 1)
    elif mode == "foreign":
        level = "foreign"
    # Re-stamp with freshly consistent metadata so the self-checksums
    # pass and only the targeted check (shape expectation, version,
    # level) can reject the entry.
    _write_raw(
        path, arrays, integrity.build_metadata(level, version, arrays)
    )
    return path


# ---------------------------------------------------------------------------
# IO errors at store/load/rename time
# ---------------------------------------------------------------------------

_IO_SEAMS = {"store": "_savez", "load": "_open_archive", "rename": "_replace"}


@contextmanager
def inject_io_faults(
    op: str,
    indices: "Iterable[int]" = (0,),
    errno: int = errno_module.ENOSPC,
    partial_write: bool = False,
):
    """Raise ``OSError(errno)`` on chosen calls to one IO operation.

    Args:
        op: ``"store"`` (the npz writer), ``"load"`` (archive open) or
            ``"rename"`` (the atomic replace).
        indices: 0-based call indices, counted within this context,
            that fail.  Everything else passes through.
        errno: the error to raise (default ENOSPC — disk full).
        partial_write: for ``store`` faults, first leave a partial
            temporary file behind (as a writer dying mid-write would),
            then raise.
    """
    if op not in _IO_SEAMS:
        raise ValueError(f"unknown io op {op!r}; pick one of "
                         f"{tuple(_IO_SEAMS)}")
    attribute = _IO_SEAMS[op]
    original = getattr(integrity, attribute)
    counter = itertools.count()
    failing = frozenset(indices)

    def seam(*args, **kwargs):
        if next(counter) in failing:
            if partial_write and op == "store":
                Path(args[0]).write_bytes(b"partial write")
            raise OSError(
                errno, f"{os.strerror(errno)} [injected {op} fault]"
            )
        return original(*args, **kwargs)

    setattr(integrity, attribute, seam)
    try:
        yield
    finally:
        setattr(integrity, attribute, original)


# ---------------------------------------------------------------------------
# Worker crashes / errors / timeouts
# ---------------------------------------------------------------------------


@contextmanager
def _armed_plan(variable: str, faults: "Sequence", state_dir: "Path | str"):
    """Publish a fault plan through ``variable`` inside the context.

    The plan is ``{"state_dir", "faults"}`` JSON, one ``faults`` entry
    per fault dataclass; the variable's previous value (or absence) is
    restored on exit.
    """
    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    previous = os.environ.get(variable)
    os.environ[variable] = json.dumps({
        "state_dir": str(state),
        "faults": [asdict(fault) for fault in faults],
    })
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(variable, None)
        else:
            os.environ[variable] = previous


@dataclass(frozen=True)
class WorkerFault:
    """One armed fault for a dataset worker.

    Attributes:
        benchmark: the full benchmark name the fault targets.
        mode: ``"crash"`` (``os._exit`` — kills the pool process),
            ``"error"`` (raises :class:`InjectedWorkerError`) or
            ``"timeout"`` (sleeps briefly, then raises
            ``TimeoutError``).
        times: how many triggers before the benchmark succeeds.
    """

    benchmark: str
    mode: str = "error"
    times: int = 1


@contextmanager
def inject_worker_faults(
    faults: "Sequence[WorkerFault]", state_dir: "Path | str"
):
    """Arm worker faults for every dataset worker started inside.

    The plan travels via :data:`WORKER_FAULTS_ENV`, so it reaches
    ``ProcessPoolExecutor`` children (which inherit the environment at
    pool creation).  ``state_dir`` holds the cross-process trigger
    tokens; use a fresh directory per experiment so counts start at
    zero.
    """
    with _armed_plan(WORKER_FAULTS_ENV, faults, state_dir):
        yield


def _claim_trigger(
    state_dir: str, benchmark: str, times: int, namespace: str = "worker"
) -> bool:
    """Atomically claim one of the fault's remaining triggers."""
    token_base = hashlib.sha256(benchmark.encode()).hexdigest()[:16]
    for index in range(times):
        token = Path(state_dir) / (
            f"{namespace}-fault-{token_base}-{index}"
        )
        try:
            handle = os.open(
                token, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            continue
        os.close(handle)
        return True
    return False


# ---------------------------------------------------------------------------
# Service-seam faults (queue saturation, crash mid-request, slow handler)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceFault:
    """One armed fault for a characterization-service job.

    Attributes:
        benchmark: full benchmark name the fault targets (``"*"``
            matches every job — useful for saturating the queue).
        mode: ``"slow"`` (sleeps ``seconds`` inside the handler — the
            lever for queue-saturation and past-deadline experiments),
            ``"error"`` (raises :class:`InjectedWorkerError`) or
            ``"crash"`` (raises ``BrokenProcessPool``, the signature a
            dead worker process leaves behind — exercises the service's
            retry and circuit-breaker paths).
        times: how many triggers before the job succeeds.
        seconds: the ``slow`` mode's sleep.
    """

    benchmark: str
    mode: str = "error"
    times: int = 1
    seconds: float = 0.25


@contextmanager
def inject_service_faults(
    faults: "Sequence[ServiceFault]", state_dir: "Path | str"
):
    """Arm service-job faults inside the context.

    Mirrors :func:`inject_worker_faults` at the service seam: the plan
    travels through :data:`SERVICE_FAULTS_ENV` and triggers are claimed
    through ``O_CREAT | O_EXCL`` tokens in ``state_dir`` (namespaced
    apart from worker-fault tokens), so "fail the first N attempts,
    then succeed" holds across the service's retry rounds.
    """
    with _armed_plan(SERVICE_FAULTS_ENV, faults, state_dir):
        yield


def maybe_fail_service_job(benchmark: str) -> None:
    """Fire an armed service fault for this job, if triggers remain.

    Called by every service compute attempt; a no-op unless
    :func:`inject_service_faults` is active.
    """
    raw = os.environ.get(SERVICE_FAULTS_ENV)
    if not raw:
        return
    plan = json.loads(raw)
    for fault in plan["faults"]:
        if fault["benchmark"] not in ("*", benchmark):
            continue
        token_name = (
            benchmark if fault["benchmark"] != "*" else f"*:{benchmark}"
        )
        if not _claim_trigger(
            plan["state_dir"], token_name, int(fault["times"]),
            namespace="service",
        ):
            continue
        mode = fault["mode"]
        if mode == "slow":
            time.sleep(float(fault.get("seconds", 0.25)))
            return
        if mode == "crash":
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool(
                f"injected service worker crash for {benchmark}"
            )
        raise InjectedWorkerError(
            f"injected service failure for {benchmark}"
        )


def maybe_fail_worker(benchmark: str) -> None:
    """Fire an armed fault for this benchmark, if any triggers remain.

    Called by every dataset worker at the start of a job; a no-op
    unless :func:`inject_worker_faults` is active.
    """
    raw = os.environ.get(WORKER_FAULTS_ENV)
    if not raw:
        return
    plan = json.loads(raw)
    for fault in plan["faults"]:
        if fault["benchmark"] != benchmark:
            continue
        if not _claim_trigger(
            plan["state_dir"], benchmark, int(fault["times"])
        ):
            continue
        mode = fault["mode"]
        if mode == "crash":
            os._exit(17)
        if mode == "timeout":
            time.sleep(0.05)
            raise TimeoutError(
                f"injected worker timeout for {benchmark}"
            )
        raise InjectedWorkerError(
            f"injected worker failure for {benchmark}"
        )


# ---------------------------------------------------------------------------
# Process kills (SIGKILL at journal/writer seams)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KillFault:
    """One armed SIGKILL at a journal or writer seam.

    Attributes:
        seam: the :data:`KILL_SEAMS` name the kill fires at.
        after: how many hits of the seam to let pass first (0 kills on
            the very first hit).  Hits are counted across *all*
            processes and across resume cycles, so the same armed plan
            kills once and then lets the resumed run sail past.
        times: how many consecutive hits (starting at ``after``) die.
    """

    seam: str
    after: int = 0
    times: int = 1


@contextmanager
def inject_kill_faults(
    faults: "Sequence[KillFault]", state_dir: "Path | str"
):
    """Arm process kills for every seam hit inside the context.

    The plan travels via :data:`KILL_FAULTS_ENV` (reaching pool workers
    the way worker faults do); hit counting lives in ``O_CREAT |
    O_EXCL`` token files under ``state_dir``, so it is global across
    the orchestrator, its workers, and any process resumed after a
    kill.  Use a fresh ``state_dir`` per experiment so counts start at
    zero.

    A fired kill is ``SIGKILL`` — uncatchable, no ``atexit``, no
    ``finally`` — which is the point: the surviving on-disk state is
    exactly what the durability machinery must recover from.
    """
    for fault in faults:
        if fault.seam not in KILL_SEAMS:
            raise ValueError(
                f"unknown kill seam {fault.seam!r}; pick one of "
                f"{KILL_SEAMS}"
            )
    with _armed_plan(KILL_FAULTS_ENV, faults, state_dir):
        yield


def _claim_hit_index(state_dir: str, seam: str) -> int:
    """Atomically claim this process's hit number for a seam.

    Token files enumerate hits from 0; the first ``O_EXCL`` create that
    succeeds is this call's global hit index.  Linear probing is O(hits
    so far), which is negligible at test scale and keeps the counter
    crash-safe with no shared state beyond the filesystem.
    """
    token_base = hashlib.sha256(seam.encode()).hexdigest()[:16]
    index = 0
    while True:
        token = Path(state_dir) / f"kill-{token_base}-hit-{index}"
        try:
            handle = os.open(
                token, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            index += 1
            continue
        os.close(handle)
        return index


def maybe_kill(seam: str) -> None:
    """SIGKILL the calling process if a kill fault is armed for ``seam``.

    Called by the journal and the atomic cache writer at every seam a
    crash could land; a no-op (without touching the filesystem) unless
    :func:`inject_kill_faults` is active and the plan names the seam.
    """
    raw = os.environ.get(KILL_FAULTS_ENV)
    if not raw:
        return
    plan = json.loads(raw)
    matching = [
        fault for fault in plan["faults"] if fault["seam"] == seam
    ]
    if not matching:
        return
    hit = _claim_hit_index(plan["state_dir"], seam)
    for fault in matching:
        after = int(fault.get("after", 0))
        times = int(fault.get("times", 1))
        if after <= hit < after + times:
            os.kill(os.getpid(), 9)
            time.sleep(30)  # pragma: no cover - SIGKILL is not instant


# ---------------------------------------------------------------------------
# Chaos schedule (seeded interleaving of every fault family)
# ---------------------------------------------------------------------------


def chaos_schedule(seed: int, rounds: int) -> "Tuple[dict, ...]":
    """Expand one seed into a deterministic chaos plan.

    Each round is a dict describing one disturbance to apply to a
    build→kill→resume (or serve→kill→restart) cycle:

    - ``{"kind": "kill", "seam": s, "after": n}`` — arm
      :func:`inject_kill_faults` at seam ``s`` after ``n`` hits.
    - ``{"kind": "corrupt", "mode": m, "seed": k}`` — damage one cache
      entry with :func:`corrupt_entry`.
    - ``{"kind": "worker", "mode": m}`` — arm one worker fault
      (``crash``/``error``/``timeout``) on a scheduled benchmark.
    - ``{"kind": "io", "op": o, "index": i}`` — one injected IO error.
    - ``{"kind": "service", "mode": m}`` — arm one service-job fault.
    - ``{"kind": "none"}`` — a clean control round.

    The same ``(seed, rounds)`` always yields the same plan, so a soak
    failure reproduces from its logged seed alone.
    """
    rng = np.random.default_rng(seed)
    kinds = ("kill", "corrupt", "worker", "io", "service", "none")
    worker_modes = ("crash", "error", "timeout")
    service_modes = ("slow", "error", "crash")
    io_ops = ("store", "load", "rename")
    plan = []
    for _ in range(max(0, int(rounds))):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "kill":
            plan.append({
                "kind": "kill",
                "seam": KILL_SEAMS[int(rng.integers(len(KILL_SEAMS)))],
                "after": int(rng.integers(3)),
            })
        elif kind == "corrupt":
            plan.append({
                "kind": "corrupt",
                "mode": CORRUPTION_MODES[
                    int(rng.integers(len(CORRUPTION_MODES)))
                ],
                "seed": int(rng.integers(2**31)),
            })
        elif kind == "worker":
            plan.append({
                "kind": "worker",
                "mode": worker_modes[
                    int(rng.integers(len(worker_modes)))
                ],
            })
        elif kind == "io":
            plan.append({
                "kind": "io",
                "op": io_ops[int(rng.integers(len(io_ops)))],
                "index": int(rng.integers(3)),
            })
        elif kind == "service":
            plan.append({
                "kind": "service",
                "mode": service_modes[
                    int(rng.integers(len(service_modes)))
                ],
            })
        else:
            plan.append({"kind": "none"})
    return tuple(plan)

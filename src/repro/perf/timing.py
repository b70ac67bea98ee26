"""MICA engine bench: every vectorized engine against its retained spec.

Each engine in this repo is pinned bit-for-bit to a scalar
``*_reference`` specification by the equivalence suites; what this
harness adds is the evidence that each engine is still *faster* than
its spec.  :data:`ROWS` is the registry: one ``(name, floor group,
engine, reference)`` row per retained pair, all timed on one shared
workload (one registry-profile trace plus the inputs derived from it)
by one best-of-N loop.  End-to-end and per-layer times live in
``e2e_bench/``, not here.

:func:`run_bench` returns a :class:`BenchResult`, serialized to
``BENCH_mica.json`` (schema ``BENCH_mica/v8``):

* ``meta`` — trace length, profile, repeats, the phase ``interval``
  the timeline rows used, Python version and machine.
* ``engines.<row>`` — ``seconds`` (best-of-N engine time),
  ``reference_seconds`` (best-of-N reference time on the same inputs),
  ``speedup`` (their ratio) and the row's floor ``group`` (``null``
  for rows that are reported but not gated).
* ``speedups.<group>`` — Σ reference seconds / Σ engine seconds over
  the group's rows; these are the keys ``benchmarks/perf/floors.json``
  gates.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import ConfigurationError
from ..mica.ilp import ilp_ipc, ilp_ipc_reference, producer_indices
from ..mica.ilp import producer_indices_reference
from ..mica.ppm import ppm_predictabilities, ppm_predictabilities_reference
from ..synth import generate_trace
from ..synth import generator
from ..synth import code as synth_code
from ..synth.code import StaticCode
from ..synth.profiles import WorkloadProfile
from ..synth.rng import make_rng
from ..trace import Trace
from ..uarch import (
    EV56_CONFIG,
    EV67_CONFIG,
    InOrderModel,
    MachineEvents,
    OutOfOrderModel,
    SetAssociativeCache,
    TLB,
    simulate_predictor,
    simulate_predictor_reference,
)
from ..uarch.events import simulate_events
from ..workloads import get_benchmark

#: Schema tag of ``BENCH_mica.json``.
BENCH_SCHEMA = "BENCH_mica/v8"

#: Default benchmark workload: a registry profile with a typical mix.
DEFAULT_BENCH_PROFILE = "spec2000/vpr/place"

#: Instructions per interval of the timeline rows (shrunk on short traces).
PHASE_INTERVAL = 5_000

#: Busy-wait before the first timed run: a cold core never reaches steady
#: clocks inside the short engine runs, which would bias every ratio
#: against the faster path.
WARMUP_SECONDS = 1.0


@dataclass(frozen=True)
class _Workload:
    """The shared inputs every row is timed on, built once per run."""

    config: ReproConfig
    profile: WorkloadProfile
    code: StaticCode
    trace: Trace
    interval: int
    producers: np.ndarray
    data_addresses: np.ndarray
    branch_pcs: np.ndarray
    branch_taken: np.ndarray
    events_ev56: MachineEvents
    events_ev67: MachineEvents
    visits: np.ndarray
    outcomes: np.ndarray
    timeline: Callable[..., object]
    timeline_reference: Callable[..., object]

    @property
    def length(self) -> int:
        return self.config.trace_length

    @staticmethod
    def rng() -> np.random.Generator:
        return make_rng("bench", "generation")


def _phase_interval(length: int) -> int:
    # Short smoke traces get four intervals, so the timeline rows still
    # measure a segmented run rather than erroring out.
    if length >= 2 * PHASE_INTERVAL:
        return PHASE_INTERVAL
    return max(1, length // 4)


def _workload(config: ReproConfig, profile_name: str) -> _Workload:
    # Imported here, not at the top: repro.phases pulls in repro.analysis
    # (~30 ms), which a bare ``import repro.perf`` should not pay for.
    from ..phases import mica_timeline, mica_timeline_reference

    profile = get_benchmark(profile_name).profile
    length = config.trace_length
    trace = generate_trace(profile, length)
    code = generator.code_for_profile(profile)
    # The reference expansion replays behavior objects; building them
    # is image set-up, not expansion, so it stays out of the timed rows.
    code.memory_behaviors()
    code.reset_state()
    visits, outcomes = generator._interpret(
        _Workload.rng(), code, profile, length
    )
    branches = np.flatnonzero(trace.branch_mask)
    return _Workload(
        config=config,
        profile=profile,
        code=code,
        trace=trace,
        interval=_phase_interval(length),
        producers=producer_indices(trace),
        data_addresses=trace.mem_addr[np.flatnonzero(trace.memory_mask)],
        branch_pcs=trace.pc[branches],
        branch_taken=trace.taken[branches].astype(bool),
        # Precomputed events isolate the pipeline rows from the event
        # simulation, exactly as collect_hpc callers can thread them.
        events_ev56=simulate_events(trace, EV56_CONFIG),
        events_ev67=simulate_events(trace, EV67_CONFIG),
        visits=visits,
        outcomes=outcomes,
        timeline=mica_timeline,
        timeline_reference=mica_timeline_reference,
    )


def _memory_plan(w: _Workload) -> np.ndarray:
    # Every pointer chase's cycle order is built, as the reference's
    # objects build theirs (production builds each on first visit).
    plan, _ = synth_code._assign_memory_behaviors(
        w.rng(), w.code.blocks, w.profile.memory
    )
    return plan.pointer_orders(plan.members["pointer"])


def _predictor(machine, runner) -> Callable[[_Workload], object]:
    return lambda w: runner(
        machine.make_predictor(), w.branch_pcs, w.branch_taken,
        return_mask=True,
    )


@dataclass(frozen=True)
class BenchRow:
    """One engine and its retained reference, timed on the same inputs.

    ``group`` names the floor the row counts toward (``None``: reported
    but not gated).  Every simulator is built fresh inside the timed
    call, exactly as production uses it.
    """

    name: str
    group: Optional[str]
    engine: Callable[[_Workload], object]
    reference: Callable[[_Workload], object]


#: The registry: every retained engine/reference pair the bench times.
ROWS: Tuple[BenchRow, ...] = (
    BenchRow(
        "ppm", "ppm",
        lambda w: ppm_predictabilities(w.trace, w.config.ppm_max_order),
        lambda w: ppm_predictabilities_reference(
            w.trace, w.config.ppm_max_order
        ),
    ),
    BenchRow(
        "ilp", "ilp",
        lambda w: ilp_ipc(
            w.trace, w.config.ilp_window_sizes, producers=w.producers
        ),
        lambda w: ilp_ipc_reference(
            w.trace, w.config.ilp_window_sizes, producers=w.producers
        ),
    ),
    BenchRow(
        "producer_indices", None,
        lambda w: producer_indices(w.trace),
        lambda w: producer_indices_reference(w.trace),
    ),
    BenchRow(
        "interpret", "generation",
        lambda w: generator._interpret(w.rng(), w.code, w.profile, w.length),
        lambda w: generator._interpret_reference(
            w.rng(), w.code, w.profile, w.length
        ),
    ),
    BenchRow(
        "memory_plan", None, _memory_plan,
        lambda w: synth_code._assign_memory_behaviors_reference(
            w.rng(), w.code.blocks, w.profile.memory
        ),
    ),
    BenchRow(
        "expand", "generation",
        lambda w: generator._expand(
            w.rng(), w.code, w.visits, w.outcomes, w.length
        ),
        lambda w: generator._expand_reference(
            w.rng(), w.code, w.visits, w.outcomes, w.length
        ),
    ),
    BenchRow(
        "events_ev56", "events",
        lambda w: simulate_events(w.trace, EV56_CONFIG),
        lambda w: simulate_events(w.trace, EV56_CONFIG, engine="reference"),
    ),
    BenchRow(
        "events_ev67", "events",
        lambda w: simulate_events(w.trace, EV67_CONFIG),
        lambda w: simulate_events(w.trace, EV67_CONFIG, engine="reference"),
    ),
    BenchRow(
        "pipeline_ev56", "pipelines",
        lambda w: InOrderModel(EV56_CONFIG).run(w.trace, events=w.events_ev56),
        lambda w: InOrderModel(EV56_CONFIG).run_reference(
            w.trace, events=w.events_ev56
        ),
    ),
    BenchRow(
        "pipeline_ev67", "pipelines",
        lambda w: OutOfOrderModel(EV67_CONFIG).run(
            w.trace, events=w.events_ev67
        ),
        lambda w: OutOfOrderModel(EV67_CONFIG).run_reference(
            w.trace, events=w.events_ev67
        ),
    ),
    BenchRow(
        "cache_l1d", None,
        lambda w: SetAssociativeCache(EV67_CONFIG.l1d).simulate(
            w.data_addresses
        ),
        lambda w: SetAssociativeCache(EV67_CONFIG.l1d).simulate_reference(
            w.data_addresses
        ),
    ),
    BenchRow(
        "tlb", None,
        lambda w: TLB(
            EV56_CONFIG.tlb_entries, EV56_CONFIG.tlb_page_bytes
        ).simulate(w.data_addresses),
        lambda w: TLB(
            EV56_CONFIG.tlb_entries, EV56_CONFIG.tlb_page_bytes
        ).simulate_reference(w.data_addresses),
    ),
    BenchRow(
        "predictor_bimodal", None,
        _predictor(EV56_CONFIG, simulate_predictor),
        _predictor(EV56_CONFIG, simulate_predictor_reference),
    ),
    BenchRow(
        "predictor_tournament", None,
        _predictor(EV67_CONFIG, simulate_predictor),
        _predictor(EV67_CONFIG, simulate_predictor_reference),
    ),
    BenchRow(
        "mica_timeline", "phases",
        lambda w: w.timeline(w.trace, w.interval, config=w.config),
        lambda w: w.timeline_reference(w.trace, w.interval, config=w.config),
    ),
)

_GROUP_OF: Dict[str, Optional[str]] = {row.name: row.group for row in ROWS}

#: Floor groups in registry order: the keys of every ``floors.json`` tier.
FLOOR_GROUPS: Tuple[str, ...] = tuple(
    dict.fromkeys(row.group for row in ROWS if row.group is not None)
)


@dataclass(frozen=True)
class BenchResult:
    """One harness run.

    Attributes:
        profile: registry benchmark supplying the workload.
        trace_length: instructions in the shared trace.
        repeats: timing repetitions per side (the best is kept).
        seconds: row name -> (engine seconds, reference seconds).
    """

    profile: str
    trace_length: int
    repeats: int
    seconds: Mapping[str, Tuple[float, float]]

    @property
    def speedups(self) -> Dict[str, float]:
        """Σ reference / Σ engine seconds per floor group."""
        engine: Dict[str, float] = {}
        reference: Dict[str, float] = {}
        for name, (engine_s, reference_s) in self.seconds.items():
            group = _GROUP_OF[name]
            if group is not None:
                engine[group] = engine.get(group, 0.0) + engine_s
                reference[group] = reference.get(group, 0.0) + reference_s
        return {group: reference[group] / engine[group] for group in engine}

    def as_dict(self) -> dict:
        return {
            "schema": BENCH_SCHEMA,
            "meta": {
                "trace_length": self.trace_length,
                "profile": self.profile,
                "repeats": self.repeats,
                "interval": _phase_interval(self.trace_length),
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "engines": {
                name: {
                    "group": _GROUP_OF[name],
                    "seconds": engine_s,
                    "reference_seconds": reference_s,
                    "speedup": reference_s / engine_s,
                }
                for name, (engine_s, reference_s) in self.seconds.items()
            },
            "speedups": self.speedups,
        }

    def format(self) -> str:
        """Human-readable table of the run."""
        lines = [
            f"MICA perf harness — {self.profile}, "
            f"{self.trace_length:,} instructions, best of {self.repeats}",
            f"  {'engine':<22} {'engine ms':>10} {'reference ms':>13}"
            f" {'speedup':>8}  group",
        ]
        for name, (engine_s, reference_s) in self.seconds.items():
            lines.append(
                f"  {name:<22} {engine_s * 1e3:>10.2f}"
                f" {reference_s * 1e3:>13.2f}"
                f" {reference_s / engine_s:>7.2f}x  {_GROUP_OF[name] or '-'}"
            )
        for group, ratio in self.speedups.items():
            lines.append(f"  speedup[{group}]: {ratio:.2f}x vs reference")
        return "\n".join(lines)


def _best_of(
    fn: Callable[[_Workload], object], workload: _Workload, repeats: int
) -> float:
    best = math.inf
    for _ in range(repeats):
        # The generation rows consume the memoized code image's stateful
        # behaviors; rewind them outside the timed region.
        workload.code.reset_state()
        start = time.perf_counter()
        fn(workload)
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(
    config: ReproConfig = DEFAULT_CONFIG,
    profile_name: str = DEFAULT_BENCH_PROFILE,
    repeats: int = 3,
) -> BenchResult:
    """Time every :data:`ROWS` engine against its reference.

    Args:
        config: characterization parameters; its ``trace_length`` sets
            the shared trace's length.
        profile_name: registry benchmark supplying the workload profile.
        repeats: timing repetitions per side; the best (minimum) is kept.
    """
    if repeats < 1:
        raise ConfigurationError("bench repeats must be >= 1")
    workload = _workload(config, profile_name)
    deadline = time.perf_counter() + WARMUP_SECONDS
    while time.perf_counter() < deadline:
        pass
    # Every engine first, then every reference: a short engine timed
    # right after a long scalar loop tends to read slow.  Each engine
    # gets one untimed call first: its first run pays one-off costs
    # (allocator growth, first-touch page faults) that a long reference
    # loop amortizes.
    engine = {}
    for row in ROWS:
        _best_of(row.engine, workload, 1)
        engine[row.name] = _best_of(row.engine, workload, repeats)
    seconds = {
        row.name: (
            engine[row.name], _best_of(row.reference, workload, repeats)
        )
        for row in ROWS
    }
    return BenchResult(
        profile=profile_name,
        trace_length=workload.length,
        repeats=repeats,
        seconds=seconds,
    )


def write_bench_json(result: BenchResult, path: "Path | str") -> Path:
    """Serialize one harness run to ``BENCH_mica.json``."""
    destination = Path(path)
    # repro: lint-ok[durability] user-requested report export to an
    # explicit path; not cache state, so no integrity stamp is owed
    destination.write_text(json.dumps(result.as_dict(), indent=2) + "\n")
    return destination

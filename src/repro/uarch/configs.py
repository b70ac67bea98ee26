"""Machine configurations for the two Alpha processors the paper uses.

The numbers follow the published Alpha 21164A (EV56) and 21264A (EV67)
organizations closely enough for structural fidelity: cache geometries,
TLB reach, predictor style, issue width and representative latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import ConfigurationError
from .branch_predictors import (
    BimodalPredictor,
    BranchPredictor,
    TournamentPredictor,
)
from .cache import CacheConfig


@dataclass(frozen=True)
class LatencyModel:
    """Representative latencies, in cycles."""

    l1_hit: int
    l2_hit: int
    memory: int
    tlb_miss: int
    mispredict_penalty: int
    int_mul: int = 8
    fp_op: int = 4

    def __post_init__(self) -> None:
        # Both pipeline walks assume every stall term is >= 0.
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise ConfigurationError(
                    f"latency {field.name} must be >= 0, got {value}"
                )


@dataclass(frozen=True)
class MachineConfig:
    """One simulated machine."""

    name: str
    issue_width: int
    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    tlb_entries: int
    tlb_page_bytes: int
    latencies: LatencyModel
    predictor_kind: str = "bimodal"
    window_size: int = 0  # 0 for in-order machines.

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ConfigurationError(
                f"{self.name}: issue_width must be >= 1, "
                f"got {self.issue_width}"
            )
        if self.window_size < 0:
            raise ConfigurationError(
                f"{self.name}: window_size must be >= 0, "
                f"got {self.window_size}"
            )

    def make_predictor(self) -> BranchPredictor:
        """Instantiate a fresh branch predictor of the configured kind."""
        if self.predictor_kind == "bimodal":
            return BimodalPredictor(entries=2048)
        if self.predictor_kind == "tournament":
            return TournamentPredictor()
        raise ValueError(f"unknown predictor kind: {self.predictor_kind!r}")

    def fingerprint(self) -> str:
        """Stable hex digest of every field that shapes simulation.

        Two machines with equal fingerprints produce identical HPC
        metrics for the same trace, so the digest (together with a
        trace content hash and :data:`repro.uarch.HPC_SIM_VERSION`)
        keys the on-disk HPC cache in :mod:`repro.perf`.  Nested
        dataclasses are frozen, so their ``repr`` is deterministic.
        Memoized in the instance ``__dict__``, outside the fields (a
        ``dataclasses.replace`` copy has none).
        """
        memo = self.__dict__.get("_fingerprint")
        if memo is None:
            import hashlib

            memo = hashlib.sha256(repr(self).encode()).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", memo)
        return memo


#: Alpha 21164A: dual-issue in-order, tiny direct-mapped L1s, 96 KB
#: 3-way on-chip L2, 64-entry D-TLB, simple table predictor.
EV56_CONFIG = MachineConfig(
    name="alpha-21164a",
    issue_width=2,
    l1i=CacheConfig("L1I", size_bytes=8 << 10, line_bytes=32, associativity=1),
    l1d=CacheConfig("L1D", size_bytes=8 << 10, line_bytes=32, associativity=1),
    l2=CacheConfig("L2", size_bytes=96 << 10, line_bytes=64, associativity=3),
    tlb_entries=64,
    tlb_page_bytes=8 << 10,
    latencies=LatencyModel(
        l1_hit=2, l2_hit=8, memory=60, tlb_miss=40, mispredict_penalty=5
    ),
    predictor_kind="bimodal",
)

#: Alpha 21264A: four-wide out-of-order, 64 KB 2-way L1s, large
#: off-chip direct-mapped L2, tournament predictor, ~80-entry window.
EV67_CONFIG = MachineConfig(
    name="alpha-21264a",
    issue_width=4,
    l1i=CacheConfig("L1I", size_bytes=64 << 10, line_bytes=64, associativity=2),
    l1d=CacheConfig("L1D", size_bytes=64 << 10, line_bytes=64, associativity=2),
    l2=CacheConfig("L2", size_bytes=4 << 20, line_bytes=64, associativity=1),
    tlb_entries=128,
    tlb_page_bytes=8 << 10,
    latencies=LatencyModel(
        l1_hit=3, l2_hit=12, memory=80, tlb_miss=50, mispredict_penalty=7
    ),
    predictor_kind="tournament",
    window_size=80,
)

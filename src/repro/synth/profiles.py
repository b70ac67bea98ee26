"""Workload profiles: the knob set describing one synthetic benchmark.

A :class:`WorkloadProfile` is the reproduction's stand-in for "an Alpha
binary plus its input": a named, seeded bundle of interpretable knobs
from which :func:`repro.synth.generate_trace` produces the benchmark's
dynamic instruction trace.  The knob groups map one-to-one onto the
paper's characteristic categories:

========================  =============================================
knob group                paper characteristics shaped (Table II)
========================  =============================================
:class:`MixSpec`          instruction mix (1-6)
:class:`RegisterSpec`     ILP (7-10), register traffic (11-19)
:class:`CodeSpec`         I-stream working set (22-23), branch count
:class:`MemorySpec`       D-stream working set (20-21), strides (24-43)
:class:`BranchSpec`       branch predictability (44-47)
========================  =============================================
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Tuple

import numpy as np

from ..errors import ProfileError
from ..isa import OpClass
from .code import CodeSpec
from .memory import BEHAVIOR_KINDS

_MIX_TOLERANCE = 1e-6

#: Version tag mixed into profile fingerprints; bump when the knob
#: schema changes in a way that should invalidate keyed caches.
_FINGERPRINT_SCHEMA = "WorkloadProfile/v1"


def _canonical(value):
    """A deterministic, order-independent view of nested knob values."""
    if isinstance(value, dict):
        return tuple(
            (key, _canonical(item)) for key, item in sorted(value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    return value


@dataclass(frozen=True)
class MixSpec:
    """Dynamic instruction-mix fractions (must sum to one).

    The branch fraction also fixes the mean basic-block length
    (every block ends in a control transfer).
    """

    load: float = 0.25
    store: float = 0.10
    branch: float = 0.12
    int_alu: float = 0.45
    int_mul: float = 0.02
    fp: float = 0.06

    def __post_init__(self) -> None:
        values = (self.load, self.store, self.branch,
                  self.int_alu, self.int_mul, self.fp)
        if any(value < 0.0 for value in values):
            raise ProfileError("mix fractions must be non-negative")
        total = sum(values)
        if abs(total - 1.0) > 1e-3:
            raise ProfileError(f"mix fractions must sum to 1, got {total:.4f}")
        if self.branch <= 0.0:
            raise ProfileError("branch fraction must be positive")

    def as_dict(self) -> Dict[str, float]:
        """The six mix fractions keyed by class name."""
        return {
            "load": self.load,
            "store": self.store,
            "branch": self.branch,
            "int_alu": self.int_alu,
            "int_mul": self.int_mul,
            "fp": self.fp,
        }

    def body_distribution(self) -> Tuple[np.ndarray, np.ndarray]:
        """Classes and weights for non-terminator block slots.

        Branches live only in terminator slots, so the body distribution
        is the mix renormalized without the branch fraction.
        """
        classes = np.array(
            [
                int(OpClass.LOAD),
                int(OpClass.STORE),
                int(OpClass.INT_ALU),
                int(OpClass.INT_MUL),
                int(OpClass.FP),
            ],
            dtype=np.uint8,
        )
        weights = np.array(
            [self.load, self.store, self.int_alu, self.int_mul, self.fp],
            dtype=float,
        )
        total = weights.sum()
        if total <= 0.0:
            raise ProfileError("mix has no non-branch instructions")
        return classes, weights / total

    @classmethod
    def normalized(cls, **fractions: float) -> "MixSpec":
        """Build a mix from possibly unnormalized non-negative weights."""
        defaults = cls().as_dict()
        defaults.update(fractions)
        total = sum(defaults.values())
        if total <= 0.0:
            raise ProfileError("mix weights must have a positive sum")
        return cls(**{key: value / total for key, value in defaults.items()})


def _validated_behavior_mix(mix: Dict[str, float], label: str) -> Dict[str, float]:
    if not mix:
        raise ProfileError(f"{label} behavior mix must be non-empty")
    for kind, weight in mix.items():
        if kind not in BEHAVIOR_KINDS:
            raise ProfileError(f"{label}: unknown behavior kind {kind!r}")
        if weight < 0.0:
            raise ProfileError(f"{label}: negative weight for {kind!r}")
    if sum(mix.values()) <= 0.0:
        raise ProfileError(f"{label}: behavior weights must have positive sum")
    return dict(mix)


@dataclass(frozen=True)
class MemorySpec:
    """Data-access behavior knobs.

    Attributes:
        footprint_bytes: target data footprint, divided among the
            program's non-scalar memory instructions.
        load_mix: behavior-kind weights for static loads.
        store_mix: behavior-kind weights for static stores.
        stride_bytes: byte stride used by ``strided`` behaviors.
    """

    footprint_bytes: int = 1 << 20
    load_mix: Dict[str, float] = field(
        default_factory=lambda: {
            "scalar": 0.2,
            "sequential": 0.4,
            "strided": 0.2,
            "random": 0.15,
            "pointer": 0.05,
        }
    )
    store_mix: Dict[str, float] = field(
        default_factory=lambda: {
            "scalar": 0.35,
            "sequential": 0.4,
            "strided": 0.15,
            "random": 0.1,
        }
    )
    stride_bytes: int = 64

    def __post_init__(self) -> None:
        if self.footprint_bytes < 64:
            raise ProfileError("footprint_bytes must be >= 64")
        if self.stride_bytes <= 0 or self.stride_bytes % 8:
            raise ProfileError("stride_bytes must be a positive multiple of 8")
        object.__setattr__(
            self, "load_mix", _validated_behavior_mix(self.load_mix, "load_mix")
        )
        object.__setattr__(
            self,
            "store_mix",
            _validated_behavior_mix(self.store_mix, "store_mix"),
        )


@dataclass(frozen=True)
class RegisterSpec:
    """Register-dataflow knobs.

    Attributes:
        int_pool: number of distinct integer registers in rotation
            (2..30); smaller pools bound dependency distances.
        fp_pool: number of distinct FP registers in rotation (2..31).
        dep_mean: mean dependency age, in *producer* steps — a source
            operand reads the value written ``k`` producers ago with
            ``k`` geometric of this mean.  Small values serialize the
            program (low ILP); large values expose parallelism.
        two_op_fraction: probability that a compute instruction has a
            second register source.
        imm_fraction: probability that a compute instruction takes an
            immediate instead of a first register source.
    """

    int_pool: int = 20
    fp_pool: int = 16
    dep_mean: float = 4.0
    two_op_fraction: float = 0.6
    imm_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not 2 <= self.int_pool <= 30:
            raise ProfileError("int_pool must be within [2, 30]")
        if not 2 <= self.fp_pool <= 31:
            raise ProfileError("fp_pool must be within [2, 31]")
        if self.dep_mean < 1.0:
            raise ProfileError("dep_mean must be >= 1")
        if not 0.0 <= self.two_op_fraction <= 1.0:
            raise ProfileError("two_op_fraction must be in [0, 1]")
        if not 0.0 <= self.imm_fraction <= 1.0:
            raise ProfileError("imm_fraction must be in [0, 1]")

    @property
    def geometric_p(self) -> float:
        """Success probability of the geometric age distribution."""
        return min(1.0, 1.0 / self.dep_mean)


@dataclass(frozen=True)
class BranchSpec:
    """Data-dependent branch knobs.

    Attributes:
        pattern_fraction: fraction of diamond branches following a short
            periodic pattern (highly PPM-predictable).
        taken_bias: taken probability for biased-random diamonds; values
            near 0.5 minimize predictability.
        max_pattern_period: longest periodic pattern generated.
    """

    pattern_fraction: float = 0.5
    taken_bias: float = 0.35
    max_pattern_period: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.pattern_fraction <= 1.0:
            raise ProfileError("pattern_fraction must be in [0, 1]")
        if not 0.0 <= self.taken_bias <= 1.0:
            raise ProfileError("taken_bias must be in [0, 1]")
        if self.max_pattern_period < 2:
            raise ProfileError("max_pattern_period must be >= 2")


@dataclass(frozen=True)
class WorkloadProfile:
    """A complete synthetic benchmark description.

    Attributes:
        name: unique benchmark identifier (``suite/program/input``).
        mix: instruction-mix fractions.
        code: static code shape.
        memory: data-access behavior knobs.
        registers: register-dataflow knobs.
        branches: branch-model knobs.
        seed: extra seed component mixed into the benchmark RNG.
    """

    name: str
    mix: MixSpec = field(default_factory=MixSpec)
    code: CodeSpec = field(default_factory=CodeSpec)
    memory: MemorySpec = field(default_factory=MemorySpec)
    registers: RegisterSpec = field(default_factory=RegisterSpec)
    branches: BranchSpec = field(default_factory=BranchSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("profile name must be non-empty")

    def with_overrides(self, **kwargs) -> "WorkloadProfile":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **kwargs)

    def fingerprint(self) -> str:
        """Stable content hash of the complete knob set.

        Two profiles with equal knobs fingerprint identically across
        processes and platforms (behavior-mix dictionaries are compared
        by content, not insertion order).  Keys the static-code memo,
        the :mod:`repro.perf` trace cache and every
        :class:`~repro.synth.TraceRecipe`.

        Memoized in the instance ``__dict__``, outside the dataclass
        fields, so equality, ``asdict`` and ``replace`` never see it
        (a ``with_overrides`` copy starts without one).
        """
        memo = self.__dict__.get("_fingerprint")
        if memo is None:
            payload = repr((_FINGERPRINT_SCHEMA, _canonical(asdict(self))))
            memo = hashlib.sha256(payload.encode()).hexdigest()[:32]
            object.__setattr__(self, "_fingerprint", memo)
        return memo

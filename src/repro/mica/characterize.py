"""Full MICA characterization: one trace -> one 47-dimensional vector.

:func:`characterize` runs every analyzer in Table II order and wraps the
result in a :class:`CharacteristicVector`, which pairs values with the
schema for readable access and export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ReproConfig, DEFAULT_CONFIG
from ..errors import CharacterizationError
from ..trace import Trace
from .characteristics import (
    CHARACTERISTICS,
    NUM_CHARACTERISTICS,
    characteristic_by_key,
)
from .ilp import ilp_ipc, producer_indices
from .instruction_mix import instruction_mix
from .ppm import ppm_predictabilities
from .register_traffic import register_traffic
from .strides import stride_profile
from .working_set import working_set


@dataclass(frozen=True)
class CharacteristicVector:
    """A benchmark's 47 microarchitecture-independent characteristics.

    Attributes:
        name: benchmark identifier the vector was computed for.
        values: the 47 values, in Table II order.
    """

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (NUM_CHARACTERISTICS,):
            raise CharacterizationError(
                f"expected {NUM_CHARACTERISTICS} values, "
                f"got shape {self.values.shape}"
            )

    def __getitem__(self, key: str) -> float:
        """Value of one characteristic by schema key."""
        return float(self.values[characteristic_by_key(key).array_index])

    def as_dict(self) -> "dict[str, float]":
        """Mapping from schema key to value, in Table II order."""
        return {
            characteristic.key: float(self.values[characteristic.array_index])
            for characteristic in CHARACTERISTICS
        }

    def format(self, precision: int = 4) -> str:
        """Multi-line human-readable rendering grouped by category."""
        lines = [f"characteristics of {self.name or '<unnamed>'}"]
        category = None
        for characteristic in CHARACTERISTICS:
            if characteristic.category != category:
                category = characteristic.category
                lines.append(f"  [{category}]")
            value = self.values[characteristic.array_index]
            lines.append(
                f"    {characteristic.index:>2} "
                f"{characteristic.key:<28} {value:>{precision + 8}.{precision}f}"
            )
        return "\n".join(lines)


def characterize(
    trace: Trace, config: ReproConfig = DEFAULT_CONFIG
) -> CharacteristicVector:
    """Compute all 47 microarchitecture-independent characteristics.

    One pass over an in-memory trace.

    Args:
        trace: the dynamic instruction trace to characterize.
        config: reproduction configuration (window sizes, thresholds,
            granularities, PPM order).

    Returns:
        The benchmark's :class:`CharacteristicVector`.

    Raises:
        CharacterizationError: for an empty trace.
    """
    if len(trace) == 0:
        raise CharacterizationError("cannot characterize an empty trace")
    producers = producer_indices(trace)
    sections = [
        instruction_mix(trace),
        ilp_ipc(trace, config.ilp_window_sizes, producers=producers),
        register_traffic(
            trace, config.reg_dep_thresholds, producers=producers
        ),
        working_set(trace, config.block_bytes, config.page_bytes),
        stride_profile(trace, config.stride_thresholds),
        ppm_predictabilities(trace, config.ppm_max_order),
    ]
    values = np.concatenate(sections)
    return CharacteristicVector(name=trace.name, values=values)

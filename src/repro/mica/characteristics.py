"""The characteristic schema: Table II of the paper.

The 47 microarchitecture-independent characteristics, their categories,
1-based paper indices, and short keys.  All characteristic vectors
produced by :func:`repro.mica.characterize` follow this order exactly,
so the schema is the single source of truth for indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import CharacterizationError


@dataclass(frozen=True)
class Characteristic:
    """One microarchitecture-independent characteristic.

    Attributes:
        index: 1-based index as in the paper's Table II.
        key: short stable identifier (used in exports and tests).
        category: Table II category name.
        description: human-readable description.
    """

    index: int
    key: str
    category: str
    description: str

    @property
    def array_index(self) -> int:
        """0-based position in characteristic vectors."""
        return self.index - 1


def _build_schema() -> Tuple[Characteristic, ...]:
    entries: List[Tuple[str, str, str]] = []

    def add(key: str, category: str, description: str) -> None:
        entries.append((key, category, description))

    add("mix_loads", "instruction mix", "percentage loads")
    add("mix_stores", "instruction mix", "percentage stores")
    add("mix_branches", "instruction mix", "percentage control transfers")
    add("mix_arith", "instruction mix", "percentage arithmetic operations")
    add("mix_int_mul", "instruction mix", "percentage integer multiplies")
    add("mix_fp", "instruction mix", "percentage fp operations")

    for window in (32, 64, 128, 256):
        add(f"ilp_w{window}", "ILP", f"ideal IPC with a {window}-entry window")

    add("reg_input_operands", "register traffic",
        "avg. number of input operands")
    add("reg_degree_of_use", "register traffic", "avg. degree of use")
    add("reg_dep_eq1", "register traffic", "prob. register dependence = 1")
    for bound in (2, 4, 8, 16, 32, 64):
        add(f"reg_dep_le{bound}", "register traffic",
            f"prob. register dependence <= {bound}")

    add("ws_data_blocks", "working set size",
        "D-stream working set, 32-byte blocks")
    add("ws_data_pages", "working set size",
        "D-stream working set, 4KB pages")
    add("ws_instr_blocks", "working set size",
        "I-stream working set, 32-byte blocks")
    add("ws_instr_pages", "working set size",
        "I-stream working set, 4KB pages")

    # Table II order: local load, global load, local store, global store.
    for op_scope in ("local_load", "global_load", "local_store", "global_store"):
        scope, op = op_scope.split("_")
        add(f"stride_{op_scope}_eq0", "data stream strides",
            f"prob. {scope} {op} stride = 0")
        for bound in (8, 64, 512, 4096):
            add(f"stride_{op_scope}_le{bound}", "data stream strides",
                f"prob. {scope} {op} stride <= {bound}")

    for variant in ("GAg", "PAg", "GAs", "PAs"):
        add(f"ppm_{variant}", "branch predictability",
            f"{variant} PPM predictor accuracy")

    return tuple(
        Characteristic(index=position + 1, key=key, category=category,
                       description=description)
        for position, (key, category, description) in enumerate(entries)
    )


#: The full Table II schema, in paper order.
CHARACTERISTICS: Tuple[Characteristic, ...] = _build_schema()

#: Number of characteristics (47).
NUM_CHARACTERISTICS = len(CHARACTERISTICS)

_BY_KEY: Dict[str, Characteristic] = {
    characteristic.key: characteristic for characteristic in CHARACTERISTICS
}


def characteristic_by_key(key: str) -> Characteristic:
    """Look up a characteristic by its short key.

    Raises:
        KeyError: if the key is unknown.
    """
    return _BY_KEY[key]


def characteristic_names() -> List[str]:
    """All 47 keys, in Table II order."""
    return [characteristic.key for characteristic in CHARACTERISTICS]


def category_slices() -> Dict[str, slice]:
    """0-based vector slice covered by each Table II category."""
    slices: Dict[str, slice] = {}
    start = 0
    current = CHARACTERISTICS[0].category
    for position, characteristic in enumerate(CHARACTERISTICS):
        if characteristic.category != current:
            slices[current] = slice(start, position)
            start = position
            current = characteristic.category
    slices[current] = slice(start, len(CHARACTERISTICS))
    return slices


_SLICES = category_slices()


def resolve_wanted(
    categories: "Optional[Iterable[str]]" = None,
    indices: "Optional[Iterable[int]]" = None,
) -> np.ndarray:
    """The 47-entry mask of characteristics a partial request wants.

    Everything is wanted when neither argument is given; otherwise the
    union of the named categories' slices and the listed 0-based
    indices.

    Raises:
        CharacterizationError: unknown category name or out-of-range
            characteristic index.
    """
    wanted = np.zeros(NUM_CHARACTERISTICS, dtype=bool)
    if categories is None and indices is None:
        wanted[:] = True
        return wanted
    if categories is not None:
        categories = tuple(categories)
        unknown = set(categories) - set(_SLICES)
        if unknown:
            raise CharacterizationError(
                f"unknown Table II categories: {sorted(unknown)}"
            )
        for category in categories:
            wanted[_SLICES[category]] = True
    if indices is not None:
        for index in indices:
            if not 0 <= int(index) < NUM_CHARACTERISTICS:
                raise CharacterizationError(
                    f"characteristic index out of range: {index}"
                )
            wanted[int(index)] = True
    return wanted


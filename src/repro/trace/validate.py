"""Trace invariant validation.

External traces (read through :mod:`repro.trace.io`) come from tooling
the library does not control, so analyzers assume traces have passed
:func:`validate_trace` once at the boundary rather than re-checking
invariants per record.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from ..isa import NO_REG, OpClass
from ..isa.opclass import MEMORY_CLASSES
from ..isa.registers import TOTAL_REGS
from .trace import Trace


#: Lookup tables over every ``uint8`` opclass value.
_VALID_CLASS = np.isin(np.arange(256), list(OpClass))
_MEMORY_CLASS = np.isin(np.arange(256), list(MEMORY_CLASSES))


def validate_trace(trace: Trace) -> None:
    """Check all trace invariants, raising :class:`TraceError` on the
    first violation.

    Invariants:

    * every opclass value names a member of :class:`OpClass`;
    * register fields are either valid flat indices or :data:`NO_REG`;
    * loads and stores carry a nonzero memory address;
    * non-memory instructions carry a zero memory address;
    * only control transfers are marked taken;
    * taken control transfers carry a nonzero target.
    """
    if len(trace) == 0:
        return
    opclass = trace.opclass

    invalid = ~_VALID_CLASS[opclass]
    if invalid.any():
        bad = opclass[invalid][0]
        raise TraceError(f"invalid opclass value: {int(bad)}")

    for field in ("src1", "src2", "dst"):
        column = getattr(trace, field)
        bad_mask = (column != NO_REG) & (column >= TOTAL_REGS)
        if bad_mask.any():
            raise TraceError(
                f"invalid {field} register index: {int(column[bad_mask][0])}"
            )

    memory_mask = _MEMORY_CLASS[opclass]
    if (trace.mem_addr[memory_mask] == 0).any():
        raise TraceError("memory instruction with zero address")
    if (trace.mem_addr[~memory_mask] != 0).any():
        raise TraceError("non-memory instruction with nonzero address")

    branch_mask = opclass == int(OpClass.BRANCH)
    if (trace.taken[~branch_mask] != 0).any():
        raise TraceError("non-branch instruction marked taken")
    taken_branches = branch_mask & (trace.taken != 0)
    if (trace.target[taken_branches] == 0).any():
        raise TraceError("taken branch with zero target")

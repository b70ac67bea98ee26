"""Incremental trace construction.

:class:`TraceBuilder` accumulates dynamic instructions in growable column
buffers and finalizes them into an immutable :class:`~repro.trace.Trace`.
It offers one low-level ``append`` plus typed helpers (``load``, ``store``,
``branch``, ``alu``, ...) that keep call sites readable and enforce the
per-class field invariants at construction time.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from ..isa import NO_REG, OpClass, TRACE_DTYPE
from ..isa.registers import is_valid_register
from .trace import Trace

_INITIAL_CAPACITY = 1024


class TraceBuilder:
    """Builds a :class:`Trace` one instruction at a time."""

    def __init__(self, name: str = "", capacity: int = _INITIAL_CAPACITY):
        self.name = name
        self._buffer = np.empty(max(capacity, 1), dtype=TRACE_DTYPE)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        new_buffer = np.empty(len(self._buffer) * 2, dtype=TRACE_DTYPE)
        new_buffer[: self._size] = self._buffer[: self._size]
        self._buffer = new_buffer

    def append(
        self,
        pc: int,
        opclass: OpClass,
        src1: int = NO_REG,
        src2: int = NO_REG,
        dst: int = NO_REG,
        mem_addr: int = 0,
        taken: bool = False,
        target: int = 0,
    ) -> None:
        """Append one dynamic instruction.

        Raises:
            TraceError: if register indices are invalid or class/field
                invariants are violated.
        """
        for slot, reg in (("src1", src1), ("src2", src2), ("dst", dst)):
            if not is_valid_register(reg):
                raise TraceError(f"{slot} register index out of range: {reg}")
        if opclass.is_memory and mem_addr == 0:
            raise TraceError("memory instruction requires nonzero mem_addr")
        if not opclass.is_memory and mem_addr != 0:
            raise TraceError("non-memory instruction must have mem_addr == 0")
        if self._size == len(self._buffer):
            self._grow()
        row = self._buffer[self._size]
        row["pc"] = pc
        row["opclass"] = int(opclass)
        row["src1"] = src1
        row["src2"] = src2
        row["dst"] = dst
        row["mem_addr"] = mem_addr
        row["taken"] = int(taken)
        row["target"] = target
        self._size += 1

    # -- typed helpers ---------------------------------------------------------

    def load(self, pc: int, dst: int, addr_reg: int, mem_addr: int) -> None:
        """Append a load: ``dst <- mem[mem_addr]`` (address from addr_reg)."""
        self.append(pc, OpClass.LOAD, src1=addr_reg, dst=dst, mem_addr=mem_addr)

    def store(self, pc: int, value_reg: int, addr_reg: int, mem_addr: int) -> None:
        """Append a store: ``mem[mem_addr] <- value_reg``."""
        self.append(
            pc, OpClass.STORE, src1=value_reg, src2=addr_reg, mem_addr=mem_addr
        )

    def branch(
        self, pc: int, cond_reg: int, taken: bool, target: int
    ) -> None:
        """Append a conditional branch testing ``cond_reg``."""
        self.append(
            pc, OpClass.BRANCH, src1=cond_reg, taken=taken, target=target
        )

    def jump(self, pc: int, target: int) -> None:
        """Append an unconditional (always-taken) control transfer."""
        self.append(pc, OpClass.BRANCH, taken=True, target=target)

    def alu(self, pc: int, dst: int, src1: int = NO_REG, src2: int = NO_REG) -> None:
        """Append an integer ALU operation."""
        self.append(pc, OpClass.INT_ALU, src1=src1, src2=src2, dst=dst)

    def mul(self, pc: int, dst: int, src1: int, src2: int) -> None:
        """Append an integer multiply."""
        self.append(pc, OpClass.INT_MUL, src1=src1, src2=src2, dst=dst)

    def fp(self, pc: int, dst: int, src1: int = NO_REG, src2: int = NO_REG) -> None:
        """Append a floating-point operation."""
        self.append(pc, OpClass.FP, src1=src1, src2=src2, dst=dst)

    def nop(self, pc: int) -> None:
        """Append a no-op."""
        self.append(pc, OpClass.NOP)

    # -- finalization ------------------------------------------------------------

    def build(self) -> Trace:
        """Finalize into an immutable :class:`Trace`.

        The builder may continue to be used after calling ``build``; the
        returned trace holds its own columns, split from the accumulated
        records.
        """
        return Trace(self._buffer[: self._size], name=self.name)

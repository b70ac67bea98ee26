"""Dynamic instruction record and the columnar trace dtype.

A dynamic instruction carries exactly the information an ATOM
instrumentation pass observes when a benchmark executes:

* the program counter (``pc``),
* the instruction class (``opclass``),
* up to two source registers and one destination register,
* the effective data memory address for loads/stores (``mem_addr``),
* the taken/not-taken outcome and target for branches.

Traces store millions of these records.  Their byte representation (on
disk, in the trace cache and under every content hash) is packed rows of
dtype :data:`TRACE_DTYPE`; in memory a :class:`repro.trace.Trace` holds
one contiguous array per field.  :class:`InstructionRecord` is a
convenience view of a single row used by builders, tests and
pretty-printers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opclass import OpClass
from .registers import NO_REG, is_valid_register, register_name

#: Alpha instructions are fixed-width 32-bit words.
INSTRUCTION_BYTES = 4

#: Columnar trace dtype.  Field order is part of the on-disk format.
TRACE_DTYPE = np.dtype(
    [
        ("pc", np.uint64),
        ("opclass", np.uint8),
        ("src1", np.uint8),
        ("src2", np.uint8),
        ("dst", np.uint8),
        ("mem_addr", np.uint64),
        ("taken", np.uint8),
        ("target", np.uint64),
    ]
)


@dataclass(frozen=True)
class InstructionRecord:
    """A single dynamic instruction, as observed by instrumentation."""

    pc: int
    opclass: OpClass
    src1: int = NO_REG
    src2: int = NO_REG
    dst: int = NO_REG
    mem_addr: int = 0
    taken: bool = False
    target: int = 0

    def __post_init__(self) -> None:
        for slot, reg in (("src1", self.src1), ("src2", self.src2), ("dst", self.dst)):
            if not is_valid_register(reg):
                raise ValueError(f"{slot} register index out of range: {reg}")
        if self.opclass.is_memory and self.mem_addr == 0:
            raise ValueError("memory instruction requires a nonzero mem_addr")
        if not self.opclass.is_memory and self.mem_addr != 0:
            raise ValueError("non-memory instruction must have mem_addr == 0")
        if not self.opclass.is_control and self.taken:
            raise ValueError("only control transfers may be taken")

    @property
    def source_registers(self) -> "tuple[int, ...]":
        """The populated source-register slots."""
        return tuple(reg for reg in (self.src1, self.src2) if reg != NO_REG)

    @property
    def has_destination(self) -> bool:
        """True when the instruction writes an architected register."""
        return self.dst != NO_REG

    def to_row(self) -> "tuple[int, int, int, int, int, int, int, int]":
        """Row tuple in :data:`TRACE_DTYPE` field order."""
        return (
            self.pc,
            int(self.opclass),
            self.src1,
            self.src2,
            self.dst,
            self.mem_addr,
            int(self.taken),
            self.target,
        )

    def __str__(self) -> str:
        parts = [f"{self.pc:#010x} {self.opclass.short_name:<4}"]
        if self.has_destination:
            parts.append(register_name(self.dst))
        sources = ", ".join(register_name(reg) for reg in self.source_registers)
        if sources:
            parts.append(f"<- {sources}")
        if self.opclass.is_memory:
            parts.append(f"[{self.mem_addr:#x}]")
        if self.opclass.is_control:
            parts.append(f"{'T' if self.taken else 'N'} -> {self.target:#x}")
        return " ".join(parts)


def record_from_row(row) -> InstructionRecord:
    """Build an :class:`InstructionRecord` from a structured-array row
    (or any mapping of :data:`TRACE_DTYPE` field names to values)."""
    return InstructionRecord(
        pc=int(row["pc"]),
        opclass=OpClass(int(row["opclass"])),
        src1=int(row["src1"]),
        src2=int(row["src2"]),
        dst=int(row["dst"]),
        mem_addr=int(row["mem_addr"]),
        taken=bool(row["taken"]),
        target=int(row["target"]),
    )


def unchecked_record(
    pc: int,
    opclass: OpClass,
    src1: int,
    src2: int,
    dst: int,
    mem_addr: int,
    taken: bool,
    target: int,
) -> InstructionRecord:
    """Build an :class:`InstructionRecord` without field validation.

    Bulk paths (trace iteration) materialize millions of records from
    data that was validated when the trace was built; re-running
    ``__post_init__`` per row dominates their cost, so this constructor
    bypasses it.  Only use on rows read back from a :data:`TRACE_DTYPE`
    array.
    """
    record = object.__new__(InstructionRecord)
    fields = record.__dict__
    fields["pc"] = pc
    fields["opclass"] = opclass
    fields["src1"] = src1
    fields["src2"] = src2
    fields["dst"] = dst
    fields["mem_addr"] = mem_addr
    fields["taken"] = taken
    fields["target"] = target
    return record

"""Pre-decoded kernel programs for the SIMT issue loop.

The compute unit issues millions of wavefront-instructions per simulated
kernel, and in the original engine every single issue re-derived the opcode
class, rebuilt the latency table, converted ``Register`` operands to ints,
and dict-dispatched to a handler.  :func:`predecode_program` resolves all of
that exactly once per launch: each instruction becomes one plain tuple (see
the ``P_*`` field indices) carrying

* a small integer ``kind`` the compute unit switches on,
* plain-int operand fields (``rd``/``rs``/``rt``/``imm``),
* the timing facts (``latency``, ``uses_pe``) already looked up, and
* per-kind pre-resolved data: the lane, scalar and ramp forms of the
  arithmetic for ALU forms (:mod:`repro.simt.pe`), the immediate or constant as one
  unsigned 32-bit ``int`` for immediate forms and LI/LUI, the branch
  comparison for conditional branches, and the opcode for work-item
  identification.

The issue loop reads a field with one C-level tuple index instead of an
attribute lookup.  ``macro_safe`` marks instructions (ALU/MUL/DIV, SPECIAL,
PARAM, LOCAL, MASK) that touch no shared machine state — no global memory,
no control flow, no barriers — so an uncontended wavefront can issue a
straight-line run of them in one scheduling event without any other
wavefront being able to observe the difference; the compute unit's
macro-stepping checks this flag per instruction.

The decoded program is immutable and depends only on the program and the
timing model, so one decode is shared by every compute unit of a launch.
"""

from __future__ import annotations

from typing import List, Optional

from repro.arch.assembler import Program
from repro.arch.isa import Instruction, OpClass, Opcode
from repro.errors import SimulationError
from repro.simt import pe
from repro.simt.timing import TimingModel

# Instruction kinds (dense ints the compute unit dispatches on).  The three
# ALU kinds come first: the issue loop tests ``kind <= K_ALU_CONST``.
K_ALU_BIN = 0  # three-register ALU/MUL/DIV
K_ALU_IMM = 1  # immediate ALU with a register source
K_ALU_CONST = 2  # LI/LUI: result is a decoded int constant
K_SPECIAL = 3  # work-item identification
K_PARAM = 4  # kernel-parameter load from the RTM
K_LOAD = 5  # global-memory load
K_STORE = 6  # global-memory store
K_LOCAL_LOAD = 7  # LRAM load
K_LOCAL_STORE = 8  # LRAM store
K_PUSHM = 9
K_CMASK = 10
K_INVM = 11
K_POPM = 12
K_JMP = 13
K_BEMPTY = 14
K_BCOND = 15  # BEQ/BNE/BLT/BGE
K_SYNC = 16
K_RET = 17

# Branch comparison codes for K_BCOND.
B_EQ, B_NE, B_LT, B_GE = 0, 1, 2, 3

_BCOND_CODES = {
    Opcode.BEQ: B_EQ,
    Opcode.BNE: B_NE,
    Opcode.BLT: B_LT,
    Opcode.BGE: B_GE,
}

# Classes whose execution touches only wavefront-private or CU-private state
# and never alters control flow or another wavefront's readiness.
_MACRO_SAFE_CLASSES = frozenset(
    (
        OpClass.ALU,
        OpClass.MUL,
        OpClass.DIV,
        OpClass.SPECIAL,
        OpClass.PARAM,
        OpClass.LOCAL,
        OpClass.MASK,
    )
)

# Field positions of the per-op tuples (DecodedProgram.ops).
P_KIND = 0
P_RD = 1
P_RS = 2
P_RT = 3
P_IMM = 4
P_LATENCY = 5
P_USES_PE = 6
P_MACRO_SAFE = 7
P_FN = 8  # lane form (ALU), branch code (K_BCOND), opcode (K_SPECIAL)
P_SCALAR_FN = 9  # scalar form for int operands (ALU)
P_CONST = 10  # unsigned 32-bit int (K_ALU_IMM / K_ALU_CONST)
P_CLASS_KEY = 11
P_RAMP_FN = 12  # ramp form for Affine operands (ALU)


class DecodedProgram:
    """A kernel program resolved for execution (shared by all CUs).

    ``ops`` holds one tuple per instruction.  ``max_register`` is the
    largest register index any instruction names; the compute unit checks
    it once against the register-file depth when the program is bound,
    which lets the issue loop index the register list directly instead of
    bounds-checking every operand of every issue.
    """

    __slots__ = ("name", "ops", "max_register")

    def __init__(self, name: str, ops: List[tuple]) -> None:
        self.name = name
        self.ops = ops
        self.max_register = max(
            (max(op[P_RD], op[P_RS], op[P_RT]) for op in ops), default=0
        )


def _classify(instruction: Instruction) -> int:
    opcode = instruction.opcode
    opclass = opcode.opclass
    if opclass in (OpClass.ALU, OpClass.MUL, OpClass.DIV):
        if opcode in (Opcode.LI, Opcode.LUI):
            return K_ALU_CONST
        if pe.is_binary_alu(opcode):
            return K_ALU_BIN
        return K_ALU_IMM
    if opclass is OpClass.SPECIAL:
        return K_SPECIAL
    if opclass is OpClass.PARAM:
        return K_PARAM
    if opclass is OpClass.LOAD:
        return K_LOAD
    if opclass is OpClass.STORE:
        return K_STORE
    if opclass is OpClass.LOCAL:
        return K_LOCAL_LOAD if opcode is Opcode.LLW else K_LOCAL_STORE
    if opclass is OpClass.MASK:
        return {
            Opcode.PUSHM: K_PUSHM,
            Opcode.CMASK: K_CMASK,
            Opcode.INVM: K_INVM,
            Opcode.POPM: K_POPM,
        }[opcode]
    if opclass is OpClass.BRANCH:
        if opcode is Opcode.JMP:
            return K_JMP
        if opcode is Opcode.BEMPTY:
            return K_BEMPTY
        return K_BCOND
    if opclass is OpClass.SYNC:
        return K_SYNC
    if opclass is OpClass.RET:
        return K_RET
    raise SimulationError(f"unhandled opcode class {opclass}")  # pragma: no cover


def _field(value) -> int:
    """An operand field as a plain int (0 when the instruction has none)."""
    return int(value) if value is not None else 0


def predecode_program(
    program: Program,
    timing: Optional[TimingModel] = None,
) -> DecodedProgram:
    """Resolve ``program`` into a :class:`DecodedProgram` for execution."""
    timing = timing or TimingModel()
    ops: List[tuple] = []
    for instruction in program.instructions:
        opcode = instruction.opcode
        opclass = opcode.opclass
        kind = _classify(instruction)
        imm = _field(instruction.imm)
        fn = scalar_fn = ramp_fn = const = None
        if kind == K_ALU_BIN or kind == K_ALU_IMM:
            base = opcode if kind == K_ALU_BIN else pe.immediate_base(opcode)
            fn, scalar_fn = pe.binary_operation(base)
            ramp_fn = pe.ramp_operation(base)
            if kind == K_ALU_IMM:
                const = imm & pe.WORD_MASK
        elif kind == K_ALU_CONST:
            const = (imm if opcode is Opcode.LI else imm << 14) & pe.WORD_MASK
        elif kind == K_BCOND:
            fn = _BCOND_CODES[opcode]
        elif kind == K_SPECIAL:
            fn = opcode
        ops.append(
            (
                kind,
                _field(instruction.rd),
                _field(instruction.rs),
                _field(instruction.rt),
                imm,
                timing.latency_for(opclass),
                timing.uses_pe_array(opclass),
                opclass in _MACRO_SAFE_CLASSES,
                fn,
                scalar_fn,
                const,
                opclass.value,
                ramp_fn,
            )
        )
    return DecodedProgram(program.name, ops)

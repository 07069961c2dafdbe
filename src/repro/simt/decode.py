"""Pre-decoded kernel programs for the SIMT issue loop.

The compute unit issues millions of wavefront-instructions per simulated
kernel, and in the original engine every single issue re-derived the opcode
class, rebuilt the latency table, converted ``Register`` operands to ints,
and dict-dispatched to a handler.  :func:`predecode_program` resolves all of
that exactly once per launch: each instruction becomes a :class:`DecodedOp`
carrying

* a small integer ``kind`` the compute unit switches on,
* plain-int operand fields (``rd``/``rs``/``rt``/``imm``),
* the timing facts (``latency``, ``uses_pe``) already looked up, and
* per-kind pre-resolved data: the lane, scalar and ramp forms of the
  arithmetic for ALU forms (:mod:`repro.simt.pe`), the immediate or constant as one
  unsigned 32-bit ``int`` for immediate forms and LI/LUI, and the branch
  comparison for conditional branches.

``macro_safe`` marks instructions (ALU/MUL/DIV, SPECIAL, PARAM, LOCAL,
MASK) that touch no shared machine state — no global memory, no control
flow, no barriers — so an uncontended wavefront can issue a straight-line
run of them in one scheduling event without any other wavefront being able
to observe the difference; the compute unit's macro-stepping fast path
checks this flag per instruction.

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

class DecodedOp:
    """One fully resolved instruction of a bound kernel program."""

    __slots__ = (
        "kind",
        "opcode",
        "opclass",
        "class_key",
        "rd",
        "rs",
        "rt",
        "imm",
        "latency",
        "uses_pe",
        "macro_safe",
        "fn",
        "scalar_fn",
        "ramp_fn",
        "const",
        "instruction",
    )

    def __init__(
        self,
        kind: int,
        instruction: Instruction,
        latency: int,
        uses_pe: bool,
    ) -> None:
        self.kind = kind
        self.opcode = instruction.opcode
        self.opclass = instruction.opcode.opclass
        self.class_key = self.opclass.value
        self.rd = int(instruction.rd) if instruction.rd is not None else 0
        self.rs = int(instruction.rs) if instruction.rs is not None else 0
        self.rt = int(instruction.rt) if instruction.rt is not None else 0
        self.imm = int(instruction.imm) if instruction.imm is not None else 0
        self.latency = latency
        self.uses_pe = uses_pe
        self.macro_safe = self.opclass in _MACRO_SAFE_CLASSES
        self.fn = None  # lane form (K_ALU_BIN / K_ALU_IMM), branch code (K_BCOND)
        self.scalar_fn = None  # scalar form for int operands (K_ALU_BIN / K_ALU_IMM)
        self.ramp_fn = None  # ramp form for Affine operands (K_ALU_BIN / K_ALU_IMM)
        self.const = None  # unsigned 32-bit int (K_ALU_IMM / K_ALU_CONST)
        self.instruction = instruction

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecodedOp({self.instruction.text()}, kind={self.kind})"


# Field positions of the packed per-op tuples (DecodedProgram.packed).
P_KIND = 0
P_RD = 1
P_RS = 2
P_RT = 3
P_IMM = 4
P_LATENCY = 5
P_USES_PE = 6
P_MACRO_SAFE = 7
P_FN = 8
P_SCALAR_FN = 9
P_CONST = 10
P_CLASS_KEY = 11
P_RAMP_FN = 12


class DecodedProgram:
    """A kernel program resolved for execution (shared by all CUs).

    ``ops`` holds the :class:`DecodedOp` records; ``packed`` flattens each
    record into a plain tuple (see the ``P_*`` field indices) so the issue
    loop replaces half a dozen attribute lookups per issued instruction with
    one C-level tuple index.  ``max_register`` is the largest register index
    any instruction names; the compute unit checks it once against the
    register-file depth when the program is bound, which lets the issue loop
    index the register storage directly instead of bounds-checking every
    operand of every issue.
    """

    __slots__ = ("name", "ops", "packed", "max_register")

    def __init__(self, name: str, ops: List[DecodedOp]) -> None:
        self.name = name
        self.ops = ops
        self.packed = [
            (
                op.kind,
                op.rd,
                op.rs,
                op.rt,
                op.imm,
                op.latency,
                op.uses_pe,
                op.macro_safe,
                op.fn,
                op.scalar_fn,
                op.const,
                op.class_key,
                op.ramp_fn,
            )
            for op in ops
        ]
        self.max_register = max(
            (max(op.rd, op.rs, op.rt) for op in ops), default=0
        )

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, index: int) -> DecodedOp:
        return self.ops[index]


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


def predecode_program(
    program: Program,
    timing: Optional[TimingModel] = None,
) -> DecodedProgram:
    """Resolve ``program`` into a :class:`DecodedProgram` for execution."""
    timing = timing or TimingModel()
    ops: List[DecodedOp] = []
    for instruction in program.instructions:
        opclass = instruction.opcode.opclass
        op = DecodedOp(
            kind=_classify(instruction),
            instruction=instruction,
            latency=timing.latency_for(opclass),
            uses_pe=timing.uses_pe_array(opclass),
        )
        kind = op.kind
        if kind == K_ALU_BIN:
            op.fn, op.scalar_fn = pe.binary_operation(op.opcode)
            op.ramp_fn = pe.ramp_operation(op.opcode)
        elif kind == K_ALU_IMM:
            base = pe.immediate_base(op.opcode)
            op.fn, op.scalar_fn = pe.binary_operation(base)
            op.ramp_fn = pe.ramp_operation(base)
            op.const = op.imm & pe.WORD_MASK
        elif kind == K_ALU_CONST:
            value = op.imm if op.opcode is Opcode.LI else op.imm << 14
            op.const = value & pe.WORD_MASK
        elif kind == K_BCOND:
            op.fn = _BCOND_CODES[op.opcode]
        ops.append(op)
    return DecodedProgram(program.name, ops)

"""Basic-block translation of RV32IM programs for the instruction-set simulator.

The seed interpreter re-derives the opcode class, the cycle cost and a
``mnemonic_counts`` update for every executed instruction.
:func:`predecode_riscv_program` resolves the static part once per program,
and :class:`RvDecodedProgram` translates the program into Python functions
one basic block at a time, when a run first enters the block: QEMU's
translation blocks, emitting Python source instead of host code.

A block runs from its entry PC to the next branch, jump or EBREAK, or to the
end of the program.  Its function inlines every register, ALU and
load/store operation against the register list and the word list of the
:class:`~repro.riscv.memory.RvMemory`; x0 reads fold to 0 and x0 writes are
dropped.  ``block(x, mem, counts, mem_bytes)`` returns the next PC, or the
bitwise complement of the PC after an EBREAK, which is negative.  The cycle
model is static per instruction except for a taken conditional branch, so
a block only counts its exit: slot ``pc >> 1`` of the per-run ``counts``
for a fall-through or jump, slot ``(pc >> 1) + 1`` for a taken branch, and
:meth:`RvDecodedProgram.fold` derives the statistics once, when the run
ends.  A load or store at an unaligned or out-of-range address raises
:class:`BlockFault` before it changes anything and before the block counts
its exit, so exactly the instructions in front of it have run.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Tuple

from repro.riscv.assembler import RvProgram
from repro.riscv.isa import RvFormat, RvInstruction, RvOpcode

WORD_MASK = 0xFFFFFFFF

Block = Callable[[List[int], List[int], List[int], int], int]


class BlockFault(Exception):
    """A load or store of a translated block failed its address check.

    ``args`` are the access's position in its block, which is the number of
    the block's instructions that ran, and the address.
    """


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


def _div(a: int, b: int) -> int:
    sa, sb = _signed(a), _signed(b)
    if sb == 0:
        return -1
    quotient = abs(sa) // abs(sb)
    return -quotient if (sa < 0) != (sb < 0) else quotient


def _rem(a: int, b: int) -> int:
    sa, sb = _signed(a), _signed(b)
    if sb == 0:
        return sa
    quotient = abs(sa) // abs(sb)
    quotient = -quotient if (sa < 0) != (sb < 0) else quotient
    return sa - quotient * sb


# Python source of each R-type result over its operands: ``a``/``b`` are the
# unsigned 32-bit operands and ``sa``/``sb`` their signed values.  The
# expressions are the seed interpreter's ``_alu_r`` followed by its
# ``write_reg`` mask.  (The low 32 bits of a product do not depend on the
# operands' signedness, so MUL multiplies the unsigned values.)
_ALU_SOURCE: Dict[RvOpcode, str] = {
    RvOpcode.ADD: "({a} + {b}) & 0xFFFFFFFF",
    RvOpcode.SUB: "({a} - {b}) & 0xFFFFFFFF",
    RvOpcode.SLL: "({a} << ({b} & 31)) & 0xFFFFFFFF",
    RvOpcode.SLT: "1 if {sa} < {sb} else 0",
    RvOpcode.SLTU: "1 if {a} < {b} else 0",
    RvOpcode.XOR: "{a} ^ {b}",
    RvOpcode.SRL: "{a} >> ({b} & 31)",
    RvOpcode.SRA: "({sa} >> ({b} & 31)) & 0xFFFFFFFF",
    RvOpcode.OR: "{a} | {b}",
    RvOpcode.AND: "{a} & {b}",
    RvOpcode.MUL: "({a} * {b}) & 0xFFFFFFFF",
    RvOpcode.MULH: "(({sa} * {sb}) >> 32) & 0xFFFFFFFF",
    RvOpcode.MULHU: "({a} * {b}) >> 32",
    RvOpcode.DIV: "_div({a}, {b}) & 0xFFFFFFFF",
    RvOpcode.DIVU: "{a} // {b} if {b} else 0xFFFFFFFF",
    RvOpcode.REM: "_rem({a}, {b}) & 0xFFFFFFFF",
    RvOpcode.REMU: "{a} % {b} if {b} else {a}",
}

# An I-type ALU instruction is its R-type twin with ``b`` the immediate's
# 32-bit pattern and ``sb`` the immediate itself, which is what the seed's
# ``_alu_i`` computes with.
_I_AS_R: Dict[RvOpcode, RvOpcode] = {
    RvOpcode.ADDI: RvOpcode.ADD,
    RvOpcode.SLTI: RvOpcode.SLT,
    RvOpcode.SLTIU: RvOpcode.SLTU,
    RvOpcode.XORI: RvOpcode.XOR,
    RvOpcode.ORI: RvOpcode.OR,
    RvOpcode.ANDI: RvOpcode.AND,
    RvOpcode.SLLI: RvOpcode.SLL,
    RvOpcode.SRLI: RvOpcode.SRL,
    RvOpcode.SRAI: RvOpcode.SRA,
}

_BRANCH_SOURCE: Dict[RvOpcode, str] = {
    RvOpcode.BEQ: "{a} == {b}",
    RvOpcode.BNE: "{a} != {b}",
    RvOpcode.BLT: "{sa} < {sb}",
    RvOpcode.BGE: "{sa} >= {sb}",
    RvOpcode.BLTU: "{a} < {b}",
    RvOpcode.BGEU: "{a} >= {b}",
}

_ENDS_BLOCK = frozenset((RvOpcode.JAL, RvOpcode.JALR, RvOpcode.EBREAK, *_BRANCH_SOURCE))


def _reg(index: int) -> str:
    return f"x[{index}]" if index else "0"


def _signed_reg(index: int) -> str:
    return f"((x[{index}] ^ 0x80000000) - 0x80000000)" if index else "0"


def _operands(rs1: int, rs2: int) -> Dict[str, str]:
    return {"a": _reg(rs1), "b": _reg(rs2), "sa": _signed_reg(rs1), "sb": _signed_reg(rs2)}


def _address(rs1: int, imm: int) -> str:
    if rs1 == 0:
        return hex(imm & WORD_MASK)
    if imm == 0:
        return f"x[{rs1}]"  # register values are already masked
    return f"(x[{rs1}] + {imm}) & 0xFFFFFFFF"


def _exit_source(
    instruction: RvInstruction, here: int, count_exit: str, taken_slot: int
) -> List[str]:
    """Source of a block's last instruction: a branch, jump or EBREAK."""
    opcode, rd, imm = instruction.opcode, instruction.rd, instruction.imm
    link = [f"x[{rd}] = {hex(here + 4)}"] if rd else []
    if opcode is RvOpcode.EBREAK:
        return [count_exit, f"return {~(here + 4)}"]
    if opcode is RvOpcode.JAL:
        return link + [count_exit, f"return {hex((here + imm) & WORD_MASK)}"]
    if opcode is RvOpcode.JALR:
        # The target reads rs1 before the link overwrites it (rd == rs1).
        target = f"({_reg(instruction.rs1)} + {imm}) & 0xFFFFFFFE"
        return [f"t = {target}"] + link + [count_exit, "return t"]
    condition = _BRANCH_SOURCE[opcode].format(**_operands(instruction.rs1, instruction.rs2))
    return [
        f"if {condition}:",
        f"    counts[{taken_slot}] += 1",
        f"    return {hex((here + imm) & WORD_MASK)}",
        count_exit,
        f"return {hex(here + 4)}",
    ]


class RvDecodedProgram:
    """One RV32IM program and the blocks translated from it so far.

    ``blocks`` maps the entry PC of every translated block to its function.
    ``block_end[i]`` is the index one past the last instruction of the block
    entered at instruction ``i``.  ``costs`` and ``taken_costs`` are each
    instruction's cycle cost when it does not and does take its branch.
    """

    def __init__(self, program: RvProgram, cycle_model) -> None:
        self.name = program.name
        self.instructions = program.instructions
        # A copy, so a run can tell whether its CPU's model still matches.
        self.cycle_model = copy.copy(cycle_model)
        self.costs = [cycle_model.cost(i, taken=False) for i in self.instructions]
        self.taken_costs = [cycle_model.cost(i, taken=True) for i in self.instructions]
        end = len(self.instructions)
        self.block_end = [0] * end
        for index in reversed(range(end)):
            if self.instructions[index].opcode in _ENDS_BLOCK:
                end = index + 1
            self.block_end[index] = end
        self.longest_block = max(
            (stop - index for index, stop in enumerate(self.block_end)), default=1
        )
        self.blocks: Dict[int, Block] = {}

    def __len__(self) -> int:
        return len(self.instructions)

    def block_length(self, pc: int) -> int:
        """Instructions in the block entered at the (valid) ``pc``."""
        return self.block_end[pc >> 2] - (pc >> 2)

    def translate(self, pc: int) -> Block:
        """The block entered at the (valid) ``pc``, translated on first use."""
        block = self.blocks.get(pc)
        if block is None:
            block = self.blocks[pc] = self.compile_block(pc, self.block_length(pc))
        return block

    def compile_block(self, pc: int, length: int, counted: bool = True) -> Block:
        """Translate ``length`` instructions from ``pc``.

        An uncounted translation leaves its exit out of ``counts``; a run
        uses one where the instruction limit cuts a block short.
        """
        first = pc >> 2
        lines: List[str] = []
        count_exit = f"counts[{pc >> 1}] += 1" if counted else "pass"
        for position, instruction in enumerate(self.instructions[first : first + length]):
            here = pc + 4 * position
            opcode, rd, imm = instruction.opcode, instruction.rd, instruction.imm
            rs1, rs2 = instruction.rs1, instruction.rs2
            if opcode in _ENDS_BLOCK:
                lines += _exit_source(instruction, here, count_exit, (pc >> 1) + 1)
                break
            if opcode is RvOpcode.LW or opcode is RvOpcode.SW:
                lines.append(f"a = {_address(rs1, imm)}")
                lines.append(f"if a & 3 or a >= mem_bytes: raise BlockFault({position}, a)")
                if opcode is RvOpcode.SW:
                    lines.append(f"mem[a >> 2] = {_reg(rs2)}")
                elif rd:
                    lines.append(f"x[{rd}] = mem[a >> 2]")
            elif rd == 0:
                continue  # an ALU or upper-immediate result written to x0
            elif opcode is RvOpcode.LUI:
                lines.append(f"x[{rd}] = {hex((imm << 12) & WORD_MASK)}")
            elif opcode is RvOpcode.AUIPC:
                lines.append(f"x[{rd}] = {hex((here + (imm << 12)) & WORD_MASK)}")
            elif opcode.info.fmt is RvFormat.R:
                lines.append(f"x[{rd}] = " + _ALU_SOURCE[opcode].format(**_operands(rs1, rs2)))
            else:
                operands = _operands(rs1, 0)
                operands.update(b=hex(imm & WORD_MASK), sb=str(imm))
                lines.append(f"x[{rd}] = " + _ALU_SOURCE[_I_AS_R[opcode]].format(**operands))
        else:
            lines += [count_exit, f"return {hex(pc + 4 * length)}"]
        source = "def block(x, mem, counts, mem_bytes):\n" + "".join(
            f"    {line}\n" for line in lines
        )
        namespace = {"BlockFault": BlockFault, "_div": _div, "_rem": _rem}
        exec(compile(source, f"<{self.name} block at {pc:#x}>", "exec"), namespace)
        return namespace.pop("block")  # no function <-> globals cycle for the GC

    def retired(self, counts: List[int]) -> int:
        """Instructions retired by the whole blocks that ``counts`` recorded."""
        return sum(
            (counts[pc >> 1] + counts[(pc >> 1) + 1]) * self.block_length(pc)
            for pc in self.blocks
        )

    def fold(
        self, counts: List[int], partial_pc: int, partial_length: int
    ) -> Tuple[int, int, int, Dict[str, int]]:
        """Instructions, cycles, taken branches and per-mnemonic counts of a run.

        ``counts`` are the run's exit counters, and ``partial_length``
        instructions from ``partial_pc`` ran on top of them in a block that
        a fault or the instruction limit stopped part-way.
        """
        executed = [0] * len(self.instructions)
        taken_branches = 0
        cycles = 0
        for pc in self.blocks:
            first, stop = pc >> 2, self.block_end[pc >> 2]
            taken = counts[(pc >> 1) + 1]
            runs = counts[pc >> 1] + taken
            for index in range(first, stop):
                executed[index] += runs
            taken_branches += taken
            cycles += taken * (self.taken_costs[stop - 1] - self.costs[stop - 1])
        first = partial_pc >> 2
        for index in range(first, first + partial_length):
            executed[index] += 1
        mnemonic_counts: Dict[str, int] = {}
        for instruction, runs, cost in zip(self.instructions, executed, self.costs, strict=True):
            if runs:
                mnemonic = instruction.opcode.mnemonic
                mnemonic_counts[mnemonic] = mnemonic_counts.get(mnemonic, 0) + runs
                cycles += runs * cost
        return sum(executed), cycles, taken_branches, mnemonic_counts


def predecode_riscv_program(program: RvProgram, cycle_model) -> RvDecodedProgram:
    """Resolve ``program`` into an :class:`RvDecodedProgram` for ``cycle_model``.

    The cycle costs are resolved here, so a decoded program is only valid for
    the cycle model it was decoded against; ``RiscvCpu.run`` checks that.
    Blocks are translated later, when a run first enters them.
    """
    return RvDecodedProgram(program, cycle_model)

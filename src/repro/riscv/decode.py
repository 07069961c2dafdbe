"""Loop-region translation of RV32IM programs for the instruction-set simulator.

The seed interpreter re-derives the opcode class, the cycle cost and a
``mnemonic_counts`` update for every executed instruction.
:func:`predecode_riscv_program` resolves the static part once per program,
and :class:`RvDecodedProgram` translates the program into Python functions
one region at a time, when a run first enters the region: QEMU's chained
translation blocks and Dynamo's hot loops, emitting Python source instead of
host code.

A block runs from its entry PC to the next branch, jump or EBREAK, or to the
end of the program.  A loop nest is the PC range spanned by the program's
static backward branches and JALs, overlapping ranges merged.  Its region
is one function that loops over a ``pc`` dispatch among the blocks entered
at the nest's entries: every branch or JAL target in the range and every PC
after a branch, jump or EBREAK in it.  A PC outside every nest, or one inside
a nest that is not an entry, is translated as a region of one block.

The region function inlines every register, ALU and load/store operation.
It holds each register it touches in a local, against the register list and
the word list of the :class:`~repro.riscv.memory.RvMemory`, and writes them
back whenever it exits; x0 reads fold to 0 and x0 writes are dropped.
``region(x, mem, counts, mem_bytes, pc, passes)`` runs at most ``passes``
dispatch passes from ``pc`` and returns the next PC, or the bitwise
complement of the PC after an EBREAK, which is negative.  A pass tests the
entries in PC order and runs the blocks it meets; a forward edge goes on
down the chain, and a backward edge or a JALR starts the next pass.  So a
pass runs each block at most once and retires at most the nest's length.
A PC that no entry matches leaves the region.

The cycle model is static per instruction except for a taken conditional
branch, so a block only counts its exit: slot ``pc >> 1`` of the per-run
``counts`` for a fall-through or jump, slot ``(pc >> 1) + 1`` for a taken
branch.  The region keeps those counts in locals and adds them to
``counts`` when it exits, and :meth:`RvDecodedProgram.fold` derives the
statistics once, when the run ends.  A load or store at an unaligned or
out-of-range address raises :class:`BlockFault` before it changes anything
and before its block counts its exit, so exactly the instructions in front
of it have run.
"""

from __future__ import annotations

import copy
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.riscv.assembler import RvProgram
from repro.riscv.isa import RvFormat, RvOpcode

WORD_MASK = 0xFFFFFFFF

Region = Callable[[List[int], List[int], List[int], int, int, int], int]


class BlockFault(Exception):
    """A load or store of a translated block failed its address check.

    ``args`` are the block's entry PC, the access's position in the block,
    which is the number of the block's instructions that ran, and the
    address.
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
# unsigned 32-bit operands, ``sa``/``sb`` their signed values and ``fa``/``fb``
# the operands with the sign bit flipped, which compare as the signed values
# do.  The expressions are the seed interpreter's ``_alu_r`` followed by its
# ``write_reg`` mask.  (The low 32 bits of a product do not depend on the
# operands' signedness, so MUL multiplies the unsigned values.)
_ALU_SOURCE: Dict[RvOpcode, str] = {
    RvOpcode.ADD: "({a} + {b}) & 0xFFFFFFFF",
    RvOpcode.SUB: "({a} - {b}) & 0xFFFFFFFF",
    RvOpcode.SLL: "({a} << ({b} & 31)) & 0xFFFFFFFF",
    RvOpcode.SLT: "1 if {fa} < {fb} else 0",
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
# ``_alu_i`` computes with (and ``fb`` that pattern with the sign bit flipped).
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
    RvOpcode.BLT: "{fa} < {fb}",
    RvOpcode.BGE: "{fa} >= {fb}",
    RvOpcode.BLTU: "{a} < {b}",
    RvOpcode.BGEU: "{a} >= {b}",
}

_ENDS_BLOCK = frozenset((RvOpcode.JAL, RvOpcode.JALR, RvOpcode.EBREAK, *_BRANCH_SOURCE))


class _Emitter:
    """Python source of one region: its blocks and the registers they touch."""

    def __init__(self, entries: Sequence[int]) -> None:
        self.entries = frozenset(entries)
        self.registers: set = set()
        self.counters: set = set()

    def reg(self, index: int) -> str:
        if not index:
            return "0"
        self.registers.add(index)
        return f"x{index}"

    def signed_reg(self, index: int) -> str:
        return f"(({self.reg(index)} ^ 0x80000000) - 0x80000000)" if index else "0"

    def flipped_reg(self, index: int) -> str:
        return f"({self.reg(index)} ^ 0x80000000)" if index else "0x80000000"

    def operands(self, rs1: int, rs2: int) -> Dict[str, str]:
        return {
            "a": self.reg(rs1),
            "b": self.reg(rs2),
            "sa": self.signed_reg(rs1),
            "sb": self.signed_reg(rs2),
            "fa": self.flipped_reg(rs1),
            "fb": self.flipped_reg(rs2),
        }

    def assign(self, rd: int, value: str) -> str:
        self.registers.add(rd)
        return f"x{rd} = {value}"

    def address(self, rs1: int, imm: int) -> str:
        if rs1 == 0:
            return hex(imm & WORD_MASK)
        if imm == 0:
            return self.reg(rs1)  # register values are already masked
        return f"({self.reg(rs1)} + {imm}) & 0xFFFFFFFF"

    def count(self, slot: int) -> str:
        self.counters.add(slot)
        return f"c{slot} += 1"

    def goto(self, target: int, here: int) -> List[str]:
        """Source of a static edge from the instruction at ``here``."""
        if target not in self.entries:
            return [f"pc = {hex(target)}", "break"]  # out of the region
        if target <= here:
            return [f"pc = {hex(target)}", "continue"]  # a backward edge: next pass
        return [f"pc = {hex(target)}"]  # on down the chain

    def exit(self, instruction, here: int, entry: int) -> List[str]:
        """Source of a block's last instruction: a branch, jump or EBREAK."""
        opcode, rd, imm = instruction.opcode, instruction.rd, instruction.imm
        link = [self.assign(rd, hex(here + 4))] if rd else []
        count = self.count(entry >> 1)
        if opcode is RvOpcode.EBREAK:
            return [count, f"pc = {~(here + 4)}", "break"]
        if opcode is RvOpcode.JAL:
            return link + [count] + self.goto((here + imm) & WORD_MASK, here)
        if opcode is RvOpcode.JALR:
            # The target reads rs1 before the link overwrites it (rd == rs1).
            target = f"({self.reg(instruction.rs1)} + {imm}) & 0xFFFFFFFE"
            return [f"pc = {target}"] + link + [count, "continue"]
        condition = _BRANCH_SOURCE[opcode].format(**self.operands(instruction.rs1, instruction.rs2))
        taken_lines = [self.count((entry >> 1) + 1)] + self.goto((here + imm) & WORD_MASK, here)
        not_taken_lines = [count] + self.goto(here + 4, here)
        return (
            [f"if {condition}:"]
            + [f"    {line}" for line in taken_lines]
            + ["else:"]
            + [f"    {line}" for line in not_taken_lines]
        )

    def block(self, instructions, entry: int, counted: bool) -> List[str]:
        """Source of the block entered at ``entry``, up to its exit."""
        lines: List[str] = []
        for position, instruction in enumerate(instructions):
            here = entry + 4 * position
            opcode, rd, imm = instruction.opcode, instruction.rd, instruction.imm
            rs1, rs2 = instruction.rs1, instruction.rs2
            if opcode in _ENDS_BLOCK:
                return lines + self.exit(instruction, here, entry)
            if opcode is RvOpcode.LW or opcode is RvOpcode.SW:
                lines.append(f"a = {self.address(rs1, imm)}")
                lines.append(
                    f"if a & 3 or a >= mem_bytes: raise BlockFault({hex(entry)}, {position}, a)"
                )
                if opcode is RvOpcode.SW:
                    lines.append(f"mem[a >> 2] = {self.reg(rs2)}")
                elif rd:
                    lines.append(self.assign(rd, "mem[a >> 2]"))
            elif rd == 0:
                continue  # an ALU or upper-immediate result written to x0
            elif opcode is RvOpcode.LUI:
                lines.append(self.assign(rd, hex((imm << 12) & WORD_MASK)))
            elif opcode is RvOpcode.AUIPC:
                lines.append(self.assign(rd, hex((here + (imm << 12)) & WORD_MASK)))
            elif opcode is RvOpcode.ADDI and imm == 0:
                lines.append(self.assign(rd, self.reg(rs1)))  # a register move
            elif opcode.info.fmt is RvFormat.R:
                lines.append(self.assign(rd, _ALU_SOURCE[opcode].format(**self.operands(rs1, rs2))))
            else:
                operands = self.operands(rs1, 0)
                pattern = imm & WORD_MASK
                operands.update(b=hex(pattern), sb=str(imm), fb=hex(pattern ^ 0x80000000))
                lines.append(self.assign(rd, _ALU_SOURCE[_I_AS_R[opcode]].format(**operands)))
        # The block ran off the end of the program, or the instruction limit
        # cut it short and it stays uncounted.
        if counted:
            lines.append(self.count(entry >> 1))
        return lines + [f"pc = {hex(entry + 4 * len(instructions))}", "break"]


class RvDecodedProgram:
    """One RV32IM program and the regions translated from it so far.

    ``blocks`` maps the entry PC of every translated block to its region's
    function and the most instructions one pass of it retires.
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
        self._nests = self._loop_nests()
        self.blocks: Dict[int, Tuple[Region, int]] = {}
        self._steps: Dict[int, Region] = {}

    def _loop_nests(self) -> Dict[int, Tuple[Tuple[int, ...], int]]:
        """Each loop nest's entry PCs and length, by entry PC."""
        size = 4 * len(self.instructions)
        targets = set()
        spans = []
        for index, instruction in enumerate(self.instructions):
            opcode = instruction.opcode
            if opcode is RvOpcode.JAL or opcode in _BRANCH_SOURCE:
                target = (4 * index + instruction.imm) & WORD_MASK
                if target < size and not target & 3:
                    targets.add(target)
                    if target <= 4 * index:
                        spans.append([target, 4 * index + 4])
        merged: List[List[int]] = []
        for start, stop in sorted(spans):
            if merged and start < merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], stop)
            else:
                merged.append([start, stop])
        nests: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        for start, stop in merged:
            after_exits = {
                pc + 4
                for pc in range(start, stop - 4, 4)
                if self.instructions[pc >> 2].opcode in _ENDS_BLOCK
            }
            in_range = {target for target in targets if start <= target < stop}
            entries = tuple(sorted({start} | after_exits | in_range))
            for entry in entries:
                nests[entry] = (entries, (stop - start) >> 2)
        return nests

    def __len__(self) -> int:
        return len(self.instructions)

    def block_length(self, pc: int) -> int:
        """Instructions in the block entered at the (valid) ``pc``."""
        return self.block_end[pc >> 2] - (pc >> 2)

    def translate(self, pc: int) -> Tuple[Region, int]:
        """The region entered at the (valid) ``pc``, translated on first use,
        and the most instructions one of its passes retires."""
        region = self.blocks.get(pc)
        if region is None:
            entries, span = self._nests.get(pc, ((pc,), self.block_length(pc)))
            region = (self.compile_region(entries), span)
            for entry in entries:
                self.blocks[entry] = region
        return region

    def step(self, pc: int) -> Region:
        """The (valid) ``pc``'s block as a region of its own, for runs whose
        instruction limit is too close for a pass of the whole nest."""
        region = self._steps.get(pc)
        if region is None:
            region = self._steps[pc] = self.compile_region((pc,))
        return region

    def compile_region(self, entries: Sequence[int], length: Optional[int] = None) -> Region:
        """Translate the blocks entered at ``entries``, in ascending order.

        With ``length`` the one entry's block is cut to its first ``length``
        instructions and its exit is left out of ``counts``; a run uses one
        where the instruction limit cuts a block short.
        """
        emitter = _Emitter(entries)
        chain: List[str] = []
        for entry in entries:
            first = entry >> 2
            stop = self.block_end[first] if length is None else first + length
            block = emitter.block(self.instructions[first:stop], entry, length is None)
            chain.append(f"if pc == {hex(entry)}:")
            chain += [f"    {line}" for line in block]
        counters = sorted(emitter.counters)
        # The registers from the lowest to the highest one the blocks touch
        # are loaded and written back as one slice each, which compiles
        # faster than a statement per register.
        lines, write_back = [], []
        if emitter.registers:
            low, high = min(emitter.registers), max(emitter.registers) + 1
            names = ", ".join(f"x{index}" for index in range(low, high)) + ","
            lines.append(f"{names} = x[{low}:{high}]")
            write_back.append(f"x[{low}:{high}] = {names}")
        if counters:
            lines.append("".join(f"c{slot} = " for slot in counters) + "0")
        write_back += [f"counts[{slot}] += c{slot}" for slot in counters]
        lines += ["try:", "    for _ in repeat(None, passes):"]
        # Every exit breaks out of the pass loop, so that the write-back is
        # compiled once for the return and once for a raise.
        lines += [f"        {line}" for line in chain + ["break"]]
        lines.append("finally:")
        lines += [f"    {line}" for line in write_back or ["pass"]]
        lines.append("return pc")
        source = "def region(x, mem, counts, mem_bytes, pc, passes):\n" + "".join(
            f"    {line}\n" for line in lines
        )
        namespace = {"BlockFault": BlockFault, "_div": _div, "_rem": _rem, "repeat": repeat}
        exec(compile(source, f"<{self.name} region at {entries[0]:#x}>", "exec"), namespace)
        return namespace.pop("region")  # no function <-> globals cycle for the GC

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

    The cycle costs and the loop nests are resolved here, so a decoded
    program is only valid for the cycle model it was decoded against;
    ``RiscvCpu.run`` checks that.  Regions are translated later, when a run
    first enters them.
    """
    return RvDecodedProgram(program, cycle_model)

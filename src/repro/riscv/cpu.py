"""RV32IM instruction-set simulator with an in-order cycle model.

The baseline in the paper is the OpenHW CV32E40P, a 4-stage in-order RV32IM
core with tightly-coupled memory, synthesized at 667 MHz in the same 65nm
technology.  The ISS below executes the benchmark programs functionally and
charges a CV32E40P-like cycle cost per instruction: single-cycle ALU,
two-cycle loads, a pipeline-flush penalty on taken branches and jumps, and a
multi-cycle serial divider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.riscv.decode import BlockFault, RvDecodedProgram, predecode_riscv_program
from repro.riscv.isa import RvFormat, RvInstruction, RvOpcode
from repro.riscv.assembler import RvProgram
from repro.riscv.memory import RvMemory

WORD_MASK = 0xFFFFFFFF

# Area of the synthesized RISC-V baseline (core + 32 kB memory) implied by the
# paper's area ratios: every "Area Ratio" row of Fig. 6 divided into the
# corresponding G-GPU area of Table I gives ~0.71 mm^2.
RV32_SYNTH_AREA_MM2 = 0.71


@dataclass
class CpuCycleModel:
    """Per-instruction cycle costs of the in-order core."""

    alu_cycles: int = 1
    load_cycles: int = 2
    store_cycles: int = 1
    mul_cycles: int = 3
    mulh_cycles: int = 5
    div_cycles: int = 35
    branch_not_taken_cycles: int = 1
    branch_taken_cycles: int = 4
    jump_cycles: int = 3

    def cost(self, instruction: RvInstruction, taken: bool) -> int:
        """Cycle cost of one executed instruction."""
        opcode = instruction.opcode
        if opcode is RvOpcode.LW:
            return self.load_cycles
        if opcode is RvOpcode.SW:
            return self.store_cycles
        if opcode is RvOpcode.MUL:
            return self.mul_cycles
        if opcode in (RvOpcode.MULH, RvOpcode.MULHU):
            return self.mulh_cycles
        if opcode in (RvOpcode.DIV, RvOpcode.DIVU, RvOpcode.REM, RvOpcode.REMU):
            return self.div_cycles
        if opcode in (RvOpcode.JAL, RvOpcode.JALR):
            return self.jump_cycles
        if instruction.opcode.info.fmt is RvFormat.B:
            return self.branch_taken_cycles if taken else self.branch_not_taken_cycles
        return self.alu_cycles


@dataclass
class CpuStats:
    """Execution statistics of one RISC-V run."""

    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    taken_branches: int = 0
    mnemonic_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def kcycles(self) -> float:
        """Cycle count in thousands of cycles (the unit of Table III)."""
        return self.cycles / 1.0e3

    @property
    def cpi(self) -> float:
        """Average cycles per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions


def _signed(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value & 0x80000000 else value


class RiscvCpu:
    """Functional RV32IM simulator with the cycle model above.

    Two execution paths produce bit-identical results, cycle counts, and
    statistics:

    * the *pre-decoded* path (default): each loop nest, and each block
      outside every nest, is translated into one Python function the first
      time a run enters it (:mod:`repro.riscv.decode`), and the run loop
      does one lookup and one call each time the run enters a region,
    * the *interpreted* path (``predecode = False``): the seed interpreter,
      which re-derives the opcode class and cycle cost per executed
      instruction.  It is kept as the reference for the equivalence
      tests.
    """

    def __init__(
        self,
        memory: Optional[RvMemory] = None,
        cycle_model: Optional[CpuCycleModel] = None,
        max_instructions: int = 200_000_000,
    ) -> None:
        self.memory = memory or RvMemory()
        self.cycle_model = cycle_model or CpuCycleModel()
        self.max_instructions = max_instructions
        self.registers = [0] * 32
        self.pc = 0
        self.halted = False
        self.stats = CpuStats()
        self.predecode = True

    # ------------------------------------------------------------------ #
    # Register helpers
    # ------------------------------------------------------------------ #
    def read_reg(self, index: int) -> int:
        """Unsigned value of register ``index`` (x0 reads zero)."""
        return 0 if index == 0 else self.registers[index] & WORD_MASK

    def write_reg(self, index: int, value: int) -> None:
        """Write a register (writes to x0 are discarded)."""
        if index != 0:
            self.registers[index] = value & WORD_MASK

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        program: RvProgram,
        entry_pc: int = 0,
        decoded: Optional[RvDecodedProgram] = None,
    ) -> CpuStats:
        """Execute ``program`` until EBREAK; returns the statistics.

        ``decoded`` lets callers reuse one :class:`RvDecodedProgram`, and the
        blocks it has translated, across runs.  It must have been decoded
        from ``program`` against this CPU's cycle model, or the run raises
        :class:`SimulationError`.  When omitted the program is decoded on
        entry, and each block is translated when it first runs.
        """
        self.pc = entry_pc
        self.halted = False
        self.stats = CpuStats()
        if self.predecode:
            return self._run_decoded(program, entry_pc, decoded)
        return self._run_interpreted(program)

    def _run_decoded(
        self,
        program: RvProgram,
        entry_pc: int,
        decoded: Optional[RvDecodedProgram],
    ) -> CpuStats:
        """Run loop over the translated regions of :mod:`repro.riscv.decode`."""
        if decoded is None:
            decoded = predecode_riscv_program(program, self.cycle_model)
        elif decoded.instructions != program.instructions or (
            decoded.cycle_model != self.cycle_model
        ):
            raise SimulationError(
                f"decoded program {decoded.name!r} was decoded from other instructions "
                "or for another cycle model"
            )
        # Regions assume masked register values (they skip the seed
        # interpreter's per-read ``& WORD_MASK``); normalize any externally
        # poked state once.
        regs = self.registers
        for index in range(32):
            regs[index] &= WORD_MASK
        memory = self.memory
        words, size = memory._words, memory.size_bytes
        blocks = decoded.blocks
        counts = [0] * (2 * len(decoded))
        limit = self.max_instructions
        pc = entry_pc
        partial = 0  # instructions up to ``pc`` that a block stopped part-way ran
        fault_address = None
        try:
            while True:
                # One checked step, in the seed interpreter's order: the
                # instruction limit, then the PC, then a region whose passes
                # the limit would cut.
                room = limit - decoded.retired(counts)
                if room <= 0:
                    raise SimulationError("RISC-V simulation exceeded the instruction limit")
                if pc not in blocks:
                    if not 0 <= pc < 4 * len(decoded):
                        raise SimulationError(f"PC {pc:#x} is outside the program")
                    if pc & 3:
                        raise SimulationError(
                            f"misaligned PC {pc:#x}: instruction addresses must be 4-byte aligned"
                        )
                region, span = decoded.translate(pc)
                if span <= room:
                    # As many passes as cannot reach the limit, until the run
                    # leaves the region: an EBREAK's complement, a PC outside
                    # it or one that is not one of its entries.
                    pc = region(regs, words, counts, size, pc, room // span)
                elif decoded.block_length(pc) <= room:
                    # A pass could cross the limit: one block at a time.
                    pc = decoded.step(pc)(regs, words, counts, size, pc, 1)
                else:
                    partial = room
                    decoded.compile_region((pc,), room)(regs, words, counts, size, pc, 1)
                    pc += 4 * room
                    raise SimulationError("RISC-V simulation exceeded the instruction limit")
                if pc < 0:
                    pc = ~pc
                    self.halted = True
                    break
        except BlockFault as fault:
            pc, partial, fault_address = fault.args
            pc += 4 * partial
        finally:
            # Fold the counts into statistics exactly once, also on errors, so
            # the partial counts match what the seed interpreter accumulates
            # instruction by instruction.
            instructions, cycles, taken_branches, mnemonic_counts = decoded.fold(
                counts, pc - 4 * partial, partial
            )
            self.stats = CpuStats(
                instructions=instructions,
                cycles=cycles,
                loads=mnemonic_counts.get("lw", 0),
                stores=mnemonic_counts.get("sw", 0),
                taken_branches=taken_branches,
                mnemonic_counts=mnemonic_counts,
            )
            self.pc = pc
        if fault_address is not None:
            # The block's inlined address check failed, so the memory's own
            # check raises its error for the same address.
            memory.word_index(fault_address)
        return self.stats

    def _run_interpreted(self, program: RvProgram) -> CpuStats:
        """The seed per-instruction interpreter (reference path).

        Starts from ``self.pc``, which :meth:`run` set to the entry PC.
        """
        while not self.halted:
            if self.stats.instructions >= self.max_instructions:
                raise SimulationError("RISC-V simulation exceeded the instruction limit")
            index = self.pc // 4
            if not 0 <= index < len(program):
                raise SimulationError(f"PC {self.pc:#x} is outside the program")
            if self.pc % 4:
                raise SimulationError(
                    f"misaligned PC {self.pc:#x}: instruction addresses must be 4-byte aligned"
                )
            instruction = program[index]
            self._execute(instruction)
        return self.stats

    def _execute(self, instruction: RvInstruction) -> None:
        opcode = instruction.opcode
        rs1 = self.read_reg(instruction.rs1)
        rs2 = self.read_reg(instruction.rs2)
        imm = instruction.imm
        next_pc = self.pc + 4
        taken = False

        if opcode is RvOpcode.EBREAK:
            self.halted = True
        elif opcode.info.fmt is RvFormat.R:
            self.write_reg(instruction.rd, self._alu_r(opcode, rs1, rs2))
        elif opcode is RvOpcode.LW:
            self.write_reg(instruction.rd, self.memory.load_word((rs1 + imm) & WORD_MASK))
            self.stats.loads += 1
        elif opcode is RvOpcode.SW:
            self.memory.store_word((rs1 + imm) & WORD_MASK, rs2)
            self.stats.stores += 1
        elif opcode is RvOpcode.JAL:
            self.write_reg(instruction.rd, next_pc)
            next_pc = (self.pc + imm) & WORD_MASK
            taken = True
        elif opcode is RvOpcode.JALR:
            self.write_reg(instruction.rd, next_pc)
            next_pc = (rs1 + imm) & ~1 & WORD_MASK
            taken = True
        elif opcode.info.fmt is RvFormat.B:
            taken = self._branch_taken(opcode, rs1, rs2)
            if taken:
                next_pc = (self.pc + imm) & WORD_MASK
                self.stats.taken_branches += 1
        elif opcode is RvOpcode.LUI:
            self.write_reg(instruction.rd, (imm << 12) & WORD_MASK)
        elif opcode is RvOpcode.AUIPC:
            self.write_reg(instruction.rd, (self.pc + (imm << 12)) & WORD_MASK)
        elif opcode.info.fmt is RvFormat.I:
            self.write_reg(instruction.rd, self._alu_i(opcode, rs1, imm))
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unhandled RISC-V opcode {opcode.mnemonic}")

        self.stats.instructions += 1
        self.stats.cycles += self.cycle_model.cost(instruction, taken)
        mnemonic = opcode.mnemonic
        self.stats.mnemonic_counts[mnemonic] = self.stats.mnemonic_counts.get(mnemonic, 0) + 1
        self.pc = next_pc

    # ------------------------------------------------------------------ #
    # ALU semantics
    # ------------------------------------------------------------------ #
    @staticmethod
    def _alu_r(opcode: RvOpcode, a: int, b: int) -> int:
        sa, sb = _signed(a), _signed(b)
        if opcode is RvOpcode.ADD:
            return a + b
        if opcode is RvOpcode.SUB:
            return a - b
        if opcode is RvOpcode.SLL:
            return a << (b & 0x1F)
        if opcode is RvOpcode.SLT:
            return int(sa < sb)
        if opcode is RvOpcode.SLTU:
            return int(a < b)
        if opcode is RvOpcode.XOR:
            return a ^ b
        if opcode is RvOpcode.SRL:
            return a >> (b & 0x1F)
        if opcode is RvOpcode.SRA:
            return sa >> (b & 0x1F)
        if opcode is RvOpcode.OR:
            return a | b
        if opcode is RvOpcode.AND:
            return a & b
        if opcode is RvOpcode.MUL:
            return sa * sb
        if opcode is RvOpcode.MULH:
            return (sa * sb) >> 32
        if opcode is RvOpcode.MULHU:
            return (a * b) >> 32
        if opcode is RvOpcode.DIV:
            if sb == 0:
                return -1
            quotient = abs(sa) // abs(sb)
            return -quotient if (sa < 0) != (sb < 0) else quotient
        if opcode is RvOpcode.DIVU:
            return 0xFFFFFFFF if b == 0 else a // b
        if opcode is RvOpcode.REM:
            if sb == 0:
                return sa
            quotient = abs(sa) // abs(sb)
            quotient = -quotient if (sa < 0) != (sb < 0) else quotient
            return sa - quotient * sb
        if opcode is RvOpcode.REMU:
            return a if b == 0 else a % b
        raise SimulationError(f"unhandled R-type opcode {opcode.mnemonic}")

    @staticmethod
    def _alu_i(opcode: RvOpcode, a: int, imm: int) -> int:
        sa = _signed(a)
        if opcode is RvOpcode.ADDI:
            return a + imm
        if opcode is RvOpcode.SLTI:
            return int(sa < imm)
        if opcode is RvOpcode.SLTIU:
            return int(a < (imm & WORD_MASK))
        if opcode is RvOpcode.XORI:
            return a ^ (imm & WORD_MASK)
        if opcode is RvOpcode.ORI:
            return a | (imm & WORD_MASK)
        if opcode is RvOpcode.ANDI:
            return a & (imm & WORD_MASK)
        if opcode is RvOpcode.SLLI:
            return a << (imm & 0x1F)
        if opcode is RvOpcode.SRLI:
            return a >> (imm & 0x1F)
        if opcode is RvOpcode.SRAI:
            return sa >> (imm & 0x1F)
        raise SimulationError(f"unhandled I-type opcode {opcode.mnemonic}")

    @staticmethod
    def _branch_taken(opcode: RvOpcode, a: int, b: int) -> bool:
        sa, sb = _signed(a), _signed(b)
        if opcode is RvOpcode.BEQ:
            return a == b
        if opcode is RvOpcode.BNE:
            return a != b
        if opcode is RvOpcode.BLT:
            return sa < sb
        if opcode is RvOpcode.BGE:
            return sa >= sb
        if opcode is RvOpcode.BLTU:
            return a < b
        if opcode is RvOpcode.BGEU:
            return a >= b
        raise SimulationError(f"unhandled branch opcode {opcode.mnemonic}")

"""Pre-decoded RISC-V ISS: equivalence with the seed interpreter.

The decoded path must be bit-exact versus the interpreted path on every
observable: cycle count, full :class:`CpuStats` (including the mnemonic
histogram), architectural registers, the data-memory image, the final PC and
halt flag -- and, when a program faults, the error and the partial state at
the fault.  The first property test drives randomized RV32IM programs (random
ALU soup, memory traffic, branches and jumps with arbitrary targets,
randomized cycle models); the second adds what stops a translated block
part-way: loads and stores at any address, JALRs to arbitrary targets, random
entry PCs and small instruction limits.  The golden test pins the kcycle
counts of the benchmark programs on both paths.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import repro.riscv.programs  # noqa: F401  (registers the benchmark programs)
from repro.errors import SimulationError
from repro.riscv.assembler import RvAssembler, RvProgram, T0, T1, ZERO
from repro.riscv.cpu import CpuCycleModel, RiscvCpu
from repro.riscv.decode import predecode_riscv_program
from repro.riscv.isa import RvFormat, RvInstruction, RvOpcode
from repro.riscv.memory import RvMemory
from repro.riscv.programs import all_riscv_program_names, get_riscv_program_spec

MEMORY_BYTES = 2048
MEMORY_WORDS = MEMORY_BYTES // 4

REG = st.integers(min_value=0, max_value=31)
WORD = st.integers(min_value=0, max_value=0xFFFFFFFF)
IMM12 = st.integers(min_value=-2048, max_value=2047)
SHAMT = st.integers(min_value=0, max_value=31)
IMM20 = st.integers(min_value=0, max_value=(1 << 20) - 1)

_R_OPS = [op for op in RvOpcode if op.info.fmt is RvFormat.R]
_I_ALU_OPS = [
    RvOpcode.ADDI,
    RvOpcode.SLTI,
    RvOpcode.SLTIU,
    RvOpcode.XORI,
    RvOpcode.ORI,
    RvOpcode.ANDI,
]
_SHIFT_OPS = [RvOpcode.SLLI, RvOpcode.SRLI, RvOpcode.SRAI]
_BRANCH_OPS = [op for op in RvOpcode if op.info.fmt is RvFormat.B]

# Aligned in-memory word offsets reachable from x0 (rs1 = 0 keeps every
# generated access inside the data memory, so runs only fault on control
# flow -- which the property also covers via arbitrary branch targets).
MEM_OFFSET = st.integers(min_value=0, max_value=MEMORY_WORDS - 1).map(lambda w: w * 4)


@st.composite
def _instruction(draw) -> RvInstruction:
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice == 0:
        return RvInstruction(
            draw(st.sampled_from(_R_OPS)), rd=draw(REG), rs1=draw(REG), rs2=draw(REG)
        )
    if choice == 1:
        return RvInstruction(
            draw(st.sampled_from(_I_ALU_OPS)), rd=draw(REG), rs1=draw(REG), imm=draw(IMM12)
        )
    if choice == 2:
        return RvInstruction(
            draw(st.sampled_from(_SHIFT_OPS)), rd=draw(REG), rs1=draw(REG), imm=draw(SHAMT)
        )
    if choice == 3:
        return RvInstruction(RvOpcode.LW, rd=draw(REG), rs1=ZERO, imm=draw(MEM_OFFSET))
    if choice == 4:
        return RvInstruction(RvOpcode.SW, rs1=ZERO, rs2=draw(REG), imm=draw(MEM_OFFSET))
    if choice == 5:
        # Branch with an arbitrary (possibly out-of-program) even target.
        return RvInstruction(
            draw(st.sampled_from(_BRANCH_OPS)),
            rs1=draw(REG),
            rs2=draw(REG),
            imm=draw(st.integers(min_value=-16, max_value=16).map(lambda k: k * 4)),
        )
    if choice == 6:
        return RvInstruction(
            draw(st.sampled_from([RvOpcode.LUI, RvOpcode.AUIPC])),
            rd=draw(REG),
            imm=draw(IMM20),
        )
    return RvInstruction(
        RvOpcode.JAL,
        rd=draw(REG),
        imm=draw(st.integers(min_value=-16, max_value=16).map(lambda k: k * 4)),
    )


@st.composite
def _program(draw) -> RvProgram:
    body = draw(st.lists(_instruction(), min_size=1, max_size=24))
    # A halt at the end keeps straight-line runs terminating; branches and
    # jumps may still leave the program or loop into the instruction limit,
    # and both paths must agree on that outcome too.
    body.append(RvInstruction(RvOpcode.EBREAK))
    return RvProgram("random", tuple(body))


@st.composite
def _cycle_model(draw) -> CpuCycleModel:
    cost = st.integers(min_value=1, max_value=9)
    return CpuCycleModel(
        alu_cycles=draw(cost),
        load_cycles=draw(cost),
        store_cycles=draw(cost),
        mul_cycles=draw(cost),
        mulh_cycles=draw(cost),
        div_cycles=draw(cost),
        branch_not_taken_cycles=draw(cost),
        branch_taken_cycles=draw(cost),
        jump_cycles=draw(cost),
    )


def _run_path(
    program: RvProgram,
    init_words,
    predecode: bool,
    model: CpuCycleModel,
    entry_pc: int = 0,
    max_instructions: int = 2000,
):
    memory = RvMemory(MEMORY_BYTES)
    memory.write_buffer(0, init_words)
    cpu = RiscvCpu(memory, cycle_model=model, max_instructions=max_instructions)
    cpu.predecode = predecode
    error = None
    try:
        cpu.run(program, entry_pc=entry_pc)
    except SimulationError as exc:
        error = str(exc)
    return cpu, error


@given(
    program=_program(),
    init=st.lists(WORD, min_size=MEMORY_WORDS, max_size=MEMORY_WORDS),
    model=_cycle_model(),
)
@settings(max_examples=120, deadline=None)
def test_decoded_path_matches_seed_interpreter(program, init, model):
    decoded_cpu, decoded_error = _run_path(program, init, True, model)
    seed_cpu, seed_error = _run_path(program, init, False, model)

    assert decoded_error == seed_error
    assert decoded_cpu.stats == seed_cpu.stats  # full CpuStats, histogram included
    assert decoded_cpu.halted == seed_cpu.halted
    assert decoded_cpu.pc == seed_cpu.pc
    assert [decoded_cpu.read_reg(i) for i in range(32)] == [
        seed_cpu.read_reg(i) for i in range(32)
    ]
    decoded_image = decoded_cpu.memory.read_buffer(0, MEMORY_WORDS)
    seed_image = seed_cpu.memory.read_buffer(0, MEMORY_WORDS)
    assert np.array_equal(decoded_image, seed_image)


# Offsets that leave the data memory or a word boundary from any base.
ANY_OFFSET = st.one_of(
    MEM_OFFSET, IMM12, st.integers(min_value=-512, max_value=-1).map(lambda w: w * 4)
)


@st.composite
def _wide_instruction(draw) -> RvInstruction:
    choice = draw(st.integers(min_value=0, max_value=9))
    if choice == 0:
        return RvInstruction(RvOpcode.LW, rd=draw(REG), rs1=draw(REG), imm=draw(ANY_OFFSET))
    if choice == 1:
        return RvInstruction(RvOpcode.SW, rs1=draw(REG), rs2=draw(REG), imm=draw(ANY_OFFSET))
    if choice == 2:
        # Targets land mid-block, between instructions or outside the program;
        # with rd == rs1 the link must not clobber the base before it is read.
        rs1 = draw(REG)
        return RvInstruction(
            RvOpcode.JALR,
            rd=draw(st.one_of(st.just(rs1), REG)),
            rs1=rs1,
            imm=draw(st.integers(-8, 120)),
        )
    if choice == 3:
        return RvInstruction(RvOpcode.EBREAK)
    return draw(_instruction())


@given(
    data=st.data(),
    body=st.lists(_wide_instruction(), min_size=1, max_size=24),
    init=st.lists(WORD, max_size=64),
    model=_cycle_model(),
    max_instructions=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=600, deadline=None)
def test_decoded_path_matches_seed_interpreter_at_every_exit(
    data, body, init, model, max_instructions
):
    """Faults, JALRs and the instruction limit stop blocks part-way."""
    program = RvProgram("wide", tuple(body) + (RvInstruction(RvOpcode.EBREAK),))
    entry_pc = data.draw(
        st.one_of(
            st.integers(min_value=0, max_value=len(program) - 1).map(lambda k: k * 4),
            st.integers(min_value=-8, max_value=4 * len(program) + 8),
        )
    )
    runs = [
        _run_path(program, init, predecode, model, entry_pc, max_instructions)
        for predecode in (True, False)
    ]
    (decoded_cpu, decoded_error), (seed_cpu, seed_error) = runs
    event(re.sub(r"-?0x[0-9a-f]+", "X", seed_error or "halted"))
    if seed_cpu.stats.mnemonic_counts.get("jalr"):
        event("jalr executed")

    assert decoded_error == seed_error
    assert decoded_cpu.stats == seed_cpu.stats
    assert (decoded_cpu.pc, decoded_cpu.halted) == (seed_cpu.pc, seed_cpu.halted)
    assert [decoded_cpu.read_reg(i) for i in range(32)] == [
        seed_cpu.read_reg(i) for i in range(32)
    ]
    assert np.array_equal(
        decoded_cpu.memory.read_buffer(0, MEMORY_WORDS),
        seed_cpu.memory.read_buffer(0, MEMORY_WORDS),
    )


# --------------------------------------------------------------------------- #
# Golden cycles of the benchmark programs (paper sizes, seed 2022): the seven
# Table III rows plus the extended suite.  Regenerate deliberately with
# ``python tests/tools/regen_goldens.py`` after an intended ISS change.
# --------------------------------------------------------------------------- #
GOLDEN_CYCLES = {
    "mat_mul": 166028,
    "copy": 5642,
    "vec_mul": 17420,
    "fir": 38667,
    "div_int": 25100,
    "xcorr": 1118220,
    "parallel_sel": 182537,
    "saxpy": 18445,
    "dot": 7719,
    "reduce_sum": 9279,
    "inclusive_scan": 5665,
    "histogram": 7690,
    "transpose": 8715,
    "matmul2d": 43147,
    "conv2d": 11530,
    "bitonic_sort": 69397,
}


def test_golden_covers_all_programs():
    assert sorted(GOLDEN_CYCLES) == sorted(all_riscv_program_names())


@pytest.mark.parametrize("name", sorted(GOLDEN_CYCLES))
def test_decoded_golden_kcycles(name):
    spec = get_riscv_program_spec(name)
    case = spec.default_case()
    stats, _ = case.run()  # output buffers are verified by run(check=True)
    assert stats.cycles == GOLDEN_CYCLES[name]
    assert stats.kcycles == pytest.approx(GOLDEN_CYCLES[name] / 1000.0)


@pytest.mark.parametrize("name", ["copy", "vec_mul"])
def test_seed_interpreter_golden_kcycles(name):
    """Spot-check that the goldens pin the *seed* path too (it is slower)."""
    spec = get_riscv_program_spec(name)
    case = spec.build_case(spec.paper_size, 2022)
    cpu = RiscvCpu(case.memory)
    cpu.predecode = False
    stats, _ = case.run(cpu=cpu)
    assert stats.cycles == GOLDEN_CYCLES[name]


# --------------------------------------------------------------------------- #
# Decode reuse and structure
# --------------------------------------------------------------------------- #
def _sum_loop(iterations: int) -> RvProgram:
    """t1 = iterations + ... + 1, by a count-down loop."""
    asm = RvAssembler(f"sum-{iterations}")
    asm.li(T0, iterations)
    asm.li(T1, 0)
    asm.label("head")
    asm.emit(RvOpcode.ADD, rd=T1, rs1=T1, rs2=T0)
    asm.emit(RvOpcode.ADDI, rd=T0, rs1=T0, imm=-1)
    asm.emit(RvOpcode.BNE, rs1=T0, rs2=ZERO, label="head")
    asm.halt()
    return asm.assemble()


def test_predecoded_program_is_reusable_across_runs():
    program = _sum_loop(3)
    cpu = RiscvCpu(RvMemory())
    decoded = predecode_riscv_program(program, cpu.cycle_model)
    first = cpu.run(program, decoded=decoded)
    first_snapshot = (first.cycles, first.instructions, dict(first.mnemonic_counts))
    cpu.registers = [0] * 32
    second = cpu.run(program, decoded=decoded)
    assert (second.cycles, second.instructions, dict(second.mnemonic_counts)) == first_snapshot
    assert cpu.read_reg(T1) == 6


def test_decode_of_other_instructions_is_rejected():
    cpu = RiscvCpu(RvMemory())
    decoded = predecode_riscv_program(_sum_loop(3), cpu.cycle_model)
    with pytest.raises(SimulationError, match="other instructions"):
        cpu.run(_sum_loop(5), decoded=decoded)
    assert cpu.read_reg(T1) == 0  # nothing ran (it would leave 6, not 15)


def test_decode_for_another_cycle_model_is_rejected():
    program = _sum_loop(3)
    model = CpuCycleModel()
    decoded = predecode_riscv_program(program, CpuCycleModel(branch_taken_cycles=40))
    with pytest.raises(SimulationError, match="another cycle model"):
        RiscvCpu(RvMemory(), cycle_model=model).run(program, decoded=decoded)
    # The decode keeps the model it was built for, even if that model changes.
    decoded = predecode_riscv_program(program, model)
    model.branch_taken_cycles = 40
    with pytest.raises(SimulationError, match="another cycle model"):
        RiscvCpu(RvMemory(), cycle_model=model).run(program, decoded=decoded)


def test_decoded_program_shape():
    asm = RvAssembler("shape")
    asm.li(T0, 1)
    asm.emit(RvOpcode.SW, rs1=ZERO, rs2=T0, imm=4)
    asm.emit(RvOpcode.LW, rd=T1, rs1=ZERO, imm=4)
    asm.halt()
    program = asm.assemble()
    model = CpuCycleModel(alu_cycles=7, load_cycles=2, store_cycles=3)
    decoded = predecode_riscv_program(program, model)
    assert len(decoded) == len(program)
    cpu = RiscvCpu(RvMemory(), cycle_model=model)
    stats = cpu.run(program, decoded=decoded)
    # EBREAK halts and is charged its ALU cost like every non-memory instruction.
    assert cpu.halted and cpu.pc == 4 * len(program)
    assert stats.cycles == 7 * (len(program) - 2) + 3 + 2
    assert stats.loads == stats.mnemonic_counts["lw"] == 1
    assert stats.stores == stats.mnemonic_counts["sw"] == 1

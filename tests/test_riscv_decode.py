"""Pre-decoded RISC-V ISS: equivalence with the seed interpreter.

The decoded path must be bit-exact versus the interpreted path on every
observable: cycle count, full :class:`CpuStats` (including the mnemonic
histogram), architectural registers, the data-memory image, the final PC and
halt flag -- and, when a program faults, the error and the partial state at
the fault.  The first property test drives randomized RV32IM programs (random
ALU soup, memory traffic, branches and jumps with arbitrary targets,
randomized cycle models); the second adds what stops a translated block
part-way: loads and stores at any address, JALRs to arbitrary targets, random
entry PCs and small instruction limits.  The third draws structured loop
nests, which the decoded path runs as one region each: counted loops nested
up to two deep around if/else diamonds, ALU soup, loads and stores that
fault in a later iteration, and JALRs into the middle of a loop block.  The
golden test pins the kcycle counts of the benchmark programs on both paths.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import repro.riscv.programs  # noqa: F401  (registers the benchmark programs)
from repro.errors import SimulationError
from repro.riscv.assembler import RvAssembler, RvProgram, T0, T1, T2, ZERO
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
# Loop regions: structured loop nests against the seed interpreter
# --------------------------------------------------------------------------- #
FLAG, ADDRESS = 9, T2  # the loop test's flag and a counter-scaled address
BODY_REGS = (10, 11, 12, 13, 14, 15, 28, 29)
SOURCE = st.sampled_from((ZERO, T0, T1) + BODY_REGS)
DEST = st.sampled_from(BODY_REGS)


def _piece(draw, asm: RvAssembler) -> None:
    """One straight-line piece of a loop body, or a JALR anywhere."""
    choice = draw(st.integers(min_value=0, max_value=11))
    if choice <= 3:
        asm.emit(draw(st.sampled_from(_R_OPS)), rd=draw(DEST), rs1=draw(SOURCE), rs2=draw(SOURCE))
    elif choice <= 5:
        opcode = draw(st.sampled_from(_I_ALU_OPS + _SHIFT_OPS))
        imm = draw(SHAMT if opcode in _SHIFT_OPS else IMM12)
        asm.emit(opcode, rd=draw(DEST), rs1=draw(SOURCE), imm=imm)
    elif choice == 6:
        asm.emit(RvOpcode.LW, rd=draw(DEST), rs1=ZERO, imm=draw(MEM_OFFSET))
    elif choice == 7:
        asm.emit(RvOpcode.SW, rs1=ZERO, rs2=draw(SOURCE), imm=draw(MEM_OFFSET))
    elif choice <= 10:
        # An address that grows with a loop counter: in the memory in early
        # iterations, past its end (or unaligned) in a later one.
        counter = draw(st.sampled_from((T0, T1)))
        asm.emit(RvOpcode.SLLI, rd=ADDRESS, rs1=counter, imm=draw(st.integers(2, 10)))
        offset = draw(st.sampled_from((0, 4, 8, 1024, 1028, 2)))
        if draw(st.booleans()):
            asm.emit(RvOpcode.LW, rd=draw(DEST), rs1=ADDRESS, imm=offset)
        else:
            asm.emit(RvOpcode.SW, rs1=ADDRESS, rs2=draw(SOURCE), imm=offset)
    else:
        # Any PC of the program or past its end: a loop block's middle, a
        # loop head, the prologue.
        rd = draw(st.sampled_from((ZERO,) + BODY_REGS))
        asm.emit(RvOpcode.JALR, rd=rd, rs1=ZERO, imm=4 * draw(st.integers(0, 40)))


def _body(draw, asm: RvAssembler, depth: int = 0) -> None:
    """ALU soup, memory accesses and if/else diamonds nested up to two deep."""
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if depth < 2 and draw(st.integers(min_value=0, max_value=3)) == 0:
            other, end = asm.unique_label("else"), asm.unique_label("end")
            opcode = draw(st.sampled_from(_BRANCH_OPS))
            asm.emit(opcode, rs1=draw(SOURCE), rs2=draw(SOURCE), label=other)
            _body(draw, asm, depth + 1)
            asm.j(end)
            asm.label(other)
            _body(draw, asm, depth + 1)
            asm.label(end)
        else:
            _piece(draw, asm)


def _counted_loop(draw, asm: RvAssembler, counter: int, nested: bool) -> None:
    """``for counter in range(trips)``, tested at the top with a backward JAL
    (as the CL code generator emits) or at the bottom with a backward branch."""
    trips = draw(st.integers(min_value=1, max_value=5))
    asm.emit(RvOpcode.ADDI, rd=counter, rs1=ZERO, imm=0)
    head = asm.label()
    top_tested = draw(st.booleans())
    if top_tested:
        done = asm.unique_label("done")
        asm.emit(RvOpcode.SLTI, rd=FLAG, rs1=counter, imm=trips)
        asm.emit(RvOpcode.BEQ, rs1=FLAG, rs2=ZERO, label=done)
    _body(draw, asm)
    if nested:
        _counted_loop(draw, asm, T1, nested=False)
        _body(draw, asm)
    asm.emit(RvOpcode.ADDI, rd=counter, rs1=counter, imm=1)
    if top_tested:
        asm.j(head)
        asm.label(done)
    else:
        asm.emit(RvOpcode.SLTI, rd=FLAG, rs1=counter, imm=trips)
        asm.emit(RvOpcode.BNE, rs1=FLAG, rs2=ZERO, label=head)


@st.composite
def _loop_program(draw) -> RvProgram:
    asm = RvAssembler("loops")
    _body(draw, asm)
    _counted_loop(draw, asm, T0, nested=draw(st.booleans()))
    _body(draw, asm)
    asm.halt()
    return asm.assemble()


def _inner_loop_limit_program() -> RvProgram:
    """Three outer iterations of four inner ones, bottom-tested."""
    asm = RvAssembler("inner-limit")
    asm.emit(RvOpcode.ADDI, rd=T0, rs1=ZERO, imm=0)
    asm.label("outer")
    asm.emit(RvOpcode.ADDI, rd=T1, rs1=ZERO, imm=0)
    asm.label("inner")
    asm.emit(RvOpcode.ADD, rd=10, rs1=10, rs2=T1)
    asm.emit(RvOpcode.ADDI, rd=T1, rs1=T1, imm=1)
    asm.emit(RvOpcode.SLTI, rd=FLAG, rs1=T1, imm=4)
    asm.emit(RvOpcode.BNE, rs1=FLAG, rs2=ZERO, label="inner")
    asm.emit(RvOpcode.ADDI, rd=T0, rs1=T0, imm=1)
    asm.emit(RvOpcode.SLTI, rd=FLAG, rs1=T0, imm=3)
    asm.emit(RvOpcode.BNE, rs1=FLAG, rs2=ZERO, label="outer")
    asm.halt()
    return asm.assemble()


def _late_store_fault_program() -> RvProgram:
    """A store to ``counter << 9``, which leaves the memory in iteration five."""
    asm = RvAssembler("late-fault")
    asm.emit(RvOpcode.ADDI, rd=T0, rs1=ZERO, imm=0)
    asm.label("loop")
    asm.emit(RvOpcode.ADDI, rd=10, rs1=10, imm=7)
    asm.emit(RvOpcode.SLLI, rd=ADDRESS, rs1=T0, imm=9)
    asm.emit(RvOpcode.SW, rs1=ADDRESS, rs2=10, imm=0)
    asm.emit(RvOpcode.ADDI, rd=T0, rs1=T0, imm=1)
    asm.emit(RvOpcode.SLTI, rd=FLAG, rs1=T0, imm=6)
    asm.emit(RvOpcode.BNE, rs1=FLAG, rs2=ZERO, label="loop")
    asm.halt()
    return asm.assemble()


def _jalr_into_loop_program() -> RvProgram:
    """A JALR to the third instruction of a loop's only block."""
    asm = RvAssembler("jalr-into-loop")
    asm.emit(RvOpcode.ADDI, rd=T0, rs1=ZERO, imm=0)
    asm.emit(RvOpcode.JALR, rd=13, rs1=ZERO, imm=16)
    asm.label("loop")
    asm.emit(RvOpcode.ADDI, rd=10, rs1=10, imm=3)
    asm.emit(RvOpcode.ADDI, rd=11, rs1=11, imm=5)
    asm.emit(RvOpcode.ADD, rd=12, rs1=10, rs2=11)  # PC 16
    asm.emit(RvOpcode.ADDI, rd=T0, rs1=T0, imm=1)
    asm.emit(RvOpcode.SLTI, rd=FLAG, rs1=T0, imm=3)
    asm.emit(RvOpcode.BNE, rs1=FLAG, rs2=ZERO, label="loop")
    asm.halt()
    return asm.assemble()


@given(
    program=_loop_program(),
    init=st.lists(WORD, max_size=64),
    model=_cycle_model(),
    entry=st.one_of(st.just(0), st.integers(min_value=0, max_value=63)),
    max_instructions=st.integers(min_value=1, max_value=400),
)
# The limit fires in the third inner iteration of the second outer one:
# after whole region passes, single-block steps, then a truncated block.
@example(_inner_loop_limit_program(), [], CpuCycleModel(), 0, 32)
# The store faults in iteration five, inside the region, after four
# iterations changed registers that the region holds in locals.
@example(_late_store_fault_program(), [], CpuCycleModel(), 0, 400)
# The JALR lands on a PC of the loop that is not one of its entries.
@example(_jalr_into_loop_program(), [], CpuCycleModel(), 0, 400)
@settings(max_examples=250, deadline=None)
def test_loop_regions_match_seed_interpreter(program, init, model, entry, max_instructions):
    """Loop nests run as regions; every exit matches the seed interpreter."""
    entry_pc = 4 * (entry % (len(program) + 1))
    runs = [
        _run_path(program, init, predecode, model, entry_pc, max_instructions)
        for predecode in (True, False)
    ]
    (decoded_cpu, decoded_error), (seed_cpu, seed_error) = runs
    event(re.sub(r"-?0x[0-9a-f]+", "X", seed_error or "halted"))

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


def test_loop_nests_are_one_region():
    """Every entry of a nest shares one function; other PCs get their own."""
    program = _inner_loop_limit_program()
    decoded = predecode_riscv_program(program, CpuCycleModel())
    cpu = RiscvCpu(RvMemory(MEMORY_BYTES))
    cpu.run(program, decoded=decoded)
    nest = decoded.blocks[4]
    # The nest spans PCs 4..32: both loop heads and the inner loop's exit.
    assert {pc for pc, region in decoded.blocks.items() if region is nest} == {4, 8, 24}
    assert nest[1] == 8
    assert decoded.blocks[0] is not nest and decoded.blocks[0][1] == decoded.block_length(0)


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

"""Lane ALU, register file, and wavefront divergence state."""

import numpy as np
import pytest

from repro.arch.assembler import Assembler
from repro.arch.config import GGPUConfig
from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import ConfigurationError, SimulationError
from repro.simt import pe
from repro.simt.gpu import GGPUSimulator
from repro.simt.wavefront import Wavefront


# --------------------------------------------------------------------------- #
# PE arithmetic
# --------------------------------------------------------------------------- #
def test_add_sub_wraparound():
    a = np.array([0xFFFFFFFF, 5])
    b = np.array([1, 3])
    assert list(pe.execute_binary(Opcode.ADD, a, b)) == [0, 8]
    assert list(pe.execute_binary(Opcode.SUB, np.array([0]), np.array([1]))) == [0xFFFFFFFF]


def test_signed_comparisons_and_minmax():
    a = np.array([pe.to_unsigned(np.array([-5]))[0], 3])
    b = np.array([2, 3])
    assert list(pe.execute_binary(Opcode.SLT, a, b)) == [1, 0]
    assert list(pe.execute_binary(Opcode.SLTU, a, b)) == [0, 0]
    assert list(pe.execute_binary(Opcode.MIN, a, b)) == [pe.to_unsigned(np.array([-5]))[0], 3]
    assert list(pe.execute_binary(Opcode.MAX, a, b)) == [2, 3]


def test_shifts():
    a = np.array([0x80000000, 0b1100])
    assert list(pe.execute_binary(Opcode.SRL, a, np.array([31, 2]))) == [1, 3]
    assert list(pe.execute_binary(Opcode.SRA, a, np.array([31, 2]))) == [0xFFFFFFFF, 3]
    assert list(pe.execute_binary(Opcode.SLL, np.array([1]), np.array([33]))) == [2]


def test_mul_and_mulh():
    a = np.array([0x7FFFFFFF])
    b = np.array([2])
    assert list(pe.execute_binary(Opcode.MUL, a, b)) == [0xFFFFFFFE]
    minus_one = pe.to_unsigned(np.array([-1]))
    assert list(pe.execute_binary(Opcode.MULH, minus_one, np.array([2]))) == [0xFFFFFFFF]


def test_div_rem_semantics():
    a = pe.to_unsigned(np.array([-7, 7, 5]))
    b = pe.to_unsigned(np.array([2, -2, 0]))
    assert list(pe.to_signed(pe.execute_binary(Opcode.DIV, a, b))) == [-3, -3, -1]
    assert list(pe.to_signed(pe.execute_binary(Opcode.REM, a, b))) == [-1, 1, 5]


def test_immediate_forms():
    a = np.array([10, 20])
    assert list(pe.execute_immediate(Opcode.ADDI, a, -5, 2)) == [5, 15]
    assert list(pe.execute_immediate(Opcode.LI, a, 3, 2)) == [3, 3]
    assert list(pe.execute_immediate(Opcode.LUI, a, 1, 2)) == [1 << 14, 1 << 14]
    with pytest.raises(SimulationError):
        pe.execute_immediate(Opcode.LW, a, 0, 2)
    with pytest.raises(SimulationError):
        pe.execute_binary(Opcode.JMP, a, a)


def test_is_alu_classifiers():
    assert pe.is_binary_alu(Opcode.ADD)
    assert not pe.is_binary_alu(Opcode.ADDI)
    assert pe.is_immediate_alu(Opcode.ADDI)
    assert pe.is_immediate_alu(Opcode.LI)
    assert not pe.is_immediate_alu(Opcode.SW)


# --------------------------------------------------------------------------- #
# Register file
# --------------------------------------------------------------------------- #
def _r0_writes_kernel() -> Kernel:
    """Writes to r0 through every write path of the compute unit, then
    ``out[gid] = r0``: ALU (ramp and int results), LI, LP, a work-item id,
    LW through a uniform and a ramp address, and LLW, each with every lane
    active, and the vector LW and LLW again on the odd lanes only."""
    builder = KernelBuilder("r0_writes", args=(KernelArg("inp"), KernelArg("out")))
    gid, odd, value, addr, lram, inp, out = (
        builder.alloc(name) for name in ("gid", "odd", "value", "addr", "lram", "inp", "out")
    )
    zero = builder.ZERO
    builder.global_id(gid)
    builder.load_arg(inp, "inp")
    builder.load_arg(out, "out")
    builder.emit(Opcode.ADDI, rd=value, rs=gid, imm=1)
    builder.emit(Opcode.SLLI, rd=lram, rs=gid, imm=2)
    builder.emit(Opcode.LSW, rs=lram, rt=value, imm=0)
    builder.address_of_element(addr, inp, gid)
    builder.emit(Opcode.ADD, rd=zero, rs=gid, rt=value)  # a ramp
    builder.emit(Opcode.ADDI, rd=zero, rs=inp, imm=4)  # an int
    builder.emit(Opcode.LI, rd=zero, imm=7)
    builder.load_arg(zero, "out")
    builder.global_id(zero)
    builder.emit(Opcode.LW, rd=zero, rs=inp, imm=4)  # uniform address
    builder.emit(Opcode.LW, rd=zero, rs=addr, imm=0)  # ramp address
    builder.emit(Opcode.LLW, rd=zero, rs=lram, imm=0)
    builder.emit(Opcode.ANDI, rd=odd, rs=gid, imm=1)
    builder.emit(Opcode.PUSHM)
    builder.emit(Opcode.CMASK, rs=odd)  # odd lanes only
    builder.emit(Opcode.LW, rd=zero, rs=addr, imm=0)
    builder.emit(Opcode.LLW, rd=zero, rs=lram, imm=0)
    builder.emit(Opcode.POPM)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=zero, imm=0)
    builder.ret()
    return builder.build()


def test_register_zero_is_hardwired():
    simulator = GGPUSimulator(GGPUConfig(num_cus=1))
    inp = simulator.create_buffer(range(1, 65))
    out = simulator.create_buffer([0xAB] * 64)
    simulator.launch(_r0_writes_kernel(), NDRange(64, 64), {"inp": inp, "out": out})
    assert list(simulator.read_buffer(out, 64)) == [0] * 64


def test_masked_write_preserves_inactive_lanes():
    cu = GGPUSimulator(GGPUConfig(num_cus=1)).compute_units[0]
    wavefront = _wavefront()
    wavefront.registers[5] = np.arange(64, dtype=np.int64)
    wavefront.registers[6] = 4
    wavefront.push_mask()
    wavefront.constrain_mask(np.arange(64) % 2 == 0)
    cu._write_register(wavefront, 5, np.full(64, 99, dtype=np.int64))
    assert wavefront.registers[5].tolist() == [99 if lane % 2 == 0 else lane for lane in range(64)]
    # An equal int keeps the int form, a different one merges into lanes.
    cu._write_register(wavefront, 6, 4)
    assert wavefront.registers[6] == 4 and type(wavefront.registers[6]) is int
    cu._write_register(wavefront, 6, 9)
    assert wavefront.registers[6].tolist() == [9, 4] * 32
    cu._write_register(wavefront, 0, 9)
    assert wavefront.registers[0] == 0


def _program_writing(register: int):
    asm = Assembler(f"uses_r{register}")
    asm.emit(Opcode.LI, rd=register, imm=1)
    asm.emit(Opcode.RET)
    return asm.assemble()


def test_register_index_bounds():
    """The register count is checked once, when a program is bound; the
    issue loop indexes the register list without a check."""
    simulator = GGPUSimulator(GGPUConfig(num_cus=1, num_registers=8))
    cu = simulator.compute_units[0]
    cu.bind(_program_writing(7), simulator.rtm)
    program = _program_writing(9)
    message = "uses register r9 but the register file holds only 8 registers"
    with pytest.raises(SimulationError, match=message):
        cu.bind(program, simulator.rtm)
    with pytest.raises(SimulationError, match=message):
        simulator.launch(Kernel(program.name, program, ()), NDRange(64, 64), {})
    with pytest.raises(ConfigurationError):
        GGPUConfig(num_registers=4)


# --------------------------------------------------------------------------- #
# Wavefront mask stack
# --------------------------------------------------------------------------- #
def _wavefront() -> Wavefront:
    return Wavefront(
        wavefront_id=0,
        workgroup_id=1,
        index_in_workgroup=1,
        wavefront_size=64,
        num_registers=32,
        ndrange=NDRange(256, 128),
    )


def test_work_item_ids():
    wavefront = _wavefront()
    assert wavefront.local_id_dims[0].base == 64
    assert wavefront.global_id_dims[0].base == 64 + 128
    assert wavefront.workgroup_id_dims == (1,)
    assert wavefront.num_active == 64


def test_if_else_mask_sequence():
    wavefront = _wavefront()
    condition = np.zeros(64)
    condition[:16] = 1
    wavefront.push_mask()
    wavefront.constrain_mask(condition)
    assert wavefront.num_active == 16
    wavefront.invert_mask()
    assert wavefront.num_active == 48
    wavefront.pop_mask()
    assert wavefront.num_active == 64
    assert wavefront.mask_depth == 0


def test_mask_stack_underflow_raises():
    wavefront = _wavefront()
    with pytest.raises(SimulationError):
        wavefront.pop_mask()
    with pytest.raises(SimulationError):
        wavefront.invert_mask()


def test_uniform_lane_value_detects_divergence():
    wavefront = _wavefront()
    assert wavefront.uniform_lane_value(np.full(64, 7)) == 7
    values = np.full(64, 7)
    values[3] = 9
    with pytest.raises(SimulationError):
        wavefront.uniform_lane_value(values)


def test_retire_records_completion_time():
    wavefront = _wavefront()
    wavefront.retire(123.5)
    assert wavefront.done and wavefront.completion_time == 123.5

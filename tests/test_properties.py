"""Property-based tests (hypothesis) on core data structures and invariants."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.arch.assembler import IMM_MAX, IMM_MIN, Assembler, decode_instruction, encode_instruction
from repro.arch.isa import Opcode
from repro.arch.kernel import KernelArg, KernelBuilder, NDRange
from repro.riscv.isa import RvInstruction, RvOpcode, decode_rv, encode_rv
from repro.simt import pe
from repro.simt.axi import GlobalMemoryController, MemoryTrafficStats
from repro.simt.cache import CacheStats, DataCache, LineAccess
from repro.arch.config import AxiConfig, CacheConfig
from repro.errors import SimulationError
from repro.tech.sram import SramCompiler, SramMacroSpec
from repro.simt.cu import _lram_ramp
from repro.simt.decode import P_CONST, P_FN, P_RAMP_FN, P_SCALAR_FN, predecode_program
from repro.simt.gpu import GGPUSimulator
from repro.simt.memory import GlobalMemory, LocalMemory
from repro.simt.registers import Affine, lane_vector, merge_lanes, ramp
from repro.arch.config import GGPUConfig

WORD = st.integers(min_value=0, max_value=0xFFFFFFFF)
LANES = 8


def _vec(values):
    return np.array(values, dtype=np.int64)


# --------------------------------------------------------------------------- #
# Lane arithmetic matches a scalar 32-bit reference model
# --------------------------------------------------------------------------- #
@given(st.lists(WORD, min_size=LANES, max_size=LANES), st.lists(WORD, min_size=LANES, max_size=LANES))
@settings(max_examples=60, deadline=None)
def test_add_sub_mul_match_scalar_reference(a_values, b_values):
    a, b = _vec(a_values), _vec(b_values)
    assert list(pe.execute_binary(Opcode.ADD, a, b)) == [(x + y) & 0xFFFFFFFF for x, y in zip(a_values, b_values, strict=True)]
    assert list(pe.execute_binary(Opcode.SUB, a, b)) == [(x - y) & 0xFFFFFFFF for x, y in zip(a_values, b_values, strict=True)]
    assert list(pe.execute_binary(Opcode.MUL, a, b)) == [(x * y) & 0xFFFFFFFF for x, y in zip(a_values, b_values, strict=True)]


@given(st.lists(WORD, min_size=LANES, max_size=LANES), st.lists(WORD, min_size=LANES, max_size=LANES))
# INT_MIN / -1 overflows 32 bits: RV32M gives quotient INT_MIN, remainder 0.
@example([0x80000000] + [7] * (LANES - 1), [0xFFFFFFFF] + [2] * (LANES - 1))
@settings(max_examples=60, deadline=None)
def test_division_matches_truncating_reference(a_values, b_values):
    a, b = _vec(a_values), _vec(b_values)
    quotients = pe.to_signed(pe.execute_binary(Opcode.DIV, a, b))
    remainders = pe.to_signed(pe.execute_binary(Opcode.REM, a, b))
    for x, y, q, r in zip(a_values, b_values, quotients, remainders, strict=True):
        sx = x - (1 << 32) if x & 0x80000000 else x
        sy = y - (1 << 32) if y & 0x80000000 else y
        if sy == 0:
            assert q == -1 and r == sx
        else:
            truncated = abs(sx) // abs(sy)
            if (sx < 0) != (sy < 0):
                truncated = -truncated
            expected_q = ((truncated + (1 << 31)) % (1 << 32)) - (1 << 31)  # wrap to 32 bits
            assert q == expected_q
            assert r == sx - truncated * sy
            assert (q * sy + r - sx) % (1 << 32) == 0  # division invariant, modulo 2**32


@given(st.lists(WORD, min_size=LANES, max_size=LANES), st.integers(0, 31))
@settings(max_examples=40, deadline=None)
def test_shift_identities(values, amount):
    a = _vec(values)
    shift = _vec([amount] * LANES)
    left = pe.execute_binary(Opcode.SLL, a, shift)
    assert list(left) == [(value << amount) & 0xFFFFFFFF for value in values]
    right = pe.execute_binary(Opcode.SRL, a, shift)
    assert list(right) == [value >> amount for value in values]


# --------------------------------------------------------------------------- #
# Scalar ALU forms (int registers) match every lane of the lane operation
# --------------------------------------------------------------------------- #
# Word edges, plus the shift amounts on both sides of the 5-bit shift field.
EDGE_WORDS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 31, 32, 33)
OPERAND = st.one_of(st.sampled_from(EDGE_WORDS), WORD)
IMMEDIATE = st.one_of(
    st.sampled_from((0, 1, -1, 31, 32, 33, IMM_MIN, IMM_MAX)), st.integers(IMM_MIN, IMM_MAX)
)
REGISTER_OPCODES = [opcode for opcode in Opcode if pe.is_binary_alu(opcode)]
IMMEDIATE_OPCODES = [
    opcode
    for opcode in Opcode
    if pe.is_immediate_alu(opcode) and opcode not in (Opcode.LI, Opcode.LUI)
]


def test_every_alu_opcode_has_a_scalar_form_under_test():
    assert len(REGISTER_OPCODES) == 16
    assert len(IMMEDIATE_OPCODES) == 9


@pytest.mark.parametrize("opcode", REGISTER_OPCODES, ids=lambda opcode: opcode.mnemonic)
@given(a=OPERAND, b=OPERAND)
@example(a=0x80000000, b=0xFFFFFFFF)  # INT_MIN / -1
@example(a=7, b=0)  # x / 0 and x % 0
@example(a=0xFFFFFFF9, b=0x80000000)  # MULH of two negative numbers
@settings(max_examples=80, deadline=None)
def test_scalar_register_form_matches_every_lane(opcode, a, b):
    lane_form, scalar_form = pe.binary_operation(opcode)
    a_lanes = np.full(LANES, a, dtype=np.int64)
    b_lanes = np.full(LANES, b, dtype=np.int64)
    expected = lane_form(a_lanes, b_lanes).tolist()
    result = scalar_form(a, b)
    assert type(result) is int
    assert expected == [result] * LANES
    # One int operand and one lane vector broadcast to the same lanes.
    assert lane_form(a, b_lanes).tolist() == expected
    assert lane_form(a_lanes, b).tolist() == expected


@pytest.mark.parametrize("opcode", IMMEDIATE_OPCODES, ids=lambda opcode: opcode.mnemonic)
@given(a=OPERAND, imm=IMMEDIATE)
@settings(max_examples=80, deadline=None)
def test_scalar_immediate_form_matches_every_lane(opcode, a, imm):
    asm = Assembler("imm")
    asm.emit(opcode, rd=1, rs=2, imm=imm)
    (op,) = predecode_program(asm.assemble()).ops
    a_lanes = np.full(LANES, a, dtype=np.int64)
    expected = pe.execute_immediate(opcode, a_lanes, imm, LANES).tolist()
    result = op[P_SCALAR_FN](a, op[P_CONST])
    assert type(result) is int
    assert expected == [result] * LANES
    assert op[P_FN](a_lanes, op[P_CONST]).tolist() == expected


# --------------------------------------------------------------------------- #
# Lane ramps (Affine registers) match their lane vectors
# --------------------------------------------------------------------------- #
RAMP_MEMORY_BYTES = 1 << 16  # small, so that ramps run past its end
RAMP_MEMORY_WORDS = (np.arange(RAMP_MEMORY_BYTES // 4, dtype=np.int64) * 2654435761) & 0xFFFFFFFF
LRAM_WORDS = 2048
# Half the ramps are word-aligned and mostly in range; the others have any
# base (unaligned, past the end, wrapping past 2**32 going up) and any stride
# (negative, odd, unaligned, >= 2**31 and line-multiple).
ALIGNED_RAMP = st.tuples(
    st.integers(0, RAMP_MEMORY_BYTES // 4 + 64).map(lambda word: 4 * word),
    st.sampled_from((4, -4, 8, 64, -64, 68, 256)),
)
ANY_RAMP = st.tuples(
    st.one_of(
        st.integers(0, RAMP_MEMORY_BYTES + 1024),
        st.integers((1 << 32) - 2048, (1 << 32) - 1),
        WORD,
    ),
    st.one_of(
        st.sampled_from((1, 2, 3, 4, -4, 60, 64, 4096, 1 << 31, (1 << 31) + 4)),
        st.integers(-(1 << 32), 1 << 32),
    ),
)


@st.composite
def _ramps(draw, lanes=None):
    lanes = lanes or draw(st.sampled_from((1, 2, 16, 64)))
    base, stride = draw(st.one_of(ALIGNED_RAMP, ANY_RAMP))
    value = ramp(base, stride, lanes)
    assume(type(value) is Affine)  # a stride of 0 modulo 2**32 is an int
    return value


def _operand(draw, lanes):
    kind = draw(st.sampled_from(("ramp", "int", "lanes")))
    if kind == "ramp":
        return draw(_ramps(lanes))
    if kind == "int":
        return draw(OPERAND)
    return np.array(draw(st.lists(WORD, min_size=lanes, max_size=lanes)), dtype=np.int64)


def _shares_one_block(ramp_value: Affine, shift: int) -> bool:
    """Whether a ramp that does not wrap past 2**32 has every lane in one
    ``2**shift`` block, judged from its lanes."""
    if not 0 <= ramp_value.last <= 0xFFFFFFFF:
        return False
    return len(set((ramp_value.vector() >> shift).tolist())) == 1


def _keeps_form(opcode: Opcode, operands, expected) -> bool:
    """Whether the ramp rules promise a ramp or an int for these operands,
    whose lane-form result is ``expected``."""
    kinds = [type(value) for value in operands]
    ramp_and_int = set(kinds) == {Affine, int}
    if opcode in (Opcode.ADD, Opcode.SUB):
        return np.ndarray not in kinds
    if opcode is Opcode.MUL:
        return ramp_and_int
    if opcode in (Opcode.SLL, Opcode.SRL) and kinds == [Affine, int]:
        ramp_value, shift = operands[0], operands[1] & 0x1F
        return opcode is Opcode.SLL or (
            ramp_value.stride % (1 << shift) == 0 and 0 <= ramp_value.last <= 0xFFFFFFFF
        ) or _shares_one_block(ramp_value, shift)
    if opcode is Opcode.AND and ramp_and_int:
        ramp_value, mask = sorted(operands, key=lambda value: type(value) is int)
        shift = mask.bit_length()
        return mask == (1 << shift) - 1 and (
            ramp_value.stride % (1 << shift) == 0 or _shares_one_block(ramp_value, shift)
        )
    if opcode in (Opcode.SLT, Opcode.SLTU) and ramp_and_int:
        # One answer on every lane of a ramp that is monotonic in the
        # compared (signed or unsigned) order.
        ramp_value = operands[kinds.index(Affine)]
        first = ramp_value.base ^ (0x80000000 if opcode is Opcode.SLT else 0)
        last = first + ramp_value.stride * (ramp_value.lanes - 1)
        return 0 <= last <= 0xFFFFFFFF and len(set(expected.tolist())) == 1
    return False


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_ramp_forms_match_the_lane_form(data):
    """Every ALU opcode's ramp form, register and immediate, equals its lane
    form on the expanded operands, and an ``Affine`` expands to its lanes and
    is canonical.  Each form-keeping rule keeps the form: ADD and SUB of
    ramps and ints, SLL and MUL of a ramp by an int, SRL and AND with a low
    mask of a ramp that does not wrap past 2**32 and shares one block, or
    whose stride is a multiple of the block, and SLT and SLTU of a ramp
    that does not wrap in the compared order against an int that every
    lane compares alike to."""
    opcode = data.draw(st.sampled_from(REGISTER_OPCODES + IMMEDIATE_OPCODES))
    first = data.draw(_ramps())
    lanes = first.lanes
    if opcode in IMMEDIATE_OPCODES:
        asm = Assembler("imm")
        asm.emit(opcode, rd=1, rs=2, imm=data.draw(IMMEDIATE))
        (op,) = predecode_program(asm.assemble()).ops
        operands, ramp_form, lane_form = (first, op[P_CONST]), op[P_RAMP_FN], op[P_FN]
        opcode = pe.immediate_base(opcode)
    else:
        other = _operand(data.draw, lanes)
        operands = data.draw(st.sampled_from(((first, other), (other, first))))
        ramp_form, (lane_form, _) = pe.ramp_operation(opcode), pe.binary_operation(opcode)
    for value in operands:
        if type(value) is Affine:
            assert value.vector().tolist() == [
                (value.base + value.stride * lane) & 0xFFFFFFFF for lane in range(lanes)
            ]
    result = ramp_form(*operands)
    expected = lane_form(*(lane_vector(value, lanes) for value in operands))
    assert lane_vector(result, lanes).tolist() == expected.tolist()
    if type(result) is Affine:
        assert result.lanes == lanes and 0 <= result.base <= 0xFFFFFFFF
        assert -(1 << 31) <= result.stride < (1 << 31) and result.stride != 0
    assert (type(result) is not np.ndarray) == _keeps_form(opcode, operands, expected)


def test_ramp_rules_keep_the_library_kernels_index_shapes():
    """On one 64-lane wavefront, ``gid >> 6`` is its row, one int, and
    ``gid & 63`` its column ramp (mat_mul and transpose); ``lid < stride``
    (the tree reductions) and ``0 < sample - gid`` (histogram) are one int
    unless the int falls inside the ramp."""
    gid = Affine(128, 1, 64)
    assert pe.ramp_operation(Opcode.SRL)(gid, 6) == 2
    column = pe.ramp_operation(Opcode.AND)(63, gid)
    assert (type(column), column.base, column.stride) == (Affine, 0, 1)
    slt, sltu, sub = (pe.ramp_operation(opcode) for opcode in (Opcode.SLT, Opcode.SLTU, Opcode.SUB))
    assert (slt(gid, 256), slt(gid, 128)) == (1, 0)
    assert slt(gid, 160).tolist() == [1] * 32 + [0] * 32
    assert sltu(0, sub(3, gid)) == 1
    assert sltu(0, sub(130, gid)).tolist() == [1, 1, 0] + [1] * 61


def _outcome(function, *arguments):
    """A call's result as plain data, or the text of the ``SimulationError`` it raised."""
    try:
        result = function(*arguments)
    except SimulationError as error:
        return ("error", str(error))
    return ("ok", None if result is None else result.tolist())


@given(
    addresses=_ramps(),
    values=st.one_of(WORD, st.lists(WORD, min_size=64, max_size=64)),
    period=st.sampled_from((256, 682, LRAM_WORDS)),
    slot=st.integers(0, 7),
    mask=st.lists(st.booleans(), min_size=64, max_size=64),
)
@example(Affine(0, 4, 64), 7, 256, 1, [True] * 64)  # an aligned in-range ramp
@example(Affine(252, -4, 64), [5] * 64, 256, 0, [True] * 64)  # descending to word 0
@example(Affine(RAMP_MEMORY_BYTES - 128, 4, 64), 7, 256, 0, [True] * 64)  # runs off the end
@example(Affine((1 << 32) - 8, 4, 64), 7, 256, 0, [True] * 64)  # wraps past 2**32
@example(Affine(2, 4, 64), 7, 256, 0, [True] * 64)  # unaligned base
@example(Affine(0, 2, 64), 7, 256, 0, [True] * 64)  # unaligned stride
@example(Affine(4 * 248, 4, 64), 7, 256, 3, [True] * 64)  # crosses an LRAM window period
@example(Affine(0, 64, 64), 7, LRAM_WORDS, 0, [True, False] * 32)  # line-multiple stride
@settings(max_examples=120, deadline=None)
def test_ramp_memory_paths_match_the_lane_vector_path(addresses, values, period, slot, mask):
    """Global loads and stores, coalescing, LRAM words and masked merges of a
    ramp equal those of its lane vector: the same words, lines, memory
    contents and written prefix, or the same error text (which names the
    first bad lane's address)."""
    lanes = addresses.lanes
    vector = addresses.vector()
    if type(values) is list:
        values = np.array(values[:lanes], dtype=np.int64)
    memories = [GlobalMemory(RAMP_MEMORY_BYTES) for _ in range(2)]
    for memory in memories:
        memory.write_buffer(0, RAMP_MEMORY_WORDS)
    for method in ("load_words", "store_words"):
        arguments = () if method == "load_words" else (values,)
        ramped = _outcome(getattr(memories[0], method), addresses, *arguments)
        assert ramped == _outcome(getattr(memories[1], method), vector, *arguments)
    assert np.array_equal(memories[0]._words, memories[1]._words)
    assert memories[0]._dirty_words == memories[1]._dirty_words
    for line_bytes in (64, 256):
        cache = DataCache(CacheConfig(line_bytes=line_bytes))
        assert list(cache.coalesce_lines(addresses)) == cache.coalesce_lines(vector)
    window = slot % (LRAM_WORDS // period) * period
    words = _lram_ramp(addresses, window, period)
    expected = window + (vector >> 2) % period
    if words is not None:
        assert list(words) == expected.tolist()
        lrams = [LocalMemory(LRAM_WORDS) for _ in range(2)]
        loaded = []
        for lram, indices in zip(lrams, (words, expected)):
            lram.store_words(np.arange(LRAM_WORDS), RAMP_MEMORY_WORDS[:LRAM_WORDS])
            loaded.append(lram.load_words(indices).tolist())
            lram.store_words(indices, values)
        assert loaded[0] == loaded[1]
        assert np.array_equal(lrams[0]._words, lrams[1]._words)
    lane_mask = np.array(mask[:lanes])
    merged = merge_lanes(lane_mask, addresses, values)
    assert type(merged) is np.ndarray
    assert merged.tolist() == np.where(lane_mask, vector, values).tolist()


# --------------------------------------------------------------------------- #
# SLT/SLTU match the two's-complement folds they replaced
# --------------------------------------------------------------------------- #
def _folded_signed(values):
    values = np.asarray(values, dtype=np.int64)
    return ((values + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def _folded_slt(a, b):
    return (_folded_signed(a) < _folded_signed(b)).astype(np.int64)


def _folded_sltu(a, b):
    return ((a & 0xFFFFFFFF) < (b & 0xFFFFFFFF)).astype(np.int64)


COMPARE_LANES = st.lists(OPERAND, min_size=LANES, max_size=LANES)


@pytest.mark.parametrize(
    "opcode, folded", [(Opcode.SLT, _folded_slt), (Opcode.SLTU, _folded_sltu)], ids=["SLT", "SLTU"]
)
@given(a_values=COMPARE_LANES, b_values=COMPARE_LANES)
@example(
    a_values=[0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFF, 0x80000000, 0],
    b_values=[0xFFFFFFFF, 0x80000000, 0x80000000, 0x7FFFFFFF, 1, 0, 0xFFFFFFFF, 0],
)
@settings(max_examples=80, deadline=None)
def test_slt_and_sltu_match_the_signed_folds(opcode, folded, a_values, b_values):
    """The one-compare SLT/SLTU equal the ``to_signed`` forms on u32 lanes:
    the lane form on vector-vector, vector-int and int-vector operands, and
    the scalar form on every lane's pair of ints."""
    lane_form, scalar_form = pe.binary_operation(opcode)
    a, b = _vec(a_values), _vec(b_values)
    for x, y in ((a, b), (a, b_values[0]), (a_values[0], b)):
        result = lane_form(x, y)
        assert result.dtype == np.int64
        assert result.tolist() == folded(np.asarray(x), np.asarray(y)).tolist()
    for x, y in zip(a_values, b_values, strict=True):
        result = scalar_form(x, y)
        assert type(result) is int
        assert result == int(folded(np.int64(x), np.int64(y)))


# --------------------------------------------------------------------------- #
# Encoders are lossless
# --------------------------------------------------------------------------- #
@given(
    st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.XOR, Opcode.SLT]),
    st.integers(0, 31),
    st.integers(0, 31),
    st.integers(0, 31),
)
@settings(max_examples=60, deadline=None)
def test_simt_rtype_encoding_round_trip(opcode, rd, rs, rt):
    asm = Assembler("prop")
    instruction = asm.emit(opcode, rd=rd, rs=rs, rt=rt)
    decoded = decode_instruction(encode_instruction(instruction))
    assert decoded.opcode is opcode
    assert (int(decoded.rd), int(decoded.rs), int(decoded.rt)) == (rd, rs, rt)


@given(st.integers(0, 31), st.integers(0, 31), st.integers(-8192, 8191))
@settings(max_examples=60, deadline=None)
def test_simt_itype_encoding_round_trip(rd, rs, imm):
    asm = Assembler("prop")
    instruction = asm.emit(Opcode.ADDI, rd=rd, rs=rs, imm=imm)
    decoded = decode_instruction(encode_instruction(instruction))
    assert decoded.imm == imm and int(decoded.rd) == rd and int(decoded.rs) == rs


@given(st.integers(0, 31), st.integers(0, 31), st.integers(-2048, 2047))
@settings(max_examples=60, deadline=None)
def test_riscv_itype_round_trip(rd, rs1, imm):
    instruction = RvInstruction(RvOpcode.ADDI, rd=rd, rs1=rs1, imm=imm)
    decoded = decode_rv(encode_rv(instruction))
    assert decoded.opcode is RvOpcode.ADDI
    assert (decoded.rd, decoded.rs1, decoded.imm) == (rd, rs1, imm)


@given(st.integers(0, 31), st.integers(0, 31), st.integers(-2048, 2047))
@settings(max_examples=60, deadline=None)
def test_riscv_store_round_trip(rs1, rs2, imm):
    instruction = RvInstruction(RvOpcode.SW, rs1=rs1, rs2=rs2, imm=imm)
    decoded = decode_rv(encode_rv(instruction))
    assert (decoded.rs1, decoded.rs2, decoded.imm) == (rs1, rs2, imm)


# --------------------------------------------------------------------------- #
# SRAM compiler monotonicity
# --------------------------------------------------------------------------- #
@given(
    st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]),
    st.sampled_from([8, 16, 32, 64, 128]),
)
@settings(max_examples=40, deadline=None)
def test_sram_split_always_trades_area_for_delay(words, bits):
    compiler = SramCompiler()
    whole = SramMacroSpec(words, bits)
    half = compiler.smallest_valid_split(whole)
    assert compiler.access_delay_ns(half) < compiler.access_delay_ns(whole)
    assert 2 * compiler.area_um2(half) > compiler.area_um2(whole)
    assert 2 * compiler.dynamic_mw(half, 500.0) > compiler.dynamic_mw(whole, 500.0)


# --------------------------------------------------------------------------- #
# Cache invariants
# --------------------------------------------------------------------------- #
@given(st.lists(st.integers(0, 8191), min_size=1, max_size=100))
@settings(max_examples=40, deadline=None)
def test_cache_accounting_invariants(word_indices):
    cache = DataCache(CacheConfig(size_bytes=2048, line_bytes=64))
    for index in word_indices:
        cache.access_line(cache.line_address(index * 4), is_write=bool(index % 2))
    stats = cache.stats
    assert stats.accesses == len(word_indices)
    assert 0 <= stats.misses <= stats.accesses
    assert 0.0 <= stats.hit_rate <= 1.0
    assert stats.write_backs <= stats.misses
    assert len(cache.resident_lines()) <= cache.config.num_lines


SMALL_CACHE = CacheConfig(size_bytes=512, line_bytes=64)  # 8 lines
WORD_INDEX = st.integers(0, 1023)  # 64 lines: accesses alias and evict
CACHE_ACCESS = st.tuples(
    st.one_of(WORD_INDEX.map(lambda index: [index]), st.lists(WORD_INDEX, min_size=2, max_size=12)),
    st.booleans(),
)


@given(st.lists(CACHE_ACCESS, min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_single_line_probe_matches_the_sorted_probe(accesses):
    """A one-line access through ``access_line`` (the wavefront-uniform load
    probe) and through ``access_sorted_lines`` leaves identical caches."""
    uniform, reference = DataCache(SMALL_CACHE), DataCache(SMALL_CACHE)
    for word_indices, is_write in accesses:
        lines = reference.coalesce_lines([4 * index for index in word_indices])
        expected = reference.access_sorted_lines(lines, is_write)
        if len(lines) == 1:
            outcome = uniform.access_line(uniform.line_address(4 * word_indices[0]), is_write)
            observed = ([], 0) if outcome.hit else ([int(outcome.write_back)], -1)
        else:
            observed = uniform.access_sorted_lines(lines, is_write)
        assert observed == expected
    assert uniform._tags == reference._tags
    assert uniform._dirty == reference._dirty
    assert uniform.stats == reference.stats


def _expand(misses):
    """A probe's misses as ``position << 1 | write_back`` ints: a run served
    by slices returns them in its compact form, checked here for
    consistency."""
    if type(misses) is not tuple:
        return misses
    count, write_backs, last, victims = misses
    assert count == len(victims) > 0 and write_backs == victims.count(True)
    first = last - count + 1
    return [(first + offset) << 1 | victim for offset, victim in enumerate(victims)]


def _set_lines(cache: DataCache):
    """Each set's line address, -1 when invalid: a tag holds the address bits
    above the set index."""
    config = cache.config
    return [
        -1 if tag == -1 else tag * config.size_bytes + index * config.line_bytes
        for index, tag in enumerate(cache._tags)
    ]


def _compact(hit_list, wb_list, count):
    """Per-line probe outcomes as ``access_sorted_lines`` returns them:
    ``(misses, last_hit)``, one ``position << 1 | write_back`` per miss.
    ``hit_list`` is ``None`` for an access that hit on every line."""
    if hit_list is None:
        hit_list, wb_list = [True] * count, [False] * count
    misses = [
        position << 1 | write_back
        for position, (hit, write_back) in enumerate(zip(hit_list, wb_list))
        if not hit
    ]
    hits = [position for position, hit in enumerate(hit_list) if hit]
    return misses, hits[-1] if hits else -1


class _NumpyCacheReference:
    """The tags-only cache probed with numpy arrays, as before the list probe.

    A coalesced access is probed in a handful of vector operations and
    replayed line by line through ``access_line`` when two of its lines
    alias one direct-mapped set.  ``access_sorted_lines`` converts the
    per-line outcomes to the list probe's ``(misses, last_hit)``.
    """

    def __init__(self, config: CacheConfig) -> None:
        self._tags = np.full(config.num_lines, -1, dtype=np.int64)
        self._dirty = np.zeros(config.num_lines, dtype=bool)
        self.stats = CacheStats()
        self._line_bytes = config.line_bytes
        self._span_bytes = config.line_bytes * config.num_lines
        self._line_shift = config.line_bytes.bit_length() - 1
        self._index_mask = config.num_lines - 1

    def coalesce_lines(self, byte_addresses) -> np.ndarray:
        addresses = np.asarray(byte_addresses, dtype=np.int64)
        lines = addresses & ~(self._line_bytes - 1)
        if addresses.size <= 1:
            return lines
        steps = lines[1:] - lines[:-1]
        smallest_step = int(steps.min())
        if smallest_step > 0:
            return lines
        if smallest_step == 0:
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = True
            np.not_equal(steps, 0, out=keep[1:])
            return lines[keep]
        return np.unique(lines)

    def access_line(self, line_address: int, is_write: bool) -> LineAccess:
        index = (line_address >> self._line_shift) & self._index_mask
        stats = self.stats
        if is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1
        tag = int(self._tags[index])
        if tag == line_address:
            if is_write:
                self._dirty[index] = True
            return LineAccess(line_address, True, False)
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        write_back = tag != -1 and bool(self._dirty[index])
        if write_back:
            stats.write_backs += 1
        self._tags[index] = line_address
        self._dirty[index] = is_write
        return LineAccess(line_address, False, write_back)

    def access_sorted_lines(self, lines: np.ndarray, is_write: bool):
        hit_list, wb_list, _ = self._outcomes(lines, is_write)
        return _compact(hit_list, wb_list, lines.size)

    def _outcomes(self, lines: np.ndarray, is_write: bool):
        count = lines.size
        if count == 0:
            return None, None, 0
        indices = (lines >> self._line_shift) & self._index_mask
        if count > 1 and int(lines[-1]) - int(lines[0]) >= self._span_bytes:
            if np.unique(indices).size != count:
                outcomes = [self.access_line(line, is_write) for line in lines.tolist()]
                return (
                    [outcome.hit for outcome in outcomes],
                    [outcome.write_back for outcome in outcomes],
                    sum(not outcome.hit for outcome in outcomes),
                )
        tags = self._tags[indices]
        hits = tags == lines
        num_misses = count - int(hits.sum())
        stats = self.stats
        if is_write:
            stats.write_accesses += count
            stats.write_misses += num_misses
        else:
            stats.read_accesses += count
            stats.read_misses += num_misses
        if num_misses == 0:
            if is_write:
                self._dirty[indices] = True
            return None, None, 0
        misses = ~hits
        write_backs = misses & (tags != -1) & self._dirty[indices]
        stats.write_backs += int(write_backs.sum())
        miss_indices = indices[misses]
        self._tags[miss_indices] = lines[misses]
        self._dirty[miss_indices] = False
        if is_write:
            self._dirty[indices] = True
        return hits.tolist(), write_backs.tolist(), num_misses

    def flush(self) -> int:
        flushed = int(((self._tags != -1) & self._dirty).sum())
        self._dirty[:] = False
        self.stats.write_backs += flushed
        return flushed


@st.composite
def _lane_words(draw):
    """Word indices of 1-64 lanes: ascending, repeated, descending or scattered."""
    lanes = draw(st.integers(1, 64))
    shape = draw(st.sampled_from(("ascending", "repeated", "descending", "scattered")))
    if shape == "scattered":
        return draw(st.lists(st.integers(0, 1 << 16), min_size=lanes, max_size=lanes))
    # Strides in words: 128 words span the 8-line cache, 8192 the 512-line one.
    stride = draw(st.sampled_from((0, 1, 4, 16, 64, 128, 256, 8192)))
    base = draw(st.integers(0, 1 << 16))
    if shape == "repeated":
        group = draw(st.integers(2, 16))
        return [base + stride * (lane // group) for lane in range(lanes)]
    words = [base + stride * lane for lane in range(lanes)]
    return words[::-1] if shape == "descending" else words


# A ramp whose lines are consecutive, (first word, stride in bytes, lanes):
# coalesced to a ``range``, the input of the slice-served run probe.
LINE_RUN = st.tuples(
    st.integers(0, 1 << 16), st.sampled_from((4, 16, 64, -4, -64)), st.integers(1, 64)
)

# (lane words or a line run, is_write, probe the first lane's line through
# access_line, flush after)
PROBE_STEP = st.tuples(
    st.one_of(_lane_words(), LINE_RUN),
    st.booleans(),
    st.booleans(),
    st.sampled_from((False,) * 7 + (True,)),
)


@pytest.mark.parametrize(
    "config, window_words",
    # Addresses wrap in a window of four cache spans, so lines are revisited.
    [(SMALL_CACHE, 4 * 128), (CacheConfig(), 4 * 8192)],
    ids=["8-line", "512-line"],
)
@given(steps=st.lists(PROBE_STEP, min_size=1, max_size=30))
@example(steps=[([0], False, False, False), ([0], True, False, True)])  # a write hit dirties
@example(steps=[([0], True, True, False), ([128], False, True, True)])  # a miss cleans
@example(steps=[(list(range(63, -1, -1)), True, False, True)])  # descending lanes
@example(steps=[([8192 * lane for lane in range(4)], True, False, True)])  # one access aliases
# Line runs (a line is 16 words): the second access of each example hits a
# prefix, a suffix, the middle and both ends; the last pair wraps in 8 sets.
@example(steps=[((32, 64, 2), True, False, False), ((32, 64, 5), False, False, False)])
@example(steps=[((80, 64, 2), False, False, False), ((48, 64, 4), True, False, False)])
@example(steps=[((64, 64, 1), True, False, False), ((48, 4, 48), True, False, False)])
@example(
    steps=[
        ((48, 64, 1), True, False, False),
        ((96, 64, 1), False, False, False),
        ((48, 64, 4), False, False, False),
    ]
)
@example(steps=[((96, 64, 4), True, False, False), ((96, 16, 16), False, False, True)])
@settings(max_examples=60, deadline=None)
def test_list_probe_matches_the_numpy_probe(config, window_words, steps):
    """The list-held cache gives the numpy probe's line lists, outcomes,
    statistics, per-set lines, dirty bits and flush counts after every step,
    whether an access is probed line by line or served by slices."""
    cache, reference = DataCache(config), _NumpyCacheReference(config)
    for access, is_write, single_line, flush_after in steps:
        if type(access) is tuple:
            word, stride, lanes = access
            addresses = Affine(4 * (word % window_words), stride, lanes)
            vector = addresses.vector()
        else:
            addresses = vector = np.array(
                [4 * (word % window_words) for word in access], dtype=np.int64
            )
        lines = cache.coalesce_lines(addresses)
        expected_lines = reference.coalesce_lines(vector)
        assert list(lines) == expected_lines.tolist()
        if single_line:
            line = cache.line_address(int(vector[0]))
            assert cache.access_line(line, is_write) == reference.access_line(line, is_write)
        else:
            misses, last_hit = cache.access_sorted_lines(lines, is_write)
            expected = reference.access_sorted_lines(expected_lines, is_write)
            assert (_expand(misses), last_hit) == expected
        assert cache.stats == reference.stats
        assert _set_lines(cache) == reference._tags.tolist()
        assert cache._dirty == reference._dirty.tolist()
        if flush_after:
            assert cache.flush() == reference.flush()
            assert cache.stats == reference.stats
            assert cache._dirty == reference._dirty.tolist()


def _hit_patterns(count):
    """``(hit positions, served by slices)`` of a run of ``count`` lines: all,
    none, a prefix and a suffix of 1, half and all but one line, the middle
    and both ends."""
    yield range(count), True
    yield (), True
    for hits in sorted({1, count // 2, count - 1} - {0, count}):
        yield range(hits), True
        yield range(count - hits, count), True
    if count >= 3:
        yield range(1, count - 1), False
        yield (0, count - 1), False


@pytest.mark.parametrize(
    "config, starts, counts",
    [(SMALL_CACHE, range(8), range(1, 9)), (CacheConfig(), (0, 255, 449, 511), (4, 64))],
    ids=["8-line", "512-line"],
)
def test_run_probe_serves_every_alignment_and_hit_pattern(config, starts, counts):
    """A run of consecutive lines from every start set with every hit
    pattern: it is served by slices exactly when it does not wrap past the
    last set and its hits are all, none or one run at either end, and the
    outcome and the state equal the numpy probe's either way.  Missing lines
    find their set invalid, or holding another line, clean or dirty."""
    line_bytes = config.line_bytes
    for start in starts:
        for count in counts:
            for hits, served in _hit_patterns(count):
                for is_write in (False, True):
                    cache, reference = DataCache(config), _NumpyCacheReference(config)
                    first = config.size_bytes + start * line_bytes
                    lines = range(first, first + count * line_bytes, line_bytes)
                    for position, line in enumerate(lines):
                        if position not in hits:
                            if position % 3 == 2:
                                continue
                            line += config.size_bytes  # another line of the set
                        for model in (cache, reference):
                            model.access_line(line, position % 2 == 0)
                    misses, last_hit = cache.access_sorted_lines(lines, is_write)
                    wraps = start + count > config.num_lines
                    assert (type(misses) is tuple) == (served and len(hits) < count and not wraps)
                    expected = reference.access_sorted_lines(np.array(lines), is_write)
                    assert (_expand(misses), last_hit) == expected
                    assert cache.stats == reference.stats
                    assert _set_lines(cache) == reference._tags.tolist()
                    assert cache._dirty == reference._dirty.tolist()


# --------------------------------------------------------------------------- #
# End-to-end kernel property: the simulator computes saxpy-like results for
# arbitrary inputs.
# --------------------------------------------------------------------------- #
@given(st.lists(st.integers(0, 2**15), min_size=64, max_size=64), st.integers(0, 255))
@settings(max_examples=10, deadline=None)
def test_scale_kernel_property(values, scale):
    builder = KernelBuilder("scale", args=(KernelArg("buf"), KernelArg("k", "scalar")))
    gid = builder.alloc("gid")
    buf = builder.alloc("buf")
    k = builder.alloc("k")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    builder.global_id(gid)
    builder.load_arg(buf, "buf")
    builder.load_arg(k, "k")
    builder.address_of_element(addr, buf, gid)
    builder.emit(Opcode.LW, rd=value, rs=addr, imm=0)
    builder.emit(Opcode.MUL, rd=value, rs=value, rt=k)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    kernel = builder.build()

    simulator = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=1024 * 1024)
    base = simulator.create_buffer(values)
    simulator.launch(kernel, NDRange(64, 64), {"buf": base, "k": scale})
    observed = simulator.read_buffer(base, 64)
    assert list(observed) == [(value * scale) & 0xFFFFFFFF for value in values]


# --------------------------------------------------------------------------- #
# The AXI ports' free-time heap against the lowest-index scan it replaced
# --------------------------------------------------------------------------- #
class _ScannedPorts:
    """The port model as a list scanned for the lowest-indexed earliest port."""

    def __init__(self, controller: GlobalMemoryController) -> None:
        self.free = [0.0] * controller.axi.data_ports
        self.transfer = controller.line_transfer_cycles
        self.fill_latency = controller.axi.memory_latency_cycles + self.transfer
        self.stats = MemoryTrafficStats()

    def _claim(self, now: float) -> float:
        best = min(range(len(self.free)), key=self.free.__getitem__)
        start = max(now, self.free[best])
        self.free[best] = start + self.transfer
        return start

    def line_fill(self, now: float) -> float:
        self.stats.line_fills += 1
        self.stats.busy_cycles += self.transfer
        return self._claim(now) + self.fill_latency

    def write_back(self, now: float) -> float:
        self.stats.write_backs += 1
        self.stats.busy_cycles += self.transfer
        return self._claim(now) + self.transfer

    def write_back_burst(self, now: float, count: int) -> float:
        done = now
        for _ in range(count):
            done = self.write_back(now)
        return done

    def miss_burst(self, access_time, ports, hit_list, wb_list, completion):
        for position, hit in enumerate(hit_list):
            wave_start = access_time + position // ports
            if hit:
                continue
            if wb_list[position]:
                self.write_back(wave_start)
            completion = max(completion, self.line_fill(wave_start))
        return completion

    def earliest_free(self) -> float:
        return min(self.free)


CYCLE = st.integers(0, 120).map(float)
# Thirds of a cycle are inexact floats whose sums round, so a saturated burst
# at such times must take the walk: the closed form is exact on integers.
TIME = st.one_of(CYCLE, CYCLE, st.integers(0, 360).map(lambda thirds: thirds / 3))
# A burst's access time: absolute, or this long before the earliest port
# frees, which saturates the ports when they are busy past its last wave.
BURST_TIME = st.tuples(st.booleans(), TIME)
PORT_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("line_fill"), TIME),
        st.tuples(st.just("write_back"), TIME),
        st.tuples(st.just("write_back_burst"), TIME, st.integers(0, 6)),
        st.tuples(
            st.just("miss_burst"),
            BURST_TIME,
            st.integers(1, 8),
            st.lists(st.tuples(st.booleans(), st.booleans()), max_size=24),
            CYCLE,
        ),
        # A run's misses in the compact form: hits before ``first``, then
        # one miss per victim dirty bit.
        st.tuples(
            st.just("miss_run"),
            BURST_TIME,
            st.integers(1, 8),
            st.integers(0, 8),
            st.lists(st.booleans(), min_size=1, max_size=24),
            CYCLE,
        ),
    ),
    min_size=1,
    max_size=16,
)


@given(
    data_ports=st.integers(1, 4),
    width=st.sampled_from([32, 64, 128]),
    latency=st.integers(1, 60),
    operations=PORT_OPERATIONS,
)
# Saturated bursts: ports within one transfer (a burst of write-backs at one
# time), ports further apart, and one port free at a third of a cycle past
# an integer, where nine transfers added one by one round differently from
# the closed form's one product.  Then a burst whose last miss's wave starts
# after the ports free, which is not saturated.
@example(4, 64, 36, [("write_back_burst", 40.0, 4), ("miss_run", (True, 20.0), 4, 2, [True] * 9, 0.0)])
@example(
    4,
    64,
    36,
    [
        ("write_back_burst", 40.0, 4),
        ("write_back", 70.0),
        ("miss_burst", (True, 20.0), 4, [(False, True)] * 12, 0.0),
    ],
)
@example(1, 64, 36, [("write_back", 1 / 3), ("miss_run", (True, 5.0), 4, 0, [False] * 9, 0.0)])
@example(
    4,
    64,
    36,
    [
        ("write_back_burst", 40.0, 4),
        ("miss_burst", (False, 46.0), 4, [(False, False)] + [(True, False)] * 19 + [(False, False)], 0.0),
    ],
)
@settings(max_examples=150, deadline=None)
def test_port_heap_matches_the_lowest_index_scan(data_ports, width, latency, operations):
    """The ports are interchangeable, so only their free-time multiset shows.

    Every transaction entry point returns the same completion times as the
    scan, with equal ``MemoryTrafficStats`` and equal sorted port free times
    after each operation.  The scan walks every line's outcome, and the
    heap takes only the misses of the same outcomes, as a list (see
    ``_compact``) or as a run's compact form, in a closed form when the
    burst saturates the ports.
    """
    axi = AxiConfig(data_ports=data_ports, data_width_bits=width, memory_latency_cycles=latency)
    controller = GlobalMemoryController(axi, CacheConfig())
    scanned = _ScannedPorts(controller)
    for kind, time, *rest in operations:
        if kind in ("miss_burst", "miss_run"):
            behind, time = time
            if behind:
                time = max(0.0, controller.earliest_free() - time)
            if kind == "miss_burst":
                ports, lines, completion = rest
                hits = [hit for hit, _ in lines]
                write_backs = [write_back for _, write_back in lines]
                misses, _ = _compact(hits, write_backs, len(lines))
            else:
                ports, first, victims, completion = rest
                hits = [True] * first + [False] * len(victims)
                write_backs = [False] * first + victims
                misses = (len(victims), victims.count(True), first + len(victims) - 1, victims)
            observed = controller.miss_burst(time, ports, misses, completion)
            assert observed == scanned.miss_burst(time, ports, hits, write_backs, completion)
        else:
            arguments = (time, *rest)
            assert getattr(controller, kind)(*arguments) == getattr(scanned, kind)(*arguments)
        assert asdict(controller.stats) == asdict(scanned.stats)
        assert sorted(controller._port_free) == sorted(scanned.free)
        assert controller.earliest_free() == scanned.earliest_free()

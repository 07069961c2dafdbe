"""Processing-element ALU: lane arithmetic in a vector and a scalar form.

The 8 PEs of a CU execute one instruction for 8 lanes per cycle; functionally
the whole 64-lane wavefront sees the same operation.  This module implements
the arithmetic of every ALU/MUL/DIV opcode with 32-bit wrap-around semantics
and RISC-style division behaviour (divide by zero yields -1 for the quotient
and the dividend for the remainder).

A wavefront register holds an int64 lane vector, one Python ``int`` when
every lane holds the same value, or an :class:`~repro.simt.registers.Affine`
lane ramp (see :mod:`repro.simt.registers`).  Each opcode therefore has
three forms:

* the *lane form* takes lane vectors and Python ints in any mix and, with at
  least one vector operand, returns a lane vector through numpy broadcasting;
* the *scalar form* takes two unsigned 32-bit ints and returns an int equal
  to every lane of the lane form applied to the broadcast operands;
* the *ramp form* takes at least one ``Affine`` operand.  ADD and SUB of
  ramps and ints, and SLL and MUL of a ramp by an int, give a ramp (or the
  int a zero stride leaves).  SRL by an int and AND with a low mask ``2**k
  - 1`` keep a ramp that does not wrap past 2**32 when its lanes share one
  ``2**k`` block (the high part is one int, the low part a ramp) or its
  stride is a multiple of ``2**k`` (the other way round), as in ``gid >> 6``
  and ``gid & 63``.  SLT and SLTU of a ramp against an int give the int 1
  or 0 when the int is outside the range of a ramp that does not wrap (in
  the signed or unsigned order), as in ``lid < stride`` and ``0 < sample -
  gid``.  Every other case expands the ramps and applies the lane form.

Where one expression is exact for both (SUB, AND, OR, XOR, the shifts,
MUL, ...) the lane and scalar forms are the same function; the lane form of
ADD returns the other operand for an int-0 operand; SLT/SLTU, MIN/MAX and
DIV/REM need numpy, and their scalar form applies the lane form to int64
scalars.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.arch.isa import Opcode
from repro.errors import SimulationError
from repro.simt.registers import Affine, expand_ramp, ramp

WORD_MASK = 0xFFFFFFFF
SIGN_BIT = 0x80000000


def _signed(values):
    """Two's-complement fold of unsigned 32-bit values (ints or lane vectors).

    Branch-free: equivalent to subtracting 2**32 where the sign bit is set,
    without materializing a boolean mask.
    """
    return ((values + SIGN_BIT) & WORD_MASK) - SIGN_BIT


def to_signed(values: np.ndarray) -> np.ndarray:
    """Reinterpret unsigned 32-bit lane values as signed."""
    return _signed(np.asarray(values, dtype=np.int64))


def to_unsigned(values: np.ndarray) -> np.ndarray:
    """Wrap signed lane values back to their unsigned 32-bit representation."""
    return np.asarray(values, dtype=np.int64) & WORD_MASK


# Forms exact for ints, lane vectors, and any mix of the two.
def _add(a, b):
    return (a + b) & WORD_MASK


def _sub(a, b):
    return (a - b) & WORD_MASK


def _and(a, b):
    return a & b


def _or(a, b):
    return a | b


def _xor(a, b):
    return a ^ b


def _sll(a, b):
    return (a << (b & 0x1F)) & WORD_MASK


def _srl(a, b):
    return (a & WORD_MASK) >> (b & 0x1F)


def _sra(a, b):
    return (_signed(a) >> (b & 0x1F)) & WORD_MASK


def _mul(a, b):
    # An int64 product of two 32-bit lanes may wrap, but modulo 2**64, which
    # keeps the low 32 bits exact.
    return (a * b) & WORD_MASK


def _mulh(a, b):
    return ((_signed(a) * _signed(b)) >> 32) & WORD_MASK


# Lane form of ADD: an int-0 operand (as in histogram's ``count += match``
# once a wavefront has matched) gives back the other, already masked operand
# itself.  Register entries are rebound, never changed in place, so the lane
# vector may be shared.
def _add_lanes(a, b):
    if type(b) is int and not b:
        return a
    if type(a) is int and not a:
        return b
    return (a + b) & WORD_MASK


# Lane forms that need numpy; _on_ints derives their scalar forms.  Register
# values and immediates are stored masked to 32 bits, so SLTU is one plain
# compare, and flipping the sign bit maps the signed order of SLT onto the
# unsigned one.
def _slt(a, b):
    return ((a ^ SIGN_BIT) < (b ^ SIGN_BIT)).astype(np.int64)


def _sltu(a, b):
    return (a < b).astype(np.int64)


def _min(a, b):
    return to_unsigned(np.minimum(to_signed(a), to_signed(b)))


def _max(a, b):
    return to_unsigned(np.maximum(to_signed(a), to_signed(b)))


def _div(a, b):
    sa, sb = to_signed(a), to_signed(b)
    safe_b = np.where(sb == 0, 1, sb)
    quotient = np.abs(sa) // np.abs(safe_b)
    quotient = np.where(np.sign(sa) * np.sign(safe_b) < 0, -quotient, quotient)
    quotient = np.where(sb == 0, -1, quotient)
    return to_unsigned(quotient)


def _rem(a, b):
    sa, sb = to_signed(a), to_signed(b)
    safe_b = np.where(sb == 0, 1, sb)
    quotient = np.abs(sa) // np.abs(safe_b)
    quotient = np.where(np.sign(sa) * np.sign(safe_b) < 0, -quotient, quotient)
    remainder = sa - quotient * safe_b
    remainder = np.where(sb == 0, sa, remainder)
    return to_unsigned(remainder)


def _on_ints(lane_form: Callable) -> Callable:
    """Scalar form of a numpy lane form: the lane form applied to int64 scalars."""
    return lambda a, b: int(lane_form(np.int64(a), np.int64(b)))


# Ramp forms: at least one operand is an Affine.  A ramp plus or minus a ramp
# or an int, and a ramp times (or shifted left by) an int, is a ramp modulo
# 2**32; ramp() folds a zero stride into an int.
def _add_ramp(a, b):
    if type(a) is Affine:
        if type(b) is Affine:
            return ramp(a.base + b.base, a.stride + b.stride, a.lanes)
        if type(b) is int:
            return Affine((a.base + b) & WORD_MASK, a.stride, a.lanes)
    elif type(a) is int:
        return Affine((a + b.base) & WORD_MASK, b.stride, b.lanes)
    return _add(expand_ramp(a), expand_ramp(b))


def _sub_ramp(a, b):
    if type(a) is Affine:
        if type(b) is Affine:
            return ramp(a.base - b.base, a.stride - b.stride, a.lanes)
        if type(b) is int:
            return Affine((a.base - b) & WORD_MASK, a.stride, a.lanes)
    elif type(a) is int:
        return ramp(a - b.base, -b.stride, b.lanes)
    return _sub(expand_ramp(a), expand_ramp(b))


def _sll_ramp(a, b):
    if type(a) is Affine and type(b) is int:
        shift = b & 0x1F
        return ramp(a.base << shift, a.stride << shift, a.lanes)
    return _sll(expand_ramp(a), expand_ramp(b))


def _srl_ramp(a, b):
    if type(a) is Affine and type(b) is int and 0 <= a.last <= WORD_MASK:
        shift = b & 0x1F
        base = a.base
        if base >> shift == a.last >> shift:
            return base >> shift
        if a.stride & ((1 << shift) - 1) == 0:
            return Affine(base >> shift, a.stride >> shift, a.lanes)
    return _srl(expand_ramp(a), expand_ramp(b))


def _and_ramp(a, b):
    if type(a) is int:
        a, b = b, a
    if type(a) is Affine and type(b) is int and b & (b + 1) == 0:
        # b is a low mask 2**k - 1: lanes that differ only below bit k keep
        # their distance, and a stride of whole blocks leaves one value.
        if a.stride & b == 0:
            return a.base & b
        if 0 <= a.last <= WORD_MASK and a.base & ~b == a.last & ~b:
            return Affine(a.base & b, a.stride, a.lanes)
    return _and(expand_ramp(a), expand_ramp(b))


def _sltu_ramp(a, b):
    # Every lane compares alike to an int outside the ramp's span.
    if type(a) is int and type(b) is Affine:
        span = b.span()
        if span is not None and (a < span[0] or a >= span[1]):
            return int(a < span[0])
    elif type(a) is Affine and type(b) is int:
        span = a.span()
        if span is not None and (span[1] < b or span[0] >= b):
            return int(span[1] < b)
    return _sltu(expand_ramp(a), expand_ramp(b))


def _sign_flipped(value):
    """``value ^ SIGN_BIT`` on every lane, which maps the signed order onto
    the unsigned one; a ramp stays a ramp (the flip adds 2**31)."""
    if type(value) is Affine:
        return Affine(value.base ^ SIGN_BIT, value.stride, value.lanes)
    return value ^ SIGN_BIT


def _slt_ramp(a, b):
    return _sltu_ramp(_sign_flipped(a), _sign_flipped(b))


def _mul_ramp(a, b):
    if type(b) is int and type(a) is Affine:
        return ramp(a.base * b, a.stride * b, a.lanes)
    if type(a) is int and type(b) is Affine:
        return ramp(a * b.base, a * b.stride, b.lanes)
    return _mul(expand_ramp(a), expand_ramp(b))


def _on_lanes(lane_form: Callable) -> Callable:
    """Ramp form of an operation that does not keep ramps: expand, then the lane form."""
    return lambda a, b: lane_form(expand_ramp(a), expand_ramp(b))


_RAMP_FORMS: Dict[Opcode, Callable] = {
    Opcode.ADD: _add_ramp,
    Opcode.SUB: _sub_ramp,
    Opcode.SLL: _sll_ramp,
    Opcode.SRL: _srl_ramp,
    Opcode.AND: _and_ramp,
    Opcode.SLT: _slt_ramp,
    Opcode.SLTU: _sltu_ramp,
    Opcode.MUL: _mul_ramp,
}


# opcode -> (lane form, scalar form)
_BINARY_OPS: Dict[Opcode, Tuple[Callable, Callable]] = {
    Opcode.ADD: (_add_lanes, _add),
    Opcode.SUB: (_sub, _sub),
    Opcode.AND: (_and, _and),
    Opcode.OR: (_or, _or),
    Opcode.XOR: (_xor, _xor),
    Opcode.SLL: (_sll, _sll),
    Opcode.SRL: (_srl, _srl),
    Opcode.SRA: (_sra, _sra),
    Opcode.SLT: (_slt, _on_ints(_slt)),
    Opcode.SLTU: (_sltu, _on_ints(_sltu)),
    Opcode.MIN: (_min, _on_ints(_min)),
    Opcode.MAX: (_max, _on_ints(_max)),
    Opcode.MUL: (_mul, _mul),
    Opcode.MULH: (_mulh, _mulh),
    Opcode.DIV: (_div, _on_ints(_div)),
    Opcode.REM: (_rem, _on_ints(_rem)),
}

# Immediate forms share the arithmetic of their register forms.
_IMMEDIATE_TO_BINARY: Dict[Opcode, Opcode] = {
    Opcode.ADDI: Opcode.ADD,
    Opcode.ANDI: Opcode.AND,
    Opcode.ORI: Opcode.OR,
    Opcode.XORI: Opcode.XOR,
    Opcode.SLLI: Opcode.SLL,
    Opcode.SRLI: Opcode.SRL,
    Opcode.SRAI: Opcode.SRA,
    Opcode.SLTI: Opcode.SLT,
    Opcode.MULI: Opcode.MUL,
}


def execute_binary(opcode: Opcode, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Execute a three-register ALU/MUL/DIV operation over the lane vectors."""
    lane_form, _ = binary_operation(opcode)
    return lane_form(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))


def execute_immediate(opcode: Opcode, a: np.ndarray, imm: int, lanes: int) -> np.ndarray:
    """Execute an immediate ALU operation (the immediate is broadcast)."""
    if opcode is Opcode.LI:
        return np.full(lanes, imm & WORD_MASK, dtype=np.int64)
    if opcode is Opcode.LUI:
        return np.full(lanes, (imm << 14) & WORD_MASK, dtype=np.int64)
    try:
        base = _IMMEDIATE_TO_BINARY[opcode]
    except KeyError as exc:
        raise SimulationError(f"{opcode.mnemonic} is not an immediate ALU operation") from exc
    broadcast = np.full(lanes, imm, dtype=np.int64) & WORD_MASK
    return execute_binary(base, a, broadcast)


def binary_operation(opcode: Opcode) -> Tuple[Callable, Callable]:
    """Resolve the ``(lane form, scalar form)`` of a three-register opcode.

    The instruction pre-decoder stores the pair in each decoded op so the
    per-issue path calls the operation directly.
    """
    try:
        return _BINARY_OPS[opcode]
    except KeyError as exc:
        raise SimulationError(f"{opcode.mnemonic} is not a binary ALU operation") from exc


def ramp_operation(opcode: Opcode) -> Callable:
    """The ramp form of a three-register opcode (at least one ``Affine`` operand)."""
    lane_form, _ = binary_operation(opcode)
    return _RAMP_FORMS.get(opcode) or _on_lanes(lane_form)


def immediate_base(opcode: Opcode) -> Opcode:
    """Three-register opcode implementing an immediate form's arithmetic."""
    try:
        return _IMMEDIATE_TO_BINARY[opcode]
    except KeyError as exc:
        raise SimulationError(f"{opcode.mnemonic} is not an immediate ALU operation") from exc


def is_binary_alu(opcode: Opcode) -> bool:
    """Whether the opcode is a three-register arithmetic operation."""
    return opcode in _BINARY_OPS


def is_immediate_alu(opcode: Opcode) -> bool:
    """Whether the opcode is an immediate arithmetic operation."""
    return opcode in _IMMEDIATE_TO_BINARY or opcode in (Opcode.LI, Opcode.LUI)

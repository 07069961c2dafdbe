"""Processing-element ALU: lane arithmetic in a vector and a scalar form.

The 8 PEs of a CU execute one instruction for 8 lanes per cycle; functionally
the whole 64-lane wavefront sees the same operation.  This module implements
the arithmetic of every ALU/MUL/DIV opcode with 32-bit wrap-around semantics
and RISC-style division behaviour (divide by zero yields -1 for the quotient
and the dividend for the remainder).

A wavefront register holds either an int64 lane vector or, when every lane
holds the same value, one Python ``int`` (see :mod:`repro.simt.registers`).
Each opcode therefore has two forms:

* the *lane form* takes lane vectors and Python ints in any mix and, with at
  least one vector operand, returns a lane vector through numpy broadcasting;
* the *scalar form* takes two unsigned 32-bit ints and returns an int equal
  to every lane of the lane form applied to the broadcast operands.

Where one expression is exact for both (ADD, the shifts, MUL, ...) the two
forms are the same function; SLT/SLTU, MIN/MAX and DIV/REM need numpy, and
their scalar form applies the lane form to int64 scalars.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.arch.isa import Opcode
from repro.errors import SimulationError

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


# opcode -> (lane form, scalar form)
_BINARY_OPS: Dict[Opcode, Tuple[Callable, Callable]] = {
    Opcode.ADD: (_add, _add),
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

    The instruction pre-decoder stores the pair on each ``DecodedOp`` so the
    per-issue path calls the operation directly.
    """
    try:
        return _BINARY_OPS[opcode]
    except KeyError as exc:
        raise SimulationError(f"{opcode.mnemonic} is not a binary ALU operation") from exc


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

"""Abstract domains of the level-1 checker.

Two small lattices:

* :class:`Affine` — symbolic linear forms ``a*lid + b*gid + c*wgid + const +
  sum(coeff_i * atom_i)`` over the work-item builtins plus opaque *atoms*
  (kernel parameters and havoc'd variables).  ``None`` is the domain's top
  ("not an affine form").  The race detector compares two affine index forms
  by subtracting them, which turns "do two distinct lanes ever touch the same
  slot?" into a small divisibility problem.
* intervals — plain ``(lo, hi)`` integer pairs with saturating arithmetic,
  used by the bounds checker.  ``FULL`` is top.

Atom names are prefixed with their *scope kind*: ``u:`` for launch-uniform
values (scalar kernel parameters, ``get_global_size`` …), ``w:`` for values
that are uniform within a workgroup but may differ across workgroups.  The
distinction matters only to the cross-workgroup race rules: two syntactically
identical forms denote the same address function across workgroups only when
every atom in them is launch-uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

#: Largest workgroup any runtime path will schedule (mirrors
#: repro.kernels.dot.MAX_WORKGROUP); lane ids live in [0, LANE_MAX).
LANE_MAX = 256

# ----------------------------------------------------------------------- #
# Affine forms
# ----------------------------------------------------------------------- #


@dataclass(frozen=True)
class Affine:
    """A linear index form; ``None`` (not an instance) is the domain top.

    ``lid``/``gid``/``wgid`` are the dimension-0 work-item ids (the only ids
    of a rank-1 launch); ``lid1``/``gid1``/``wgid1`` are their dimension-1
    counterparts, populated when a kernel queries ``get_*_id(1)`` on a rank-2
    NDRange.
    """

    lid: int = 0
    gid: int = 0
    wgid: int = 0
    const: int = 0
    #: Sorted (atom-name, coefficient) pairs, all coefficients non-zero.
    atoms: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)
    lid1: int = 0
    gid1: int = 0
    wgid1: int = 0

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine(const=value)

    @staticmethod
    def atom(name: str) -> "Affine":
        return Affine(atoms=((name, 1),))

    @property
    def lane_coeff(self) -> int:
        """Coefficient of the intra-workgroup lane index.

        Within one workgroup ``gid = wgid*wgsize + lid``, so both ``lid`` and
        ``gid`` terms advance with the lane at the same rate; everything else
        is constant across the lanes of the group.
        """
        return self.lid + self.gid

    @property
    def is_constant(self) -> bool:
        return (
            self.lid == 0
            and self.gid == 0
            and self.wgid == 0
            and self.dim1_free
            and not self.atoms
        )

    @property
    def dim1_free(self) -> bool:
        """True when the form has no dimension-1 id terms (every rank-1 form)."""
        return self.lid1 == 0 and self.gid1 == 0 and self.wgid1 == 0

    @property
    def launch_uniform_atoms(self) -> bool:
        """True when every atom denotes a launch-uniform value."""
        return all(name.startswith("u:") for name, _ in self.atoms)

    def _combine(self, other: "Affine", sign: int) -> "Affine":
        merged = dict(self.atoms)
        for name, coeff in other.atoms:
            merged[name] = merged.get(name, 0) + sign * coeff
        atoms = tuple(sorted((n, c) for n, c in merged.items() if c != 0))
        return Affine(
            lid=self.lid + sign * other.lid,
            gid=self.gid + sign * other.gid,
            wgid=self.wgid + sign * other.wgid,
            const=self.const + sign * other.const,
            atoms=atoms,
            lid1=self.lid1 + sign * other.lid1,
            gid1=self.gid1 + sign * other.gid1,
            wgid1=self.wgid1 + sign * other.wgid1,
        )

    def add(self, other: "Affine") -> "Affine":
        return self._combine(other, 1)

    def sub(self, other: "Affine") -> "Affine":
        return self._combine(other, -1)

    def scale(self, factor: int) -> "Affine":
        if factor == 0:
            return Affine()
        return Affine(
            lid=self.lid * factor,
            gid=self.gid * factor,
            wgid=self.wgid * factor,
            const=self.const * factor,
            atoms=tuple((n, c * factor) for n, c in self.atoms),
            lid1=self.lid1 * factor,
            gid1=self.gid1 * factor,
            wgid1=self.wgid1 * factor,
        )

    def describe(self) -> str:
        """Compact human-readable rendering for diagnostics."""
        parts = []
        for label, coeff in (
            ("lid", self.lid),
            ("gid", self.gid),
            ("wgid", self.wgid),
            ("lid1", self.lid1),
            ("gid1", self.gid1),
            ("wgid1", self.wgid1),
        ):
            if coeff == 1:
                parts.append(label)
            elif coeff:
                parts.append(f"{coeff}*{label}")
        for name, coeff in self.atoms:
            bare = name.split(":", 1)[-1]
            parts.append(bare if coeff == 1 else f"{coeff}*{bare}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


# ----------------------------------------------------------------------- #
# Intervals
# ----------------------------------------------------------------------- #

#: Saturation bound: anything beyond is treated as unbounded.
_INF = 1 << 62

Interval = Tuple[int, int]

FULL: Interval = (-_INF, _INF)
LID_RANGE: Interval = (0, LANE_MAX - 1)
SIZE_RANGE: Interval = (1, _INF)
NONNEG: Interval = (0, _INF)


def _sat(value: int) -> int:
    return max(-_INF, min(_INF, value))


def interval(lo: int, hi: int) -> Interval:
    return (_sat(lo), _sat(hi))


def const_interval(value: int) -> Interval:
    return interval(value, value)


def add_iv(a: Interval, b: Interval) -> Interval:
    return interval(a[0] + b[0], a[1] + b[1])


def sub_iv(a: Interval, b: Interval) -> Interval:
    return interval(a[0] - b[1], a[1] - b[0])


def neg_iv(a: Interval) -> Interval:
    return interval(-a[1], -a[0])


def mul_iv(a: Interval, b: Interval) -> Interval:
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return interval(min(products), max(products))


def join_iv(a: Interval, b: Interval) -> Interval:
    return (min(a[0], b[0]), max(a[1], b[1]))


def shl_iv(a: Interval, b: Interval) -> Interval:
    """Left shift by a possibly-varying amount (non-negative shifts only)."""
    if b[0] < 0 or b[1] > 31:
        return FULL
    return mul_iv(a, interval(1 << b[0], 1 << b[1]))


def shr_iv(a: Interval, b: Interval) -> Interval:
    """Arithmetic right shift; only precise for non-negative left operands."""
    if b[0] < 0 or b[1] > 31 or a[0] < 0:
        return FULL
    return interval(a[0] >> b[1], a[1] >> b[0])


def mod_iv(a: Interval, b: Interval) -> Interval:
    """``a % b`` for a provably positive modulus and non-negative dividend."""
    if b[0] <= 0 or a[0] < 0:
        return FULL
    return interval(0, min(a[1], b[1] - 1))


def bitand_iv(a: Interval, b: Interval) -> Interval:
    """``a & b``: bounded by the smaller non-negative operand."""
    if a[0] < 0 or b[0] < 0:
        return FULL
    return interval(0, min(a[1], b[1]))

"""Abstract syntax tree of the OpenCL-C subset.

The node classes are plain dataclasses produced by :mod:`repro.cl.parser` and
annotated in place by :mod:`repro.cl.semantics` (every expression gets a
``ctype`` and a ``varying`` flag, every kernel gets its symbol table).  The
code generators consume the annotated tree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class CType(enum.Enum):
    """The three value types of the subset."""

    INT = "int"
    UINT = "uint"
    PTR = "ptr"  # __global int* / __global uint*


@dataclass
class SourceSpan:
    """Line/column of the token a node was built from (for diagnostics)."""

    line: int = 0
    column: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.line}:{self.column}"


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
@dataclass
class Expr:
    """Base class of all expressions.

    ``ctype`` and ``varying`` are filled in by semantic analysis: ``varying``
    is True when the value may differ between work-items of the same
    wavefront, which is what decides between plain branches and
    execution-mask-based control flow in the G-GPU back end.
    """

    span: SourceSpan = field(default_factory=SourceSpan, kw_only=True)
    ctype: Optional[CType] = field(default=None, kw_only=True)
    varying: bool = field(default=False, kw_only=True)


@dataclass
class IntLiteral(Expr):
    """An integer constant."""

    value: int = 0


@dataclass
class VarRef(Expr):
    """A reference to a parameter or local variable."""

    name: str = ""


@dataclass
class UnaryOp(Expr):
    """``-x``, ``!x``, ``~x``."""

    op: str = ""
    operand: Optional[Expr] = None


@dataclass
class BinaryOp(Expr):
    """A binary arithmetic, logic, shift, or comparison operation."""

    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class Index(Expr):
    """``buffer[index]`` -- a load when used as a value, a store as an lvalue."""

    base: str = ""
    index: Optional[Expr] = None


@dataclass
class Call(Expr):
    """A call to one of the OpenCL work-item builtins (or ``min``/``max``)."""

    name: str = ""
    args: Tuple[Expr, ...] = ()


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
@dataclass
class Stmt:
    """Base class of all statements."""

    span: SourceSpan = field(default_factory=SourceSpan, kw_only=True)


@dataclass
class DeclStmt(Stmt):
    """``int x = expr;`` (possibly several declarators)."""

    ctype: CType = CType.INT
    names: Tuple[str, ...] = ()
    inits: Tuple[Optional[Expr], ...] = ()


@dataclass
class AssignStmt(Stmt):
    """``lvalue op= expr`` where the lvalue is a variable or ``buffer[index]``."""

    target: Optional[Expr] = None  # VarRef or Index
    op: str = "="  # "=", "+=", "-=", ...
    value: Optional[Expr] = None


@dataclass
class IfStmt(Stmt):
    """``if (cond) then [else otherwise]``."""

    condition: Optional[Expr] = None
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)
    has_else: bool = False


@dataclass
class WhileStmt(Stmt):
    """``while (cond) body``."""

    condition: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class ForStmt(Stmt):
    """``for (init; cond; step) body`` -- desugared to a while loop by codegen."""

    init: Optional[Stmt] = None  # DeclStmt or AssignStmt
    condition: Optional[Expr] = None
    step: Optional[Stmt] = None  # AssignStmt
    body: List[Stmt] = field(default_factory=list)


@dataclass
class LocalDeclStmt(Stmt):
    """``__local int name[SIZE];`` -- a per-workgroup scratchpad array.

    Only allowed at kernel scope (like OpenCL's local declarations); the
    size must be an integer constant because the LRAM window is allocated
    statically by the compiler.
    """

    ctype: CType = CType.INT
    name: str = ""
    size: int = 0


@dataclass
class BarrierStmt(Stmt):
    """``barrier(...)`` -- a workgroup barrier."""


@dataclass
class ReturnStmt(Stmt):
    """``return;`` -- only allowed as the last top-level statement."""


# --------------------------------------------------------------------------- #
# Declarations
# --------------------------------------------------------------------------- #
@dataclass
class Param:
    """One kernel parameter."""

    name: str
    ctype: CType
    is_pointer: bool
    span: SourceSpan = field(default_factory=SourceSpan)


@dataclass
class KernelDecl:
    """One ``__kernel void`` function."""

    name: str
    params: List[Param] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    span: SourceSpan = field(default_factory=SourceSpan)
    # Filled in by semantic analysis.
    symbols: Dict[str, "Symbol"] = field(default_factory=dict)

    def param(self, name: str) -> Param:
        """Look a parameter up by name."""
        for candidate in self.params:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


@dataclass
class TranslationUnit:
    """A parsed source file (one or more kernels)."""

    kernels: List[KernelDecl] = field(default_factory=list)

    def kernel(self, name: str) -> KernelDecl:
        """Look a kernel up by name."""
        for candidate in self.kernels:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


@dataclass
class Symbol:
    """One entry of a kernel's symbol table.

    ``array_words`` is non-zero exactly for ``__local`` arrays, which are
    indexable like buffers but live in the workgroup's LRAM window.
    """

    name: str
    ctype: CType
    is_pointer: bool
    is_param: bool
    varying: bool = False
    array_words: int = 0
    span: SourceSpan = field(default_factory=SourceSpan)

    @property
    def is_local_array(self) -> bool:
        return self.array_words > 0

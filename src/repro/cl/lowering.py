"""Target-independent half of the CL code generators.

:class:`Lowering` walks an analyzed kernel AST once for both back ends: the
statements, the expression evaluator, the binary-operator table, the 0/1
normalization of conditions, and element addressing.  It emits by mnemonic
(``"ADD"``, ``"SLTU"``, ...); both ISAs name their ALU forms alike, so each
target turns the name into its own opcode.  Register 0 is the constant zero
on both targets.

A subclass supplies the hooks, which hold everything that differs per
target:

* instruction spelling and constants: ``_op``, ``_op_imm``, ``_move``,
  ``_load_constant``, ``_set_if_zero``, ``_jump``, ``_branch_if_zero``;
* which constants fit an immediate field: ``_fits_immediate``;
* the register pool: ``_acquire``, ``_release``;
* where buffers and ``__local`` arrays live: ``_load``, ``_store``,
  ``_add_base``;
* the work-item builtins and barriers: ``_eval_call``, ``_gen_barrier``.

Labels need no hook: both assemblers provide ``unique_label`` and
``label``, and a subclass sets :attr:`asm` to its assembler.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cl.nodes import (
    AssignStmt,
    BarrierStmt,
    BinaryOp,
    Call,
    CType,
    DeclStmt,
    Expr,
    ForStmt,
    IfStmt,
    Index,
    IntLiteral,
    KernelDecl,
    LocalDeclStmt,
    ReturnStmt,
    Stmt,
    UnaryOp,
    VarRef,
    WhileStmt,
)
from repro.errors import CompilationError

#: Binary operators with a direct three-register form (signed flavour).
_DIRECT_OPS: Dict[str, str] = {
    "+": "ADD",
    "-": "SUB",
    "*": "MUL",
    "/": "DIV",
    "%": "REM",
    "&": "AND",
    "|": "OR",
    "^": "XOR",
    "<<": "SLL",
}

#: Binary operators with an immediate form when the right-hand side is a
#: constant the target's field can carry.  ``x - c`` becomes ``x + (-c)``,
#: and ``>>`` picks its signed or unsigned form like the register shift.
_IMMEDIATE_OPS: Dict[str, str] = {
    "+": "ADDI",
    "-": "ADDI",
    "&": "ANDI",
    "|": "ORI",
    "^": "XORI",
    "*": "MULI",
    "<<": "SLLI",
    ">>": "SRAI",
}

#: Operators whose result already is a 0/1 condition.
_BOOLEAN_OPS = ("==", "!=", "<", "<=", ">", ">=", "&&", "||")


def _unsigned(*operands: Expr) -> bool:
    return any(operand.ctype is CType.UINT for operand in operands)


class Lowering:
    """Lowers statements and expressions through per-target hooks."""

    asm: Any

    def __init__(self, kernel: KernelDecl) -> None:
        self.kernel = kernel
        self._var_regs: Dict[str, int] = {}
        self._temp_regs: set = set()

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _acquire(self) -> int:
        """Take a scratch register from the pool."""
        raise NotImplementedError

    def _release(self, register: Optional[int]) -> None:
        """Return a scratch register to the pool; variable registers are kept."""
        raise NotImplementedError

    def _op(self, mnemonic: str, rd: int, rs: int, rt: int) -> None:
        """Emit the three-register form ``rd = rs <op> rt``."""
        raise NotImplementedError

    def _op_imm(self, mnemonic: str, rd: int, rs: int, imm: int) -> None:
        """Emit the immediate form ``rd = rs <op> imm``."""
        raise NotImplementedError

    def _move(self, rd: int, rs: int) -> None:
        """Copy ``rs`` into a different register ``rd``."""
        raise NotImplementedError

    def _load_constant(self, rd: int, value: int) -> None:
        """Materialize any 32-bit constant into ``rd``."""
        raise NotImplementedError

    def _set_if_zero(self, rd: int, rs: int) -> None:
        """``rd = (rs == 0)``."""
        raise NotImplementedError

    def _fits_immediate(self, op: str, value: int) -> bool:
        """Whether ``x <op> value`` can use the immediate form of ``op``."""
        raise NotImplementedError

    def _jump(self, label: str) -> None:
        """Jump to ``label``."""
        raise NotImplementedError

    def _branch_if_zero(self, register: int, label: str) -> None:
        """Branch to ``label`` when ``register`` is zero (a uniform condition)."""
        raise NotImplementedError

    def _load(self, rd: int, address: int, element: Index) -> None:
        """Load the word at ``address`` of the buffer or array ``element`` indexes."""
        raise NotImplementedError

    def _store(self, address: int, value: int, element: Index) -> None:
        """Store ``value`` at ``address`` of the buffer or array ``element`` indexes."""
        raise NotImplementedError

    def _add_base(self, address: int, name: str) -> None:
        """Turn the byte offset in ``address`` into the address of an element of ``name``."""
        raise NotImplementedError

    def _eval_call(self, expr: Call, preferred: Optional[int]) -> int:
        """Evaluate a builtin call (work-item queries, ``min``, ``max``)."""
        raise NotImplementedError

    def _gen_barrier(self) -> None:
        """Lower ``barrier()``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Registers
    # ------------------------------------------------------------------ #
    def _var_register(self, name: str) -> int:
        try:
            return self._var_regs[name]
        except KeyError as exc:
            raise CompilationError(f"no register allocated for {name!r}") from exc

    def _destination(self, preferred: Optional[int]) -> int:
        return preferred if preferred is not None else self._acquire()

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def _gen_statements(self, statements: List[Stmt]) -> None:
        for statement in statements:
            self._gen_statement(statement)

    def _gen_statement(self, statement: Stmt) -> None:
        if isinstance(statement, DeclStmt):
            for name, init in zip(statement.names, statement.inits, strict=True):
                if init is not None:
                    self._gen_assign_to_var(name, init)
        elif isinstance(statement, AssignStmt):
            self._gen_assignment(statement)
        elif isinstance(statement, IfStmt):
            self._gen_if(statement)
        elif isinstance(statement, WhileStmt):
            self._gen_loop(statement.condition, statement.body, step=None)
        elif isinstance(statement, ForStmt):
            if statement.init is not None:
                self._gen_statement(statement.init)
            self._gen_loop(statement.condition, statement.body, step=statement.step)
        elif isinstance(statement, BarrierStmt):
            self._gen_barrier()
        elif isinstance(statement, (ReturnStmt, LocalDeclStmt)):
            pass  # the entry point ends the program; local arrays are pre-allocated
        else:  # pragma: no cover - defensive
            raise CompilationError(f"unsupported statement {type(statement).__name__}")

    def _gen_assign_to_var(self, name: str, value: Expr) -> None:
        destination = self._var_register(name)
        register = self._eval(value, preferred=destination)
        if register != destination:
            self._move(destination, register)
        self._release(register)

    def _gen_assignment(self, statement: AssignStmt) -> None:
        target = statement.target
        unsigned = _unsigned(target, statement.value)
        if isinstance(target, VarRef):
            if statement.op == "=":
                self._gen_assign_to_var(target.name, statement.value)
                return
            destination = self._var_register(target.name)
            value = self._eval(statement.value)
            self._emit_binop(statement.op[:-1], destination, destination, value, unsigned)
            self._release(value)
            return
        if isinstance(target, Index):
            address = self._element_address(target)
            if statement.op == "=":
                value = self._eval(statement.value)
            else:
                value = self._acquire()
                self._load(value, address, target)
                rhs = self._eval(statement.value)
                self._emit_binop(statement.op[:-1], value, value, rhs, unsigned)
                self._release(rhs)
            self._store(address, value, target)
            self._release(value)
            self._release(address)
            return
        raise CompilationError("assignment target must be a variable or buffer[index]")

    def _gen_if(self, statement: IfStmt) -> None:
        """``if``/``else`` as an ordinary branch on the condition."""
        condition = self._eval(statement.condition, as_bool=True)
        else_label = self.asm.unique_label("else")
        end_label = self.asm.unique_label("endif")
        self._branch_if_zero(condition, else_label)
        self._release(condition)
        self._gen_statements(statement.then_body)
        if statement.has_else:
            self._jump(end_label)
            self.asm.label(else_label)
            self._gen_statements(statement.else_body)
            self.asm.label(end_label)
        else:
            self.asm.label(else_label)

    def _gen_loop(self, condition: Optional[Expr], body: List[Stmt], step: Optional[Stmt]) -> None:
        """A loop that tests its condition at the top and branches out."""
        if condition is None:
            raise CompilationError("loops without a condition are not supported")
        start = self.asm.unique_label("loop")
        end = self.asm.unique_label("loop_end")
        self.asm.label(start)
        register = self._eval(condition, as_bool=True)
        self._branch_if_zero(register, end)
        self._release(register)
        self._gen_statements(body)
        if step is not None:
            self._gen_statement(step)
        self._jump(start)
        self.asm.label(end)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _eval(self, expr: Expr, preferred: Optional[int] = None, as_bool: bool = False) -> int:
        """Evaluate ``expr`` into a register and return it.

        The returned register is either a variable register (treat as
        read-only) or a scratch register the caller must release.  With
        ``as_bool`` the result is already usable as a 0/1 condition (the
        comparison and logical operators produce that form natively; other
        values are normalized with an unsigned "!= 0" test).
        """
        register = self._eval_value(expr, preferred)
        if not as_bool:
            return register
        if isinstance(expr, BinaryOp) and expr.op in _BOOLEAN_OPS:
            return register
        if isinstance(expr, UnaryOp) and expr.op == "!":
            return register
        normalized = self._acquire()
        self._op("SLTU", normalized, 0, register)
        self._release(register)
        return normalized

    def _eval_value(self, expr: Expr, preferred: Optional[int] = None) -> int:
        if isinstance(expr, IntLiteral):
            destination = self._destination(preferred)
            self._load_constant(destination, expr.value)
            return destination
        if isinstance(expr, VarRef):
            return self._var_register(expr.name)
        if isinstance(expr, Call):
            return self._eval_call(expr, preferred)
        if isinstance(expr, Index):
            address = self._element_address(expr)
            destination = self._destination(preferred)
            self._load(destination, address, expr)
            self._release(address)
            return destination
        if isinstance(expr, UnaryOp):
            return self._eval_unary(expr, preferred)
        if isinstance(expr, BinaryOp):
            return self._eval_binary(expr, preferred)
        raise CompilationError(f"unsupported expression {type(expr).__name__}")

    def _eval_unary(self, expr: UnaryOp, preferred: Optional[int]) -> int:
        operand = self._eval(expr.operand)
        destination = self._destination(preferred)
        if expr.op == "-":
            self._op("SUB", destination, 0, operand)
        elif expr.op == "~":
            self._op_imm("XORI", destination, operand, -1)
        elif expr.op == "!":
            self._set_if_zero(destination, operand)
        else:  # pragma: no cover - the parser only produces the three above
            raise CompilationError(f"unsupported unary operator {expr.op!r}")
        if operand != destination:
            self._release(operand)
        return destination

    def _eval_binary(self, expr: BinaryOp, preferred: Optional[int]) -> int:
        op = expr.op
        unsigned = _unsigned(expr.left, expr.right)
        constant = expr.right
        if (
            isinstance(constant, IntLiteral)
            and op in _IMMEDIATE_OPS
            and self._fits_immediate(op, constant.value)
        ):
            left = self._eval(expr.left)
            destination = self._destination(preferred)
            mnemonic = "SRLI" if op == ">>" and unsigned else _IMMEDIATE_OPS[op]
            imm = -constant.value if op == "-" else constant.value
            self._op_imm(mnemonic, destination, left, imm)
            if left != destination:
                self._release(left)
            return destination

        left = self._eval(expr.left)
        right = self._eval(expr.right)
        destination = self._destination(preferred)
        self._emit_binop(op, destination, left, right, unsigned)
        if left != destination:
            self._release(left)
        if right != destination:
            self._release(right)
        return destination

    def _emit_binop(self, op: str, rd: int, left: int, right: int, unsigned: bool) -> None:
        """Emit ``rd = left <op> right`` for any supported binary operator."""
        if op in _DIRECT_OPS:
            self._op(_DIRECT_OPS[op], rd, left, right)
            return
        if op == ">>":
            self._op("SRL" if unsigned else "SRA", rd, left, right)
            return
        # ``<=`` and ``>=`` are the strict comparisons negated by XORI below.
        compare = "SLTU" if unsigned else "SLT"
        if op in ("<", ">="):
            self._op(compare, rd, left, right)
        elif op in (">", "<="):
            self._op(compare, rd, right, left)
        elif op == "==":
            self._op("SUB", rd, left, right)
            self._set_if_zero(rd, rd)
        elif op == "!=":
            self._op("SUB", rd, left, right)
            self._op("SLTU", rd, 0, rd)
        elif op in ("&&", "||"):
            normalized_left = self._acquire()
            self._op("SLTU", normalized_left, 0, left)
            self._op("SLTU", rd, 0, right)
            self._op("AND" if op == "&&" else "OR", rd, normalized_left, rd)
            self._release(normalized_left)
        else:  # pragma: no cover - the parser only produces known operators
            raise CompilationError(f"unsupported binary operator {op!r}")
        if op in ("<=", ">="):
            self._op_imm("XORI", rd, rd, 1)

    def _element_address(self, expr: Index) -> int:
        """Byte address of ``buffer[index]`` (buffers hold 32-bit words)."""
        index = self._eval(expr.index)
        address = self._acquire()
        self._op_imm("SLLI", address, index, 2)
        self._add_base(address, expr.base)
        if index != address:
            self._release(index)
        return address

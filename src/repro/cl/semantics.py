"""Semantic analysis: symbol tables, type checking, and uniformity analysis.

Two jobs:

* **Type checking** -- every expression gets a :class:`~repro.cl.nodes.CType`;
  buffers may only be indexed, scalars may only be computed with; conditions
  must be scalars.
* **Uniformity analysis** -- every expression gets a ``varying`` flag that is
  True when its value may differ between the work-items of one wavefront.
  ``get_global_id``/``get_local_id`` and every value loaded from global memory
  are varying; a variable becomes varying when it is ever assigned a varying
  value *or* assigned under varying control flow (control dependence).  The
  G-GPU back end uses the flag to pick between plain wavefront-uniform
  branches and the execution-mask instructions, exactly the distinction the
  FGPU compiler has to make.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

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
    Symbol,
    TranslationUnit,
    UnaryOp,
    VarRef,
    WhileStmt,
)
from repro.errors import CompilationError

# Work-item builtins: name -> (returns varying value, number of arguments).
VARYING_BUILTINS = {"get_global_id": 1, "get_local_id": 1}
UNIFORM_BUILTINS = {
    "get_group_id": 1,
    "get_local_size": 1,
    "get_global_size": 1,
    "get_num_groups": 1,
}
VALUE_BUILTINS = {"min": 2, "max": 2}
ALL_BUILTINS = {**VARYING_BUILTINS, **UNIFORM_BUILTINS, **VALUE_BUILTINS}

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGICAL_OPS = ("&&", "||")


def _error(message: str, node) -> CompilationError:
    return CompilationError(f"semantic error at {node.span}: {message}")


class KernelAnalyzer:
    """Analyzes one kernel in place (symbols, types, uniformity)."""

    def __init__(self, kernel: KernelDecl) -> None:
        self.kernel = kernel
        self.symbols: Dict[str, Symbol] = {}
        self._varying_vars: Set[str] = set()

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def analyze(self) -> None:
        """Run the full analysis and annotate the kernel in place."""
        self._collect_params()
        self._collect_locals(self.kernel.body)
        self._check_return_placement()
        # Uniformity is a fixed point: an assignment can make a variable
        # varying, which can make later (or earlier, through loops) uses
        # varying.  The lattice only grows, so iterating until no new varying
        # variable appears terminates quickly.
        while True:
            before = len(self._varying_vars)
            self._mark_varying(self.kernel.body, control_varying=False)
            if len(self._varying_vars) == before:
                break
        for name in self._varying_vars:
            self.symbols[name].varying = True
        # The final pass re-annotates every expression with its settled type
        # and uniformity so code generation sees consistent flags.
        self._annotate_statements(self.kernel.body)
        self.kernel.symbols = self.symbols

    # ------------------------------------------------------------------ #
    # Symbol collection
    # ------------------------------------------------------------------ #
    def _collect_params(self) -> None:
        for param in self.kernel.params:
            if param.name in self.symbols:
                raise _error(f"duplicate parameter {param.name!r}", param)
            self.symbols[param.name] = Symbol(
                name=param.name,
                ctype=param.ctype,
                is_pointer=param.is_pointer,
                is_param=True,
                span=param.span,
            )

    def _collect_locals(self, statements: Sequence[Stmt], top_level: bool = True) -> None:
        for statement in statements:
            if isinstance(statement, DeclStmt):
                self._declare_locals(statement)
            elif isinstance(statement, LocalDeclStmt):
                if not top_level:
                    raise _error(
                        "__local declarations are only allowed at kernel scope", statement
                    )
                self._declare_local_array(statement)
            elif isinstance(statement, IfStmt):
                self._collect_locals(statement.then_body, top_level=False)
                self._collect_locals(statement.else_body, top_level=False)
            elif isinstance(statement, WhileStmt):
                self._collect_locals(statement.body, top_level=False)
            elif isinstance(statement, ForStmt):
                if isinstance(statement.init, DeclStmt):
                    self._declare_locals(statement.init)
                self._collect_locals(statement.body, top_level=False)

    def _declare_locals(self, declaration: DeclStmt) -> None:
        for name in declaration.names:
            if name in self.symbols:
                raise _error(f"redeclaration of {name!r}", declaration)
            self.symbols[name] = Symbol(
                name=name,
                ctype=declaration.ctype,
                is_pointer=False,
                is_param=False,
                span=declaration.span,
            )

    def _declare_local_array(self, declaration: LocalDeclStmt) -> None:
        if declaration.name in self.symbols:
            raise _error(f"redeclaration of {declaration.name!r}", declaration)
        self.symbols[declaration.name] = Symbol(
            name=declaration.name,
            ctype=declaration.ctype,
            is_pointer=False,
            is_param=False,
            array_words=declaration.size,
            span=declaration.span,
        )

    def _check_return_placement(self) -> None:
        body = self.kernel.body
        for index, statement in enumerate(body):
            if isinstance(statement, ReturnStmt) and index != len(body) - 1:
                raise _error(
                    "return is only supported as the last top-level statement",
                    statement,
                )
        for statement in body:
            self._reject_nested_returns(statement)

    def _reject_nested_returns(self, statement: Stmt) -> None:
        children: List[Stmt] = []
        if isinstance(statement, IfStmt):
            children = list(statement.then_body) + list(statement.else_body)
        elif isinstance(statement, WhileStmt):
            children = list(statement.body)
        elif isinstance(statement, ForStmt):
            children = list(statement.body)
        for child in children:
            if isinstance(child, ReturnStmt):
                raise _error(
                    "return inside control flow is not supported (predicate the code instead)",
                    child,
                )
            self._reject_nested_returns(child)

    # ------------------------------------------------------------------ #
    # Uniformity fixed point
    # ------------------------------------------------------------------ #
    def _expr_varying(self, expr: Optional[Expr]) -> bool:
        if expr is None:
            return False
        if isinstance(expr, IntLiteral):
            return False
        if isinstance(expr, VarRef):
            return expr.name in self._varying_vars
        if isinstance(expr, UnaryOp):
            return self._expr_varying(expr.operand)
        if isinstance(expr, BinaryOp):
            return self._expr_varying(expr.left) or self._expr_varying(expr.right)
        if isinstance(expr, Index):
            # A global-memory load is conservatively varying: different lanes
            # read different addresses in every kernel of interest.
            return True
        if isinstance(expr, Call):
            if expr.name in VARYING_BUILTINS:
                return True
            if expr.name in UNIFORM_BUILTINS:
                return False
            return any(self._expr_varying(arg) for arg in expr.args)
        return True

    def _mark_varying(self, statements: Sequence[Stmt], control_varying: bool) -> None:
        for statement in statements:
            if isinstance(statement, DeclStmt):
                for name, init in zip(statement.names, statement.inits, strict=True):
                    if init is not None and (control_varying or self._expr_varying(init)):
                        self._varying_vars.add(name)
            elif isinstance(statement, AssignStmt):
                if isinstance(statement.target, VarRef):
                    if control_varying or self._expr_varying(statement.value):
                        self._varying_vars.add(statement.target.name)
            elif isinstance(statement, IfStmt):
                branch_varying = control_varying or self._expr_varying(statement.condition)
                self._mark_varying(statement.then_body, branch_varying)
                self._mark_varying(statement.else_body, branch_varying)
            elif isinstance(statement, WhileStmt):
                loop_varying = control_varying or self._expr_varying(statement.condition)
                self._mark_varying(statement.body, loop_varying)
            elif isinstance(statement, ForStmt):
                if statement.init is not None:
                    self._mark_varying([statement.init], control_varying)
                loop_varying = control_varying or self._expr_varying(statement.condition)
                self._mark_varying(statement.body, loop_varying)
                if statement.step is not None:
                    self._mark_varying([statement.step], loop_varying)

    # ------------------------------------------------------------------ #
    # Type checking / annotation
    # ------------------------------------------------------------------ #
    def _symbol(self, name: str, node) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError as exc:
            raise _error(f"undeclared identifier {name!r}", node) from exc

    def _annotate_expr(self, expr: Expr) -> CType:
        if isinstance(expr, IntLiteral):
            expr.ctype = CType.INT
            expr.varying = False
        elif isinstance(expr, VarRef):
            symbol = self._symbol(expr.name, expr)
            if symbol.is_local_array:
                raise _error(
                    f"local array {expr.name!r} can only be used with an index", expr
                )
            expr.ctype = CType.PTR if symbol.is_pointer else symbol.ctype
            expr.varying = expr.name in self._varying_vars
        elif isinstance(expr, UnaryOp):
            operand_type = self._annotate_expr(expr.operand)
            if operand_type is CType.PTR:
                raise _error(f"unary {expr.op!r} cannot be applied to a buffer", expr)
            expr.ctype = operand_type if expr.op != "!" else CType.INT
            expr.varying = expr.operand.varying
        elif isinstance(expr, BinaryOp):
            left = self._annotate_expr(expr.left)
            right = self._annotate_expr(expr.right)
            if left is CType.PTR or right is CType.PTR:
                raise _error(
                    f"operator {expr.op!r} cannot be applied to a buffer "
                    "(index it with [] instead)",
                    expr,
                )
            if expr.op in COMPARISON_OPS or expr.op in LOGICAL_OPS:
                expr.ctype = CType.INT
            else:
                expr.ctype = CType.UINT if CType.UINT in (left, right) else CType.INT
            expr.varying = expr.left.varying or expr.right.varying
        elif isinstance(expr, Index):
            symbol = self._symbol(expr.base, expr)
            if not symbol.is_pointer and not symbol.is_local_array:
                raise _error(f"{expr.base!r} is not a buffer and cannot be indexed", expr)
            index_type = self._annotate_expr(expr.index)
            if index_type is CType.PTR:
                raise _error("buffer index must be an integer expression", expr)
            expr.ctype = CType.INT
            expr.varying = True
        elif isinstance(expr, Call):
            if expr.name not in ALL_BUILTINS:
                raise _error(f"unknown function {expr.name!r}", expr)
            expected = ALL_BUILTINS[expr.name]
            if len(expr.args) != expected:
                raise _error(
                    f"{expr.name} expects {expected} argument(s), got {len(expr.args)}", expr
                )
            for arg in expr.args:
                if self._annotate_expr(arg) is CType.PTR:
                    raise _error(f"{expr.name} arguments must be integers", expr)
            if expr.name in VARYING_BUILTINS or expr.name in UNIFORM_BUILTINS:
                dimension = expr.args[0]
                if not isinstance(dimension, IntLiteral) or not 0 <= dimension.value <= 1:
                    raise _error(
                        f"{expr.name} requires a literal dimension 0 or 1 "
                        f"(rank-1 and rank-2 NDRanges)",
                        expr,
                    )
            expr.ctype = CType.UINT if expr.name in (set(VARYING_BUILTINS) | set(UNIFORM_BUILTINS)) else CType.INT
            expr.varying = expr.name in VARYING_BUILTINS or any(arg.varying for arg in expr.args)
        else:  # pragma: no cover - defensive
            raise _error(f"unsupported expression {type(expr).__name__}", expr)
        return expr.ctype

    def _annotate_statements(self, statements: Sequence[Stmt]) -> None:
        for statement in statements:
            if isinstance(statement, DeclStmt):
                for init in statement.inits:
                    if init is not None:
                        self._annotate_expr(init)
            elif isinstance(statement, AssignStmt):
                self._annotate_assignment(statement)
            elif isinstance(statement, IfStmt):
                if self._annotate_expr(statement.condition) is CType.PTR:
                    raise _error("if condition must be an integer expression", statement)
                self._annotate_statements(statement.then_body)
                self._annotate_statements(statement.else_body)
            elif isinstance(statement, WhileStmt):
                if self._annotate_expr(statement.condition) is CType.PTR:
                    raise _error("while condition must be an integer expression", statement)
                self._annotate_statements(statement.body)
            elif isinstance(statement, ForStmt):
                if statement.init is not None:
                    self._annotate_statements([statement.init])
                if statement.condition is not None:
                    if self._annotate_expr(statement.condition) is CType.PTR:
                        raise _error("for condition must be an integer expression", statement)
                self._annotate_statements(statement.body)
                if statement.step is not None:
                    self._annotate_statements([statement.step])
            elif isinstance(statement, (BarrierStmt, ReturnStmt, LocalDeclStmt)):
                continue
            else:  # pragma: no cover - defensive
                raise _error(f"unsupported statement {type(statement).__name__}", statement)

    def _annotate_assignment(self, statement: AssignStmt) -> None:
        target = statement.target
        if isinstance(target, VarRef):
            symbol = self._symbol(target.name, target)
            if symbol.is_pointer:
                raise _error(f"buffer parameter {target.name!r} cannot be reassigned", target)
            self._annotate_expr(target)
        elif isinstance(target, Index):
            self._annotate_expr(target)
        else:
            raise _error("assignment target must be a variable or buffer[index]", statement)
        if self._annotate_expr(statement.value) is CType.PTR:
            raise _error("cannot assign a buffer to a value", statement)


def analyze(unit: TranslationUnit) -> TranslationUnit:
    """Analyze every kernel of a translation unit in place and return it."""
    names: Set[str] = set()
    for kernel in unit.kernels:
        if kernel.name in names:
            raise CompilationError(
                f"semantic error at {kernel.span}: duplicate kernel name {kernel.name!r}"
            )
        names.add(kernel.name)
        KernelAnalyzer(kernel).analyze()
    return unit

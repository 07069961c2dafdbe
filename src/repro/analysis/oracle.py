"""Dynamic race oracle: an instrumented pure-python kernel interpreter.

Runs an analyzed CL kernel one workgroup at a time, with one python generator
per lane that yields at every ``barrier()``.  A coordinator advances all
lanes of the workgroup to the barrier before any lane continues, which
reproduces the barrier-interval semantics exactly; every ``__local`` and
``__global`` access is logged as ``(workgroup, lane, interval, kind,
address)`` and races are extracted from the log *concretely*:

* two accesses to the same address, at least one a write, by different lanes
  of the same workgroup in the same barrier interval, or
* two accesses to the same global address, at least one a write, from
  different workgroups (barriers never synchronize across workgroups).

The oracle also observes barrier divergence (some lanes of a workgroup reach
a barrier while others have already finished) and concrete out-of-bounds
indices.  Arithmetic is 32-bit wrapping with the same signedness rules the
code generators use (unsigned shifts/compares when an operand is ``uint``,
RISC-style division), so the observed addresses are the machine's addresses.

:func:`soundness_violations` is the bridge the fuzz harness asserts on: every
behaviour the oracle observes must be covered by a static finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.findings import AnalysisReport
from repro.arch.kernel import NDRange
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
from repro.errors import SimulationError

_MASK = 0xFFFFFFFF

#: (space, array, workgroup, interval, lane, kind, address, location)
_LogEntry = Tuple[str, str, int, int, int, str, int, str]


def _signed(value: int) -> int:
    value &= _MASK
    return value - (1 << 32) if value & 0x80000000 else value


@dataclass(frozen=True)
class OracleRace:
    """One concrete race observed by the oracle."""

    space: str
    array: str
    address: int
    first: Tuple[int, int, str, str]  # (workgroup, lane, kind, location)
    second: Tuple[int, int, str, str]

    def describe(self) -> str:
        (wg_a, lane_a, kind_a, at_a) = self.first
        (wg_b, lane_b, kind_b, at_b) = self.second
        return (
            f"{self.space} {self.array}[{self.address}]: "
            f"{kind_a} by wg{wg_a}/lane{lane_a} at {at_a} vs "
            f"{kind_b} by wg{wg_b}/lane{lane_b} at {at_b}"
        )


@dataclass
class OracleReport:
    """Everything the oracle observed in one run."""

    kernel: str
    races: List[OracleRace] = field(default_factory=list)
    barrier_divergence: List[str] = field(default_factory=list)
    out_of_bounds: List[str] = field(default_factory=list)
    num_accesses: int = 0

    @property
    def racy(self) -> bool:
        return bool(self.races)

    @property
    def clean(self) -> bool:
        return not (self.races or self.barrier_divergence or self.out_of_bounds)


class _OracleRun:
    """One instrumented execution of a kernel over an NDRange."""

    _MAX_RACES = 50

    def __init__(
        self,
        kernel: KernelDecl,
        ndrange: NDRange,
        buffers: Mapping[str, Sequence[int]],
        scalars: Mapping[str, int],
        max_steps: int,
    ) -> None:
        self.kernel = kernel
        # Flat sizes drive the workgroup/lane loops; per-dimension ids are
        # recovered from the shapes in _call (dimension 0 fastest).
        self.ndrange = ndrange
        self.buffers: Dict[str, List[int]] = {
            name: [int(v) & _MASK for v in contents] for name, contents in buffers.items()
        }
        self.scalars = {name: int(value) & _MASK for name, value in scalars.items()}
        self.max_steps = max_steps
        self.report = OracleReport(kernel=kernel.name)
        self.log: List[_LogEntry] = []
        self._steps = 0
        self._locals: Dict[str, List[int]] = {}
        self._workgroup = 0
        self._interval = 0

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def run(self) -> OracleReport:
        for param in self.kernel.params:
            if param.is_pointer and param.name not in self.buffers:
                raise SimulationError(f"oracle needs a buffer for parameter {param.name!r}")
            if not param.is_pointer and param.name not in self.scalars:
                raise SimulationError(f"oracle needs a value for parameter {param.name!r}")
        for workgroup in range(self.ndrange.num_workgroups):
            self._workgroup = workgroup
            self._run_workgroup(workgroup)
        self._extract_races()
        self.report.num_accesses = len(self.log)
        return self.report

    def _run_workgroup(self, workgroup: int) -> None:
        self._locals = {
            symbol.name: [0] * symbol.array_words
            for symbol in self.kernel.symbols.values()
            if symbol.is_local_array
        }
        self._interval = 0
        lanes = list(range(self.ndrange.workgroup_size))
        generators = {lane: self._run_lane(workgroup, lane) for lane in lanes}
        active = list(lanes)
        while active:
            at_barrier: List[int] = []
            finished: List[int] = []
            for lane in active:
                try:
                    next(generators[lane])
                    at_barrier.append(lane)
                except StopIteration:
                    finished.append(lane)
            if at_barrier and finished:
                self.report.barrier_divergence.append(
                    f"workgroup {workgroup}: lanes {at_barrier[:4]}... wait at a "
                    f"barrier (interval {self._interval}) that lanes "
                    f"{finished[:4]}... never reach"
                )
                return
            if not at_barrier:
                return
            self._interval += 1
            active = at_barrier

    # ------------------------------------------------------------------ #
    # Per-lane interpreter
    # ------------------------------------------------------------------ #
    def _run_lane(self, workgroup: int, lane: int) -> Iterator[None]:
        env: Dict[str, int] = dict(self.scalars)
        yield from self._exec_block(self.kernel.body, workgroup, lane, env)

    def _exec_block(
        self, statements: Sequence[Stmt], workgroup: int, lane: int, env: Dict[str, int]
    ) -> Iterator[None]:
        for statement in statements:
            self._steps += 1
            if self._steps > self.max_steps:
                raise SimulationError(
                    f"oracle step budget exceeded running kernel {self.kernel.name!r}"
                )
            if isinstance(statement, DeclStmt):
                for name, init in zip(statement.names, statement.inits, strict=True):
                    env[name] = (
                        self._eval(init, workgroup, lane, env) if init is not None else 0
                    )
            elif isinstance(statement, AssignStmt):
                self._exec_assign(statement, workgroup, lane, env)
            elif isinstance(statement, IfStmt):
                if self._eval(statement.condition, workgroup, lane, env) != 0:
                    yield from self._exec_block(statement.then_body, workgroup, lane, env)
                else:
                    yield from self._exec_block(statement.else_body, workgroup, lane, env)
            elif isinstance(statement, WhileStmt):
                while self._eval(statement.condition, workgroup, lane, env) != 0:
                    yield from self._exec_block(statement.body, workgroup, lane, env)
                    self._steps += 1
                    if self._steps > self.max_steps:
                        raise SimulationError(
                            f"oracle step budget exceeded in kernel {self.kernel.name!r}"
                        )
            elif isinstance(statement, ForStmt):
                if statement.init is not None:
                    yield from self._exec_block([statement.init], workgroup, lane, env)
                while (
                    statement.condition is None
                    or self._eval(statement.condition, workgroup, lane, env) != 0
                ):
                    yield from self._exec_block(statement.body, workgroup, lane, env)
                    if statement.step is not None:
                        yield from self._exec_block([statement.step], workgroup, lane, env)
                    self._steps += 1
                    if self._steps > self.max_steps:
                        raise SimulationError(
                            f"oracle step budget exceeded in kernel {self.kernel.name!r}"
                        )
            elif isinstance(statement, BarrierStmt):
                yield
            elif isinstance(statement, ReturnStmt):
                return
            elif isinstance(statement, LocalDeclStmt):
                continue

    def _exec_assign(
        self, statement: AssignStmt, workgroup: int, lane: int, env: Dict[str, int]
    ) -> None:
        value = self._eval(statement.value, workgroup, lane, env)
        target = statement.target
        if isinstance(target, VarRef):
            if statement.op != "=":
                value = self._binop(
                    statement.op.rstrip("="),
                    env.get(target.name, 0),
                    value,
                    self._unsigned(target, statement.value),
                )
            env[target.name] = value
        elif isinstance(target, Index):
            address = _signed(self._eval(target.index, workgroup, lane, env))
            if statement.op != "=":
                current = self._memory_access(target, address, "r", workgroup, lane)
                value = self._binop(
                    statement.op.rstrip("="),
                    current,
                    value,
                    self._unsigned(target, statement.value),
                )
            self._memory_store(target, address, value, workgroup, lane)

    # ------------------------------------------------------------------ #
    # Memory with access logging
    # ------------------------------------------------------------------ #
    def _memory(self, access: Index) -> Tuple[str, List[int]]:
        symbol = self.kernel.symbols[access.base]
        if symbol.is_local_array:
            return ("local", self._locals[access.base])
        return ("global", self.buffers[access.base])

    def _memory_access(
        self, access: Index, address: int, kind: str, workgroup: int, lane: int
    ) -> int:
        space, memory = self._memory(access)
        location = f"{access.span.line}:{access.span.column}"
        self.log.append(
            (space, access.base, workgroup, self._interval, lane, kind, address, location)
        )
        if not 0 <= address < len(memory):
            self._note_oob(space, access, address, workgroup, lane)
            return 0
        return memory[address]

    def _memory_store(
        self, access: Index, address: int, value: int, workgroup: int, lane: int
    ) -> None:
        space, memory = self._memory(access)
        location = f"{access.span.line}:{access.span.column}"
        self.log.append(
            (space, access.base, workgroup, self._interval, lane, "w", address, location)
        )
        if not 0 <= address < len(memory):
            self._note_oob(space, access, address, workgroup, lane)
            return
        memory[address] = value & _MASK

    def _note_oob(
        self, space: str, access: Index, address: int, workgroup: int, lane: int
    ) -> None:
        if len(self.report.out_of_bounds) < self._MAX_RACES:
            self.report.out_of_bounds.append(
                f"{space} {access.base}[{address}] out of bounds "
                f"(wg{workgroup}/lane{lane} at {access.span})"
            )

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    @staticmethod
    def _unsigned(*operands: Optional[Expr]) -> bool:
        return any(op is not None and op.ctype is CType.UINT for op in operands)

    def _eval(
        self, expr: Optional[Expr], workgroup: int, lane: int, env: Dict[str, int]
    ) -> int:
        if expr is None:
            return 0
        if isinstance(expr, IntLiteral):
            return expr.value & _MASK
        if isinstance(expr, VarRef):
            return env.get(expr.name, 0)
        if isinstance(expr, UnaryOp):
            value = self._eval(expr.operand, workgroup, lane, env)
            if expr.op == "-":
                return (-value) & _MASK
            if expr.op == "!":
                return 0 if value else 1
            if expr.op == "~":
                return (~value) & _MASK
            return value
        if isinstance(expr, BinaryOp):
            left = self._eval(expr.left, workgroup, lane, env)
            right = self._eval(expr.right, workgroup, lane, env)
            return self._binop(expr.op, left, right, self._unsigned(expr.left, expr.right))
        if isinstance(expr, Index):
            address = _signed(self._eval(expr.index, workgroup, lane, env))
            return self._memory_access(expr, address, "r", workgroup, lane)
        if isinstance(expr, Call):
            return self._call(expr, workgroup, lane, env)
        raise SimulationError(f"oracle cannot evaluate {type(expr).__name__}")

    _ID_BUILTINS = (
        "get_local_id",
        "get_global_id",
        "get_group_id",
        "get_local_size",
        "get_global_size",
        "get_num_groups",
    )

    def _call(self, expr: Call, workgroup: int, lane: int, env: Dict[str, int]) -> int:
        if expr.name in self._ID_BUILTINS:
            dim = 0
            if expr.args and isinstance(expr.args[0], IntLiteral):
                dim = expr.args[0].value
            global_shape = self.ndrange.global_shape
            workgroup_shape = self.ndrange.workgroup_shape
            if dim >= len(global_shape):
                raise SimulationError(
                    f"{expr.name} queries dimension {dim} of a rank-{len(global_shape)} launch"
                )
            # Row-major decomposition, dimension 0 fastest: flat lane and
            # workgroup numbers factor over the dim-0 extents exactly the way
            # the G-GPU dispatcher assigns them.
            ws0 = workgroup_shape[0]
            nwg0 = global_shape[0] // ws0
            local = lane % ws0 if dim == 0 else lane // ws0
            group = workgroup % nwg0 if dim == 0 else workgroup // nwg0
            if expr.name == "get_local_id":
                return local
            if expr.name == "get_global_id":
                return group * workgroup_shape[dim] + local
            if expr.name == "get_group_id":
                return group
            if expr.name == "get_local_size":
                return workgroup_shape[dim]
            if expr.name == "get_global_size":
                return global_shape[dim]
            return global_shape[dim] // workgroup_shape[dim]
        values = [self._eval(arg, workgroup, lane, env) for arg in expr.args]
        if expr.name == "min":
            return min(_signed(values[0]), _signed(values[1])) & _MASK
        if expr.name == "max":
            return max(_signed(values[0]), _signed(values[1])) & _MASK
        raise SimulationError(f"oracle does not implement builtin {expr.name!r}")

    @staticmethod
    def _binop(op: str, left: int, right: int, unsigned: bool) -> int:
        sl, sr = _signed(left), _signed(right)
        if op == "+":
            return (left + right) & _MASK
        if op == "-":
            return (left - right) & _MASK
        if op == "*":
            return (sl * sr) & _MASK
        if op == "/":
            if sr == 0:
                return _MASK  # RISC-style: quotient of division by zero is -1
            quotient = abs(sl) // abs(sr)
            return (-quotient if (sl < 0) != (sr < 0) else quotient) & _MASK
        if op == "%":
            if sr == 0:
                return left & _MASK  # RISC-style: remainder is the dividend
            quotient = abs(sl) // abs(sr)
            if (sl < 0) != (sr < 0):
                quotient = -quotient
            return (sl - quotient * sr) & _MASK
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return (left << (right & 0x1F)) & _MASK
        if op == ">>":
            if unsigned:
                return (left & _MASK) >> (right & 0x1F)
            return (sl >> (right & 0x1F)) & _MASK
        if op in ("==", "!="):
            equal = (left & _MASK) == (right & _MASK)
            return int(equal if op == "==" else not equal)
        if op in ("<", "<=", ">", ">="):
            a, b = ((left & _MASK), (right & _MASK)) if unsigned else (sl, sr)
            return int({"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op])
        if op == "&&":
            return int(bool(left) and bool(right))
        if op == "||":
            return int(bool(left) or bool(right))
        raise SimulationError(f"oracle does not implement operator {op!r}")

    # ------------------------------------------------------------------ #
    # Race extraction
    # ------------------------------------------------------------------ #
    def _extract_races(self) -> None:
        by_address: Dict[Tuple[str, str, int], List[_LogEntry]] = {}
        for entry in self.log:
            space, array, _, _, _, _, address, _ = entry
            by_address.setdefault((space, array, address), []).append(entry)
        seen: Set[Tuple[str, str, int, str, str]] = set()
        for (space, array, address), entries in sorted(by_address.items()):
            if len(self.report.races) >= self._MAX_RACES:
                break
            if not any(entry[5] == "w" for entry in entries):
                continue
            race = self._find_conflict(space, entries)
            if race is None:
                continue
            first, second = race
            key = (space, array, address, first[7], second[7])
            if key in seen:
                continue
            seen.add(key)
            self.report.races.append(
                OracleRace(
                    space=space,
                    array=array,
                    address=address,
                    first=(first[2], first[4], first[5], first[7]),
                    second=(second[2], second[4], second[5], second[7]),
                )
            )

    @staticmethod
    def _find_conflict(
        space: str, entries: List[_LogEntry]
    ) -> Optional[Tuple[_LogEntry, _LogEntry]]:
        writes = [entry for entry in entries if entry[5] == "w"]
        for write in writes:
            _, _, wg_w, interval_w, lane_w, _, _, _ = write
            for other in entries:
                _, _, wg_o, interval_o, lane_o, _, _, _ = other
                if other is write:
                    continue
                if space == "global" and wg_o != wg_w:
                    return (write, other)
                if wg_o == wg_w and interval_o == interval_w and lane_o != lane_w:
                    return (write, other)
        return None


def run_oracle(
    kernel: KernelDecl,
    *,
    ndrange: NDRange,
    buffers: Mapping[str, Sequence[int]],
    scalars: Mapping[str, int],
    max_steps: int = 2_000_000,
) -> OracleReport:
    """Execute one analyzed kernel under instrumentation and report findings.

    ``buffers`` maps pointer parameters to integer sequences (copied; the
    oracle mutates its own copies), ``scalars`` maps value parameters.
    ``ndrange`` is the launch, rank 1 or 2 (dimension 0 fastest).
    """
    if not kernel.symbols:
        raise SimulationError(
            f"kernel {kernel.name!r} has no symbol table; run cl.semantics.analyze first"
        )
    run = _OracleRun(kernel, ndrange, buffers, scalars, max_steps)
    return run.run()


def soundness_violations(
    static_report: AnalysisReport, oracle_report: OracleReport
) -> List[str]:
    """Where the static verdicts fail to cover the oracle's observations.

    Soundness contract: every concretely observed race needs at least one
    RACE* finding (any severity), observed barrier divergence needs a BAR*
    finding, and observed out-of-bounds accesses need a BND* finding.  An
    empty result means the static checker is sound on this run.
    """
    violations: List[str] = []
    if oracle_report.races and not static_report.race_findings:
        example = oracle_report.races[0].describe()
        violations.append(
            f"oracle observed {len(oracle_report.races)} race(s) "
            f"(e.g. {example}) but the static checker reported no race finding"
        )
    has_barrier_finding = any(
        finding.check.startswith("BAR") for finding in static_report.findings
    )
    if oracle_report.barrier_divergence and not has_barrier_finding:
        violations.append(
            f"oracle observed barrier divergence "
            f"({oracle_report.barrier_divergence[0]}) but the static checker "
            "reported no BAR finding"
        )
    has_bounds_finding = any(
        finding.check.startswith("BND") for finding in static_report.findings
    )
    if oracle_report.out_of_bounds and not has_bounds_finding:
        violations.append(
            f"oracle observed out-of-bounds accesses "
            f"({oracle_report.out_of_bounds[0]}) but the static checker "
            "reported no BND finding"
        )
    return violations

"""G-GPU back end: lower an analyzed kernel AST to the SIMT ISA.

The generator drives the public :class:`~repro.arch.kernel.KernelBuilder`
exactly like the hand-written benchmark kernels do, so the compiled code runs
on the same simulator, through the same host API, with the same workloads.

Statements and expressions are lowered by :class:`~repro.cl.lowering.Lowering`;
this module supplies the G-GPU hooks and the control flow that follows the
uniformity annotation from :mod:`repro.cl.semantics`:

* wavefront-uniform conditions become plain ``BEQ``/``JMP`` branches,
* lane-varying ``if``/``else`` becomes the ``PUSHM``/``CMASK``/``INVM``/``POPM``
  execution-mask sequence,
* lane-varying loops become mask-constrained loops that exit when no lane is
  active (``BEMPTY``).

Constants use the immediate operand forms when they fit the 14-bit field
(``*`` and ``<<`` included), the usual FGPU strength reductions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.arch.assembler import fits_in_immediate
from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder
from repro.cl.lowering import Lowering
from repro.cl.nodes import Call, Expr, IfStmt, Index, IntLiteral, KernelDecl, Stmt
from repro.errors import CompilationError

# Builtin work-item functions that map 1:1 onto SPECIAL opcodes.
_BUILTIN_OPCODES: Dict[str, Opcode] = {
    "get_global_id": Opcode.GID,
    "get_local_id": Opcode.LID,
    "get_group_id": Opcode.WGID,
    "get_local_size": Opcode.WGSIZE,
    "get_global_size": Opcode.GSIZE,
    "get_num_groups": Opcode.NWG,
}


class GGPUCodeGenerator(Lowering):
    """Generates one G-GPU :class:`~repro.arch.kernel.Kernel` from an analyzed AST."""

    def __init__(self, kernel: KernelDecl) -> None:
        super().__init__(kernel)
        args = tuple(
            KernelArg(param.name, "buffer" if param.is_pointer else "scalar")
            for param in kernel.params
        )
        self.builder = KernelBuilder(kernel.name, args=args)
        self.asm = self.builder.asm
        self._free_temps: List[int] = []
        self._num_temps = 0

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def generate(self) -> Kernel:
        """Lower the kernel and return the assembled program."""
        try:
            self._allocate_variables()
            for param in self.kernel.params:
                self.builder.load_arg(self._var_regs[param.name], param.name)
            self._gen_statements(self.kernel.body)
            self.builder.ret()
            return self.builder.build()
        except CompilationError:
            raise
        except Exception as exc:  # wrap assembler/builder errors with context
            raise CompilationError(
                f"code generation for kernel {self.kernel.name!r} failed: {exc}"
            ) from exc

    def _allocate_variables(self) -> None:
        for param in self.kernel.params:
            self._var_regs[param.name] = self.builder.alloc(param.name)
        for name, symbol in self.kernel.symbols.items():
            if symbol.is_param:
                continue
            if symbol.is_local_array:
                # Local arrays live at static offsets in the workgroup's LRAM
                # window; they occupy no register.
                self.builder.declare_local(name, symbol.array_words)
            else:
                self._var_regs[name] = self.builder.alloc(name)

    def _is_local(self, name: str) -> bool:
        symbol = self.kernel.symbols.get(name)
        return symbol is not None and symbol.is_local_array

    # ------------------------------------------------------------------ #
    # Lane-varying control flow (execution masks)
    # ------------------------------------------------------------------ #
    def _gen_if(self, statement: IfStmt) -> None:
        if not statement.condition.varying:
            super()._gen_if(statement)
            return
        condition = self._eval(statement.condition, as_bool=True)
        if statement.has_else:
            with self.builder.lane_if_else(condition) as branch:
                self._release(condition)
                self._gen_statements(statement.then_body)
                with branch.otherwise():
                    self._gen_statements(statement.else_body)
        else:
            with self.builder.lane_if(condition):
                self._release(condition)
                self._gen_statements(statement.then_body)

    def _gen_loop(self, condition: Optional[Expr], body: List[Stmt], step: Optional[Stmt]) -> None:
        if condition is None or not condition.varying:
            super()._gen_loop(condition, body, step)
            return
        with self.builder.divergent_while() as loop:
            register = self._eval(condition, as_bool=True)
            loop.check(register)
            self._release(register)
            self._gen_statements(body)
            if step is not None:
                self._gen_statement(step)

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _acquire(self) -> int:
        """Reuse the last freed scratch register, or allocate a new one."""
        if self._free_temps:
            return self._free_temps.pop()
        try:
            register = self.builder.alloc(f"_t{self._num_temps}")
        except Exception as exc:
            raise CompilationError(
                f"kernel {self.kernel.name!r} needs more registers than the "
                "32-register file provides"
            ) from exc
        self._num_temps += 1
        self._temp_regs.add(register)
        return register

    def _release(self, register: Optional[int]) -> None:
        if register is not None and register in self._temp_regs:
            self._free_temps.append(register)

    def _op(self, mnemonic: str, rd: int, rs: int, rt: int) -> None:
        self.builder.emit(Opcode[mnemonic], rd=rd, rs=rs, rt=rt)

    def _op_imm(self, mnemonic: str, rd: int, rs: int, imm: int) -> None:
        self.builder.emit(Opcode[mnemonic], rd=rd, rs=rs, imm=imm)

    def _move(self, rd: int, rs: int) -> None:
        self.builder.emit(Opcode.ADD, rd=rd, rs=rs, rt=0)

    def _load_constant(self, rd: int, value: int) -> None:
        self.builder.load_constant(rd, value)

    def _set_if_zero(self, rd: int, rs: int) -> None:
        self.builder.emit(Opcode.SLTU, rd=rd, rs=0, rt=rs)
        self.builder.emit(Opcode.XORI, rd=rd, rs=rd, imm=1)

    def _fits_immediate(self, op: str, value: int) -> bool:
        if op in ("-", ">>"):
            return fits_in_immediate(value) and fits_in_immediate(-value)
        return fits_in_immediate(value)

    def _jump(self, label: str) -> None:
        self.builder.emit(Opcode.JMP, label=label)

    def _branch_if_zero(self, register: int, label: str) -> None:
        self.builder.emit(Opcode.BEQ, rs=register, rt=0, label=label)

    def _load(self, rd: int, address: int, element: Index) -> None:
        load = Opcode.LLW if self._is_local(element.base) else Opcode.LW
        self.builder.emit(load, rd=rd, rs=address, imm=0)

    def _store(self, address: int, value: int, element: Index) -> None:
        store = Opcode.LSW if self._is_local(element.base) else Opcode.SW
        self.builder.emit(store, rs=address, rt=value, imm=0)

    def _add_base(self, address: int, name: str) -> None:
        """Global buffers add the pointer register; ``__local`` arrays add
        their static byte offset inside the workgroup's LRAM window."""
        if self._is_local(name):
            offset = self.builder.local_offset(name)
            if offset:
                self.builder.emit(Opcode.ADDI, rd=address, rs=address, imm=offset)
        else:
            self.builder.emit(Opcode.ADD, rd=address, rs=address, rt=self._var_register(name))

    def _eval_call(self, expr: Call, preferred: Optional[int]) -> int:
        destination = self._destination(preferred)
        if expr.name in _BUILTIN_OPCODES:
            # Semantic analysis guarantees the dimension argument is a literal
            # 0 or 1; it becomes the SPECIAL instruction's dimension immediate.
            dimension = expr.args[0]
            dim = dimension.value if isinstance(dimension, IntLiteral) else 0
            self.builder.emit(_BUILTIN_OPCODES[expr.name], rd=destination, imm=dim)
            return destination
        if expr.name in ("min", "max"):
            left = self._eval(expr.args[0])
            right = self._eval(expr.args[1])
            self._op(expr.name.upper(), destination, left, right)
            self._release(left)
            self._release(right)
            return destination
        raise CompilationError(f"unknown function {expr.name!r}")

    def _gen_barrier(self) -> None:
        self.builder.emit(Opcode.BARRIER)


def generate_ggpu_kernel(kernel: KernelDecl) -> Kernel:
    """Lower one analyzed kernel declaration to a G-GPU kernel."""
    return GGPUCodeGenerator(kernel).generate()

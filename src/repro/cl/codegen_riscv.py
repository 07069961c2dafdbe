"""RISC-V back end: lower an analyzed kernel AST to a scalar RV32IM program.

The paper's baseline runs the C version of each benchmark on a CV32E40P-class
RV32IM core.  This back end is the stand-in for that GCC flow: the kernel body
is wrapped in a software loop over the NDRange (``for gid in range(global_size)``)
and each work-item executes sequentially.  The work-item builtins are resolved
against that loop (``get_global_id`` is the loop counter, ``get_local_id`` is
``gid % workgroup_size``, and so on), and ``barrier()`` becomes a no-op because
a single in-order core is always "synchronized".

Rank-2 launches lower to a row-major loop *nest* in workgroup-major order —
``for wg1: for wg0: for lid1: for lid0: body`` — so the work-items of one
workgroup run contiguously (lowest local id first) before the next workgroup
starts.  Each dimension's id lives in its own register and the builtins
resolve per dimension; the rank-1 path is emitted exactly as before the nest
existed, so every 1-D compiled program is bit-identical.

``__local`` arrays become zero-initialized data-memory regions shared by all
workgroups of the serialized loop.  That serialization is faithful exactly
for kernels whose cross-work-item ``__local`` reads only depend on work-items
with lower (or equal) local ids — "backward" dependencies, which the
gid-major loop order preserves.  The benchmark sources in
:mod:`repro.cl.sources` are written in that serialization-safe form; the
fuzz tests (``tests/test_cl_fuzz.py``) pin the equivalence.

Statements and expressions are lowered by :class:`~repro.cl.lowering.Lowering`;
this module owns the work-item serialization (the loop or loop nest in
:meth:`RiscvCodeGenerator.generate`, the builtins in ``_eval_call``, and the
no-op ``_gen_barrier``) and the RV32IM spelling of the lowering's hooks.

The generated :class:`~repro.riscv.programs.library.RiscvCase` plugs into the
same evaluation harness as the hand-written scalar programs, so compiled and
hand-written baselines can be compared cycle for cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.arch.kernel import NDRange
from repro.cl.lowering import Lowering
from repro.cl.nodes import Call, Index, IntLiteral, KernelDecl
from repro.errors import CompilationError
from repro.kernels.library import GpuWorkload
from repro.riscv.assembler import RvAssembler, RvProgram, ZERO
from repro.riscv.isa import RvOpcode
from repro.riscv.programs.library import RiscvCase, load_workload_into_memory

# Registers x5-x31 are available to the generator (x0 is the constant zero,
# x1-x4 are left for the ABI even though the generated programs never call).
_AVAILABLE_REGISTERS = tuple(range(5, 32))

_ID_BUILTINS = (
    "get_global_id",
    "get_global_size",
    "get_local_size",
    "get_local_id",
    "get_group_id",
    "get_num_groups",
)


def _fits_i12(value: int) -> bool:
    return -2048 <= value <= 2047


class RiscvCodeGenerator(Lowering):
    """Generates a scalar RV32IM program for one kernel and one launch."""

    def __init__(
        self,
        kernel: KernelDecl,
        param_values: Dict[str, int],
        ndrange: NDRange,
        name: Optional[str] = None,
        local_addresses: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(kernel)
        self.param_values = dict(param_values)
        self.local_addresses = dict(local_addresses or {})
        self.ndrange = ndrange
        self.asm = RvAssembler(name or f"{kernel.name}_riscv")
        self._free: List[int] = list(_AVAILABLE_REGISTERS)
        # Loop bookkeeping registers.  The rank-1 trio is reserved in the
        # exact order the 1-D generator always used, keeping its register
        # assignment (and therefore every compiled 1-D program) unchanged.
        if ndrange.rank == 1:
            self._gid_reg = self._reserve()
            self._gsize_reg = self._reserve()
            self._wgsize_reg = self._reserve()
        else:
            self._wg_regs = (self._reserve(), self._reserve())
            self._lid_regs = (self._reserve(), self._reserve())
            self._gid_regs = (self._reserve(), self._reserve())
            self._wgbase_regs = (self._reserve(), self._reserve())
            self._ws_regs = (self._reserve(), self._reserve())
            self._nwg_regs = (self._reserve(), self._reserve())

    # ------------------------------------------------------------------ #
    # Entry point: the work-item loop
    # ------------------------------------------------------------------ #
    def generate(self) -> RvProgram:
        """Emit the work-item loop (or rank-2 loop nest) and the lowered body."""
        self._allocate_variables()
        self._load_parameters()
        if self.ndrange.rank == 1:
            self.asm.li(self._gid_reg, 0)
            self.asm.li(self._gsize_reg, self.ndrange.global_size)
            self.asm.li(self._wgsize_reg, self.ndrange.workgroup_size)
            loop = self.asm.unique_label("wi_loop")
            end = self.asm.unique_label("wi_end")
            self.asm.label(loop)
            self.asm.emit(RvOpcode.BGE, rs1=self._gid_reg, rs2=self._gsize_reg, label=end)
            self._gen_statements(self.kernel.body)
            self.asm.emit(RvOpcode.ADDI, rd=self._gid_reg, rs1=self._gid_reg, imm=1)
            self.asm.j(loop)
            self.asm.label(end)
        else:
            self._generate_rank2_nest()
        self.asm.halt()
        return self.asm.assemble()

    def _generate_rank2_nest(self) -> None:
        """Row-major, workgroup-major loop nest for a rank-2 launch.

        Workgroups execute one after another (wg1-major, wg0 within), and the
        work-items of each workgroup run in row-major local-id order.  This
        keeps the serialization-safe ``__local`` contract of the 1-D loop: a
        work-item only observes local slots already written by work-items
        with lower local ids of its *own* workgroup.
        """
        ws0, ws1 = self.ndrange.workgroup_shape
        nwg0, nwg1 = self.ndrange.groups_shape
        self.asm.li(self._ws_regs[0], ws0)
        self.asm.li(self._ws_regs[1], ws1)
        self.asm.li(self._nwg_regs[0], nwg0)
        self.asm.li(self._nwg_regs[1], nwg1)
        loops = (
            # (counter, bound, label stem) from outermost to innermost.
            (self._wg_regs[1], self._nwg_regs[1], "wg1"),
            (self._wg_regs[0], self._nwg_regs[0], "wg0"),
            (self._lid_regs[1], self._ws_regs[1], "lid1"),
            (self._lid_regs[0], self._ws_regs[0], "lid0"),
        )
        opened = []
        for counter, bound, stem in loops:
            start = self.asm.unique_label(f"{stem}_loop")
            end = self.asm.unique_label(f"{stem}_end")
            self.asm.li(counter, 0)
            self.asm.label(start)
            self.asm.emit(RvOpcode.BGE, rs1=counter, rs2=bound, label=end)
            opened.append((counter, start, end))
            dim = int(stem[-1])
            if stem.startswith("wg"):
                self._op("MUL", self._wgbase_regs[dim], self._wg_regs[dim], self._ws_regs[dim])
            else:
                self._op("ADD", self._gid_regs[dim], self._wgbase_regs[dim], self._lid_regs[dim])
        self._gen_statements(self.kernel.body)
        for counter, start, end in reversed(opened):
            self.asm.emit(RvOpcode.ADDI, rd=counter, rs1=counter, imm=1)
            self.asm.j(start)
            self.asm.label(end)

    def _allocate_variables(self) -> None:
        for param in self.kernel.params:
            self._var_regs[param.name] = self._reserve()
        for name, symbol in self.kernel.symbols.items():
            if not symbol.is_param:
                self._var_regs[name] = self._reserve()

    def _load_parameters(self) -> None:
        for param in self.kernel.params:
            if param.name not in self.param_values:
                raise CompilationError(
                    f"no value provided for kernel parameter {param.name!r}"
                )
            self.asm.li(self._var_regs[param.name], int(self.param_values[param.name]))
        # __local arrays are backed by zero-initialized data-memory regions;
        # their base addresses behave like ordinary buffer pointers.  One
        # shared instance serves every workgroup of the serialized work-item
        # loop, which is correct for kernels whose work-items write their
        # local slots before reading them (the serialization-safe subset).
        for name, symbol in self.kernel.symbols.items():
            if symbol.is_local_array:
                if name not in self.local_addresses:
                    raise CompilationError(f"no backing store for __local array {name!r}")
                self.asm.li(self._var_regs[name], int(self.local_addresses[name]))

    # ------------------------------------------------------------------ #
    # Work-item builtins and barriers
    # ------------------------------------------------------------------ #
    def _builtin_dim(self, expr: Call) -> int:
        """Literal dimension argument of a work-item builtin, rank-checked."""
        dimension = expr.args[0]
        dim = dimension.value if isinstance(dimension, IntLiteral) else 0
        if dim >= self.ndrange.rank:
            raise CompilationError(
                f"{expr.name} queries dimension {dim} of a rank-{self.ndrange.rank} launch"
            )
        return dim

    def _eval_call(self, expr: Call, preferred: Optional[int]) -> int:
        destination = self._destination(preferred)
        name = expr.name
        if name in ("min", "max"):
            left = self._eval(expr.args[0])
            right = self._eval(expr.args[1])
            # The result is written before the comparison, so it must not
            # clobber an operand (``x = min(x, n)``): use a scratch then.
            result = self._acquire() if destination in (left, right) else destination
            skip = self.asm.unique_label("minmax")
            self.asm.mv(result, right)
            branch = RvOpcode.BGE if name == "min" else RvOpcode.BLT
            self.asm.emit(branch, rs1=left, rs2=right, label=skip)
            self.asm.mv(result, left)
            self.asm.label(skip)
            self._release(left)
            self._release(right)
            if result != destination:
                self.asm.mv(destination, result)
                self._release(result)
            return destination
        if name not in _ID_BUILTINS:
            raise CompilationError(f"unknown function {name!r}")
        dim = self._builtin_dim(expr)
        if self.ndrange.rank == 2:
            if name == "get_global_size":
                self.asm.li(destination, self.ndrange.global_shape[dim])
                return destination
            registers = {
                "get_global_id": self._gid_regs,
                "get_local_size": self._ws_regs,
                "get_local_id": self._lid_regs,
                "get_group_id": self._wg_regs,
                "get_num_groups": self._nwg_regs,
            }[name]
            self.asm.mv(destination, registers[dim])
            return destination
        # Rank 1: the loop counter is the global id; the rest derive from it.
        if name == "get_global_id":
            self.asm.mv(destination, self._gid_reg)
        elif name == "get_global_size":
            self.asm.mv(destination, self._gsize_reg)
        elif name == "get_local_size":
            self.asm.mv(destination, self._wgsize_reg)
        elif name == "get_local_id":
            self._op("REMU", destination, self._gid_reg, self._wgsize_reg)
        elif name == "get_group_id":
            self._op("DIVU", destination, self._gid_reg, self._wgsize_reg)
        else:  # get_num_groups
            self._op("DIVU", destination, self._gsize_reg, self._wgsize_reg)
        return destination

    def _gen_barrier(self) -> None:
        pass  # a single in-order core is always synchronized

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _reserve(self) -> int:
        if not self._free:
            raise CompilationError(
                f"kernel {self.kernel.name!r} needs more registers than RV32 provides"
            )
        return self._free.pop(0)

    def _acquire(self) -> int:
        """Take the lowest-numbered free register."""
        register = self._reserve()
        self._temp_regs.add(register)
        return register

    def _release(self, register: Optional[int]) -> None:
        if register is not None and register in self._temp_regs:
            self._temp_regs.discard(register)
            self._free.insert(0, register)

    def _op(self, mnemonic: str, rd: int, rs: int, rt: int) -> None:
        self.asm.emit(RvOpcode[mnemonic], rd=rd, rs1=rs, rs2=rt)

    def _op_imm(self, mnemonic: str, rd: int, rs: int, imm: int) -> None:
        self.asm.emit(RvOpcode[mnemonic], rd=rd, rs1=rs, imm=imm)

    def _move(self, rd: int, rs: int) -> None:
        self.asm.mv(rd, rs)

    def _load_constant(self, rd: int, value: int) -> None:
        self.asm.li(rd, value)

    def _set_if_zero(self, rd: int, rs: int) -> None:
        self.asm.emit(RvOpcode.SLTIU, rd=rd, rs1=rs, imm=1)

    def _fits_immediate(self, op: str, value: int) -> bool:
        """12-bit signed immediates, shift counts 0-31, and no ``MULI``."""
        if op in ("<<", ">>"):
            return 0 <= value < 32
        if op == "-":
            return _fits_i12(-value)
        return op != "*" and _fits_i12(value)

    def _jump(self, label: str) -> None:
        self.asm.j(label)

    def _branch_if_zero(self, register: int, label: str) -> None:
        self.asm.emit(RvOpcode.BEQ, rs1=register, rs2=ZERO, label=label)

    def _load(self, rd: int, address: int, element: Index) -> None:
        self.asm.emit(RvOpcode.LW, rd=rd, rs1=address, imm=0)

    def _store(self, address: int, value: int, element: Index) -> None:
        self.asm.emit(RvOpcode.SW, rs1=address, rs2=value, imm=0)

    def _add_base(self, address: int, name: str) -> None:
        """Buffers and ``__local`` arrays alike add their base-address register."""
        self._op("ADD", address, address, self._var_register(name))


def generate_riscv_case(
    kernel: KernelDecl,
    workload: GpuWorkload,
    name: Optional[str] = None,
    memory_bytes: int = 32 * 1024,
) -> RiscvCase:
    """Compile a kernel for the RISC-V baseline and bind it to a workload.

    The workload's buffers are laid out in the 32 kB tightly-coupled memory,
    buffer parameters receive the resulting base addresses, scalar parameters
    receive the workload's scalar values, and the NDRange becomes the
    work-item loop bounds.
    """
    memory, addresses = load_workload_into_memory(workload, memory_bytes)
    values: Dict[str, int] = {}
    for param in kernel.params:
        if param.is_pointer:
            if param.name not in addresses:
                raise CompilationError(f"workload provides no buffer for parameter {param.name!r}")
            values[param.name] = addresses[param.name]
        else:
            if param.name not in workload.scalars:
                raise CompilationError(f"workload provides no value for parameter {param.name!r}")
            values[param.name] = int(workload.scalars[param.name])
    local_addresses: Dict[str, int] = {}
    for symbol_name, symbol in kernel.symbols.items():
        if symbol.is_local_array:
            local_addresses[symbol_name] = memory.allocate(symbol.array_words)
    generator = RiscvCodeGenerator(
        kernel, values, workload.ndrange, name=name, local_addresses=local_addresses
    )
    program = generator.generate()
    return RiscvCase(program.name, program, memory, addresses, workload.expected)

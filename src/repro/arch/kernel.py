"""OpenCL-flavoured kernel abstractions and a structured program builder.

The FGPU is programmed with OpenCL kernels compiled by an LLVM back end; the
host only uses standard OpenCL-API calls (set kernel arguments, define an
NDRange, enqueue).  This module reproduces the same programming model:

* :class:`KernelArg` / :class:`NDRange` / :class:`Kernel` describe what the
  host passes through the AXI control interface and the runtime memory.
* :class:`KernelBuilder` is the stand-in for the compiler back end: a
  structured assembler with register allocation, wide-constant
  materialization, uniform counted loops, and divergence-safe ``if``/``while``
  constructs built on the execution-mask instructions.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.arch.assembler import (
    Assembler,
    Program,
    fits_in_immediate,
    split_constant,
)
from repro.arch.isa import NUM_REGISTERS, Opcode
from repro.errors import KernelError


@dataclass(frozen=True)
class KernelArg:
    """One kernel argument as seen by the host API.

    ``kind`` is ``"buffer"`` for global-memory pointers and ``"scalar"`` for
    by-value integers.  Arguments are written to the runtime memory (RTM) in
    declaration order, which is the index the ``LP`` instruction uses.
    """

    name: str
    kind: str = "buffer"

    def __post_init__(self) -> None:
        if self.kind not in ("buffer", "scalar"):
            raise KernelError(f"argument kind must be 'buffer' or 'scalar', got {self.kind!r}")


MAX_NDRANGE_RANK = 2


def _as_shape(value, what: str) -> Tuple[int, ...]:
    """Normalize an int-or-tuple launch size into a shape tuple of rank 1 or 2."""
    if isinstance(value, (tuple, list)):
        shape = tuple(int(extent) for extent in value)
    else:
        shape = (int(value),)
    if not 1 <= len(shape) <= MAX_NDRANGE_RANK:
        raise KernelError(
            f"NDRange {what} must have rank 1..{MAX_NDRANGE_RANK}, got rank {len(shape)}"
        )
    if any(extent <= 0 for extent in shape):
        raise KernelError(f"NDRange sizes must be positive, got {what} {shape}")
    return shape


class NDRange:
    """Launch geometry of a kernel, rank 1 or rank 2.

    Sizes may be given as plain ints (rank 1, as in all the paper's
    benchmarks) or as tuples of per-dimension extents (rank 2 for the dense
    workloads).  Dimension 0 is the fastest-varying one, exactly as in
    OpenCL's row-major work-item enumeration; workgroups are linearized
    row-major into flat workgroup ids before the dispatcher deals them
    round-robin across the CUs.

    This is the one object that parses and checks a launch's shape: the
    dispatcher and its wavefronts, the RISC-V back end and the race oracle
    all take it.  ``global_size``/``workgroup_size``/``num_workgroups`` are
    *flat* totals (dispatcher capacity checks, LRAM slot geometry, stats,
    digests); the per-dimension extents live in ``global_shape``/
    ``workgroup_shape``/``groups_shape``.
    """

    __slots__ = ("global_shape", "workgroup_shape")

    def __init__(self, global_size, workgroup_size=64) -> None:
        global_shape = _as_shape(global_size, "global size")
        workgroup_shape = _as_shape(workgroup_size, "workgroup size")
        if len(global_shape) != len(workgroup_shape):
            raise KernelError(
                f"global size {global_shape} (rank {len(global_shape)}) and workgroup "
                f"size {workgroup_shape} (rank {len(workgroup_shape)}) must have the "
                f"same rank"
            )
        for dim, (extent, local) in enumerate(zip(global_shape, workgroup_shape)):
            if extent % local != 0:
                raise KernelError(
                    f"global size {extent} must be a multiple of the workgroup size "
                    f"{local} in dimension {dim} "
                    f"(global {global_shape} vs workgroup {workgroup_shape})"
                )
        self.global_shape = global_shape
        self.workgroup_shape = workgroup_shape

    @property
    def rank(self) -> int:
        """Number of launch dimensions (1 or 2)."""
        return len(self.global_shape)

    @property
    def global_size(self) -> int:
        """Flat total number of work-items (product over the dimensions)."""
        total = 1
        for extent in self.global_shape:
            total *= extent
        return total

    @property
    def workgroup_size(self) -> int:
        """Flat number of work-items per workgroup."""
        total = 1
        for extent in self.workgroup_shape:
            total *= extent
        return total

    @property
    def groups_shape(self) -> Tuple[int, ...]:
        """Per-dimension workgroup-grid extents."""
        return tuple(
            extent // local
            for extent, local in zip(self.global_shape, self.workgroup_shape)
        )

    @property
    def num_workgroups(self) -> int:
        """Number of workgroups the dispatcher will distribute across the CUs."""
        return self.global_size // self.workgroup_size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NDRange):
            return NotImplemented
        return (
            self.global_shape == other.global_shape
            and self.workgroup_shape == other.workgroup_shape
        )

    def __hash__(self) -> int:
        return hash((self.global_shape, self.workgroup_shape))

    def __repr__(self) -> str:
        if self.rank == 1:
            return f"NDRange({self.global_shape[0]}, {self.workgroup_shape[0]})"
        return f"NDRange({self.global_shape}, {self.workgroup_shape})"


@dataclass(frozen=True)
class Kernel:
    """A compiled kernel: program text plus its argument signature.

    ``local_words`` is the kernel's per-workgroup local-memory footprint (the
    sum of its declared ``__local`` arrays, in 32-bit words).  Each resident
    workgroup gets its own LRAM window of that size; the simulator rejects a
    launch whose geometry leaves windows smaller than this footprint.
    """

    name: str
    program: Program
    args: Tuple[KernelArg, ...] = field(default_factory=tuple)
    local_words: int = 0

    @property
    def num_args(self) -> int:
        return len(self.args)

    def check_arg_names(self, args: Mapping[str, object]) -> None:
        """Reject launch arguments whose names differ from the signature."""
        missing = [arg.name for arg in self.args if arg.name not in args]
        if missing:
            raise KernelError(f"kernel {self.name!r} is missing argument(s) {missing}")
        unknown = sorted(set(args).difference(arg.name for arg in self.args))
        if unknown:
            raise KernelError(f"kernel {self.name!r} has no argument(s) {unknown}")


class KernelBuilder:
    """Structured builder for SIMT kernel programs.

    The builder owns an :class:`~repro.arch.assembler.Assembler`, a simple
    linear register allocator (``r0`` is the constant zero), and helpers that
    emit the canonical code sequences the FGPU compiler would produce:

    * ``load_constant`` materializes arbitrary 32-bit constants,
    * ``load_arg`` reads a kernel argument from the runtime memory,
    * ``global_id`` computes the flattened global work-item index,
    * ``uniform_loop`` emits a counted loop whose trip count is identical for
      all lanes (no divergence, plain branch),
    * ``lane_if`` / ``lane_if_else`` and ``divergent_while`` emit
      execution-mask-based control flow for per-lane conditions.
    """

    ZERO = 0

    def __init__(self, name: str, args: Sequence[KernelArg] = ()) -> None:
        self.name = name
        self.args: Tuple[KernelArg, ...] = tuple(args)
        self.asm = Assembler(name)
        self._next_register = 1
        self._named: Dict[str, int] = {}
        self._local_offsets: Dict[str, int] = {}
        self.local_words = 0

    # ------------------------------------------------------------------ #
    # Register allocation
    # ------------------------------------------------------------------ #
    def alloc(self, name: str) -> int:
        """Allocate a fresh register and remember it under ``name``."""
        if name in self._named:
            raise KernelError(f"register name {name!r} already allocated in {self.name}")
        if self._next_register >= NUM_REGISTERS:
            raise KernelError(
                f"kernel {self.name!r} ran out of registers ({NUM_REGISTERS - 1} available)"
            )
        index = self._next_register
        self._next_register += 1
        self._named[name] = index
        return index

    def reg(self, name: str) -> int:
        """Look up a previously allocated named register."""
        try:
            return self._named[name]
        except KeyError as exc:
            raise KernelError(f"unknown register name {name!r} in {self.name}") from exc

    @contextlib.contextmanager
    def temporaries(self, count: int) -> Iterator[List[int]]:
        """Allocate ``count`` scratch registers, released when the block exits."""
        if self._next_register + count > NUM_REGISTERS:
            raise KernelError(f"kernel {self.name!r} ran out of registers for temporaries")
        start = self._next_register
        self._next_register += count
        try:
            yield list(range(start, start + count))
        finally:
            self._next_register = start

    # ------------------------------------------------------------------ #
    # Raw emission and common idioms
    # ------------------------------------------------------------------ #
    def emit(self, opcode: Opcode, **operands) -> None:
        """Emit one raw instruction."""
        self.asm.emit(opcode, **operands)

    def label(self, name: Optional[str] = None) -> str:
        """Place a label at the current address."""
        return self.asm.label(name)

    def load_constant(self, rd: int, value: int) -> None:
        """Materialize an arbitrary 32-bit constant into ``rd``."""
        value &= 0xFFFFFFFF
        signed = value - (1 << 32) if value & 0x80000000 else value
        if fits_in_immediate(signed):
            self.emit(Opcode.LI, rd=rd, imm=signed)
            return
        if value < (1 << 28):
            upper, lower = split_constant(value)
            self.emit(Opcode.LUI, rd=rd, imm=upper)
            if lower:
                self.emit(Opcode.ORI, rd=rd, rs=rd, imm=lower)
            return
        # General case: build the value 14 bits at a time.
        self.emit(Opcode.LI, rd=rd, imm=(value >> 28) & 0x3FFF)
        self.emit(Opcode.SLLI, rd=rd, rs=rd, imm=14)
        self.emit(Opcode.ORI, rd=rd, rs=rd, imm=(value >> 14) & 0x3FFF)
        self.emit(Opcode.SLLI, rd=rd, rs=rd, imm=14)
        self.emit(Opcode.ORI, rd=rd, rs=rd, imm=value & 0x3FFF)

    def load_arg(self, rd: int, arg_name: str) -> None:
        """Load a kernel argument (RTM slot) into ``rd``."""
        index = None
        for slot, arg in enumerate(self.args):
            if arg.name == arg_name:
                index = slot
                break
        if index is None:
            raise KernelError(f"kernel {self.name!r} has no argument {arg_name!r}")
        self.emit(Opcode.LP, rd=rd, imm=index)

    def global_id(self, rd: int, dim: int = 0) -> None:
        """Store the global work-item index along ``dim`` into ``rd``.

        For rank-1 launches dimension 0 is the flattened global index; for
        rank-2 launches each dimension is indexed separately (row-major,
        dimension 0 fastest).
        """
        self.emit(Opcode.GID, rd=rd, imm=dim)

    def local_id(self, rd: int, dim: int = 0) -> None:
        """Store the local work-item index along ``dim`` into ``rd``."""
        self.emit(Opcode.LID, rd=rd, imm=dim)

    def workgroup_id(self, rd: int, dim: int = 0) -> None:
        """Store the workgroup index along ``dim`` into ``rd``."""
        self.emit(Opcode.WGID, rd=rd, imm=dim)

    def declare_local(self, name: str, num_words: int) -> int:
        """Reserve a ``__local`` array of ``num_words`` and return its byte offset.

        Offsets are assigned sequentially inside the workgroup's LRAM window;
        the total footprint is recorded on the built :class:`Kernel` so the
        simulator can check it against the launch geometry.
        """
        if num_words <= 0:
            raise KernelError(f"local array {name!r} must have a positive size")
        if name in self._local_offsets:
            raise KernelError(f"local array {name!r} already declared in {self.name}")
        offset_bytes = self.local_words * 4
        self._local_offsets[name] = offset_bytes
        self.local_words += num_words
        return offset_bytes

    def local_offset(self, name: str) -> int:
        """Byte offset of a previously declared ``__local`` array."""
        try:
            return self._local_offsets[name]
        except KeyError as exc:
            raise KernelError(f"unknown local array {name!r} in {self.name}") from exc

    def address_of_element(self, rd: int, base: int, index: int) -> None:
        """Compute the byte address of 32-bit element ``index`` of buffer ``base``."""
        self.emit(Opcode.SLLI, rd=rd, rs=index, imm=2)
        self.emit(Opcode.ADD, rd=rd, rs=rd, rt=base)

    # ------------------------------------------------------------------ #
    # Control flow
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def uniform_loop(self, counter: int, bound: int, step: int = 1) -> Iterator[None]:
        """Counted loop with a wavefront-uniform trip count.

        ``counter`` must already be initialized; the loop runs while
        ``counter < bound`` and increments it by ``step`` at the bottom.
        """
        start = self.asm.unique_label("loop")
        end = self.asm.unique_label("loop_end")
        self.label(start)
        self.emit(Opcode.BGE, rs=counter, rt=bound, label=end)
        yield
        self.emit(Opcode.ADDI, rd=counter, rs=counter, imm=step)
        self.emit(Opcode.JMP, label=start)
        self.label(end)

    @contextlib.contextmanager
    def lane_if(self, condition: int) -> Iterator[None]:
        """Execute the body only for lanes where ``condition`` is non-zero."""
        self.emit(Opcode.PUSHM)
        self.emit(Opcode.CMASK, rs=condition)
        skip = self.asm.unique_label("if_end")
        self.emit(Opcode.BEMPTY, label=skip)
        yield
        self.label(skip)
        self.emit(Opcode.POPM)

    @contextlib.contextmanager
    def lane_if_else(self, condition: int) -> Iterator[object]:
        """``if``/``else`` on a per-lane condition.

        Yields an object with an ``otherwise()`` context manager marking the
        start of the else branch::

            with kb.lane_if_else(cond) as branch:
                ...              # then body
                with branch.otherwise():
                    ...          # else body
        """
        builder = self

        class _Branch:
            @contextlib.contextmanager
            def otherwise(self) -> Iterator[None]:
                builder.emit(Opcode.INVM)
                yield

        self.emit(Opcode.PUSHM)
        self.emit(Opcode.CMASK, rs=condition)
        yield _Branch()
        self.emit(Opcode.POPM)

    @contextlib.contextmanager
    def divergent_while(self) -> Iterator["DivergentLoop"]:
        """Loop whose lanes may exit at different iterations.

        The body must call :meth:`DivergentLoop.check` exactly once with a
        register holding the per-lane continue condition; lanes whose
        condition is zero are masked off until the loop finishes.
        """
        loop = DivergentLoop(self)
        self.emit(Opcode.PUSHM)
        self.label(loop.start_label)
        yield loop
        if not loop.checked:
            raise KernelError("divergent_while body never called check()")
        self.emit(Opcode.JMP, label=loop.start_label)
        self.label(loop.end_label)
        self.emit(Opcode.POPM)

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #
    def ret(self) -> None:
        """Terminate the kernel for the active wavefront."""
        self.emit(Opcode.RET)

    def build(self) -> Kernel:
        """Assemble and return the finished kernel."""
        program = self.asm.assemble()
        if not program.instructions or program.instructions[-1].opcode is not Opcode.RET:
            raise KernelError(f"kernel {self.name!r} does not end with RET")
        return Kernel(self.name, program, self.args, local_words=self.local_words)


class DivergentLoop:
    """Handle yielded by :meth:`KernelBuilder.divergent_while`."""

    def __init__(self, builder: KernelBuilder) -> None:
        self._builder = builder
        self.start_label = builder.asm.unique_label("dloop")
        self.end_label = builder.asm.unique_label("dloop_end")
        self.checked = False

    def check(self, condition: int) -> None:
        """Mask off lanes whose ``condition`` register is zero; exit when none remain."""
        if self.checked:
            raise KernelError("divergent_while check() may only be called once per body")
        self.checked = True
        self._builder.emit(Opcode.CMASK, rs=condition)
        self._builder.emit(Opcode.BEMPTY, label=self.end_label)
